"""Synthetic instances, holdout risk, and the bound-coverage experiment.

The generator hides a linear pushforward metric: features are drawn
uniformly in a ball, targets are D_ij = ||W_true (x_i - x_j)|| plus optional
symmetric noise clamped at zero.  The hidden map depends only on the
structural fields of the spec (not on the sampling seed), so specs that
differ only in seed describe fresh samples from one fixed law; that is what
lets a holdout draw estimate the generalization error of a model trained on
another seed.  noise_sigma = 0 gives a realizable instance, noise_sigma > 0
a misspecified one with irreducible risk.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .bounds import _check_delta, certify
from .core import (
    DistanceMatrix,
    SampleMatrix,
    ValidationError,
    empirical_risk,
    pairwise_distances,
)
from .hypotheses import KernelClass, KernelMap, LinearClass, LinearMap, embedding_distance_matrix
from .optimizer import TrainConfig, train

__all__ = [
    "SyntheticSpec",
    "TrialResult",
    "ExperimentReport",
    "hidden_map",
    "generate_synthetic",
    "holdout_risk",
    "run_coverage_experiment",
    "write_trials_csv",
]

# Distinct stream tags keep the hidden-map draw and the sample draw
# independent of each other.
_MAP_STREAM = 158995
_SAMPLE_STREAM = 158996


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic data law plus the sampling seed."""

    m: int
    n_features: int
    k_true: int
    radius: float
    map_norm: float
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError("m must be >= 2")
        if self.n_features < 1 or self.k_true < 1:
            raise ValidationError("n_features and k_true must be >= 1")
        if not 0.0 < self.radius < np.inf:
            raise ValidationError("radius must be positive and finite")
        if not 0.0 < self.map_norm < np.inf:
            raise ValidationError("map_norm must be positive and finite")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValidationError("noise_sigma must be finite and nonnegative")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class TrialResult:
    """One train/certify/holdout trial of the coverage experiment."""

    index: int
    train_risk: float
    holdout_risk: float
    gap: float
    certificate_slack: float
    covered: bool
    converged: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ExperimentReport:
    """Coverage statistics over repeated bound-verification trials."""

    n_trials: int
    coverage_rate: float
    delta: float
    mean_gap: float
    mean_slack: float
    trials: tuple[TrialResult, ...]

    @property
    def passed(self) -> bool:
        return self.coverage_rate >= 1.0 - self.delta

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "passed": self.passed}


def _check_trials(n_trials: int) -> None:
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")


def _check_holdout(n_holdout: int) -> None:
    if n_holdout < 2:
        raise ValidationError("n_holdout must be >= 2")


def hidden_map(spec: SyntheticSpec) -> np.ndarray:
    """The k_true x n_features ground-truth map with spectral norm map_norm.

    Drawn from a stream keyed by the structural fields only, so every seed
    of the same spec shares one map.
    """
    rng = np.random.default_rng([_MAP_STREAM, spec.n_features, spec.k_true])
    w = rng.standard_normal((spec.k_true, spec.n_features))
    return w * (spec.map_norm / np.linalg.norm(w, 2))


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[SampleMatrix, DistanceMatrix, np.ndarray]:
    """Draw (sample, targets, hidden map) for one spec.

    Features are uniform in the radius ball; targets are pushforward
    distances under the hidden map plus, when noise_sigma > 0, symmetric
    Gaussian noise clamped so distances stay nonnegative with a zero
    diagonal.
    """
    w_true = hidden_map(spec)
    rng = np.random.default_rng([_SAMPLE_STREAM, spec.seed])

    direction = rng.standard_normal((spec.m, spec.n_features))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radii = spec.radius * rng.random(spec.m) ** (1.0 / spec.n_features)
    x = direction * radii[:, None]

    with np.errstate(over="ignore"):
        # an overflow leaves a non-finite entry, which the containers reject
        d = pairwise_distances(x @ w_true.T)
    if spec.noise_sigma > 0.0:
        # one m x m draw whose strict upper triangle is the noise, mirrored
        noise = rng.standard_normal((spec.m, spec.m))
        noise *= spec.noise_sigma
        for i in range(spec.m):
            noise[i, : i + 1] = 0.0
        d += noise
        d += noise.T
        np.maximum(d, 0.0, out=d)
        np.fill_diagonal(d, 0.0)
    return SampleMatrix(x), DistanceMatrix(d), w_true


def holdout_risk(
    model: LinearMap | KernelMap,
    spec: SyntheticSpec,
    n_holdout: int,
) -> float:
    """Plug-in estimate of the generalization error on a fresh draw.

    ``spec`` should match the training spec except for an independent seed;
    n_holdout fresh points with fresh noise are drawn from the same law.
    """
    _check_holdout(n_holdout)
    sample, distances, _ = generate_synthetic(dataclasses.replace(spec, m=n_holdout))
    return empirical_risk(embedding_distance_matrix(model, sample), distances)


def run_coverage_experiment(
    spec: SyntheticSpec,
    hypothesis_class: LinearClass | KernelClass,
    config: TrainConfig,
    delta: float,
    n_trials: int,
    n_holdout: int | None = None,
) -> ExperimentReport:
    """Repeatedly train, certify, and check gap <= slack on fresh data.

    Trial t reseeds the spec with seed + t; its holdout draw uses
    seed + n_trials + t, disjoint from every training seed.  Non-convergent
    trials are flagged in their TrialResult and still counted.  The
    experiment passes when the observed coverage rate is at least 1 - delta.
    """
    _check_trials(n_trials)
    _check_delta(delta)
    if n_holdout is None:
        n_holdout = 10 * spec.m

    trials = []
    for t in range(n_trials):
        trial_spec = dataclasses.replace(spec, seed=spec.seed + t)
        sample, distances, _ = generate_synthetic(trial_spec)
        model, report = train(sample, distances, hypothesis_class, config)
        cert = certify(model, sample, distances, delta)
        fresh_spec = dataclasses.replace(trial_spec, seed=spec.seed + n_trials + t)
        fresh_risk = holdout_risk(model, fresh_spec, n_holdout)
        gap = fresh_risk - cert.empirical_risk
        trials.append(
            TrialResult(
                index=t,
                train_risk=cert.empirical_risk,
                holdout_risk=fresh_risk,
                gap=gap,
                certificate_slack=cert.slack,
                covered=gap <= cert.slack,
                converged=report.converged,
            )
        )

    n_covered = sum(t.covered for t in trials)
    return ExperimentReport(
        n_trials=n_trials,
        coverage_rate=n_covered / n_trials,
        delta=delta,
        mean_gap=float(np.mean([t.gap for t in trials])),
        mean_slack=float(np.mean([t.certificate_slack for t in trials])),
        trials=tuple(trials),
    )


def write_trials_csv(path, report: ExperimentReport) -> None:
    """Per-trial CSV: trial,train_risk,holdout_risk,gap,slack,covered."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,train_risk,holdout_risk,gap,slack,covered\n")
        for t in report.trials:
            fh.write(
                f"{t.index},{t.train_risk!r},{t.holdout_risk!r},"
                f"{t.gap!r},{t.certificate_slack!r},{int(t.covered)}\n"
            )
