"""Synthetic instances, holdout risk, and the bound-coverage experiment.

The generator hides a linear pushforward metric: features are drawn
uniformly in a ball, targets are D_ij = ||W_true (x_i - x_j)|| plus optional
symmetric noise clamped at zero.  The hidden map depends only on the
structural fields of the spec (not on the sampling seed), so specs that
differ only in seed describe fresh samples from one fixed law; that is what
lets a holdout draw estimate the generalization error of a model trained on
another seed.  noise_sigma = 0 gives a realizable instance, noise_sigma > 0
a misspecified one with irreducible risk.

One generator, _target_rows, draws the targets of the law: it walks the
row blocks of core._row_blocks and yields each block's upper rows, the
direct-form distances with their noise, which is filled block by block
into one reused buffer and reproduces a single (m, m) standard-normal draw
bit for bit.  generate_synthetic writes the blocks into the target matrix
and mirrors them below the diagonal; holdout_risk feeds them to
core.streamed_risk, the reduction behind every reported risk, so a holdout
of any size never holds an n x n matrix.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_delta, certify
from .core import (
    DistanceMatrix,
    SampleMatrix,
    ValidationError,
    _adopt_distances,
    _as_matrix,
    _check_memory,
    _direct_rows,
    _finite,
    _row_blocks,
    _written_into_place,
)
from .hypotheses import KernelClass, KernelMap, LinearClass, LinearMap, embedded_risk
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
    """One train/certify/holdout trial of the coverage experiment;
    converged, iterations_used and stop_reason come from its TrainReport."""

    index: int
    train_risk: float
    holdout_risk: float
    gap: float
    certificate_slack: float
    covered: bool
    converged: bool
    iterations_used: int
    stop_reason: str

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


def _draw(spec: SyntheticSpec):
    """(x, w_true, targets): features uniform in the radius ball, the hidden
    map, and the generator of their targets (_target_rows).  Before any of
    them is drawn, _check_memory counts what they hold at once: two (m x N)
    arrays (the directions with their norms' temporary, then with the
    points), two (k_true x N) (the map's draw and its scaled copy), two
    (m x k_true) (the image and its transpose) and the two (b x m) planes of
    _target_rows, b the rows of the first row block; so a sample too large
    for memory raises ValidationError, as do points whose image under the
    hidden map is not finite."""
    m, n, k = spec.m, spec.n_features, spec.k_true
    rows = next(_row_blocks(m))[1]
    _check_memory(m, 2 * (m * n + k * n + m * k + rows * m) / (m * m), "the synthetic sample")
    w_true = hidden_map(spec)
    rng = np.random.default_rng([_SAMPLE_STREAM, spec.seed])

    direction = rng.standard_normal((spec.m, spec.n_features))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radii = spec.radius * rng.random(spec.m) ** (1.0 / spec.n_features)
    x = direction * radii[:, None]
    with np.errstate(over="ignore"):
        z = _as_matrix(x @ w_true.T, "point matrix", _finite)
    return x, w_true, _target_rows(z, rng, spec.noise_sigma)


def _target_rows(z: np.ndarray, rng: np.random.Generator, sigma: float):
    """The targets of the points with image z, as the blocks streamed_risk
    reads: for each block (start, stop) of _row_blocks(n), in order, rows
    start:stop on columns start:n, noise included.

    A target is the direct-form distance ||z_i - z_j|| plus, when sigma > 0,
    sigma times the entry (min(i, j), max(i, j)) of one (n, n) standard
    normal draw, clamped at zero; the diagonal is exactly zero.  The draw's
    rows are filled block after block into one reused (b x n) buffer, which
    gives the single draw bit for bit.  Each yielded block is a view of a
    reused buffer, valid until the next block is asked for.  An overflowing
    distance is left infinite, for the caller to reject.
    """
    n = z.shape[0]
    cols = np.ascontiguousarray(z.T)
    rows = next(_row_blocks(n))[1]
    buf, plane = np.empty((rows, n)), np.empty((rows, n))
    # True on and below the diagonal of the tallest diagonal sub-block
    lower = np.tri(rows, dtype=bool)
    for start, stop in _row_blocks(n):
        b, width = stop - start, n - start
        with np.errstate(over="ignore"):
            target = _direct_rows(cols, start, stop, start, buf[:b, :width], plane[:b, :width])
        if sigma > 0.0:
            # the plane is free again: it takes the rows of the noise draw
            upper = rng.standard_normal(out=plane[:b])[:, start:]
            upper *= sigma
            np.copyto(upper[:, :b], 0.0, where=lower[:b, :b])
            target += upper
            target[:, :b] += upper[:, :b].T
            np.maximum(target, 0.0, out=target)
        yield target


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[SampleMatrix, DistanceMatrix, np.ndarray]:
    """Draw (sample, targets, hidden map) for one spec.

    Features are uniform in the radius ball; targets are pushforward
    distances under the hidden map plus, when noise_sigma > 0, symmetric
    Gaussian noise clamped so distances stay nonnegative with a zero
    diagonal.  Each block of _target_rows is written into its rows, and its
    part right of the diagonal sub-block, transposed, into the columns below
    it, so no m x m noise matrix is formed; the one m x m target matrix is
    handed to the DistanceMatrix, which keeps it.
    """
    # the target matrix, which DistanceMatrix keeps without a copy
    _check_memory(spec.m, 1, "the synthetic target matrix")
    x, w_true, targets = _draw(spec)
    d = np.empty((spec.m, spec.m))
    for (start, stop), target in zip(_row_blocks(spec.m), targets, strict=True):
        d[start:stop, start:] = target
        d[stop:, start:stop] = target[:, stop - start :].T
    # the targets are checked first, so an overflow is named as a non-finite
    # distance before the sample is found too large
    distances = _adopt_distances(d)
    return SampleMatrix(x), distances, w_true


def holdout_risk(
    model: LinearMap | KernelMap,
    spec: SyntheticSpec,
    n_holdout: int,
) -> float:
    """Plug-in estimate of the generalization error on a fresh draw.

    ``spec`` should match the training spec except for an independent seed;
    n_holdout fresh points with fresh noise are drawn from the same law.
    The risk is the one streamed reduction of every reported risk
    (core.streamed_risk), fed the targets of _target_rows block by block as
    they are drawn, so working memory is O(b n) and no n x n matrix is held.
    Non-finite points, targets or risk raise ValidationError.
    """
    _check_holdout(n_holdout)
    x, _, targets = _draw(dataclasses.replace(spec, m=n_holdout))
    risk = embedded_risk(model, x, targets)
    if not math.isfinite(risk):
        raise ValidationError("holdout risk is not finite: distances overflow")
    return risk


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
                iterations_used=report.iterations_used,
                stop_reason=report.stop_reason,
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
    """Per-trial CSV: trial,train_risk,holdout_risk,gap,slack,covered,
    written into place as core writes every output."""
    with _written_into_place(path) as fh:
        fh.write("trial,train_risk,holdout_risk,gap,slack,covered\n")
        for t in report.trials:
            fh.write(
                f"{t.index},{t.train_risk!r},{t.holdout_risk!r},"
                f"{t.gap!r},{t.certificate_slack!r},{int(t.covered)}\n"
            )
