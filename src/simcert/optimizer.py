"""Stress-loss gradients and the projected (sub)gradient loop.

Two objectives are covered: the plain mean squared distance error over a
norm ball (constrained mode, projection after every step) and the same
risk plus penalty_lambda * model_norm (penalized mode; the penalty is on
the norm itself, not its square).  Distances are optionally smoothed as
d~ = sqrt(d^2 + eps^2) because the gradient factor (d - D)/d is singular
where embedded points coincide; with eps = 0 coincident pairs follow the
zero-subgradient convention.

Everything here speaks to a map only through the protocol of hypotheses
(params, with_params, features, norm_subgradient), so linear and kernel
maps take one code path.  One kernel, stress_state, computes the weighted
stress value and its gradient together; it visits the m x m pairs in
blocks of b rows and contracts the graph Laplacian through the m x k
embedding, so a step costs O(m^2 k + k m N) flops (N the feature width,
N = m for kernel maps) and O(b m) working memory.  One loop,
projected_path, takes the projected steps: train descends on the stress
(sign -1) and the Monte-Carlo estimator in bounds ascends on the
Rademacher-signed stress (sign +1), each calling stress_state once per
visited map.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    _BLOCK_BYTES,
    DistanceMatrix,
    SampleMatrix,
    ValidationError,
    _check_sizes,
    empirical_risk,
)
from .hypotheses import (
    KernelClass,
    KernelMap,
    LinearClass,
    LinearMap,
    embedding_distance_matrix,
    gram_form_squared_distances,
    model_norm,
    project_norm_ball,
)

__all__ = [
    "DIVERGENCE_RISK",
    "TrainConfig",
    "TrainReport",
    "risk_gradient",
    "weighted_stress_gradient",
    "weighted_stress_value",
    "smoothed_risk",
    "norm_subgradient",
    "initialize_model",
    "parameters",
    "replace_parameters",
    "projected_path",
    "train",
]

# Empirical risk beyond this is reported as divergence.
DIVERGENCE_RISK = 1e12


@dataclass(frozen=True)
class TrainConfig:
    """Fixed-step projected-descent settings."""

    step_size: float = 0.25
    max_iters: int = 2000
    grad_tol: float = 1e-9
    penalty_lambda: float = 0.0
    smoothing_eps: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not self.step_size > 0.0:
            raise ValidationError("step_size must be positive")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be nonnegative")
        if not self.grad_tol > 0.0:
            raise ValidationError("grad_tol must be positive")
        if self.penalty_lambda < 0.0:
            raise ValidationError("penalty_lambda must be nonnegative")
        if self.smoothing_eps < 0.0:
            raise ValidationError("smoothing_eps must be nonnegative")


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one training run.

    final_risk is the unsmoothed empirical risk of the returned model,
    computed from the direct-form embedded distances as certify computes
    it.  risk_trace holds the unsmoothed risk of each projected iterate,
    one per descent step taken, from the Gram-form pass that also yields
    the next step's gradient (see stress_state); the two forms agree to
    round-off.  The trace is not guaranteed nonincreasing under a fixed
    step.
    """

    final_risk: float
    iterations_used: int
    final_model_norm: float
    converged: bool
    risk_trace: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def parameters(model: LinearMap | KernelMap) -> np.ndarray:
    """The trainable matrix of a hypothesis (W or A)."""
    return model.params


def replace_parameters(model: LinearMap | KernelMap, param: np.ndarray):
    """Same hypothesis with a new trainable matrix."""
    return model.with_params(param)


def stress_state(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    weights: np.ndarray | None,
    eps: float,
) -> tuple[float, np.ndarray]:
    """Weighted stress value and its eps-smoothed gradient from one pass over the pairs.

    Returns (value, grad) where value = (1/m^2) sum_ij w_ij (dhat_ij - D_ij)^2
    with unsmoothed distances and grad is the gradient in the trainable
    matrix P of the same sum with d~ = sqrt(dhat^2 + eps^2) in place of dhat.
    ``weights=None`` means all ones; otherwise ``weights`` must be symmetric
    (Rademacher sign matrices are).

    With F the m x N feature matrix (X, or the anchor Gram matrix) and
    Y = F P^T the m x k embedding, the graph-Laplacian identity
    sum_ij a_ij (f_i - f_j)(f_i - f_j)^T = 2 F^T L F, L = diag(a 1) - a,
    gives grad = (2/m^2) P F^T L F = (2/m^2) (L Y)^T F for symmetric
    a_ij = 2 w_ij (d~_ij - D_ij) / d~_ij.  Pairs with d~ = 0 (possible only
    when eps = 0) contribute zero.  The pairs are visited in blocks of b
    rows: each block's Gram-form squared distances
    (gram_form_squared_distances), a, rows of L Y and share of the value
    are computed and dropped before the next, so a step costs
    O(m^2 k + k m N) flops and O(b m) working memory, with b sized so that
    a block temporary takes about _BLOCK_BYTES.

    A non-finite gradient raises ValidationError only while the value is
    finite and within DIVERGENCE_RISK in magnitude, so a diverged iterate
    is returned to the caller, which reports it, rather than raising.
    """
    _check_sizes(sample, distances)
    feats = model.features(sample.values)
    m = sample.m
    y = feats @ model.params.T
    lap_y = np.empty_like(y)
    total = 0.0
    rows = max(1, _BLOCK_BYTES // (8 * m))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        target = distances.values[start:stop]
        w = None if weights is None else weights[start:stop]
        sq = gram_form_squared_distances(y, start, stop)
        dt = sq + eps * eps
        np.sqrt(dt, out=dt)

        # sq becomes the weighted squared residual of the unsmoothed distances
        np.sqrt(sq, out=sq)
        sq -= target
        sq *= sq
        if w is not None:
            sq *= w
        total += sq.sum()

        # coef holds a / 2; the factor 2 is exact and joins the final scale
        coef = np.subtract(dt, target, out=sq)
        if w is not None:
            coef *= w
        if eps > 0.0:
            coef /= dt
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                coef /= dt
            coef[dt == 0.0] = 0.0
        lap_y[start:stop] = coef.sum(axis=1)[:, None] * y[start:stop] - coef @ y
    grad = (4.0 / (m * m)) * (lap_y.T @ feats)
    value = float(total) / (m * m)
    if abs(value) <= DIVERGENCE_RISK and not np.all(np.isfinite(grad)):
        raise ValidationError("non-finite gradient")
    return value, grad


def weighted_stress_gradient(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    weights: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Gradient of (1/m^2) sum_ij w_ij (d~_ij - D_ij)^2 in the trainable matrix.

    ``weights`` must be symmetric; see :func:`stress_state`.
    """
    return stress_state(model, sample, distances, weights, eps)[1]


def risk_gradient(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    eps: float,
) -> np.ndarray:
    """Gradient of the eps-smoothed empirical risk."""
    return stress_state(model, sample, distances, None, eps)[1]


def weighted_stress_value(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    weights: np.ndarray,
) -> float:
    """(1/m^2) sum_ij w_ij (dhat_ij - D_ij)^2 with unsmoothed distances."""
    return stress_state(model, sample, distances, weights, 0.0)[0]


def smoothed_risk(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    eps: float,
) -> float:
    """Empirical risk with distances smoothed as sqrt(d^2 + eps^2)."""
    dhat = embedding_distance_matrix(model, sample)
    dt = np.sqrt(dhat * dhat + eps * eps)
    resid = dt - distances.values
    return float(np.mean(resid * resid))


def norm_subgradient(model: LinearMap | KernelMap) -> np.ndarray:
    """A subgradient of the model norm in the trainable matrix.

    Spectral norm: outer product of the leading singular vectors.  RKHS
    norm: A K / norm.  Zero at the zero map, where the norm is non-smooth.
    """
    return model.norm_subgradient()


def initialize_model(
    hypothesis_class: LinearClass | KernelClass,
    sample: SampleMatrix,
    rng: np.random.Generator,
) -> LinearMap | KernelMap:
    """Seeded start: uniform entries in [-0.01, 0.01], projected into the ball.

    For kernel classes the anchor Gram matrix must pass the PSD check.
    """
    zero = hypothesis_class.zero_map(sample)
    return project_norm_ball(zero.with_params(rng.uniform(-0.01, 0.01, size=zero.params.shape)))


def projected_path(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    weights: np.ndarray | None,
    config: TrainConfig,
    sign: float,
    penalty: float,
) -> tuple[LinearMap | KernelMap, list[float], str]:
    """Projected steps P <- proj(P + sign * step_size * g) from ``model``.

    g is the eps-smoothed gradient of the weighted stress (see stress_state)
    plus ``penalty`` times a norm subgradient; sign -1 descends, +1 ascends.
    Each visited map costs one stress_state pass, which gives both its
    unsmoothed value and the next step's gradient.  Returns the last map,
    the values of every visited map (the start first) and why the loop
    stopped: "converged" when |g|_F falls below grad_tol, "diverged" on a
    non-finite step or a value that is non-finite or above DIVERGENCE_RISK,
    "max_iters" after max_iters steps.  The last map always satisfies
    model_norm <= lambda_cap up to round-off when the start does.
    """
    value, grad = stress_state(model, sample, distances, weights, config.smoothing_eps)
    values = [value]
    for _ in range(config.max_iters):
        if penalty > 0.0:
            grad = grad + penalty * norm_subgradient(model)
        if float(np.linalg.norm(grad)) < config.grad_tol:
            return model, values, "converged"
        stepped = model.params + (sign * config.step_size) * grad
        if not np.all(np.isfinite(stepped)):
            return model, values, "diverged"
        model = project_norm_ball(model.with_params(stepped))
        value, grad = stress_state(model, sample, distances, weights, config.smoothing_eps)
        values.append(value)
        if not np.isfinite(value) or value > DIVERGENCE_RISK:
            return model, values, "diverged"
    return model, values, "max_iters"


def train(
    sample: SampleMatrix,
    distances: DistanceMatrix,
    hypothesis_class: LinearClass | KernelClass,
    config: TrainConfig,
) -> tuple[LinearMap | KernelMap, TrainReport]:
    """Projected gradient descent on the (optionally penalized) stress loss.

    One projected_path with sign -1 and penalty penalty_lambda from a seeded
    start.  Divergence (risk above DIVERGENCE_RISK or a non-finite iterate)
    is reported as non-convergence; the last usable model is still returned
    and always satisfies model_norm <= lambda_cap up to round-off.
    final_risk is recomputed once, in direct form.
    """
    _check_sizes(sample, distances)
    model = initialize_model(hypothesis_class, sample, np.random.default_rng(config.seed))
    model, values, reason = projected_path(
        model, sample, distances, None, config, -1.0, config.penalty_lambda
    )
    report = TrainReport(
        final_risk=empirical_risk(embedding_distance_matrix(model, sample), distances),
        iterations_used=len(values) - 1,
        final_model_norm=model_norm(model),
        converged=reason == "converged",
        risk_trace=tuple(values[1:]),
    )
    return model, report
