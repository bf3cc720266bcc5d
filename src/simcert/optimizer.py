"""Stress-loss gradients and the projected (sub)gradient loop.

Two objectives are covered: the plain mean squared distance error over a
norm ball (constrained mode, projection after every step) and the same
risk plus penalty_lambda * model_norm (penalized mode; the penalty is on
the norm itself, not its square).  Distances are optionally smoothed as
d~ = sqrt(d^2 + eps^2) because the gradient factor (d - D)/d is singular
where embedded points coincide; with eps = 0 coincident pairs follow the
zero-subgradient convention, and so does an eps whose square underflows
to zero.

Everything here speaks to a map only through the protocol of hypotheses
(params, with_params, features, project, norm_subgradient), so linear and
kernel maps take one code path.  Every map is made by with_params, so it
passes its constructor's checks, and a kernel map shares the Gram matrix
of the map it came from.  One kernel, stress_state, computes the
weighted stress value and its gradient together from the Gram-form
distances of core (the direct form stays with the reported risks); it
visits each unordered pair once, in the row blocks of core._row_blocks,
each paired only with the columns up to the block's last row, and
contracts the graph Laplacian through the m x k embedding, so a step
costs O(m^2 k + k m N) flops (N the feature width, N = m for kernel
maps), about m(m + b)/2 pair entries and O(b m) working memory.  One
loop, projected_path, runs accelerated projected gradient (FISTA, Beck &
Teboulle 2009, in its single-projection form) with gradient-based
adaptive restart (O'Donoghue & Candes 2015): train descends on the stress
(sign -1) and the Monte-Carlo estimator in bounds ascends on the
Rademacher-signed stress (sign +1), each making one stress pass and at
most one projection per step.  Every map the loop evaluates is a convex
combination of maps in the norm ball, so it is in the ball too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    DistanceMatrix,
    SampleMatrix,
    ValidationError,
    _check_sizes,
    _row_blocks,
    _squared_row_norms,
    gram_form_squared_distances,
)
from .hypotheses import (
    KernelClass,
    KernelMap,
    LinearClass,
    LinearMap,
    embedded_risk,
    embedding_distance_matrix,
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
    "projected_path",
    "train",
]

# Empirical risk beyond this is reported as divergence.
DIVERGENCE_RISK = 1e12


@dataclass(frozen=True)
class TrainConfig:
    """Settings of accelerated projected gradient descent with restart.

    step_size is the base step: the first step, and every step after a
    restart, is a plain projected gradient step of that length.
    """

    step_size: float = 0.25
    max_iters: int = 2000
    grad_tol: float = 1e-9
    penalty_lambda: float = 0.0
    smoothing_eps: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.step_size < np.inf:
            raise ValidationError("step_size must be positive and finite")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be nonnegative")
        if not 0.0 < self.grad_tol < np.inf:
            raise ValidationError("grad_tol must be positive and finite")
        if not 0.0 <= self.penalty_lambda < np.inf:
            raise ValidationError("penalty_lambda must be finite and nonnegative")
        # eps enters the smoothing only as eps^2, which must be finite
        if not (0.0 <= self.smoothing_eps and self.smoothing_eps * self.smoothing_eps < np.inf):
            raise ValidationError("smoothing_eps must be nonnegative with a finite square")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one training run.

    Training is accelerated projected gradient descent with gradient-based
    restart (see projected_path).  final_risk is the unsmoothed empirical
    risk of the returned model, summed from the direct-form embedded
    distances by core.streamed_risk, the one reduction behind every
    reported risk, so it is certify's R_hat of the same model bit for bit.  risk_trace holds the unsmoothed risk
    of each map the descent evaluated, one per step taken, from the
    Gram-form pass that also yields that map's gradient (see stress_state);
    the returned model is the last of them, and the two forms agree to
    round-off.  The trace is not monotone: momentum can raise the risk
    until a restart.
    """

    final_risk: float
    iterations_used: int
    final_model_norm: float
    converged: bool
    risk_trace: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self)


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
    ``weights=None`` means all ones.  Since both distances are symmetric,
    only the symmetric part (w + w^T) / 2 of the weights enters the sum and
    its gradient; it is taken once, and is w itself for symmetric w
    (Rademacher sign matrices are), so any m x m weights give the full sum.

    With F the m x N feature matrix (X, or the anchor Gram matrix) and
    Y = F P^T the m x k embedding, the graph-Laplacian identity
    sum_ij a_ij (f_i - f_j)(f_i - f_j)^T = 2 F^T L F, L = diag(a 1) - a,
    gives grad = (2/m^2) P F^T L F = (2/m^2) (L Y)^T F for symmetric
    a_ij = 2 w_ij (d~_ij - D_ij) / d~_ij.  Pairs with d~ = 0 (possible only
    when eps = 0) contribute zero.  The pairs are visited in blocks of b
    rows, and since the targets, the symmetrized weights and both distances
    are symmetric each unordered pair is visited once: rows [s, e) pair only
    with columns [0, e).  The diagonal sub-block [s, e) x [s, e) counts
    once, the rest twice, and its coefficients feed L Y twice, on rows
    [s, e) and, transposed, on rows [0, s).  Each block's Gram-form squared
    distances (gram_form_squared_distances), a, share of L Y and share of
    the value are computed and dropped before the next, so a step costs
    about m(m + b)/2 pair entries, O(m^2 k + k m N) flops and O(b m)
    working memory, with b from core._row_blocks.  With m <= b there is
    one block, the whole m x m matrix.

    A non-finite gradient raises ValidationError only while the value is
    finite and within DIVERGENCE_RISK in magnitude, so a diverged iterate
    is returned to the caller, which reports it, rather than raising.
    """
    _check_sizes(sample, distances)
    return _stress_pass(
        model.features(sample.values),
        model.params,
        distances.values,
        _symmetric_part(weights),
        eps,
    )


def _symmetric_part(weights: np.ndarray | None) -> np.ndarray | None:
    """(w + w^T) / 2, the part of the weights the stress depends on; a
    symmetric w is returned as it is, without an m x m copy."""
    if weights is None:
        return None
    w = np.asarray(weights, dtype=float)
    if np.array_equal(w, w.T):
        return w
    return 0.5 * (w + w.T)


# a diverging iterate overflows in the pass; its value reports it (see stress_state)
@np.errstate(all="ignore")
def _stress_pass(
    feats: np.ndarray,
    params: np.ndarray,
    target_values: np.ndarray,
    weights: np.ndarray | None,
    eps: float,
) -> tuple[float, np.ndarray]:
    """stress_state for the map with trainable matrix ``params`` on features
    ``feats``, which a caller visiting many maps computes once; ``weights``
    must be symmetric (see _symmetric_part)."""
    m = feats.shape[0]
    y = feats @ params.T
    norms = _squared_row_norms(y)
    lap_y = np.empty_like(y)
    total = 0.0
    for start, stop in _row_blocks(m):
        # the block pairs rows start:stop with columns 0:stop; columns
        # 0:start hold pairs (i, j), j < i, that stand for (j, i) as well
        target = target_values[start:stop, :stop]
        w = None if weights is None else weights[start:stop, :stop]
        sq = gram_form_squared_distances(y[:stop], start, stop, norms[:stop])
        dt = sq + eps * eps
        np.sqrt(dt, out=dt)

        # sq becomes the weighted squared residual of the unsmoothed distances
        np.sqrt(sq, out=sq)
        sq -= target
        sq *= sq
        if w is not None:
            sq *= w
        total += sq.sum()
        if start > 0:
            total += sq[:, :start].sum()

        # coef holds a / 2; the factor 2 is exact and joins the final scale
        coef = np.subtract(dt, target, out=sq)
        if w is not None:
            coef *= w
        coef /= dt
        # an eps whose square underflows to 0 smooths nothing, as eps = 0
        if eps * eps == 0.0:
            coef[dt == 0.0] = 0.0
        lap_y[start:stop] = coef.sum(axis=1)[:, None] * y[start:stop] - coef @ y[:stop]
        if start > 0:
            # the mirrored pairs (j, i) feed rows 0:start of L Y
            off = coef[:, :start]
            lap_y[:start] += off.sum(axis=0)[:, None] * y[:start] - off.T @ y[start:stop]
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

    Only the symmetric part of ``weights`` enters; see :func:`stress_state`.
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
    """(1/m^2) sum_ij w_ij (dhat_ij - D_ij)^2 with unsmoothed distances, for
    any m x m weights; see :func:`stress_state`."""
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
    """Seeded start of the class on the sample (see _seeded_start).

    For kernel classes the anchor Gram matrix must pass the PSD check.
    """
    return _seeded_start(hypothesis_class.zero_map(sample), rng)


def _seeded_start(zero: LinearMap | KernelMap, rng: np.random.Generator) -> LinearMap | KernelMap:
    """Uniform entries in [-0.01, 0.01] in place of the params of ``zero``,
    projected into the ball; a kernel start shares the Gram matrix of ``zero``."""
    return project_norm_ball(zero.with_params(rng.uniform(-0.01, 0.01, size=zero.params.shape)))


# a diverging step overflows; the loop stops on the value (see below)
@np.errstate(over="ignore", invalid="ignore")
def projected_path(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    weights: np.ndarray | None,
    config: TrainConfig,
    sign: float,
    penalty: float,
) -> tuple[LinearMap | KernelMap, list[float], str]:
    """Accelerated projected steps from ``model``; sign -1 descends, +1 ascends.

    g is the eps-smoothed gradient of the weighted stress (see stress_state)
    plus ``penalty`` times a norm subgradient, t = step_size.  With x = v =
    the start and theta = 1, each step evaluates g at
    y = (1 - theta) x + theta v, then sets v <- proj(v + sign (t / theta) g)
    and x <- (1 - theta) x + theta v.  When sign <g, x_new - x> < 0 the
    momentum points against the gradient and the loop restarts (theta = 1,
    v = x); otherwise theta <- theta (sqrt(theta^2 + 4) - theta) / 2.  The
    first step, and the first after a restart, is a plain projected step.

    Each y costs one stress pass, which gives both its unsmoothed value and
    its gradient.  Returns the last y, the values of every y (the start
    first) and why the loop stopped: "converged" when |g|_F at y falls below
    grad_tol, "diverged" on a non-finite step or a value that is non-finite
    or above DIVERGENCE_RISK, "max_iters" after max_iters steps.  A loop
    that stops before its first step returns ``model`` itself.  Every y is
    a convex combination of maps in the ball, so the last map satisfies
    model_norm <= lambda_cap up to round-off when the start does.  A
    projection that is not finite raises ValidationError.
    """
    _check_sizes(sample, distances)
    feats = model.features(sample.values)
    weights = _symmetric_part(weights)
    eps = config.smoothing_eps

    y = model
    x = v = model.params
    theta = 1.0
    value, grad = _stress_pass(feats, x, distances.values, weights, eps)
    values = [value]
    for _ in range(config.max_iters):
        if penalty > 0.0:
            grad = grad + penalty * norm_subgradient(y)
        if float(np.linalg.norm(grad)) < config.grad_tol:
            return y, values, "converged"
        stepped = v + (sign * config.step_size / theta) * grad
        if not np.all(np.isfinite(stepped)):
            return y, values, "diverged"
        v = project_norm_ball(model.with_params(stepped)).params
        x_new = (1.0 - theta) * x + theta * v
        if sign * float(np.vdot(grad, x_new - x)) < 0.0:
            theta, v = 1.0, x_new
        else:
            theta *= (math.sqrt(theta * theta + 4.0) - theta) / 2.0
        x = x_new
        y = model.with_params((1.0 - theta) * x + theta * v)
        value, grad = _stress_pass(feats, y.params, distances.values, weights, eps)
        values.append(value)
        if not np.isfinite(value) or value > DIVERGENCE_RISK:
            return y, values, "diverged"
    return y, values, "max_iters"


def train(
    sample: SampleMatrix,
    distances: DistanceMatrix,
    hypothesis_class: LinearClass | KernelClass,
    config: TrainConfig,
) -> tuple[LinearMap | KernelMap, TrainReport]:
    """Accelerated projected gradient descent with restart on the
    (optionally penalized) stress loss.

    One projected_path with sign -1 and penalty penalty_lambda from a seeded
    start.  Divergence (risk above DIVERGENCE_RISK or a non-finite iterate)
    is reported as non-convergence; the last usable model is still returned
    and always satisfies model_norm <= lambda_cap up to round-off.  A
    diverged model whose embedding overflows raises ValidationError saying
    that training diverged.
    final_risk is recomputed once, in direct form, by the streamed
    reduction of every reported risk (hypotheses.embedded_risk).
    """
    _check_sizes(sample, distances)
    model = initialize_model(hypothesis_class, sample, np.random.default_rng(config.seed))
    model, values, reason = projected_path(
        model, sample, distances, None, config, -1.0, config.penalty_lambda
    )
    try:
        final_risk = embedded_risk(model, sample.values, distances.upper_rows())
    except ValidationError as exc:
        # the one failure of a validated problem: an embedding that overflows
        if reason != "diverged":
            raise
        raise ValidationError("training diverged: the embedding has non-finite entries") from exc
    report = TrainReport(
        final_risk=final_risk,
        iterations_used=len(values) - 1,
        final_model_norm=model_norm(model),
        converged=reason == "converged",
        risk_trace=tuple(values[1:]),
    )
    return model, report
