"""Stress-loss gradients and the projected (sub)gradient loop.

One objective is covered: the mean squared distance error over a norm
ball, with a projection after every step.  The descent follows the exact
gradient of the risk it reports.  A pair of embedded points y_i, y_j at
distance d_ij enters that gradient as a_ij (y_i - y_j) with
a_ij = 2 (d_ij - D_ij) / d_ij, and as |y_i - y_j| = d_ij,
|a_ij (y_i - y_j)| <= 2 |d_ij - D_ij| stays bounded as d_ij -> 0.  Where
the points coincide (d_ij = 0: the diagonal, and duplicated or collapsed
points) the pair takes the zero subgradient and adds nothing.

Everything here speaks to a map only through the protocol of hypotheses
(params, with_params, features, project(P)), so linear and kernel maps
take one code path.  The loop steps the trainable matrix P itself and
makes one map, by with_params, when it stops, so that map passes its
constructor's checks and a kernel map shares the Gram matrix of the map
it came from.  One kernel, stress_state, computes the
weighted stress value and its gradient together from the Gram-form
distances of core (the direct form stays with the reported risks); it
visits each unordered pair once, in the row blocks of core._row_blocks,
each paired only with the columns up to the block's last row, and
contracts the graph Laplacian through the m x k embedding, so a step
costs O(m^2 k + k m N) flops (N the feature width, N = m for kernel
maps) and about m(m + b)/2 pair entries.  Its O(b m) working memory, two
float planes and one bool plane of the first block's size and a
row-major (k x m) copy of -2 Y^T, is allocated once per descent
(_pass_workspace) and every pass writes into it, so no step allocates a
plane; the one bool plane is both the Gram form's clamp mask and the mask
of coincident pairs.  One loop, projected_path, runs accelerated
projected gradient (FISTA, Beck & Teboulle 2009, in its
single-projection form) with gradient-based
adaptive restart (O'Donoghue & Candes 2015) and a step taken from the
local curvature between the last two evaluated maps (Malitsky &
Mishchenko 2020, "Adaptive gradient descent without descent", ICML).  It
only descends: train descends on the stress, and the Monte-Carlo estimator
in bounds maximizes the Rademacher-signed stress by descending on the
stress signed by -sigma, itself a Rademacher matrix.  Each step makes one
stress pass and at most one projection.  Every matrix the loop evaluates
is a convex combination of matrices in the norm ball, so it is in the ball
too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    DistanceMatrix,
    SampleMatrix,
    ValidationError,
    _check_memory,
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
    model_norm,
)

__all__ = [
    "DIVERGENCE_RISK",
    "TrainConfig",
    "TrainReport",
    "risk_gradient",
    "weighted_stress_gradient",
    "weighted_stress_value",
    "norm_subgradient",
    "initialize_model",
    "projected_path",
    "train",
]

# Empirical risk beyond this is reported as divergence.
DIVERGENCE_RISK = 1e12

# Largest factor by which one step may exceed the last (see projected_path).
_GROWTH = math.sqrt(2.0)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of accelerated projected gradient descent with restart.

    step_size is the first step; every later step follows the local
    curvature that the loop observes (see projected_path), and a restart
    keeps it.
    """

    step_size: float = 0.25
    max_iters: int = 2000
    grad_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.step_size < np.inf:
            raise ValidationError("step_size must be positive and finite")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be nonnegative")
        if not 0.0 < self.grad_tol < np.inf:
            raise ValidationError("grad_tol must be positive and finite")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one training run.

    Training is accelerated projected gradient descent with gradient-based
    restart (see projected_path).  final_risk is the empirical risk of the
    returned model, summed from the direct-form embedded distances by
    core.streamed_risk, the one reduction behind every reported risk, so it
    is certify's R_hat of the same model bit for bit.  risk_trace holds the
    risk of each map the descent evaluated, one per step taken, from the
    Gram-form pass that also yields that map's gradient (see stress_state);
    the returned model is the last of them, and the two forms agree to
    round-off.  The trace is not monotone: momentum can raise the risk
    until a restart.  stop_reason is why the loop stopped ("converged",
    "max_iters" or "diverged", see projected_path), and converged says
    whether it is "converged".
    """

    final_risk: float
    iterations_used: int
    final_model_norm: float
    converged: bool
    stop_reason: str
    risk_trace: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def stress_state(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    weights: np.ndarray | None,
) -> tuple[float, np.ndarray]:
    """Weighted stress value and its gradient from one pass over the pairs.

    Returns (value, grad) where value = (1/m^2) sum_ij w_ij (dhat_ij - D_ij)^2
    and grad is its gradient in the trainable matrix P.  ``weights=None``
    means all ones.  Since both distances are symmetric, only the symmetric
    part (w + w^T) / 2 of the weights enters the sum and its gradient; it is
    taken once, and is w itself for symmetric w (Rademacher sign matrices
    are), so any m x m weights give the full sum.

    With F the m x N feature matrix (X, or the anchor Gram matrix) and
    Y = F P^T the m x k embedding, the graph-Laplacian identity
    sum_ij a_ij (f_i - f_j)(f_i - f_j)^T = 2 F^T L F, L = diag(a 1) - a,
    gives grad = (2/m^2) P F^T L F = (2/m^2) (L Y)^T F for symmetric
    a_ij = 2 w_ij (dhat_ij - D_ij) / dhat_ij.  Pairs with dhat = 0, which
    gram_form_squared_distances gives exactly on the diagonal and for
    coincident points, take a = 0 (see the module docstring).  The pairs
    are visited in blocks of b rows, and since the targets, the symmetrized
    weights and the distances are symmetric each unordered pair is visited
    once: rows [s, e) pair only with columns [0, e).  The diagonal
    sub-block [s, e) x [s, e) counts once, the rest twice, and its
    coefficients feed L Y twice, on rows [s, e) and, transposed, on rows
    [0, s).  Each block's Gram-form distances, a, share of L Y and share of
    the value are computed in the planes of one workspace, which the next
    block overwrites, so a step costs about m(m + b)/2 pair entries,
    O(m^2 k + k m N) flops and O(b m) working memory, with b from
    core._row_blocks: two float planes, one bool plane and a (k x m)
    operand (_pass_workspace).  Each call makes its own workspace; a
    descent makes one for all its steps (see projected_path).  With
    m <= b there is one block, the whole m x m matrix.

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
        _pass_workspace(sample.m, model.params.shape[0]),
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


def _pass_workspace(m: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The working memory of _stress_pass on m points with k embedding
    columns, which a descent allocates once: two float planes and one bool
    plane of b x m entries, b the rows of the first row block
    (core._row_blocks), and the row-major (k x m) operand -2 Y^T."""
    size = next(_row_blocks(m), (0, 0))[1] * m
    return np.empty(size), np.empty(size), np.empty(size, dtype=bool), np.empty((k, m))


# a diverging iterate overflows in the pass; its value reports it (see stress_state)
@np.errstate(all="ignore")
def _stress_pass(
    feats: np.ndarray,
    params: np.ndarray,
    target_values: np.ndarray,
    weights: np.ndarray | None,
    work: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[float, np.ndarray]:
    """stress_state for the map with trainable matrix ``params`` on features
    ``feats``, which a caller visiting many maps computes once; ``weights``
    must be symmetric (see _symmetric_part).  ``work`` is the
    _pass_workspace of the sample and params, which a descent allocates
    once: each block's planes are contiguous views of its first entries,
    the Gram-form distances go into the first, the residuals into the
    second, and the bool plane, the Gram form's clamp mask, is also the
    mask of coincident pairs.  Every entry the pass reads from the
    workspace it has written first, so no state carries from one pass to
    the next."""
    m = feats.shape[0]
    y = feats @ params.T
    norms = _squared_row_norms(y)
    *planes, minus2_yt = work
    np.multiply(y.T, -2.0, out=minus2_yt)
    lap_y = np.empty_like(y)
    total = 0.0
    for start, stop in _row_blocks(m):
        # the block pairs rows start:stop with columns 0:stop; columns
        # 0:start hold pairs (i, j), j < i, that stand for (j, i) as well
        b = stop - start
        dist, resid, clamped = (plane[: b * stop].reshape(b, stop) for plane in planes)
        target = target_values[start:stop, :stop]
        w = None if weights is None else weights[start:stop, :stop]
        gram_form_squared_distances(
            y[:stop], start, stop, norms[:stop], minus2_yt=minus2_yt[:, :stop],
            out=(dist, resid, clamped),
        )
        np.sqrt(dist, out=dist)
        np.subtract(dist, target, out=resid)

        # coef holds a / 2; the factor 2 is exact and joins the final scale.
        # dist == 0 exactly where the Gram form clamped, so its mask marks the
        # coincident pairs; an overflowing distance stays non-finite
        coef = np.divide(resid, dist, out=dist)
        np.copyto(coef, 0.0, where=clamped)
        if w is not None:
            coef *= w
        lap_y[start:stop] = coef.sum(axis=1)[:, None] * y[start:stop] - coef @ y[:stop]
        if start > 0:
            # the mirrored pairs (j, i) feed rows 0:start of L Y
            off = coef[:, :start]
            lap_y[:start] += off.sum(axis=0)[:, None] * y[:start] - off.T @ y[start:stop]

        # resid becomes the weighted squared residual
        resid *= resid
        if w is not None:
            resid *= w
        total += resid.sum()
        if start > 0:
            total += resid[:, :start].sum()
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
) -> np.ndarray:
    """Gradient of (1/m^2) sum_ij w_ij (dhat_ij - D_ij)^2 in the trainable matrix.

    Only the symmetric part of ``weights`` enters; see :func:`stress_state`.
    """
    return stress_state(model, sample, distances, weights)[1]


def risk_gradient(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
) -> np.ndarray:
    """Gradient of the empirical risk in the trainable matrix."""
    return stress_state(model, sample, distances, None)[1]


def weighted_stress_value(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    weights: np.ndarray,
) -> float:
    """(1/m^2) sum_ij w_ij (dhat_ij - D_ij)^2 for any m x m weights; see
    :func:`stress_state`."""
    return stress_state(model, sample, distances, weights)[0]


def norm_subgradient(model: LinearMap | KernelMap) -> np.ndarray:
    """A subgradient of the model norm in the trainable matrix.

    Spectral norm: outer product of the leading singular vectors.  RKHS
    norm: A K / norm.  Zero at the zero map, where the norm is non-smooth.
    No descent calls it; it stays because the benchmark's tracer names it.
    """
    return model.norm_subgradient(model.params)


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
    projected into the ball by ``zero.project``, in one new map; a kernel
    start shares the Gram matrix of ``zero``."""
    return zero.with_params(zero.project(rng.uniform(-0.01, 0.01, size=zero.params.shape)))


# (b x m) float planes, b the rows of the first row block (core._row_blocks),
# counted for the stress pass.  Its workspace (_pass_workspace), two float
# planes and one bool plane, is allocated before a descent's first pass and
# held until it stops, and a pass allocates no plane of its own: tracemalloc
# reads one stress_state at 2.2 planes at m = 200, 2.3 at m = 600 with k = 2
# and 2.5 at m = 2000, its (m x k) arrays included.  The spare planes cover
# the Monte-Carlo estimator's fixed objects where a plane is small, m x m
# at m <= b (see bounds._mc_arrays).
_PASS_PLANES = 4
# (k x N) arrays of projected_path, N the feature width (m for a kernel map):
# x, v, the evaluated y and its gradient, the previous y and gradient that
# set the step, and the stepped point.  The start and the projection's SVD
# factors fit within this count and the _PASS_EMBEDDINGS arrays that are free
# between passes: one Monte-Carlo estimate with k = N = m = 600 peaks at
# 13.2 m x m arrays under tracemalloc and counts 14.2 (bounds._mc_arrays).
_LOOP_PARAMS = 7
# (m x k) embedding arrays of the stress pass: Y, L Y and their block
# products, and the workspace's (k x m) operand -2 Y^T, held across steps.
_PASS_EMBEDDINGS = 5


def _path_arrays(m: int, k: int, width: int) -> float:
    """m x m float arrays that projected_path holds at once on m points with
    a k x width trainable matrix: the _PASS_PLANES planes of the first row
    block that its stress-pass workspace holds, and the loop's _LOOP_PARAMS
    (k x width) and _PASS_EMBEDDINGS (m x k) arrays."""
    rows = next(_row_blocks(m))[1]
    return _PASS_PLANES * rows / m + (_LOOP_PARAMS * k * width + _PASS_EMBEDDINGS * m * k) / (m * m)


def _class_arrays(sample: SampleMatrix, hypothesis_class: LinearClass | KernelClass) -> float:
    """m x m float arrays that a descent on the class holds at once on the
    sample: a kernel class's Gram matrix and projected_path's arrays
    (_path_arrays), with k the class's (min(N_features, m) by default) and
    N the width of its trainable matrix (m for a kernel class)."""
    m = sample.m
    k = hypothesis_class.k if hypothesis_class.k is not None else min(sample.n_features, m)
    kernel = hypothesis_class.mode == "kernel"
    return float(kernel) + _path_arrays(m, k, m if kernel else sample.n_features)


# a diverging step overflows; the loop stops on the value (see below)
@np.errstate(over="ignore", invalid="ignore")
def projected_path(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    weights: np.ndarray | None,
    config: TrainConfig,
) -> tuple[LinearMap | KernelMap, list[float], str]:
    """Accelerated projected descent from ``model`` on its trainable matrix.

    g is the gradient of the weighted stress (see stress_state).  With
    x = v = the start's P, theta = 1 and t = step_size, each step evaluates
    g at y = (1 - theta) x + theta v, sets
    t <- min(sqrt(2) t, |y - y'|_F / (2 |g - g'|_F)) with y' the previous
    y and g' its g (t is kept when y = y' and grows by sqrt(2) when
    g = g'), then sets v <- proj(v - (t / theta) g) and
    x <- (1 - theta) x + theta v.  When <g, x_new - x> > 0 the momentum
    points along the gradient and the loop restarts (theta = 1, v = x, t
    kept); otherwise theta <- theta (sqrt(theta^2 + 4) - theta) / 2.  The
    first step, and the first after a restart, is a plain projected step.
    x, v, y and the stepped point are arrays, projected by model.project;
    the one map the loop makes is the last y's, when it stops.

    t is the local-Lipschitz step of Malitsky & Mishchenko 2020 with their
    largest growth, sqrt(2), and half the inverse local curvature; it costs
    no pass, as g at y comes from the pass that evaluates y.  Growth 2 and
    the full ratio stalled linear fits above grad_tol where the fixed step
    converged.  The coverage benchmark's linear fits (m = 50) converge in
    23-30 steps, where the fixed step of 0.25 took 51-72, to the same
    optimum.

    ``weights`` must be None or a symmetric m x m float array, as both
    callers' are (train passes None, the Monte-Carlo estimator a sign
    matrix).  They are used as given, without stress_state's symmetric
    part: the pass reads only their lower triangle, and no check compares
    them with their transpose.  Use stress_state for any weights.

    Each y costs one stress pass, which gives both its value and its
    gradient; the passes share one workspace, allocated before the first.
    Returns the map of the last y, the values of every y
    (the start first) and why the loop stopped: "converged" when |g|_F at y
    falls below grad_tol, "diverged" on a non-finite step or a value that
    is non-finite or above DIVERGENCE_RISK in magnitude, "max_iters" after
    max_iters steps.  A loop that stops before its first step returns
    ``model`` itself.  Every y is a convex combination of matrices in the
    ball, so the last map satisfies model_norm <= lambda_cap up to
    round-off when the start does.  A last y that is not finite raises
    ValidationError when its map is made.
    """
    _check_sizes(sample, distances)
    feats = model.features(sample.values)
    work = _pass_workspace(sample.m, model.params.shape[0])

    x = v = y = model.params
    theta = 1.0
    t = config.step_size
    value, grad = _stress_pass(feats, y, distances.values, weights, work)
    values = [value]
    y_prev = g_prev = None
    reason = "max_iters"
    for _ in range(config.max_iters):
        if y_prev is not None:
            dy = float(np.linalg.norm(y - y_prev))
            if dy > 0.0:
                dg = float(np.linalg.norm(grad - g_prev))
                t = min(_GROWTH * t, dy / (2.0 * dg)) if dg > 0.0 else _GROWTH * t
        y_prev, g_prev = y, grad
        if float(np.linalg.norm(grad)) < config.grad_tol:
            reason = "converged"
            break
        stepped = v - (t / theta) * grad
        if not np.all(np.isfinite(stepped)):
            reason = "diverged"
            break
        v = model.project(stepped)
        x_new = (1.0 - theta) * x + theta * v
        if float(np.vdot(grad, x_new - x)) > 0.0:
            theta, v = 1.0, x_new
        else:
            theta *= (math.sqrt(theta * theta + 4.0) - theta) / 2.0
        x = x_new
        y = (1.0 - theta) * x + theta * v
        value, grad = _stress_pass(feats, y, distances.values, weights, work)
        values.append(value)
        if not abs(value) <= DIVERGENCE_RISK:
            reason = "diverged"
            break
    return (model if y is model.params else model.with_params(y)), values, reason


def train(
    sample: SampleMatrix,
    distances: DistanceMatrix,
    hypothesis_class: LinearClass | KernelClass,
    config: TrainConfig,
) -> tuple[LinearMap | KernelMap, TrainReport]:
    """Accelerated projected gradient descent with restart on the stress
    loss over the class's ball.

    One projected_path from a seeded start.  Divergence (risk above
    DIVERGENCE_RISK or a non-finite iterate) is reported as
    non-convergence; the last usable model is still returned and always
    satisfies model_norm <= lambda_cap up to round-off.  Before the start
    is made, _check_memory counts the descent's _class_arrays, so a sample
    or an output dimension k too large for memory raises ValidationError.
    A diverged model whose embedding overflows raises ValidationError
    saying that training diverged.  final_risk is recomputed once, in direct form, by the streamed
    reduction of every reported risk (hypotheses.embedded_risk).
    """
    _check_sizes(sample, distances)
    _check_memory(sample.m, _class_arrays(sample, hypothesis_class), "training")
    model = initialize_model(hypothesis_class, sample, np.random.default_rng(config.seed))
    model, values, reason = projected_path(model, sample, distances, None, config)
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
        stop_reason=reason,
        risk_trace=tuple(values[1:]),
    )
    return model, report
