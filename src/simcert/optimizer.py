"""Stress-loss gradients and projected gradient descent.

Two objectives are covered: the plain mean squared distance error over a
norm ball (constrained mode, projection after every step) and the same
risk plus penalty_lambda * model_norm (penalized mode; the penalty is on
the norm itself, not its square).  Distances are optionally smoothed as
d~ = sqrt(d^2 + eps^2) because the gradient factor (d - D)/d is singular
where embedded points coincide; with eps = 0 coincident pairs follow the
zero-subgradient convention.  One kernel, stress_state, computes the
weighted stress value and its gradient together; descent here and the
Monte-Carlo ascent in bounds both call it once per step.  It visits the
m x m pairs in blocks of b rows and contracts the graph Laplacian through
the m x k embedding, so a step costs O(m^2 k + k m N) flops (N the
feature width, N = m for kernel maps) and O(b m) working memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_BYTES, DistanceMatrix, SampleMatrix, ValidationError, empirical_risk
from .hypotheses import (
    KernelClass,
    KernelMap,
    LinearClass,
    LinearMap,
    embedding_distance_matrix,
    gram_form_squared_distances,
    model_norm,
    project_norm_ball,
    with_coefficients,
)
from .kernels import gram, kernel_columns, psd_check

__all__ = [
    "DIVERGENCE_RISK",
    "TrainConfig",
    "TrainReport",
    "risk_gradient",
    "weighted_stress_gradient",
    "weighted_stress_value",
    "smoothed_risk",
    "objective",
    "norm_subgradient",
    "initialize_model",
    "parameters",
    "replace_parameters",
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
        return {
            "final_risk": self.final_risk,
            "iterations_used": self.iterations_used,
            "final_model_norm": self.final_model_norm,
            "converged": self.converged,
            "risk_trace": list(self.risk_trace),
        }


def parameters(model: LinearMap | KernelMap) -> np.ndarray:
    """The trainable matrix of a hypothesis (W or A)."""
    if isinstance(model, LinearMap):
        return model.weights
    if isinstance(model, KernelMap):
        return model.coefficients
    raise TypeError(f"unsupported model type {type(model).__name__}")


def replace_parameters(model: LinearMap | KernelMap, param: np.ndarray):
    """Same hypothesis with a new trainable matrix."""
    if isinstance(model, LinearMap):
        return LinearMap(param, model.lambda_cap)
    if isinstance(model, KernelMap):
        return with_coefficients(model, param)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _pair_features(model: LinearMap | KernelMap, sample: SampleMatrix) -> np.ndarray:
    """Row i is the vector the trainable matrix multiplies to embed x_i.

    Linear maps act on the raw features; kernel maps act on the kernel
    column of x_i against the anchors (the held Gram row when the sample
    equals the anchor set, as in embed).
    """
    if isinstance(model, LinearMap):
        return sample.values
    if sample is model.anchors or np.array_equal(sample.values, model.anchors.values):
        return model.anchor_gram.values
    return kernel_columns(model.kernel, model.anchors.values, sample.values).T


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
    if distances.size != sample.m:
        raise ValidationError(
            f"size mismatch: {sample.m} sample points vs {distances.size} distance rows"
        )
    param = parameters(model)
    feats = _pair_features(model, sample)
    m = sample.m
    y = feats @ param.T
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


def objective(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    penalty_lambda: float,
    eps: float,
) -> float:
    """Smoothed risk plus penalty_lambda times the model norm (not squared)."""
    if penalty_lambda < 0.0:
        raise ValidationError("penalty_lambda must be nonnegative")
    value = smoothed_risk(model, sample, distances, eps)
    if penalty_lambda > 0.0:
        value += penalty_lambda * model_norm(model)
    return value


def norm_subgradient(model: LinearMap | KernelMap) -> np.ndarray:
    """A subgradient of the model norm in the trainable matrix.

    Spectral norm: outer product of the leading singular vectors.  RKHS
    norm: A K / norm.  Zero at the zero map, where the norm is non-smooth.
    """
    if isinstance(model, LinearMap):
        if np.all(model.weights == 0.0):
            return np.zeros_like(model.weights)
        u, s, vt = np.linalg.svd(model.weights, full_matrices=False)
        if s[0] == 0.0:
            return np.zeros_like(model.weights)
        return np.outer(u[:, 0], vt[0])
    nrm = model_norm(model)
    if nrm == 0.0:
        return np.zeros_like(model.coefficients)
    return (model.coefficients @ model.anchor_gram.values) / nrm


def initialize_model(
    hypothesis_class: LinearClass | KernelClass,
    sample: SampleMatrix,
    rng: np.random.Generator,
) -> LinearMap | KernelMap:
    """Seeded start: uniform entries in [-0.01, 0.01], projected into the ball.

    For kernel classes the anchor Gram matrix must pass the PSD check.
    """
    k = hypothesis_class.k if hypothesis_class.k is not None else min(
        sample.n_features, sample.m
    )
    if isinstance(hypothesis_class, LinearClass):
        param = rng.uniform(-0.01, 0.01, size=(k, sample.n_features))
        model = LinearMap(param, hypothesis_class.lambda_cap)
    elif isinstance(hypothesis_class, KernelClass):
        anchor_gram = gram(hypothesis_class.kernel, sample)
        check = psd_check(anchor_gram)
        if not check.passed:
            raise ValidationError(
                f"anchor Gram matrix fails the PSD check "
                f"(min eigenvalue {check.min_eigenvalue:g} < {check.threshold:g})"
            )
        param = rng.uniform(-0.01, 0.01, size=(k, sample.m))
        model = KernelMap(
            param,
            sample,
            hypothesis_class.kernel,
            hypothesis_class.lambda_cap,
            anchor_gram=anchor_gram,
        )
    else:
        raise TypeError(f"unsupported hypothesis class {type(hypothesis_class).__name__}")
    return project_norm_ball(model)


def train(
    sample: SampleMatrix,
    distances: DistanceMatrix,
    hypothesis_class: LinearClass | KernelClass,
    config: TrainConfig,
) -> tuple[LinearMap | KernelMap, TrainReport]:
    """Projected gradient descent on the (optionally penalized) stress loss.

    Each iterate costs one stress_state pass, which gives both its risk
    (the risk_trace entry) and the gradient of the next step.  Stops when
    the gradient Frobenius norm falls below grad_tol (converged) or after
    max_iters steps.  Divergence (risk above DIVERGENCE_RISK or a
    non-finite iterate) is reported as non-convergence; the last usable
    model is still returned and always satisfies model_norm <= lambda_cap
    up to round-off.  final_risk is recomputed once, in direct form.
    """
    if distances.size != sample.m:
        raise ValidationError(
            f"size mismatch: {sample.m} sample points vs {distances.size} distance rows"
        )
    rng = np.random.default_rng(config.seed)
    model = initialize_model(hypothesis_class, sample, rng)

    trace: list[float] = []
    converged = False
    _, grad = stress_state(model, sample, distances, None, config.smoothing_eps)
    for _ in range(config.max_iters):
        if config.penalty_lambda > 0.0:
            grad = grad + config.penalty_lambda * norm_subgradient(model)
        if float(np.linalg.norm(grad)) < config.grad_tol:
            converged = True
            break
        stepped = parameters(model) - config.step_size * grad
        if not np.all(np.isfinite(stepped)):
            break
        model = project_norm_ball(replace_parameters(model, stepped))
        risk, grad = stress_state(model, sample, distances, None, config.smoothing_eps)
        trace.append(risk)
        if not np.isfinite(risk) or risk > DIVERGENCE_RISK:
            break

    final_risk = empirical_risk(embedding_distance_matrix(model, sample), distances)
    report = TrainReport(
        final_risk=final_risk,
        iterations_used=len(trace),
        final_model_norm=model_norm(model),
        converged=converged,
        risk_trace=tuple(trace),
    )
    return model, report
