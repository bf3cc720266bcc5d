"""Generalization certificates for distance-regression hypotheses.

The certificate bounds the expected stress loss of every hypothesis in a
norm-constrained class by

    R(h) <= R_hat(h) + 2 * rad_m(G) + M^2 * sqrt(2 ln(1/delta) / m)

with probability at least 1 - delta, where rad_m(G) is the Rademacher
complexity of the loss class and M bounds the per-pair residual
|dhat_ij - D_ij| <= M.  An embedded distance lies in [0, 2 lam r] and a
target in [0, beta], so M = max(2 lam r, beta); the squared loss then lies
in [0, M^2].  Moving one of the m points changes the 2 (m - 1) pair terms
of its row and column in R_hat = (1/m^2) sum_ij loss_ij, each by at most
M^2, so McDiarmid's bounded differences are c = 2 M^2 / m and give the
term M^2 sqrt(2 ln(1/delta) / m).  Closed-form upper bounds on rad_m(G):

    linear class  (||W||_2 <= lam, features in radius r, targets <= beta):
        rad_m(G) <= lam^2 * max(2 r, beta)^2 / m,   M = max(2 lam r, beta)
    kernel class  (RKHS norm <= lam, K(x, x) <= q^2, targets <= beta):
        rad_m(G) <= lam^2 * max(sqrt(2) q, beta)^2 / m

For the kernel class the per-pair bound uses the conservative
M = max(2 lam q, beta): feature vectors live in a ball of radius q, so
embedded pairs are at most 2 lam q apart without assuming K_ij >= 0.

A Monte-Carlo estimator of the empirical Rademacher complexity is provided
for diagnostics; its inner supremum is approximated by local gradient
ascent, so the estimate is lower-biased and never part of a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DistanceMatrix,
    SampleMatrix,
    ValidationError,
    _check_memory,
    _check_sizes,
    data_radii,
)
from .hypotheses import (
    KernelClass,
    KernelMap,
    LinearClass,
    LinearMap,
    embedded_risk,
    model_norm,
)
from .optimizer import TrainConfig, _class_arrays, _seeded_start, projected_path

__all__ = [
    "CertificateInputs",
    "BoundCertificate",
    "loss_bound_M",
    "rademacher_bound_linear",
    "rademacher_bound_kernel",
    "mcdiarmid_term",
    "generalization_bound",
    "empirical_rademacher_mc",
    "certify",
]


@dataclass(frozen=True)
class CertificateInputs:
    """Data-dependent quantities a certificate was assembled from."""

    lam: float
    r: float | None
    beta: float
    q: float | None
    mode: str


@dataclass(frozen=True)
class BoundCertificate:
    """Assembled high-probability bound with its inputs recorded.

    rademacher_term stores the doubled complexity bound 2 * rad_m(G) that
    enters the slack; slack = rademacher_term + loss_bound^2 * sqrt(2 ln(1/delta)/m)
    and bound = empirical_risk + slack, exactly as stored.
    """

    empirical_risk: float
    rademacher_term: float
    loss_bound: float
    delta: float
    m: int
    slack: float
    bound: float
    inputs: CertificateInputs | None = None

    def __post_init__(self):
        fields = (
            self.empirical_risk,
            self.rademacher_term,
            self.loss_bound,
            self.delta,
            self.slack,
            self.bound,
        )
        if not all(math.isfinite(v) for v in fields):
            raise ValidationError("certificate fields must be finite")
        if self.slack < 0.0:
            raise ValidationError("slack must be nonnegative")
        if self.bound != self.empirical_risk + self.slack:
            raise ValidationError("bound must equal empirical_risk + slack exactly")

    def to_dict(self) -> dict:
        out = {
            "empirical_risk": self.empirical_risk,
            "rademacher_term": self.rademacher_term,
            "M": self.loss_bound,
            "delta": self.delta,
            "m": self.m,
            "slack": self.slack,
            "bound": self.bound,
        }
        if self.inputs is not None:
            out["lambda"] = self.inputs.lam
            out["r"] = self.inputs.r
            out["beta"] = self.inputs.beta
            out["q"] = self.inputs.q
            out["mode"] = self.inputs.mode
        return out


def _check_radii(lam: float, radius: float, beta: float) -> None:
    if not all(0.0 <= x < np.inf for x in (lam, radius, beta)):
        raise ValidationError("norm budget and radii must be finite and nonnegative")


def _check_delta(delta: float) -> None:
    if not (0.0 < delta <= 1.0):
        raise ValidationError(f"delta must lie in (0, 1], got {delta}")


def loss_bound_M(lam: float, radius: float, beta: float) -> float:
    """Per-pair residual bound max(2 * lam * radius, beta).

    ``radius`` is the feature-space radius: r for the linear class, q for a
    kernel class (where the conservative 2 q factor is used, see module
    docstring).
    """
    _check_radii(lam, radius, beta)
    return max(2.0 * lam * radius, beta)


def _squared_product(lam: float, scale: float) -> float:
    """lam**2 * scale**2, or inf where a power overflows (a float power
    raises OverflowError there); the certificate rejects a non-finite term."""
    try:
        return lam**2 * scale**2
    except OverflowError:
        return math.inf


def rademacher_bound_linear(lam: float, r: float, beta: float, m: int) -> float:
    """Closed-form upper bound lam^2 * max(2 r, beta)^2 / m for the linear class."""
    _check_radii(lam, r, beta)
    if m < 1:
        raise ValidationError("m must be >= 1")
    return _squared_product(lam, max(2.0 * r, beta)) / m


def rademacher_bound_kernel(lam: float, q: float, beta: float, m: int) -> float:
    """Closed-form upper bound lam^2 * max(sqrt(2) q, beta)^2 / m for kernel classes."""
    _check_radii(lam, q, beta)
    if m < 1:
        raise ValidationError("m must be >= 1")
    return _squared_product(lam, max(math.sqrt(2.0) * q, beta)) / m


def mcdiarmid_term(loss_bound: float, m: int, delta: float) -> float:
    """High-probability slack M^2 * sqrt(2 ln(1/delta) / m), natural log; an
    M^2 that overflows gives a non-finite term, which the certificate rejects."""
    if not 0.0 <= loss_bound < np.inf:
        raise ValidationError("loss bound must be finite and nonnegative")
    if m < 1:
        raise ValidationError("m must be >= 1")
    _check_delta(delta)
    return _squared_product(loss_bound, 1.0) * math.sqrt(2.0 * math.log(1.0 / delta) / m)


# Closed-form bound on rad_m(G) for each map mode, in the map's feature radius.
_CLOSED_FORMS = {"linear": rademacher_bound_linear, "kernel": rademacher_bound_kernel}


def generalization_bound(
    empirical_risk_value: float,
    rademacher_upper: float,
    loss_bound: float,
    m: int,
    delta: float,
    inputs: CertificateInputs | None = None,
) -> BoundCertificate:
    """Assemble R_hat + 2 * rad_upper + M^2 * sqrt(2 ln(1/delta) / m)."""
    if empirical_risk_value < 0.0 or rademacher_upper < 0.0:
        raise ValidationError("risk and complexity terms must be nonnegative")
    rademacher_term = 2.0 * rademacher_upper
    slack = rademacher_term + mcdiarmid_term(loss_bound, m, delta)
    return BoundCertificate(
        empirical_risk=float(empirical_risk_value),
        rademacher_term=float(rademacher_term),
        loss_bound=float(loss_bound),
        delta=float(delta),
        m=int(m),
        slack=float(slack),
        bound=float(empirical_risk_value + slack),
        inputs=inputs,
    )


def _mc_arrays(sample: SampleMatrix, hypothesis_class: LinearClass | KernelClass) -> float:
    """m x m float arrays that one empirical_rademacher_mc estimate counts
    before it allocates: sigma, the draw of its m (m + 1) / 2 signs (half an
    array), and the descent's arrays on the class, a kernel class's Gram
    matrix included (optimizer._class_arrays, which train counts too).  The
    draw is freed before the pass starts; counting both covers the
    estimator's smaller objects.  tracemalloc (n_sigma 2) reads, with the
    count in brackets: with k = 2 and 3 features, 3.45 (linear) [5.54] and
    4.52 (RBF) [6.61] at m = 200, 1.67 [2.24] and 2.69 [3.26] at m = 600,
    1.50 [1.57] and 2.50 [2.58] at m = 2000; a linear class on m unit-norm
    features with k = N = m, 12.59 [15.41] at m = 300, 12.02 [13.23] at
    m = 600 and 12.00 [12.76] at m = 1000.  The count holds from m = 70 on; below, the
    estimator's fixed objects, under 0.2 MB, weigh more than any m x m
    count."""
    return 1.5 + _class_arrays(sample, hypothesis_class)


def _sign_matrix(rng: np.random.Generator, out: np.ndarray) -> None:
    """Draw -sigma_ij in {-1, +1} for i <= j into ``out`` and mirror it.

    One draw of m (m + 1) / 2 integers s in {0, 1} gives the signs
    sigma = 2 s - 1, and ``out`` takes -sigma = 1 - 2 s, itself a
    Rademacher matrix, which the estimator descends on (see
    empirical_rademacher_mc).  The signs fill the rows in turn: row i takes
    its columns i:m from the next m - i signs, the order of
    np.triu_indices(m), and its columns 0:i from column i of the rows
    above, which are already filled.  ``out`` is bitwise the matrix of zeros
    with the signs placed at np.triu_indices(m), plus np.triu(-sigma, 1).T.
    """
    m = out.shape[0]
    signs = rng.integers(0, 2, size=m * (m + 1) // 2)
    signs *= -2
    signs += 1
    first = 0
    for i in range(m):
        out[i, i:] = signs[first : first + m - i]
        out[i, :i] = out[:i, i]
        first += m - i


def empirical_rademacher_mc(
    sample: SampleMatrix,
    distances: DistanceMatrix,
    hypothesis_class: LinearClass | KernelClass,
    n_sigma: int,
    inner_cfg: TrainConfig,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the empirical Rademacher complexity.

    For each sign draw, sigma_ij in {-1, +1} is sampled for i <= j and
    mirrored (diagonal signs multiply a zero term), then
    (1/m^2) sum_ij sigma_ij (dhat_ij - D_ij)^2 is maximized over the class
    within the inner budget from a seeded start: one projected_path
    descends on the same sum signed by -sigma, and the best value is minus
    the least value among the maps it evaluates, each of which is in the
    class.  Negation is exact, so this is bitwise the ascent on sigma.  The
    zero map of the class, with a kernel class's Gram matrix, is built once
    and shared by every draw, and every draw's -sigma is built in place in
    one m x m array (_sign_matrix).
    Before any m x m allocation, _check_memory counts _mc_arrays arrays,
    so an m too large for memory raises ValidationError.  Returns
    (mean, standard error) over draws.  Local ascent reaches only a lower
    bound on each supremum, so the estimate is a lower-biased diagnostic,
    not a certified quantity.
    """
    if n_sigma < 1:
        raise ValidationError("n_sigma must be >= 1")
    _check_sizes(sample, distances)
    m = sample.m
    _check_memory(m, _mc_arrays(sample, hypothesis_class), "the Monte-Carlo estimate")
    values = np.empty(n_sigma)
    zero = hypothesis_class.zero_map(sample)
    negated = np.empty((m, m))
    for draw in range(n_sigma):
        rng = np.random.default_rng([seed, draw])
        _sign_matrix(rng, negated)
        model = _seeded_start(zero, rng)
        values[draw] = -min(projected_path(model, sample, distances, negated, inner_cfg)[1])

    estimate = float(values.mean())
    if n_sigma == 1:
        return estimate, 0.0
    std_error = float(values.std(ddof=1) / math.sqrt(n_sigma))
    return estimate, std_error


def certify(
    model: LinearMap | KernelMap,
    sample: SampleMatrix,
    distances: DistanceMatrix,
    delta: float,
) -> BoundCertificate:
    """Certificate for a trained model on its sample.

    The certified budget is lam = max(lambda_cap, model_norm), so the class
    the certificate speaks about contains the model.  A trained model is
    inside its cap, because projected_path projects every step; for it the
    max only absorbs round-off in the norm.  A model built or loaded by
    hand may lie outside its cap, and then lam is its norm.
    R_hat is summed by core.streamed_risk, the one reduction behind every
    reported risk, from the rows of the stored targets.
    """
    _check_delta(delta)

    radii = data_radii(sample, distances)
    lam = max(model.lambda_cap, model_norm(model))
    r_hat = embedded_risk(model, sample.values, distances.upper_rows())
    m = sample.m
    radius = model.feature_radius(sample)
    loss_bound = loss_bound_M(lam, radius, radii.beta)
    rad_upper = _CLOSED_FORMS[model.mode](lam, radius, radii.beta, m)

    q = None if model.mode == "linear" else radius
    inputs = CertificateInputs(lam=lam, r=radii.r, beta=radii.beta, q=q, mode=model.mode)
    return generalization_bound(r_hat, rad_upper, loss_bound, m, delta, inputs=inputs)
