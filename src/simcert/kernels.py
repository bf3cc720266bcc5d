"""PDS kernels, Gram matrices, and the kernel diagonal that gives the radius q.

Three families are supported: linear (x . y), RBF (exp(-gamma ||x - y||^2),
for which K(x, x) = 1 and hence q = 1), and polynomial ((x . y + coef0)^degree).
Positive semidefiniteness is an assumption of the kernel certificates; it is
decided on the sampled Gram matrix by one relative eigenvalue rule,
lambda_min >= -tol max(max |lambda|, 1) with tol = DEFAULT_PSD_TOL.
GramMatrix(kernel, sample) is the only way to get a Gram matrix: its
constructor builds the values from the kernel and the sample and settles
the rule on them, so a KernelMap, which reads its anchors and kernel from
the GramMatrix it holds, always holds an accepted matrix of its own
anchors.  Every kernel KernelSpec admits is positive definite in exact
arithmetic (steps 1 and 5 below), so the rule only guards against
round-off.  GramMatrix first offers each matrix to a round-off certificate
that proves, in O(m N) flops and before the matrix is built, that the rule
would accept it; psd_check, which computes the eigenvalues, runs only when
the certificate declines.  The radius q that certify reads comes from the
kernel diagonal alone (kernel_diagonal, via KernelMap.feature_radius),
never from a Gram matrix.  kernel_columns turns inner products into
polynomial and RBF kernel values in place (RBF in row blocks of the one
policy of core._row_blocks), so a Gram matrix is one m x m array from its
inner products on.  It is exactly symmetric as computed, with no pass that
mirrors a triangle: numpy forms x @ x.T of one array by a symmetric rank-k
update (BLAS syrk) and copies that triangle itself, and each family's
value is an entrywise function of inner_ij and n_i + n_j, both symmetric
in i and j.  A kernel value that overflows becomes inf without a numpy
warning; the finite check of the matrix that holds it names the failure.

The RBF round-off certificate.  Take m stored rows x_i in R^N, r^2 =
max_i ||x_i||^2, u the unit round-off, gamma_N = N u / (1 - N u) and N u <=
2^-10 (any N below 8e12); the dot-product bounds are Higham 2002, Accuracy
and Stability of Numerical Algorithms, section 3.1.

1. The exact Gram matrix K_ij = exp(-gamma d_ij^2), d_ij = ||x_i - x_j||,
   is PSD: the Gaussian kernel is positive definite for every gamma > 0
   (Schoenberg 1938), and a Gram matrix with coincident rows is still PSD.
2. kernel_columns forms d~^2 = fl(fl(n_i + n_j) - 2 c~_ij) from the BLAS
   inner products c~ and their diagonal n.  Each is a dot product, so
   |c~_ij - c_ij| <= gamma_N ||x_i|| ||x_j|| <= gamma_N r^2 and |n_i -
   ||x_i||^2| <= gamma_N r^2, for any summation order, FMA included.  With
   the two roundings of the sum and the difference and d^2 <= 4 r^2,
   |d~^2 - d^2| <= (4 gamma_N + 7 u) r^2.  The clamp at 0 only moves d~^2
   closer to d^2, which is nonnegative.
3. The exponent fl(-gamma d~^2) adds a rounding of at most u gamma (4 r^2 +
   (4 gamma_N + 7 u) r^2), so it is within Delta = gamma (4 gamma_N + 12 u)
   r^2 of -gamma d^2.  np.exp has a relative error of at most c_exp u with
   c_exp = 4, that is 2 ulps: it is within 1 ulp of the C library's exp
   (tested), which is within 1 ulp of e^x; below the normal range its
   error of 2^-1074 is far smaller.  As K_ij <= 1, |K~_ij - K_ij| <= delta
   = e^Delta - 1 + c_exp u e^Delta for every entry.
4. K~ is exactly symmetric (see above), so K~ - K is a symmetric matrix
   whose entries are at most delta in size.  By Weyl's inequality,
   lambda_min(K~) >= lambda_min(K) - ||K~ - K||_2 >= -m delta.  The
   rule's threshold is at most -tol, because max(., 1) >= 1.  So m delta
   <= tol / 2 means psd_check would accept K~; the other half of the
   threshold covers the relative round-off, about N u, of computing r^2,
   Delta and delta themselves, and of the eigenvalues.

The linear and polynomial certificate.  A polynomial kernel is (x . y +
coef0)^d; a linear kernel is its d = 1, coef0 = 0 case, whatever degree
and coef0 its spec carries.  Let s = r^2 + coef0 and eps = gamma_N + 2 u.

5. The exact Gram matrix K = (C + coef0 1 1^T)^d, with C_ij = x_i . x_j
   and the power taken entrywise, is PSD: C and the all-ones matrix are
   PSD, so is their sum with coef0 >= 0, and so are its entrywise powers
   for integer d >= 1 (Schur's product theorem).
6. kernel_columns forms t~ = fl(c~_ij + coef0) with |c~_ij - c_ij| <=
   gamma_N r^2 (step 2) and |c_ij + coef0| <= s, so |t~ - (c_ij + coef0)|
   <= gamma_N r^2 + u (s + gamma_N r^2) <= eps s.  For a linear kernel
   kernel_columns neither adds nor powers, and the bounds below, which
   count both roundings, still hold.
7. As |c_ij + coef0| <= s, |t~^d - (c_ij + coef0)^d| <= (s + eps s)^d -
   s^d.  np.power with an integer exponent has a relative error of at
   most c_pow u with c_pow = 4, that is 2 ulps: it is within 1 ulp of the
   exact power (tested for d = 2 to 8).  So |K~_ij - K_ij| <= s^d ((1 +
   eps)^d - 1 + c_pow u (1 + eps)^d).
8. The row with ||x_i||^2 = r^2 has t~ >= s (1 - gamma_N)(1 - u) >= s (1 -
   eps), so max_i K~_ii >= s^d (1 - eps)^d (1 - c_pow u).  As max |lambda|
   >= lambda_max >= max_i K~_ii, the rule's threshold is at most -tol s^d
   (1 - eps)^d (1 - c_pow u).  Step 4's argument then holds with delta =
   ((1 + eps)^d - 1 + c_pow u (1 + eps)^d) / ((1 - eps)^d (1 - c_pow u)),
   the bound of step 7 over that of step 8: m delta <= tol / 2 means
   psd_check would accept K~.  s^d cancels, so delta depends on N and d
   alone.  Underflow adds at most about N 2^-1074 to an inner product:
   far below eps s unless s is tiny, and then every entry and its error
   are far below the tol / 2 that max(., 1) keeps in the threshold.

On 16 features with r <= 1, gamma = 0.5 and m = 1000, the RBF m delta is
about 5e-12 against tol / 2 = 5e-9; features scaled by 1e3 decline, and a
larger gamma r^2 or m declines sooner.  On 16 features a linear matrix is
certified up to m of about 2e6 and a polynomial one of degree 8 up to
about 3e5, whatever the scale; at m = 1000 a degree above about 2500
declines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SampleMatrix, ValidationError, _as_matrix, _check_memory, _finite
from .core import _UNIT_ROUNDOFF, _row_blocks, _squared_row_norms

__all__ = [
    "KERNEL_FAMILIES",
    "DEFAULT_PSD_TOL",
    "KernelSpec",
    "GramMatrix",
    "kernel_eval",
    "kernel_columns",
    "gram",
    "psd_check",
    "kernel_diagonal",
]

KERNEL_FAMILIES = ("linear", "rbf", "polynomial")

# Relative eigenvalue floor of the PSD check; the round-off certificate
# spends half of it.
DEFAULT_PSD_TOL = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters.

    gamma applies to rbf, degree and coef0 to polynomial; unused fields are
    validated anyway so a spec is serializable regardless of family.
    """

    family: str
    gamma: float = 1.0
    degree: int = 2
    coef0: float = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValidationError(
                f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}"
            )
        if not 0.0 < self.gamma < np.inf:
            raise ValidationError("gamma must be positive and finite")
        if type(self.degree) is bool or not (float(self.degree).is_integer() and self.degree >= 1):
            raise ValidationError("degree must be an integer >= 1")
        object.__setattr__(self, "degree", int(self.degree))
        if not 0.0 <= self.coef0 < np.inf:
            raise ValidationError("coef0 must be finite and nonnegative")

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "gamma": float(self.gamma),
            "degree": self.degree,
            "coef0": float(self.coef0),
        }

    @staticmethod
    def from_dict(payload: dict) -> "KernelSpec":
        return KernelSpec(
            family=payload["family"],
            gamma=float(_json_number(payload.get("gamma", 1.0), "gamma")),
            degree=_json_number(payload.get("degree", 2), "degree"),
            coef0=float(_json_number(payload.get("coef0", 1.0), "coef0")),
        )


def _json_number(value, name: str):
    """``value`` if it is a JSON number (an int or a float, not a bool); a
    ValidationError naming the field otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"field {name!r} must be a number, got {type(value).__name__}")
    return value


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """The kernel's Gram matrix on a sample, built by the constructor and
    accepted by the round-off certificate or by psd_check.

    The values are kernel_columns of the sample against itself, kept as
    computed: they are exactly symmetric by construction (the module
    docstring says why), and the diagonal holds K(x_i, x_i).
    """

    kernel: KernelSpec
    sample: SampleMatrix
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = self.sample.m
        # the round-off certificate of the module docstring reads the
        # tolerance at call time, as psd_check does, so a tolerance <= 0
        # certifies nothing; it needs O(m N) flops and no m x m array
        certified = m * _entry_error(self.kernel, self.sample.values) <= DEFAULT_PSD_TOL / 2.0
        # k alone, or k with the copy that eigvalsh factors
        _check_memory(m, 1 if certified else 2, "the Gram matrix")
        k = kernel_columns(self.kernel, self.sample.values, self.sample.values)
        _finite(k, "Gram matrix")
        # psd_check decides what the certificate does not; a module global
        # looked up at call time, so bench/tracer.py can wrap it
        if not certified:
            psd_check(k)
        # k is kept as kernel_columns returned it: it is exactly symmetric
        # already (module docstring), and a frozen copy would be a second
        # m x m array
        k.setflags(write=False)
        object.__setattr__(self, "values", k)


@np.errstate(over="ignore", divide="ignore")
def _entry_error(spec: KernelSpec, x: np.ndarray) -> float:
    """delta of the module docstring's step 3 (RBF) or step 8 (linear and
    polynomial) for the Gram matrix of the rows of x, as GramMatrix builds
    it; inf when it overflows."""
    n = x.shape[1]
    u = _UNIT_ROUNDOFF
    gamma_n = n * u / (1.0 - n * u)
    if spec.family == "rbf":
        # r^2 from the computed squared norms, each within gamma_N of its own
        r2 = float(_squared_row_norms(x).max()) / (1.0 - gamma_n)
        exponent = spec.gamma * (4.0 * gamma_n + 12.0 * u) * r2
        return float(np.expm1(exponent) + 4.0 * u * np.exp(exponent))
    degree = spec.degree if spec.family == "polynomial" else 1
    # (1 + eps)^d and (1 - eps)^d by logarithms, so that a huge degree
    # gives inf and declines instead of raising
    log_grow = degree * np.log1p(gamma_n + 2.0 * u)
    shrink = np.exp(degree * np.log1p(-(gamma_n + 2.0 * u)))
    return float((np.expm1(log_grow) + 4.0 * u * np.exp(log_grow)) / (shrink * (1.0 - 4.0 * u)))


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of feature vectors."""
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.shape != yv.shape:
        raise ValidationError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    if spec.family == "linear":
        return float(xv @ yv)
    if spec.family == "rbf":
        d = xv - yv
        return float(np.exp(-spec.gamma * (d @ d)))
    return float((xv @ yv + spec.coef0) ** spec.degree)


# An overflowing kernel value becomes inf (or NaN) without a numpy warning;
# the finite check of GramMatrix, of KernelMap.features on fresh points or of
# the certificate's radius q then names the failure once.
@np.errstate(over="ignore", invalid="ignore")
def kernel_columns(spec: KernelSpec, anchors, points) -> np.ndarray:
    """Kernel evaluations of each anchor against each point.

    Returns the (n_anchors x n_points) matrix with entry (i, j) equal to
    K(anchor_i, point_j).
    """
    a = _as_matrix(anchors, "anchor matrix")
    p = _as_matrix(points, "point matrix")
    if a.shape[1] != p.shape[1]:
        raise ValidationError(
            f"dimension mismatch: anchors have {a.shape[1]} features, points {p.shape[1]}"
        )
    inner = a @ p.T
    if spec.family == "polynomial":
        # in place, so no second m x m array; the arithmetic of
        # (inner + coef0) ** degree
        inner += spec.coef0
        inner **= spec.degree
    if spec.family == "rbf":
        if a is p:
            # taking both norms from the inner-product diagonal keeps the
            # self-distances exactly zero, so K(x, x) = 1 exactly; a copy,
            # since inner is scaled in place below
            a_norms = p_norms = np.diag(inner).copy()
        else:
            a_norms = np.sum(a * a, axis=1)
            p_norms = np.sum(p * p, axis=1)
        # into inner, one row block at a time: each entry gets the arithmetic
        # of exp(-gamma max(n_a + n_p - 2 inner, 0)), and beyond inner only
        # one (b x n_points) plane of norm sums is held
        norm_sums = np.empty((next(_row_blocks(*inner.shape), (0, 0))[1], inner.shape[1]))
        for start, stop in _row_blocks(*inner.shape):
            sums = np.add(a_norms[start:stop, None], p_norms[None, :], out=norm_sums[: stop - start])
            rows = inner[start:stop]
            rows *= 2.0
            np.subtract(sums, rows, out=rows)
            np.maximum(rows, 0.0, out=rows)
            rows *= -spec.gamma
            np.exp(rows, out=rows)
    return inner


@np.errstate(over="ignore", invalid="ignore")
def kernel_diagonal(spec: KernelSpec, points) -> np.ndarray:
    """K(x_i, x_i) for each row x_i of ``points``, in O(m N) flops and O(m)
    memory: 1 for RBF, ||x_i||^2 for linear, (||x_i||^2 + coef0)^degree for
    polynomial kernels."""
    p = _as_matrix(points, "point matrix")
    if spec.family == "rbf":
        return np.ones(p.shape[0])
    sq = _squared_row_norms(p)
    if spec.family == "linear":
        return sq
    return (sq + spec.coef0) ** spec.degree


def gram(spec: KernelSpec, sample: SampleMatrix) -> GramMatrix:
    """The Gram matrix of the sample; bench/tracer.py times it by this name."""
    return GramMatrix(spec, sample)


def psd_check(values: np.ndarray) -> None:
    """The PSD decision for a symmetric matrix K: it passes iff its minimum
    eigenvalue is at least -tol max(max |eigenvalues|, 1), tol =
    DEFAULT_PSD_TOL, and a failure raises ValidationError.  This rule is
    the one PSD decision; GramMatrix settles it by the round-off
    certificate of the module docstring when it can, and calls this
    function otherwise.  The symmetric eigenvalue solve holds about one
    more m x m array beside K.
    """
    tol = DEFAULT_PSD_TOL
    eigs = np.linalg.eigvalsh(values)
    min_eig = float(eigs.min())
    threshold = -tol * max(float(np.max(np.abs(eigs))), 1.0)
    if min_eig < threshold:
        raise ValidationError(
            f"Gram matrix fails the PSD check (min eigenvalue {min_eig:g} < {threshold:g})"
        )
