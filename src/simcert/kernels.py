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
anchors.  psd_check applies the rule: a Cholesky screen accepts most Gram
matrices, several times cheaper than the eigenvalues, which are computed
only when the screen fails.  An RBF Gram matrix is first offered to a
round-off certificate that proves, in O(m N) flops and before any
factorization, that psd_check would accept it; psd_check runs only when
the certificate declines.  The radius q that certify reads comes from the
kernel diagonal alone (kernel_diagonal, via KernelMap.feature_radius),
never from a Gram matrix.  kernel_columns turns RBF inner products into
kernel values in place, and GramMatrix mirrors its upper triangle, both in
row blocks of the one policy of core._row_blocks, so a Gram matrix is one
m x m array from its inner products on.  A kernel value that
overflows becomes inf without a numpy warning; the finite check of the
matrix that holds it names the failure.

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
   = e^Delta - 1 + c_exp u e^Delta for every entry, mirrored ones included.
4. By Weyl's inequality, lambda_min(K~) >= lambda_min(K) - ||K~ - K||_2 >=
   -m delta.  The rule's threshold is at most -tol, because max(., 1) >= 1.
   So m delta <= tol / 2 means psd_check would accept K~; the other half of
   the threshold covers the relative round-off, about N u, of computing
   r^2, Delta and delta themselves, and of the eigenvalues.

On 16 features with r <= 1, gamma = 0.5 and m = 1000, m delta is about
5e-12 against tol / 2 = 5e-9; features scaled by 1e3 decline, and a larger
gamma r^2 or m declines sooner.
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

# Relative eigenvalue floor of the PSD check, screen included.
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
        if not (float(self.degree).is_integer() and self.degree >= 1):
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
            gamma=float(payload.get("gamma", 1.0)),
            degree=payload.get("degree", 2),
            coef0=float(payload.get("coef0", 1.0)),
        )


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """The kernel's Gram matrix on a sample, built by the constructor and
    accepted by the round-off certificate (RBF) or by psd_check.

    Exact symmetry is enforced by copying the strict upper triangle onto
    the lower one in place, a block of b rows at a time, so the copy needs
    no m x m temporary; the diagonal holds K(x_i, x_i).
    """

    kernel: KernelSpec
    sample: SampleMatrix
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = self.sample.m
        # the round-off certificate of the module docstring reads the
        # tolerance at call time, as psd_check does, so a negative tolerance
        # certifies nothing; it needs O(m N) flops and no m x m array
        certified = self.kernel.family == "rbf" and (
            m * _rbf_entry_error(self.kernel, self.sample.values) <= DEFAULT_PSD_TOL / 2.0
        )
        # k alone, or k with psd_check's shifted copy and factor
        _check_memory(m, 1 if certified else 3, "the Gram matrix")
        k = kernel_columns(self.kernel, self.sample.values, self.sample.values)
        for start, stop in _row_blocks(k.shape[0]):
            diag = k[start:stop, start:stop]
            lower = np.tril_indices(stop - start, -1)
            diag[lower] = diag.T[lower]
            k[stop:, start:stop] = k[start:stop, stop:].T
        _finite(k, "Gram matrix")
        # psd_check decides what the certificate does not; a module global
        # looked up at call time, so bench/tracer.py can wrap it
        if not certified:
            psd_check(k)
        # k is kept, not copied.  bench/worker.py's fit_rbf loop (m = 1000)
        # read 97.6 MB peak RSS, against 98.1-98.2 MB for the copy; dropping
        # the copy while kernel_columns still held an m x m temporary read
        # 105.8 MB.  2 cores, numpy 2.4.6 on OpenBLAS
        k.setflags(write=False)
        object.__setattr__(self, "values", k)


@np.errstate(over="ignore")
def _rbf_entry_error(spec: KernelSpec, x: np.ndarray) -> float:
    """delta of the module docstring's step 3: a bound on the error of every
    entry of the RBF Gram matrix of the rows of x, as GramMatrix builds it."""
    n = x.shape[1]
    u = _UNIT_ROUNDOFF
    gamma_n = n * u / (1.0 - n * u)
    # r^2 from the computed squared norms, each within gamma_N of its own
    r2 = float(_squared_row_norms(x).max()) / (1.0 - gamma_n)
    exponent = spec.gamma * (4.0 * gamma_n + 12.0 * u) * r2
    return float(np.expm1(exponent) + 4.0 * u * np.exp(exponent))


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
    if spec.family == "linear":
        return inner
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
    return (inner + spec.coef0) ** spec.degree


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
    the one PSD decision; GramMatrix settles it for an RBF matrix by the
    round-off certificate of the module docstring when it can, and calls
    this function otherwise.

    A Cholesky screen decides first: K + tau I with tau = (tol / 2)
    max(max_i K_ii, 1).  A factor implies a pass: K + tau I positive
    definite means lambda_min >= -tau, and the threshold is
    tol max(max |lambda|, 1) >= 2 tau, because max |lambda| >= lambda_max >=
    max_i K_ii (K_ii = e_i^T K e_i).  The factorization is exact for
    K + tau I + E with ||E||_2 at most about m^2 u ||K||_2 (u the unit
    round-off) and ||K||_2 <= max |lambda|, so the other half of the
    threshold covers E while m^2 eps <= tol / 2, m up to about 4700 at
    tol = 1e-8; a larger matrix is not screened.  One shifted copy of K is
    factored, in m^3 / 3 flops against the several times costlier symmetric
    eigenvalue solve, which runs only when the screen finds no factor.
    """
    tol = DEFAULT_PSD_TOL
    if values.shape[0] ** 2 * np.finfo(float).eps <= tol / 2.0:
        diag = np.diag(values)
        shifted = np.array(values)
        np.fill_diagonal(shifted, diag + (tol / 2.0) * diag.max(initial=1.0))
        try:
            np.linalg.cholesky(shifted)
            return
        except np.linalg.LinAlgError:
            pass
    eigs = np.linalg.eigvalsh(values)
    min_eig = float(eigs.min())
    threshold = -tol * max(float(np.max(np.abs(eigs))), 1.0)
    if min_eig < threshold:
        raise ValidationError(
            f"Gram matrix fails the PSD check (min eigenvalue {min_eig:g} < {threshold:g})"
        )
