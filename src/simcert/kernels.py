"""PDS kernels, Gram matrices, and the feature-space radius q.

Three families are supported: linear (x . y), RBF (exp(-gamma ||x - y||^2),
for which K(x, x) = 1 and hence q = 1), and polynomial ((x . y + coef0)^degree).
Positive semidefiniteness is an assumption of the kernel certificates; it is
checked empirically on the sampled Gram matrix against an eigenvalue
threshold (psd_check).  psd_screen accepts most Gram matrices that pass that
check with one Cholesky factorization, several times cheaper than the
eigenvalues; a caller falls back to psd_check when the screen fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_BYTES, SampleMatrix, ValidationError, _as_matrix, _freeze

__all__ = [
    "KERNEL_FAMILIES",
    "DEFAULT_PSD_TOL",
    "KernelSpec",
    "GramMatrix",
    "PsdCheck",
    "kernel_eval",
    "kernel_columns",
    "gram",
    "psd_check",
    "psd_screen",
    "kernel_diagonal",
    "feature_space_radius",
]

KERNEL_FAMILIES = ("linear", "rbf", "polynomial")

# Relative eigenvalue floor used when a caller does not pick its own.
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
        if int(self.degree) != self.degree or self.degree < 1:
            raise ValidationError("degree must be an integer >= 1")
        if not 0.0 <= self.coef0 < np.inf:
            raise ValidationError("coef0 must be finite and nonnegative")

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "gamma": float(self.gamma),
            "degree": int(self.degree),
            "coef0": float(self.coef0),
        }

    @staticmethod
    def from_dict(payload: dict) -> "KernelSpec":
        return KernelSpec(
            family=payload["family"],
            gamma=float(payload.get("gamma", 1.0)),
            degree=int(payload.get("degree", 2)),
            coef0=float(payload.get("coef0", 1.0)),
        )


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of kernel evaluations on a sample."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values, "Gram matrix")
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"Gram matrix must be square, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("Gram matrix contains non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ValidationError("Gram matrix is not symmetric")
        if np.any(np.diag(arr) < 0.0):
            raise ValidationError("Gram matrix has a negative diagonal entry")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PsdCheck:
    """Outcome of the empirical positive-semidefiniteness check."""

    passed: bool
    min_eigenvalue: float
    threshold: float


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
        # in place after the one new array: the same arithmetic as
        # exp(-gamma max(n_a + n_p - 2 inner, 0)) without its temporaries
        sq = np.add(a_norms[:, None], p_norms[None, :])
        inner *= 2.0
        sq -= inner
        np.maximum(sq, 0.0, out=sq)
        sq *= -spec.gamma
        return np.exp(sq, out=sq)
    return (inner + spec.coef0) ** spec.degree


def kernel_diagonal(spec: KernelSpec, points) -> np.ndarray:
    """K(x_i, x_i) for each row x_i of ``points``, in O(m N) flops and O(m)
    memory: 1 for RBF, ||x_i||^2 for linear, (||x_i||^2 + coef0)^degree for
    polynomial kernels."""
    p = _as_matrix(points, "point matrix")
    if spec.family == "rbf":
        return np.ones(p.shape[0])
    sq = np.einsum("ij,ij->i", p, p)
    if spec.family == "linear":
        return sq
    return (sq + spec.coef0) ** spec.degree


def gram(spec: KernelSpec, sample: SampleMatrix) -> GramMatrix:
    """Gram matrix of the sample; exact symmetry is enforced by copying the
    strict upper triangle onto the lower one in place, a block of b rows at
    a time, so the copy needs no m x m temporary."""
    k = kernel_columns(spec, sample.values, sample.values)
    m = k.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * m))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        diag = k[start:stop, start:stop]
        lower = np.tril_indices(stop - start, -1)
        diag[lower] = diag.T[lower]
        k[stop:, start:stop] = k[start:stop, stop:].T
    return GramMatrix(k)


def psd_check(gram_matrix: GramMatrix, tol: float = DEFAULT_PSD_TOL) -> PsdCheck:
    """Empirical PSD check: pass iff the minimum eigenvalue does not fall
    below -tol * max(|eigenvalues|, 1)."""
    if tol < 0.0:
        raise ValidationError("tol must be nonnegative")
    eigs = np.linalg.eigvalsh(gram_matrix.values)
    min_eig = float(eigs.min())
    threshold = -tol * max(float(np.max(np.abs(eigs))), 1.0)
    return PsdCheck(passed=min_eig >= threshold, min_eigenvalue=min_eig, threshold=threshold)


def psd_screen(gram_matrix: GramMatrix) -> bool:
    """True when K + tau I has a Cholesky factor, tau = (tol / 2) max(max_i K_ii, 1)
    with tol = DEFAULT_PSD_TOL, the tolerance psd_check uses by default.

    A True screen implies that psd_check(gram_matrix) passes: K + tau I
    positive definite means lambda_min >= -tau, and the threshold of
    psd_check is tol max(max |lambda|, 1) >= 2 tau, because
    max |lambda| >= lambda_max >= max_i K_ii (K_ii = e_i^T K e_i).  The
    factorization is exact for K + tau I + E with ||E||_2 at most about
    m^2 u ||K||_2 (u the unit round-off) and ||K||_2 <= max |lambda|, so
    the other half of the threshold covers E while m^2 eps <= tol / 2, m up
    to about 4700 at the default tol; a larger matrix is not screened.  A
    False screen decides nothing; the caller then runs psd_check.  One
    shifted copy of K is factored, in m^3 / 3 flops against the several
    times costlier symmetric eigenvalue solve.
    """
    k = gram_matrix.values
    if k.shape[0] ** 2 * np.finfo(float).eps > DEFAULT_PSD_TOL / 2.0:
        return False
    diag = np.diag(k)
    shifted = np.array(k)
    np.fill_diagonal(shifted, diag + (DEFAULT_PSD_TOL / 2.0) * max(float(diag.max()), 1.0))
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def feature_space_radius(gram_matrix: GramMatrix) -> float:
    """Radius q = max_i sqrt(K_ii) of the sample in kernel feature space."""
    diag = np.diag(gram_matrix.values)
    if np.any(diag < 0.0):
        raise ValidationError("Gram matrix has a negative diagonal entry")
    return float(np.sqrt(diag.max()))
