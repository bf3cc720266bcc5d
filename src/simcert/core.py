"""Data containers, validation, and the pairwise stress loss.

A problem instance is a sample of m feature vectors in R^N plus an m x m
matrix of supervised target distances (symmetric, zero diagonal,
nonnegative; the triangle inequality is not assumed).  The loss compares a
predicted pairwise-distance matrix against the targets with a 1/m^2
normalization over all ordered pairs; diagonal pairs are kept in the sum
and contribute exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "SampleMatrix",
    "DistanceMatrix",
    "ConfusionMatrix",
    "DataRadii",
    "validate_distance_matrix",
    "confusion_to_distance",
    "pairwise_distances",
    "empirical_risk",
    "data_radii",
    "read_matrix_csv",
    "write_matrix_csv",
]


class ValidationError(ValueError):
    """Raised when input data violates a container invariant."""


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SampleMatrix:
    """m feature vectors in R^N, one per row."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values, "sample matrix")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("sample matrix contains non-finite entries")
        if arr.shape[0] < 2:
            raise ValidationError(f"need at least 2 sample points, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise ValidationError("sample points need at least 1 feature")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DistanceMatrix:
    """Supervised m x m target distances.

    Invariants are enforced exactly as stored: symmetry, zero diagonal,
    nonnegativity, finiteness.  Use :func:`validate_distance_matrix` to
    admit measured matrices that satisfy them only up to a tolerance.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values, "distance matrix")
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"distance matrix must be square, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("distance matrix contains non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ValidationError("distance matrix is not symmetric")
        if np.any(np.diag(arr) != 0.0):
            raise ValidationError("distance matrix diagonal must be exactly zero")
        if np.any(arr < 0.0):
            raise ValidationError("distance matrix has negative entries")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def max_distance(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class ConfusionMatrix:
    """Pairwise confusion rates in [0, 1] with unit diagonal."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values, "confusion matrix")
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"confusion matrix must be square, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("confusion matrix contains non-finite entries")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValidationError("confusion matrix entries must lie in [0, 1]")
        if np.any(np.diag(arr) != 1.0):
            raise ValidationError("confusion matrix diagonal must be exactly one")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DataRadii:
    """Data-dependent radii entering every certificate.

    r is the largest feature norm in the sample; beta is the largest
    target distance.
    """

    r: float
    beta: float

    def __post_init__(self):
        if not (self.r >= 0.0 and self.beta >= 0.0):
            raise ValidationError("radii must be nonnegative")


def validate_distance_matrix(mat, tol: float = 0.0) -> DistanceMatrix:
    """Validate a raw matrix as target distances, repairing within ``tol``.

    Asymmetry up to ``tol`` is symmetrized by averaging (D + D.T) / 2, the
    least-squares symmetric projection.  Diagonal entries within ``tol`` of
    zero are zeroed; entries in [-tol, 0) are clamped to zero.  Anything
    beyond tolerance is rejected.
    """
    if tol < 0.0:
        raise ValidationError("tol must be nonnegative")
    arr = _as_matrix(mat, "distance matrix")
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"distance matrix must be square, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("distance matrix contains non-finite entries")

    asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
    if asym > tol:
        raise ValidationError(f"asymmetry {asym:g} exceeds tolerance {tol:g}")
    sym = (arr + arr.T) / 2.0

    diag_err = float(np.max(np.abs(np.diag(sym)))) if arr.size else 0.0
    if diag_err > tol:
        raise ValidationError(f"diagonal magnitude {diag_err:g} exceeds tolerance {tol:g}")

    most_negative = float(sym.min()) if arr.size else 0.0
    if most_negative < -tol:
        raise ValidationError(
            f"entry {most_negative:g} is negative beyond tolerance {tol:g}"
        )

    out = np.maximum(sym, 0.0)
    np.fill_diagonal(out, 0.0)
    return DistanceMatrix(out)


def confusion_to_distance(confusion: ConfusionMatrix) -> DistanceMatrix:
    """Convert confusion rates to target distances, entrywise D = 1 - C."""
    c = confusion.values
    if not np.array_equal(c, c.T):
        raise ValidationError("confusion matrix must be symmetric to induce distances")
    return DistanceMatrix(1.0 - c)


# Rows per block of the pairwise difference broadcast in pairwise_distances.
_DISTANCE_BLOCK_ROWS = 64


def pairwise_distances(points) -> np.ndarray:
    """Euclidean distance matrix between the rows of an m x k array.

    Symmetric with an exactly zero diagonal by construction.  The
    differences are formed _DISTANCE_BLOCK_ROWS rows at a time, so the
    working memory grows with m^2 rather than m^2 k; each entry is reduced
    exactly as in a single full broadcast.
    """
    pts = _as_matrix(points, "point matrix")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("point matrix contains non-finite entries")
    m = pts.shape[0]
    out = np.empty((m, m))
    for start in range(0, m, _DISTANCE_BLOCK_ROWS):
        stop = start + _DISTANCE_BLOCK_ROWS
        diff = pts[start:stop, None, :] - pts[None, :, :]
        diff *= diff
        np.sum(diff, axis=2, out=out[start:stop])
    np.sqrt(out, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def empirical_risk(predicted, target: DistanceMatrix) -> float:
    """Mean squared distance error (1/m^2) sum_ij (Dhat_ij - D_ij)^2.

    The double sum runs over all m^2 ordered pairs including the diagonal,
    which contributes zero when both diagonals vanish.
    """
    pred = _as_matrix(predicted, "predicted distance matrix")
    if pred.shape != target.values.shape:
        raise ValidationError(
            f"shape mismatch: predicted {pred.shape} vs target {target.values.shape}"
        )
    resid = pred - target.values
    return float(np.mean(resid * resid))


def data_radii(sample: SampleMatrix, distances: DistanceMatrix) -> DataRadii:
    """Largest feature norm r and largest target distance beta."""
    if distances.size != sample.m:
        raise ValidationError(
            f"size mismatch: {sample.m} sample points vs {distances.size} distance rows"
        )
    r = float(np.max(np.linalg.norm(sample.values, axis=1)))
    return DataRadii(r=r, beta=distances.max_distance)


def write_matrix_csv(path, mat) -> None:
    """Write a matrix as headerless CSV, one row per line, LF endings.

    Values are formatted with 17 significant digits so float64 round-trips
    exactly.
    """
    arr = np.atleast_2d(np.asarray(mat, dtype=float))
    np.savetxt(path, arr, delimiter=",", fmt="%.17e", newline="\n")


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix written by :func:`write_matrix_csv`."""
    arr = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    return arr
