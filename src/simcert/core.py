"""Data containers, validation, and the pairwise stress loss.

A problem instance is a sample of m feature vectors in R^N plus an m x m
matrix of supervised target distances (symmetric, zero diagonal,
nonnegative; the triangle inequality is not assumed).  The loss compares a
predicted pairwise-distance matrix against the targets with a 1/m^2
normalization over all ordered pairs; diagonal pairs are kept in the sum
and contribute exactly zero.
"""

from __future__ import annotations

import warnings
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


def _as_matrix(values, name: str, *checks) -> np.ndarray:
    """``values`` as a 2-D float array that passes each of ``checks``
    (_square, _finite, _symmetric), in order; the messages name the matrix."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    for check in checks:
        check(arr, name)
    return arr


def _square(arr: np.ndarray, name: str) -> None:
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got {arr.shape}")


def _finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")


def _symmetric(arr: np.ndarray, name: str) -> None:
    if not np.array_equal(arr, arr.T):
        raise ValidationError(f"{name} is not symmetric")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SampleMatrix:
    """m feature vectors in R^N, one per row."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values, "sample matrix", _finite)
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
        arr = _as_matrix(self.values, "distance matrix", _square, _finite, _symmetric)
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
        arr = _as_matrix(self.values, "confusion matrix", _square, _finite)
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


def _check_tol(tol: float) -> None:
    """Reject a repair tolerance that is negative, infinite or NaN."""
    if not 0.0 <= tol < np.inf:
        raise ValidationError("tol must be finite and nonnegative")


def validate_distance_matrix(mat, tol: float = 0.0) -> DistanceMatrix:
    """Validate a raw matrix as target distances, repairing within ``tol``.

    Asymmetry up to ``tol`` is symmetrized by averaging (D + D.T) / 2, the
    least-squares symmetric projection.  Diagonal entries within ``tol`` of
    zero are zeroed; entries in [-tol, 0) are clamped to zero.  Anything
    beyond tolerance is rejected.
    """
    _check_tol(tol)
    arr = _as_matrix(mat, "distance matrix", _square, _finite)

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
    _symmetric(confusion.values, "confusion matrix")
    return DistanceMatrix(1.0 - confusion.values)


# Target size in bytes of one (b x m) row-block temporary; pairwise_distances
# and optimizer.stress_state size their row blocks from it.
_BLOCK_BYTES = 1 << 19


def _squared_difference(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- (u_i - v_j)^2 for every i and j."""
    np.subtract(u[:, None], v[None, :], out=out)
    np.multiply(out, out, out=out)
    return out


def _sum_squared_differences(block, cols, acc, tmp) -> None:
    """acc <- sum over coordinates c of the planes (block[c, i] - cols[c, j])^2,
    added in the order of numpy's pairwise summation.

    That order (pairwise_sum in numpy's loops_utils) is sequential below 8
    terms; from 8 to 128 terms it keeps eight partial sums r_j += x[i + j],
    combines them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and
    adds the remainder one term at a time; above 128 it splits at
    n2 = n//2 - (n//2) % 8 and recurses.  tmp is a scratch plane.
    """
    n = len(cols)
    if n == 0:
        acc.fill(0.0)
    elif n < 8:
        _squared_difference(block[0], cols[0], acc)
        for c in range(1, n):
            acc += _squared_difference(block[c], cols[c], tmp)
    elif n <= 128:
        r = [acc] + [np.empty_like(acc) for _ in range(7)]
        for j in range(8):
            _squared_difference(block[j], cols[j], r[j])
        end = n - n % 8
        for c in range(8, end):
            r[c % 8] += _squared_difference(block[c], cols[c], tmp)
        for i, j in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            r[i] += r[j]
        for c in range(end, n):
            acc += _squared_difference(block[c], cols[c], tmp)
    else:
        n2 = n // 2 - (n // 2) % 8
        _sum_squared_differences(block[:n2], cols[:n2], acc, tmp)
        right = np.empty_like(acc)
        _sum_squared_differences(block[n2:], cols[n2:], right, tmp)
        acc += right


def pairwise_distances(points) -> np.ndarray:
    """Euclidean distance matrix between the rows of an m x k array.

    Symmetric with an exactly zero diagonal by construction.  The squared
    distances are accumulated one coordinate at a time, (x_ic - x_jc)^2
    taken from a contiguous copy of the k columns, in row blocks of b rows
    with b sized so that a (b x m) plane takes about _BLOCK_BYTES; no
    (b x m x k) difference broadcast is formed.  The k planes are added in
    numpy's own pairwise-summation order, the order of
    np.sum(diff * diff, axis=2) over the full broadcast, so every entry
    equals that direct difference form bit for bit: no Gram-form
    cancellation at tiny distances.  Beyond the m x m output and the m x k
    column copy, the working memory is a few (b x m) planes: two below 8
    coordinates, about ten from 8 on.
    """
    pts = _as_matrix(points, "point matrix", _finite)
    m = pts.shape[0]
    cols = np.ascontiguousarray(pts.T)
    out = np.empty((m, m))
    rows = max(1, _BLOCK_BYTES // (8 * max(m, 1)))
    tmp = np.empty((min(rows, m), m))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        _sum_squared_differences(
            cols[:, start:stop], cols, out[start:stop], tmp[: stop - start]
        )
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
    resid *= resid
    return float(np.mean(resid))


def _check_sizes(sample: SampleMatrix, distances: DistanceMatrix) -> None:
    """Reject target distances that do not have one row per sample point."""
    if distances.size != sample.m:
        raise ValidationError(
            f"size mismatch: {sample.m} sample points vs {distances.size} distance rows"
        )


def data_radii(sample: SampleMatrix, distances: DistanceMatrix) -> DataRadii:
    """Largest feature norm r and largest target distance beta."""
    _check_sizes(sample, distances)
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
    """Read a headerless CSV matrix written by :func:`write_matrix_csv`.

    A non-numeric field, a ragged row or a file without rows raises
    ValidationError.
    """
    with warnings.catch_warnings():
        # an empty file is rejected below, by name, in place of numpy's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            arr = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed CSV matrix: {exc}") from exc
    if arr.size == 0:
        raise ValidationError(f"{path}: empty CSV matrix")
    return arr
