"""Data containers, validation, pairwise distances and the stress loss.

A problem instance is a sample of m feature vectors in R^N plus an m x m
matrix of supervised target distances (symmetric, zero diagonal,
nonnegative; the triangle inequality is not assumed).  The loss compares a
predicted pairwise-distance matrix against the targets with a 1/m^2
normalization over all ordered pairs; diagonal pairs are kept in the sum
and contribute exactly zero.

Every pairwise-distance helper lives here, in two forms:

- the direct form, pairwise_distances, sums (y_ic - y_jc)^2 over the
  coordinates.  It has no cancellation at tiny distances, so it gives
  the synthetic targets and every reported risk: train's final_risk,
  certify's R_hat and the holdout risk all come from one streamed
  reduction, streamed_risk, which sums each unordered pair once, block by
  block, and never holds an m x m matrix;
- the Gram form, gram_form_squared_distances, takes n_i + n_j - 2 y_i . y_j
  from one matrix product.  It runs at BLAS speed but loses relative
  accuracy at distances far below the row norms, so it is used only in the
  stress pass (optimizer), whose values and gradients feed the descent.
  The product is a GEMM against a row-major transposed copy, -2 y^T, and
  never the symmetric rank-k update (BLAS syrk) that numpy uses for
  y @ y.T: with OpenBLAS 0.3.31 on 2 cores, syrk takes 51 us at 200 x 16
  (34 us on one thread) where the GEMM takes 20 us.

pairwise_distances, streamed_risk, validate_distance_matrix, the stress
pass and kernels.GramMatrix visit an m x m matrix in blocks of b rows under
one policy, _row_blocks: b = max(1, _BLOCK_BYTES // (8 m)), so a (b x m)
float temporary takes about _BLOCK_BYTES.

Each m x m matrix is held once from its maker to its container: a maker
that builds the array fresh (validate_distance_matrix after its one copy of
the caller's matrix, read_distance_csv, harness.generate_synthetic,
confusion_to_distance) hands it to DistanceMatrix through _adopt_distances,
which runs the constructor's checks and keeps the array read-only instead
of copying it; the public constructor still copies.  Before the first m x m
array is allocated from an input's size, _check_memory compares the arrays
that path then holds at once with the available memory (MemAvailable, or
the physical memory where /proc/meminfo cannot be read): one for the
distances CSV and for a Gram matrix that the round-off certificate
accepts, two for a Gram matrix that psd_check decides (the matrix and the
copy its eigenvalue solve factors), one for the synthetic targets plus
the draw beside them (harness._check_draw), and for
bounds.empirical_rademacher_mc a count that bounds._mc_arrays derives from
the first row block and the class.

The CSV and JSON formats live here too: read_matrix_csv, read_distance_csv,
write_matrix_csv and write_json.  Every output file, harness's trials CSV
included, is written into place (_written_into_place): the text streams
into a temporary file beside the destination, which os.replace moves onto
it only once the text is complete, so an error leaves no truncated output
and no temporary, and a JSON report is never held as one string.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
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
    "gram_form_squared_distances",
    "empirical_risk",
    "streamed_risk",
    "data_radii",
    "read_matrix_csv",
    "read_distance_csv",
    "write_matrix_csv",
    "write_json",
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
    # row block by row block (_row_blocks), so the mask is one block, not m x m
    for start, stop in _row_blocks(*arr.shape):
        if not np.isfinite(arr[start:stop]).all():
            raise ValidationError(f"{name} contains non-finite entries")


def _symmetric(arr: np.ndarray, name: str) -> None:
    if not np.array_equal(arr, arr.T):
        raise ValidationError(f"{name} is not symmetric")


_MAX_FLOAT = float(np.finfo(np.float64).max)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


_MEMINFO = "/proc/meminfo"


def _available_memory() -> int:
    """Bytes a new allocation can take without swapping: MemAvailable from
    _MEMINFO, or the physical memory where that field cannot be read."""
    try:
        with open(_MEMINFO, "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(m: int, arrays: float, what: str) -> None:
    """Raise ValidationError when ``arrays`` float m x m arrays (a count
    that may be fractional), which ``what`` holds at once, need more bytes
    than the available memory (_available_memory); called before the first
    of them is allocated."""
    need = math.ceil(arrays * 8 * m * m)
    have = _available_memory()
    if need > have:
        raise ValidationError(
            f"{what} at m = {m} needs {need / 2**30:.3g} GiB, above RAM"
            f" ({have / 2**30:.3g} GiB available)"
        )


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """m feature vectors in R^N, one per row."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values, "sample matrix")
        if arr.shape[0] < 2:
            raise ValidationError(f"need at least 2 sample points, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise ValidationError("sample points need at least 1 feature")
        # every loss and kernel squares differences of sample points, which
        # are at most 2 r apart; a NaN or an infinite entry fails this too
        # (einsum sets no floating-point flags, so an overflow is silent)
        if not _squared_row_norms(arr).max() <= _MAX_FLOAT / 4.0:
            _finite(arr, "sample matrix")
            raise ValidationError("sample points too large: their squared distances overflow")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def radius(self) -> float:
        """r, the largest feature norm in the sample."""
        return float(np.max(np.linalg.norm(self.values, axis=1)))


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Supervised m x m target distances.

    Invariants are enforced exactly as stored: symmetry, zero diagonal,
    nonnegativity, finiteness.  Use :func:`validate_distance_matrix` to
    admit measured matrices that satisfy them only up to a tolerance.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(_distance_values(self.values)))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def max_distance(self) -> float:
        return float(self.values.max())

    def upper_rows(self):
        """Rows start:stop on columns start:m for each block (start, stop) of
        _row_blocks(m), in order: the target blocks of streamed_risk."""
        return (self.values[start:stop, start:] for start, stop in _row_blocks(self.size))


def _distance_values(values) -> np.ndarray:
    """``values`` as a float array that passes DistanceMatrix's checks."""
    arr = _as_matrix(values, "distance matrix", _square, _finite, _symmetric)
    if np.any(np.diag(arr) != 0.0):
        raise ValidationError("distance matrix diagonal must be exactly zero")
    if np.any(arr < 0.0):
        raise ValidationError("distance matrix has negative entries")
    return arr


def _adopt_distances(arr: np.ndarray) -> DistanceMatrix:
    """A DistanceMatrix that keeps ``arr``, a float array its caller built
    fresh and hands over: the constructor's checks run, and ``arr`` is made
    read-only instead of copied."""
    arr = _distance_values(arr)
    arr.setflags(write=False)
    distances = object.__new__(DistanceMatrix)
    object.__setattr__(distances, "values", arr)
    return distances


@dataclass(frozen=True, eq=False)
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
    beyond tolerance is rejected.  The caller's matrix is copied once and
    never written; the copy is repaired in place (_repair_distances) and
    kept by the DistanceMatrix, so beyond the input and the output only
    (b x m) block temporaries and the checks' m x m bool masks are held.
    """
    return _repair_distances(np.array(mat, dtype=float), tol)


def _repair_distances(arr: np.ndarray, tol: float) -> DistanceMatrix:
    """validate_distance_matrix of ``arr``, a float array its caller built
    fresh and hands over, repaired in place and kept (_adopt_distances).

    Each block (start, stop) of _row_blocks reads rows start:stop on columns
    start:m and their mirror, rows start:m on columns start:stop, which no
    earlier block has written.  It measures their asymmetry and writes their
    average to both, so every entry is bitwise that of the materialized
    (raw + raw.T) / 2.
    """
    _check_tol(tol)
    arr = _as_matrix(arr, "distance matrix", _square, _finite)
    m = arr.shape[0]
    # one scratch plane, as tall as the first block, the tallest
    scratch = np.empty((next(_row_blocks(m), (0, 0))[1], m))
    asym = 0.0
    for start, stop in _row_blocks(m):
        upper, lower = arr[start:stop, start:], arr[start:, start:stop].T
        # an overflowing difference is an infinite asymmetry; an overflowing
        # sum is averaged as upper / 2 + lower / 2, exact where it is finite
        with np.errstate(over="ignore"):
            diff = np.subtract(upper, lower, out=scratch[: stop - start, : m - start])
            asym = max(asym, float(np.abs(diff, out=diff).max()))
            avg = np.add(upper, lower, out=diff)
        avg /= 2.0
        over = np.isinf(avg)
        if over.any():
            avg[over] = upper[over] / 2.0 + lower[over] / 2.0
        upper[...] = avg
        arr[start:, start:stop] = avg.T
    if asym > tol:
        raise ValidationError(f"asymmetry {asym:g} exceeds tolerance {tol:g}")

    diag_err = float(np.max(np.abs(np.diag(arr)))) if arr.size else 0.0
    if diag_err > tol:
        raise ValidationError(f"diagonal magnitude {diag_err:g} exceeds tolerance {tol:g}")

    most_negative = float(arr.min()) if arr.size else 0.0
    if most_negative < -tol:
        raise ValidationError(
            f"entry {most_negative:g} is negative beyond tolerance {tol:g}"
        )

    np.maximum(arr, 0.0, out=arr)
    np.fill_diagonal(arr, 0.0)
    return _adopt_distances(arr)


def confusion_to_distance(confusion: ConfusionMatrix) -> DistanceMatrix:
    """Convert confusion rates to target distances, entrywise D = 1 - C."""
    _symmetric(confusion.values, "confusion matrix")
    return _adopt_distances(1.0 - confusion.values)


# Target size in bytes of one (b x m) row-block temporary; _row_blocks alone
# reads it.
_BLOCK_BYTES = 1 << 19

# Unit round-off of float64: |fl(x) - x| <= u |x|.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


def _row_blocks(m: int, width: int | None = None):
    """(start, stop) of consecutive blocks of b rows covering rows 0:m, with
    b = max(1, _BLOCK_BYTES // (8 width)) so that a (b x width) float plane
    takes about _BLOCK_BYTES; width defaults to m."""
    width = m if width is None else width
    rows = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    for start in range(0, m, rows):
        yield start, min(start + rows, m)


def _squared_row_norms(y: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of each row of y."""
    return np.einsum("ij,ij->i", y, y)


def _direct_rows(cols: np.ndarray, start: int, stop: int, first: int, out, plane):
    """Direct-form distances from points start:stop to points first:n, into
    ``out`` ((stop - start) x (n - first)).

    ``cols`` holds one coordinate per row (k x n, k >= 1) and ``plane`` is
    scratch of out's shape.  Plane 0, (x_i0 - x_j0)^2, is written into out,
    planes 1..k-1 are added to it in order, then the square root is taken,
    so each entry gets the same arithmetic whatever block it falls in.
    """
    np.subtract(cols[0, start:stop, None], cols[0, first:], out=out)
    out *= out
    for c in range(1, cols.shape[0]):
        np.subtract(cols[c, start:stop, None], cols[c, first:], out=plane)
        plane *= plane
        out += plane
    return np.sqrt(out, out=out)


def pairwise_distances(points) -> np.ndarray:
    """Euclidean distance matrix between the rows of an m x k array, in the
    direct form.

    Symmetric with an exactly zero diagonal by construction: (x_i - x_j)^2
    and (x_j - x_i)^2 are the same float, and x - x = +0.0 for the finite
    coordinates that are the only ones accepted, so no pass repairs either
    property afterwards.  The squared
    distances are accumulated one coordinate at a time from a contiguous
    copy of the k columns, block by block (_row_blocks, _direct_rows): no
    (b x m x k) difference broadcast is formed.  Below 8 coordinates this
    is the order of np.sum(diff * diff, axis=2) over the full broadcast,
    bit for bit.  Beyond the m x m output and the m x k column copy, the
    working memory is one (b x m) plane.
    """
    pts = _as_matrix(points, "point matrix", _finite)
    m, k = pts.shape
    if m == 0 or k == 0:
        return np.zeros((m, m))
    cols = np.ascontiguousarray(pts.T)
    out = np.empty((m, m))
    # one scratch plane, as tall as the first block, the tallest
    scratch = np.empty_like(out[: next(_row_blocks(m))[1]])
    for start, stop in _row_blocks(m):
        _direct_rows(cols, start, stop, 0, out[start:stop], scratch[: stop - start])
    return out


def streamed_risk(points, target_blocks) -> float:
    """Empirical risk (1/n^2) sum_ij (dhat_ij - D_ij)^2 of n >= 1 points
    against targets that arrive block by block, dhat the direct-form
    distances between the points.

    ``target_blocks`` yields, for each block (start, stop) of _row_blocks(n)
    in order, the targets of rows start:stop on columns start:n
    (DistanceMatrix.upper_rows, or a generator that draws them); each block
    is read before the next is asked for, so a generator may reuse one
    buffer.  The targets must be symmetric with a zero diagonal, as the
    distances are, so each unordered pair is summed once: in each block the
    diagonal sub-block [start, stop)^2 counts once and columns stop:n
    twice.  This is every reported risk's one summation path.  Working
    memory is two (b x n) planes; no n x n matrix is held.

    Non-finite points raise ValidationError.  An overflowing distance or
    residual gives a non-finite risk without a warning; the caller decides
    what that means.
    """
    pts = _as_matrix(points, "point matrix", _finite)
    n = pts.shape[0]
    if n == 0:
        raise ValidationError("need at least 1 point")
    # points without coordinates all coincide: pad one zero coordinate
    cols = np.ascontiguousarray(pts.T) if pts.shape[1] else np.zeros((1, n))
    resid_rows = np.empty((next(_row_blocks(n))[1], n))
    plane_rows = np.empty_like(resid_rows)
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for (start, stop), target in zip(_row_blocks(n), target_blocks, strict=True):
            b, width = stop - start, n - start
            resid = _direct_rows(
                cols, start, stop, start, resid_rows[:b, :width], plane_rows[:b, :width]
            )
            resid -= target
            resid *= resid
            total += resid[:, :b].sum() + 2.0 * resid[:, b:].sum()
    return float(total) / (n * n)


def gram_form_squared_distances(
    y: np.ndarray, start: int = 0, stop: int | None = None, norms: np.ndarray | None = None,
    *, minus2_yt: np.ndarray | None = None, out: tuple | None = None,
) -> np.ndarray:
    """Squared distances from rows start:stop of y to every row of y, in the
    Gram form.

    Entry (i, j) is n_i + n_j - 2 c_ij with n the squared row norms and
    c = y[start:stop] y^T, so a block of b rows costs O(b m k) flops and
    O(b m) memory; the default range is the whole m x m matrix.  A caller
    visiting y block by block passes n as ``norms``, computed once with
    _squared_row_norms, and -2 y^T, a row-major (k x m) array, as
    ``minus2_yt`` (the scale by -2 is exact).  The product is always the
    GEMM y[start:stop] @ minus2_yt, never syrk (see the module docstring),
    whether or not the operand is passed, so the stress pass and a direct
    call agree.  A block can still differ from the same rows of the whole
    matrix in the last bit, as OpenBLAS tiles its rows differently.  An
    entry at or below the dot-product round-off bound 2 (k + 2) u
    (n_i + n_j), u the unit round-off, cannot be told from zero in this
    form and is set to zero.  This clamps round-off negatives and makes the
    distance between coincident rows, and so the diagonal, exactly zero for
    finite y.

    ``out``, if given, is three planes of the block's shape: the squared
    distances are written into the first, which is returned, the second
    ends holding the clamp bound and the third, bool, is True exactly where
    an entry was clamped, so the result is zero there and nowhere else.
    """
    if norms is None:
        norms = _squared_row_norms(y)
    if minus2_yt is None:
        minus2_yt = np.multiply(y.T, -2.0, order="C")
    rows = y[start:stop]
    if out is None:
        shape = (rows.shape[0], y.shape[0])
        out = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))
    sq, floor, clamped = out
    np.matmul(rows, minus2_yt, out=sq)
    # n_i + n_j as the rank-2 GEMM [1, n_i] . [n_j, 1]: it rounds once, as
    # the broadcast sum does, so it is that sum bit for bit, in a quarter of
    # its time at 200 x 200
    ends = np.ones((3, y.shape[0]))
    ends[1] = norms
    np.matmul(ends[:2, start:stop].T, ends[1:], out=floor)
    sq += floor
    floor *= 2.0 * (y.shape[1] + 2) * _UNIT_ROUNDOFF
    np.less_equal(sq, floor, out=clamped)
    np.copyto(sq, 0.0, where=clamped)
    return sq


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
    return DataRadii(r=sample.radius, beta=distances.max_distance)


@contextlib.contextmanager
def _written_into_place(path):
    """A text file (UTF-8, LF line ends) on a new temporary file beside
    ``path``, for a with block: when the block ends, the temporary is closed
    and os.replace moves it onto ``path``; when it raises, the temporary is
    closed and deleted and ``path`` is left as it was.  The temporary is
    created with mode 0o666 less the umask, as a plain open(path, "w")
    creates a file."""
    head, tail = os.path.split(os.fspath(path))
    while True:
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_matrix_csv(path, mat) -> None:
    """Write a matrix as headerless CSV, one row per line, LF endings,
    into place (_written_into_place).

    Values are formatted with 17 significant digits so float64 round-trips
    exactly.
    """
    arr = np.atleast_2d(np.asarray(mat, dtype=float))
    with _written_into_place(path) as fh:
        np.savetxt(fh, arr, delimiter=",", fmt="%.17e", newline="\n")


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


def _first_line_fields(path) -> int:
    """The comma-separated fields on the first line of a file, from one
    readline; 0 when it cannot be opened, so read_matrix_csv names that."""
    try:
        with open(path, "rb") as fh:
            return fh.readline().count(b",") + 1
    except OSError:
        return 0


def read_distance_csv(path, tol: float) -> DistanceMatrix:
    """Target distances from a CSV written by :func:`write_matrix_csv`,
    checked and repaired within ``tol`` as validate_distance_matrix does.

    The matrix is sized from the file's first line and _check_memory counts
    the one m x m array before the file is read; that array is repaired in
    place and kept (_repair_distances), without validate_distance_matrix's
    copy.  Errors are read_matrix_csv's and validate_distance_matrix's.
    """
    _check_memory(_first_line_fields(path), 1, f"{path}: the distance matrix")
    return _repair_distances(read_matrix_csv(path), tol)


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as strict JSON: sorted keys, indent 2, one final LF.

    json.dump streams the text into a temporary file that then replaces
    ``path`` (_written_into_place), so the whole text is never held as one
    string.  A payload holding an infinite or NaN value raises
    ValidationError, and then, as on any other error, ``path`` is left as
    it was.
    """
    with _written_into_place(path) as fh:
        try:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            name = os.path.basename(path)
            raise ValidationError(f"{name} would hold a non-finite value") from exc
        fh.write("\n")
