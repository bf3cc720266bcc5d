"""Norm-constrained hypothesis classes: linear maps and kernel maps.

Both map types are a norm-capped trainable matrix P acting on a feature
matrix F, and share one protocol:

- ``params`` is P and ``with_params(P)`` the same map with a new P;
- ``features(points)`` is the n x N matrix F, so the embedding is F P^T;
- ``norm()`` is the certified size of the map; ``project(P)`` is the
  nearest trainable matrix in the ball of radius lambda_cap (P itself when
  it is inside), for the map's kind, cap and features, so a loop over
  trainable matrices builds no map per step;
- ``norm_subgradient(P)`` is a subgradient of the norm at P; no descent
  calls it, and it stays only for optimizer.norm_subgradient, which the
  benchmark's tracer names;
- ``feature_radius(sample)`` is the radius of the sample in feature space;
- ``to_dict()`` is the JSON model format and ``mode`` names the class.

A linear map sends x to W x: P = W, F = X, and the norm is the spectral
norm, the smallest constant with ||W x_i - W x_j|| <= ||W||_2 ||x_i - x_j||;
projection clips the singular values.  A kernel map is kept in representer
form h(x) = A k_S(x), where k_S(x) is the vector of kernel evaluations
against the training anchors: P = A, F holds the kernel columns, and the
RKHS norm is sqrt(trace(A K A^T)) with K the anchor Gram matrix; being
1-homogeneous in A, projection rescales.  A kernel map holds that
GramMatrix and reads its anchors and kernel from it, so K is always the
kernel's Gram matrix on the map's own anchors.  Both carry a norm budget
lambda_cap that projection re-establishes after every step.

The module holds maps only: the embedded distances come from
core.pairwise_distances (direct form) and, in the stress pass, from
core.gram_form_squared_distances; embedded_risk hands a map's embedding to
core.streamed_risk, the one path of every reported risk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (
    SampleMatrix,
    ValidationError,
    _as_matrix,
    _finite,
    _freeze,
    pairwise_distances,
    streamed_risk,
    write_json,
)
from .kernels import GramMatrix, KernelSpec, _json_number, gram, kernel_columns, kernel_diagonal

__all__ = [
    "LinearMap",
    "KernelMap",
    "LinearClass",
    "KernelClass",
    "embed",
    "embedding_distance_matrix",
    "embedded_risk",
    "model_norm",
    "project_norm_ball",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

def _check_budget(lambda_cap: float, k: int | None = None) -> None:
    if not 0.0 <= lambda_cap < np.inf:
        raise ValidationError("lambda_cap must be finite and nonnegative")
    if k is not None and k < 1:
        raise ValidationError("output dimension k must be >= 1")


def _check_width(coefficients: np.ndarray, m: int) -> None:
    """Reject a coefficient matrix that has no column per anchor."""
    if coefficients.shape[1] != m:
        raise ValidationError(
            f"coefficient matrix has {coefficients.shape[1]} columns for {m} anchors"
        )


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Linear hypothesis x -> W x with spectral-norm budget lambda_cap."""

    weights: np.ndarray
    lambda_cap: float

    mode = "linear"

    def __post_init__(self):
        weights = _as_matrix(self.weights, "weight matrix", _finite)
        object.__setattr__(self, "weights", _freeze(weights))
        _check_budget(self.lambda_cap)

    @property
    def params(self) -> np.ndarray:
        return self.weights

    def with_params(self, weights) -> LinearMap:
        return LinearMap(weights, self.lambda_cap)

    def features(self, points) -> np.ndarray:
        pts = _as_matrix(points, "point matrix")
        if pts.shape[1] != self.weights.shape[1]:
            raise ValidationError(
                f"dimension mismatch: map expects {self.weights.shape[1]} features, "
                f"got {pts.shape[1]}"
            )
        return pts

    def norm(self) -> float:
        if self.weights.size == 0:
            return 0.0
        return float(np.linalg.svd(self.weights, compute_uv=False)[0])

    def project(self, w: np.ndarray) -> np.ndarray:
        """Weight matrix ``w`` with its singular values clipped at lambda_cap;
        ``w`` itself when it is inside the ball.

        The spectral norm is at most the Frobenius norm, so a matrix whose
        Frobenius norm is below lambda_cap (1 - 1e-12), a margin far above
        its round-off, is inside the ball without an SVD; otherwise one SVD
        both decides and clips.  A Frobenius norm that overflows is not
        below the cap, so the SVD decides.
        """
        with np.errstate(over="ignore"):
            frobenius = np.linalg.norm(w)
        if frobenius <= self.lambda_cap * (1.0 - 1e-12):
            return w
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        if s[0] <= self.lambda_cap:
            return w
        return u @ (np.minimum(s, self.lambda_cap)[:, None] * vt)

    def norm_subgradient(self, w: np.ndarray) -> np.ndarray:
        """Outer product of the leading singular vectors of ``w``; zero at zero."""
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return np.zeros_like(w)
        return np.outer(u[:, 0], vt[0])

    def feature_radius(self, sample: SampleMatrix) -> float:
        """r, the largest feature norm in the sample."""
        return sample.radius

    def to_dict(self) -> dict:
        return {
            "type": self.mode,
            "lambda_cap": float(self.lambda_cap),
            "W": self.weights.tolist(),
        }


@dataclass(frozen=True, eq=False)
class KernelMap:
    """Representer-form kernel hypothesis h(x) = A k_S(x) over fixed anchors.

    The anchors S and the kernel are those of ``gram``, the GramMatrix the
    map holds, which is accepted by its own constructor (see kernels).
    Maps derived from one another by with_params (every descent and
    projection step) share it, so a fit builds and checks it once.
    """

    coefficients: np.ndarray
    gram: GramMatrix
    lambda_cap: float

    mode = "kernel"

    def __post_init__(self):
        arr = _freeze(_as_matrix(self.coefficients, "coefficient matrix", _finite))
        _check_width(arr, self.gram.sample.m)
        _check_budget(self.lambda_cap)
        object.__setattr__(self, "coefficients", arr)

    @property
    def params(self) -> np.ndarray:
        return self.coefficients

    def with_params(self, coefficients) -> KernelMap:
        """New coefficients over the same anchors, sharing the held Gram matrix."""
        return KernelMap(coefficients, self.gram, self.lambda_cap)

    def features(self, points) -> np.ndarray:
        """Kernel columns of the points against the anchors, one row per point;
        the held Gram matrix when the points are the anchors.  An overflowing
        kernel value raises ValidationError."""
        pts = _as_matrix(points, "point matrix")
        anchors = self.gram.sample.values
        if np.array_equal(pts, anchors):
            return self.gram.values
        cols = kernel_columns(self.gram.kernel, anchors, pts).T
        return _as_matrix(cols, "kernel column matrix", _finite)

    def _norm_parts(self, a: np.ndarray) -> tuple[float, float]:
        """(s, rho) with RKHS norm s rho for coefficients ``a``: s = 1 and
        rho = sqrt(trace(A K A^T)), unless that sum overflows; then
        s = max |A| and rho is the norm of A / s, so a representable norm
        stays finite."""
        scale = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            sq = float(np.sum((a @ self.gram.values) * a))
            if not np.isfinite(sq):
                scale = float(np.max(np.abs(a)))
                a = a / scale
                sq = float(np.sum((a @ self.gram.values) * a))
        return scale, float(np.sqrt(max(sq, 0.0)))

    def norm(self) -> float:
        """sqrt(trace(A K A^T)), as s rho of _norm_parts."""
        scale, root = self._norm_parts(self.coefficients)
        return scale * root

    def project(self, a: np.ndarray) -> np.ndarray:
        """Coefficients ``a`` rescaled onto the ball, ``a`` itself when it is
        inside; the norm is 1-homogeneous in A.  They become
        (A / s) (lambda_cap / rho) with (s, rho) of _norm_parts, so a norm
        beyond the float range still projects (and s = 1 leaves the plain
        rescale's bits); a rho that is not finite raises ValidationError."""
        scale, root = self._norm_parts(a)
        if scale * root <= self.lambda_cap:
            return a
        if not np.isfinite(root):
            raise ValidationError("RKHS norm is non-finite; the map cannot be rescaled")
        return a / scale * (self.lambda_cap / root)

    def norm_subgradient(self, a: np.ndarray) -> np.ndarray:
        """A K / norm at coefficients ``a``; zero at zero."""
        scale, root = self._norm_parts(a)
        nrm = scale * root
        if nrm == 0.0:
            return np.zeros_like(a)
        return (a @ self.gram.values) / nrm

    def feature_radius(self, sample: SampleMatrix) -> float:
        """q = max_i sqrt(K(x_i, x_i)) over the sample, from the kernel
        diagonal alone."""
        return float(np.sqrt(kernel_diagonal(self.gram.kernel, sample.values).max()))

    def to_dict(self) -> dict:
        return {
            "type": self.mode,
            "lambda_cap": float(self.lambda_cap),
            "A": self.coefficients.tolist(),
            "anchors": self.gram.sample.values.tolist(),
            "kernel": self.gram.kernel.to_dict(),
        }


def _zero_params(k: int | None, sample: SampleMatrix, width: int) -> np.ndarray:
    """k x width zeros; k defaults to min(n_features, m)."""
    return np.zeros((k if k is not None else min(sample.n_features, sample.m), width))


@dataclass(frozen=True)
class LinearClass:
    """Descriptor of the linear class with output dimension k and budget;
    ``mode`` is that of its maps."""

    mode = "linear"
    lambda_cap: float
    k: int | None = None

    def __post_init__(self):
        _check_budget(self.lambda_cap, self.k)

    def zero_map(self, sample: SampleMatrix) -> LinearMap:
        """The zero map of the class on the sample's features."""
        return LinearMap(_zero_params(self.k, sample, sample.n_features), self.lambda_cap)


@dataclass(frozen=True)
class KernelClass:
    """Descriptor of the kernelized class for a given kernel and budget;
    ``mode`` is that of its maps."""

    mode = "kernel"
    kernel: KernelSpec
    lambda_cap: float
    k: int | None = None

    def __post_init__(self):
        _check_budget(self.lambda_cap, self.k)

    def zero_map(self, sample: SampleMatrix) -> KernelMap:
        """The zero map of the class with the sample as anchors."""
        zeros = _zero_params(self.k, sample, sample.m)
        return KernelMap(zeros, gram(self.kernel, sample), self.lambda_cap)


def embed(model: LinearMap | KernelMap, points) -> np.ndarray:
    """Map the rows of an (n x N) feature array into the embedding space."""
    return model.features(points) @ model.params.T


def embedding_distance_matrix(model: LinearMap | KernelMap, sample: SampleMatrix) -> np.ndarray:
    """Pairwise Euclidean distances between embedded sample points, in the
    direct difference form of pairwise_distances."""
    return pairwise_distances(embed(model, sample.values))


def embedded_risk(model: LinearMap | KernelMap, points, target_blocks) -> float:
    """Empirical risk of the map on the rows of ``points`` against targets
    streamed in row blocks: core.streamed_risk of the embedding, the one
    summation path of train's final_risk, certify's R_hat and the holdout
    risk.  An embedding that overflows raises ValidationError."""
    with np.errstate(over="ignore"):
        embedding = embed(model, points)
    return streamed_risk(embedding, target_blocks)


def model_norm(model: LinearMap | KernelMap) -> float:
    """Certified size of the hypothesis: spectral norm of W for linear maps,
    RKHS norm sqrt(trace(A K A^T)) for kernel maps."""
    return model.norm()


def project_norm_ball(model: LinearMap | KernelMap):
    """Project onto the norm ball of radius lambda_cap.

    A map already inside the ball is returned unchanged (the same object).
    """
    params = model.project(model.params)
    return model if params is model.params else model.with_params(params)


def model_to_dict(model: LinearMap | KernelMap) -> dict:
    """Serialize a hypothesis to the JSON model format."""
    return model.to_dict()


def model_from_dict(payload) -> LinearMap | KernelMap:
    """Rebuild a hypothesis from its JSON model format.

    A payload that is not a JSON object, lacks a field, or whose fields
    have the wrong types or values raises ValidationError, naming a missing
    or ill-typed field (a number must be a JSON number: a bool or a numeric
    string is not one); so does a kernel model whose anchor Gram matrix
    GramMatrix does not accept (the message reads "malformed kernel model:
    ...").  A's width is checked against the anchor count before the Gram
    matrix is built.
    """
    if not isinstance(payload, dict):
        raise ValidationError(f"model must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("type")
    try:
        if kind == "linear":
            weights = _json_array(payload, "W")
            return LinearMap(weights, float(_json_number(payload["lambda_cap"], "lambda_cap")))
        if kind == "kernel":
            coefficients = _json_array(payload, "A")
            anchors = SampleMatrix(_json_array(payload, "anchors"))
            kernel = KernelSpec.from_dict(payload["kernel"])
            cap = float(_json_number(payload["lambda_cap"], "lambda_cap"))
            # before the m x m build, which a wrong width would waste
            _check_width(_as_matrix(coefficients, "coefficient matrix"), anchors.m)
            return KernelMap(coefficients, gram(kernel, anchors), cap)
    except KeyError as exc:
        raise ValidationError(f"malformed {kind} model: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {kind} model: {exc}") from exc
    raise ValidationError(f"field 'type' must be 'linear' or 'kernel', got {kind!r}")


def _json_array(payload: dict, key: str) -> np.ndarray:
    """payload[key] as a float array, if it is an array of JSON numbers; a
    ValidationError naming the field otherwise."""
    values = np.asarray(payload[key])
    # numpy promotes a bool among numbers to a number, so the type of each
    # element is read from the objects JSON made
    types = map(type, np.asarray(payload[key], dtype=object).flat)
    if values.dtype.kind not in "iuf" or bool in types:
        raise ValidationError(f"field {key!r} must be an array of numbers")
    return np.asarray(values, dtype=float)


def save_model(model: LinearMap | KernelMap, path) -> None:
    """Write the model's JSON format with core.write_json."""
    write_json(path, model_to_dict(model))


def load_model(path) -> LinearMap | KernelMap:
    """Read a model file written by :func:`save_model`.

    A file that cannot be opened or read raises OSError.  Bytes that are
    not UTF-8 or not JSON (nesting too deep for the parser included), and
    every error of :func:`model_from_dict`, raise ValidationError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: not a JSON model file: {exc}") from exc
    return model_from_dict(payload)
