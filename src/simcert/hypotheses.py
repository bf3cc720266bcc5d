"""Norm-constrained hypothesis classes: linear maps and kernel maps.

A linear map sends x to W x and is certified through its spectral norm,
the smallest constant with ||W x_i - W x_j|| <= ||W||_2 ||x_i - x_j||.
A kernel map is kept in representer form h(x) = A k_S(x), where k_S(x) is
the vector of kernel evaluations against the training anchors; its RKHS
norm is sqrt(trace(A K A^T)) with K the anchor Gram matrix.  Both carry a
norm budget lambda_cap that projection re-establishes after every step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import SampleMatrix, ValidationError, _as_matrix, _freeze, pairwise_distances
from .kernels import GramMatrix, KernelSpec, gram, kernel_columns

__all__ = [
    "LinearMap",
    "KernelMap",
    "LinearClass",
    "KernelClass",
    "linear_forward",
    "kernel_forward",
    "with_coefficients",
    "embed",
    "gram_form_squared_distances",
    "embedding_distance_matrix",
    "model_norm",
    "project_norm_ball",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

# Unit round-off of float64: |fl(x) - x| <= u |x|.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


@dataclass(frozen=True)
class LinearMap:
    """Linear hypothesis x -> W x with spectral-norm budget lambda_cap."""

    weights: np.ndarray
    lambda_cap: float

    def __post_init__(self):
        arr = _as_matrix(self.weights, "weight matrix")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("weight matrix contains non-finite entries")
        if self.lambda_cap < 0.0:
            raise ValidationError("lambda_cap must be nonnegative")
        object.__setattr__(self, "weights", _freeze(arr))

    @property
    def output_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class KernelMap:
    """Representer-form kernel hypothesis h(x) = A k_S(x) over fixed anchors.

    anchor_gram is gram(kernel, anchors); it is built at construction unless
    a caller that already holds it passes it in.  Maps derived from one
    another by with_coefficients (every descent and projection step) share
    one anchor Gram matrix, so a fit builds it once.
    """

    coefficients: np.ndarray
    anchors: SampleMatrix
    kernel: KernelSpec
    lambda_cap: float
    anchor_gram: GramMatrix | None = field(default=None, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        arr = _as_matrix(self.coefficients, "coefficient matrix")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("coefficient matrix contains non-finite entries")
        if arr.shape[1] != self.anchors.m:
            raise ValidationError(
                f"coefficient matrix has {arr.shape[1]} columns for {self.anchors.m} anchors"
            )
        if self.lambda_cap < 0.0:
            raise ValidationError("lambda_cap must be nonnegative")
        object.__setattr__(self, "coefficients", _freeze(arr))
        if self.anchor_gram is None:
            object.__setattr__(self, "anchor_gram", gram(self.kernel, self.anchors))
        elif self.anchor_gram.size != self.anchors.m:
            raise ValidationError(
                f"anchor Gram matrix has size {self.anchor_gram.size} for {self.anchors.m} anchors"
            )

    @property
    def output_dim(self) -> int:
        return self.coefficients.shape[0]


@dataclass(frozen=True)
class LinearClass:
    """Descriptor of the linear class with output dimension k and budget."""

    lambda_cap: float
    k: int | None = None

    def __post_init__(self):
        if self.lambda_cap < 0.0:
            raise ValidationError("lambda_cap must be nonnegative")
        if self.k is not None and self.k < 1:
            raise ValidationError("output dimension k must be >= 1")


@dataclass(frozen=True)
class KernelClass:
    """Descriptor of the kernelized class for a given kernel and budget."""

    kernel: KernelSpec
    lambda_cap: float
    k: int | None = None

    def __post_init__(self):
        if self.lambda_cap < 0.0:
            raise ValidationError("lambda_cap must be nonnegative")
        if self.k is not None and self.k < 1:
            raise ValidationError("output dimension k must be >= 1")


def linear_forward(model: LinearMap, x) -> np.ndarray:
    """Evaluate W x for one feature vector."""
    xv = np.asarray(x, dtype=float).ravel()
    if xv.shape[0] != model.input_dim:
        raise ValidationError(
            f"dimension mismatch: map expects {model.input_dim} features, got {xv.shape[0]}"
        )
    return model.weights @ xv


def kernel_forward(model: KernelMap, x) -> np.ndarray:
    """Evaluate A k_S(x) for one feature vector."""
    xv = np.asarray(x, dtype=float).ravel()
    cols = kernel_columns(model.kernel, model.anchors.values, xv[None, :])
    return model.coefficients @ cols[:, 0]


def with_coefficients(model: KernelMap, coefficients) -> KernelMap:
    """The same kernel map with new coefficients, sharing its anchor Gram matrix.

    Only the anchors, kernel and cap of ``model`` are kept, so the held Gram
    matrix always belongs to the anchors it is used with.
    """
    return KernelMap(
        coefficients, model.anchors, model.kernel, model.lambda_cap, anchor_gram=model.anchor_gram
    )


def embed(model: LinearMap | KernelMap, points) -> np.ndarray:
    """Map the rows of an (n x N) feature array into the embedding space."""
    pts = _as_matrix(points, "point matrix")
    if isinstance(model, LinearMap):
        if pts.shape[1] != model.input_dim:
            raise ValidationError(
                f"dimension mismatch: map expects {model.input_dim} features, got {pts.shape[1]}"
            )
        return pts @ model.weights.T
    if isinstance(model, KernelMap):
        if np.array_equal(pts, model.anchors.values):
            cols = model.anchor_gram.values
        else:
            cols = kernel_columns(model.kernel, model.anchors.values, pts)
        return (model.coefficients @ cols).T
    raise TypeError(f"unsupported model type {type(model).__name__}")


def gram_form_squared_distances(
    y: np.ndarray, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Squared distances from rows start:stop of y to every row of y.

    Entry (i, j) is n_i + n_j - 2 c_ij with n the squared row norms and
    c = y[start:stop] y^T, so a block of b rows costs O(b m k) flops and
    O(b m) memory; the default range is the whole m x m matrix.  An entry
    at or below the dot-product round-off bound 2 (k + 2) u (n_i + n_j),
    u the unit round-off, cannot be told from zero in this form and is
    set to zero.  This clamps round-off negatives and makes the distance
    between coincident rows, and so the diagonal, exactly zero for finite y.
    """
    norms = np.einsum("ij,ij->i", y, y)
    sq = y[start:stop] @ y.T
    sq *= -2.0
    floor = norms[start:stop, None] + norms[None, :]
    sq += floor
    floor *= 2.0 * (y.shape[1] + 2) * _UNIT_ROUNDOFF
    sq[sq <= floor] = 0.0
    return sq


def embedding_distance_matrix(model: LinearMap | KernelMap, sample: SampleMatrix) -> np.ndarray:
    """Pairwise Euclidean distances between embedded sample points.

    Linear maps use pairwise_distances, bitwise equal to the direct
    difference form.  Kernel maps go through the inner-product (Gram-side)
    form of gram_form_squared_distances.
    """
    y = embed(model, sample.values)
    if isinstance(model, LinearMap):
        return pairwise_distances(y)
    return np.sqrt(gram_form_squared_distances(y))


def model_norm(model: LinearMap | KernelMap) -> float:
    """Certified size of the hypothesis: spectral norm of W for linear maps,
    RKHS norm sqrt(trace(A K A^T)) for kernel maps."""
    if isinstance(model, LinearMap):
        if model.weights.size == 0:
            return 0.0
        return float(np.linalg.svd(model.weights, compute_uv=False)[0])
    if isinstance(model, KernelMap):
        a = model.coefficients
        k = model.anchor_gram.values
        sq = float(np.sum((a @ k) * a))
        return float(np.sqrt(max(sq, 0.0)))
    raise TypeError(f"unsupported model type {type(model).__name__}")


def project_norm_ball(model: LinearMap | KernelMap):
    """Project onto the norm ball of radius lambda_cap.

    Linear maps have their singular values clipped at the cap; kernel maps
    are rescaled, their RKHS norm being 1-homogeneous in the coefficients.
    A map already inside the ball is returned unchanged.
    """
    nrm = model_norm(model)
    if nrm <= model.lambda_cap:
        return model
    if isinstance(model, LinearMap):
        u, s, vt = np.linalg.svd(model.weights, full_matrices=False)
        clipped = np.minimum(s, model.lambda_cap)
        return LinearMap(u @ (clipped[:, None] * vt), model.lambda_cap)
    scale = model.lambda_cap / nrm
    return with_coefficients(model, model.coefficients * scale)


def model_to_dict(model: LinearMap | KernelMap) -> dict:
    """Serialize a hypothesis to the JSON model format."""
    if isinstance(model, LinearMap):
        return {
            "type": "linear",
            "lambda_cap": float(model.lambda_cap),
            "W": model.weights.tolist(),
        }
    if isinstance(model, KernelMap):
        return {
            "type": "kernel",
            "lambda_cap": float(model.lambda_cap),
            "A": model.coefficients.tolist(),
            "anchors": model.anchors.values.tolist(),
            "kernel": model.kernel.to_dict(),
        }
    raise TypeError(f"unsupported model type {type(model).__name__}")


def model_from_dict(payload: dict) -> LinearMap | KernelMap:
    """Rebuild a hypothesis from its JSON model format."""
    kind = payload.get("type")
    if kind == "linear":
        return LinearMap(np.asarray(payload["W"], dtype=float), float(payload["lambda_cap"]))
    if kind == "kernel":
        return KernelMap(
            np.asarray(payload["A"], dtype=float),
            SampleMatrix(np.asarray(payload["anchors"], dtype=float)),
            KernelSpec.from_dict(payload["kernel"]),
            float(payload["lambda_cap"]),
        )
    raise ValidationError(f"unknown model type {kind!r}")


def save_model(model: LinearMap | KernelMap, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> LinearMap | KernelMap:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
