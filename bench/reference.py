"""The benchmark's own numpy arithmetic for checking simcert's outputs.

Nothing here calls simcert: distances use the direct difference form
(simcert uses a broadcast or the Gram form), kernels are evaluated from
squared differences, and the closed-form complexity bound is written out
from its formula.  Work is row-blocked so a check never holds an
m x m x k array and does not inflate the peak RSS the benchmark reports.
"""

from __future__ import annotations

import numpy as np

RISK_RTOL = 1e-9
NORM_RTOL = 1e-9
_BLOCK = 64


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b."""
    out = np.empty((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], _BLOCK):
        diff = a[lo : lo + _BLOCK, None, :] - b[None, :, :]
        out[lo : lo + _BLOCK] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def risk(embedded: np.ndarray, targets: np.ndarray) -> float:
    """(1/m^2) sum_ij (||y_i - y_j|| - D_ij)^2."""
    resid = np.sqrt(sq_distances(embedded, embedded)) - targets
    return float(np.mean(resid * resid))


def rbf_gram(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * sq_distances(a, b))


def kernel_norm(coefficients: np.ndarray, gram: np.ndarray) -> float:
    """RKHS norm sqrt(trace(A K A^T)) of a representer-form map."""
    return float(np.sqrt(max(float(np.sum((coefficients @ gram) * coefficients)), 0.0)))


def spectral_norm(weights: np.ndarray) -> float:
    return float(np.linalg.svd(weights, compute_uv=False)[0])


def rademacher_linear(lam: float, features: np.ndarray, targets: np.ndarray) -> float:
    """Closed form lam^2 max(2 r, beta)^2 / m of the linear class."""
    r = float(np.max(np.sqrt(np.sum(features * features, axis=1))))
    beta = float(np.max(targets))
    return lam**2 * max(2.0 * r, beta) ** 2 / features.shape[0]


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def risk_failures(label: str, reported: float, own: float) -> list[str]:
    if rel_close(reported, own, RISK_RTOL):
        return []
    return [f"{label}: reported risk {reported!r} vs recomputed {own!r}"]


def norm_failures(label: str, norm: float, cap: float) -> list[str]:
    if norm <= cap * (1.0 + NORM_RTOL):
        return []
    return [f"{label}: model norm {norm!r} exceeds cap {cap!r}"]


def certificate_failures(label: str, cert: dict) -> list[str]:
    if cert["bound"] == cert["empirical_risk"] + cert["slack"]:
        return []
    return [f"{label}: bound {cert['bound']!r} != empirical_risk + slack"]
