"""Distance and similarity functions for high-dimensional vectors.

The paper evaluates Euclidean (l2) distance and cosine distance.  For unit
vectors the two are interchangeable via ``cos(u, v) = 1 - ||u - v||^2 / 2``,
which both the KDE baseline and the cover-tree partitioner exploit.
"""

from __future__ import annotations

import numpy as np


def euclidean_distance(x: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Euclidean distances from a single query ``x`` to every row of ``data``."""
    x = np.asarray(x, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    diff = data - x
    return np.sqrt(np.maximum(np.einsum("ij,ij->i", diff, diff), 0.0))


def cosine_similarity(x: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Cosine similarities from a single query to every row of ``data``."""
    x = np.asarray(x, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    x_norm = np.linalg.norm(x)
    data_norms = np.linalg.norm(data, axis=1)
    denom = np.maximum(x_norm * data_norms, 1e-12)
    return data @ x / denom


def cosine_distance(x: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Cosine distance ``1 - cos(x, o)`` from a query to every row of ``data``."""
    return 1.0 - cosine_similarity(x, data)


#: denominator floor shared by every cosine kernel (here, the hoisted-norm
#: variant below and the blocked GEMM tiles in repro.exact) — keeping it in
#: one place preserves the exact-integer parity contract between oracles
COSINE_NORM_FLOOR = 1e-12


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` that always takes BLAS's GEMM path.

    NumPy dispatches ``(1, k) @ (k, n)`` to GEMV, whose per-element
    summation order differs from GEMM's; padding to two rows keeps every
    distance bit-identical regardless of how queries are blocked.
    """
    if a.shape[0] == 1:
        return (np.concatenate([a, a], axis=0) @ b)[:1]
    return a @ b


def cosine_distance_with_norms(
    x: np.ndarray, data: np.ndarray, data_norms: np.ndarray
) -> np.ndarray:
    """:func:`cosine_distance` with the database norm pass hoisted out.

    ``data_norms`` must be ``np.linalg.norm(data, axis=1)``; the result is
    bit-identical to :func:`cosine_distance`, it just lets callers that scan
    the same database repeatedly compute the norms once.
    """
    x = np.asarray(x, dtype=np.float64)
    denom = np.maximum(np.linalg.norm(x) * data_norms, COSINE_NORM_FLOOR)
    return 1.0 - data @ x / denom


def pairwise_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distance matrix between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_sq = np.sum(a ** 2, axis=1)[:, None]
    b_sq = np.sum(b ** 2, axis=1)[None, :]
    squared = a_sq + b_sq - 2.0 * (a @ b.T)
    return np.sqrt(np.maximum(squared, 0.0))


def pairwise_cosine_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine distance matrix between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_norm = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    b_norm = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    return 1.0 - a_norm @ b_norm.T


def normalize_rows(data: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean norm."""
    data = np.asarray(data, dtype=np.float64)
    norms = np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1e-12)
    return data / norms


def cosine_threshold_to_euclidean(threshold: float) -> float:
    """Convert a cosine-distance threshold to the equivalent Euclidean one.

    For unit vectors ``||u - v||^2 = 2 (1 - cos(u, v)) = 2 * d_cos``; hence a
    cosine-distance threshold ``t`` corresponds to a Euclidean threshold
    ``sqrt(2 t)``.
    """
    return float(np.sqrt(max(2.0 * threshold, 0.0)))


def euclidean_threshold_to_cosine(threshold: float) -> float:
    """Inverse of :func:`cosine_threshold_to_euclidean` for unit vectors."""
    return float(threshold ** 2 / 2.0)
