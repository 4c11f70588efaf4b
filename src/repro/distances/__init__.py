"""Distance functions (Euclidean, cosine) and the distance registry."""

from .metrics import (
    cosine_distance,
    cosine_similarity,
    cosine_threshold_to_euclidean,
    euclidean_distance,
    euclidean_threshold_to_cosine,
    finite_squared_norms,
    normalize_rows,
    pairwise_cosine_distance,
    pairwise_euclidean,
)
from .registry import COSINE, EUCLIDEAN, DistanceFunction, get_distance, prepare_data_for_distance

__all__ = [
    "euclidean_distance",
    "cosine_distance",
    "cosine_similarity",
    "pairwise_euclidean",
    "pairwise_cosine_distance",
    "finite_squared_norms",
    "normalize_rows",
    "cosine_threshold_to_euclidean",
    "euclidean_threshold_to_cosine",
    "DistanceFunction",
    "EUCLIDEAN",
    "COSINE",
    "get_distance",
    "prepare_data_for_distance",
]
