"""Metric-space indexing: cover tree and database partitioning."""

from .cover_tree import BallRegion, CoverTree, CoverTreeNode
from .partitioner import (
    Partition,
    Partitioning,
    build_partitioning,
    cover_tree_partitioning,
    distinct_rows,
    kmeans_partitioning,
    merge_regions_balanced,
    random_partitioning,
    take_rows,
)

__all__ = [
    "CoverTree",
    "CoverTreeNode",
    "BallRegion",
    "Partition",
    "Partitioning",
    "merge_regions_balanced",
    "cover_tree_partitioning",
    "random_partitioning",
    "kmeans_partitioning",
    "build_partitioning",
    "distinct_rows",
    "take_rows",
]
