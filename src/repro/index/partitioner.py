"""Database partitioning strategies (Section 5.3).

SelNet splits the database into ``K`` disjoint partitions of approximately
equal size and trains a local model on each.  Three strategies are
implemented, matching the paper's Table 10 comparison:

* **Cover-tree partitioning (CT)** — the default: a cover tree produces
  ``K'`` ball regions, which are greedily merged into ``K`` size-balanced
  clusters; the query-time indicator ``f_c(x, t)`` activates only the
  clusters whose balls intersect the query ball.
* **Random partitioning (RP)** — uniform random assignment; the indicator is
  always all-ones (also the fallback for non-metric distances).
* **K-means partitioning (KM)** — Lloyd's algorithm; partitions can be very
  imbalanced, which the paper identifies as the reason KM performs worst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..distances import DistanceFunction, get_distance
from ..distances.metrics import cosine_distance_with_norms
from .cover_tree import BallRegion, CoverTree


@dataclass
class Partition:
    """One partition: its member rows plus the balls that describe it."""

    index: int
    point_indices: np.ndarray
    #: ball regions merged into this partition (empty for RP / KM means one
    #: synthetic ball covering all members)
    regions: List[BallRegion] = field(default_factory=list)

    @property
    def size(self) -> int:
        return int(len(self.point_indices))


class Partitioning:
    """The result of partitioning a database: K disjoint partitions + indicator.

    Parameters
    ----------
    data:
        The database the partitioning was computed over.
    partitions:
        Disjoint partitions covering every row of ``data``.
    distance:
        Distance used for the intersection indicator.
    always_active:
        When True, ``indicator`` returns all-ones (used for random
        partitioning and non-metric distances, as in the paper).
    """

    def __init__(
        self,
        data: np.ndarray,
        partitions: List[Partition],
        distance: DistanceFunction,
        always_active: bool = False,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.partitions = partitions
        self.distance = distance
        self.always_active = always_active
        self._validate()

    def _validate(self) -> None:
        counts = np.zeros(len(self.data), dtype=np.int64)
        for partition in self.partitions:
            counts[partition.point_indices] += 1
        if not np.all(counts == 1):
            raise ValueError("partitions must be disjoint and cover every database row")

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def sizes(self) -> np.ndarray:
        return np.asarray([p.size for p in self.partitions], dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Query-time indicator f_c(x, t)
    # ------------------------------------------------------------------ #
    def indicator(self, query: np.ndarray, threshold: float) -> np.ndarray:
        """The paper's ``f_c(x, t) -> {0, 1}^K`` partition-activation vector.

        A partition is active when any of its ball regions intersects the
        query ball ``B(x, t)``.  For always-active partitionings the vector is
        all ones.
        """
        if self.always_active:
            return np.ones(self.num_partitions, dtype=np.float64)
        query = np.asarray(query, dtype=np.float64)
        out = np.zeros(self.num_partitions, dtype=np.float64)
        for k, partition in enumerate(self.partitions):
            if not partition.regions:
                out[k] = 1.0
                continue
            centers = np.stack([region.center for region in partition.regions])
            center_distances = self.distance(query, centers)
            radii = np.asarray([region.radius for region in partition.regions])
            if np.any(center_distances <= radii + threshold):
                out[k] = 1.0
        return out

    def indicator_batch(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Vector of indicators for aligned query / threshold arrays.

        Vectorised over the batch: instead of one :meth:`indicator` call per
        row (O(rows x regions) Python iterations), the loop runs over the
        ball regions — a handful per partition — and each region tests all
        queries in one distance kernel call.  Both distances are symmetric,
        so ``distance(center, queries)`` matches the per-row
        ``distance(query, centers)`` values.
        """
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if self.always_active:
            return np.ones((len(queries), self.num_partitions), dtype=np.float64)
        out = np.zeros((len(queries), self.num_partitions), dtype=np.float64)
        for k, partition in enumerate(self.partitions):
            if not partition.regions:
                out[:, k] = 1.0
                continue
            active = np.zeros(len(queries), dtype=bool)
            for region in partition.regions:
                distances = self.distance(region.center, queries)
                active |= distances <= region.radius + thresholds
            out[:, k] = active
        return out

    def _partition_ids(self) -> np.ndarray:
        """Partition index of every database row (cached)."""
        ids = getattr(self, "_partition_id_cache", None)
        if ids is None:
            ids = np.empty(len(self.data), dtype=np.int64)
            for k, partition in enumerate(self.partitions):
                ids[partition.point_indices] = k
            self._partition_id_cache = ids
        return ids

    def local_selectivity_labels(
        self, queries: np.ndarray, thresholds: np.ndarray
    ) -> np.ndarray:
        """Exact per-partition selectivities, shape ``(rows, K)``.

        Used as local training labels: the paper's Observation 1 says the
        global selectivity is the sum of the per-partition selectivities.

        Vectorised like :meth:`indicator_batch`: instead of one distance
        call per ``(row, partition)`` pair, each distinct query is scanned
        against the whole database once (for non-Euclidean kernels; the
        Euclidean path batches rows) and the counts are segment-summed by
        partition.  Per-query distance kernels are bit-stable under row
        subsetting, so the counts are bit-identical to one scan per row.
        """
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        num_rows = len(queries)
        out = np.zeros((num_rows, self.num_partitions), dtype=np.float64)
        if num_rows == 0 or len(self.data) == 0:
            return out
        partition_ids = self._partition_ids()
        # Counts are 0/1 sums, exact in float64 in any order, so one GEMM
        # against the partition one-hot matrix segment-sums a whole block.
        onehot = np.zeros((len(self.data), self.num_partitions), dtype=np.float64)
        onehot[np.arange(len(self.data)), partition_ids] = 1.0

        if self.distance.name == "euclidean":
            # Fully vectorised: chunked (rows, n, dim) difference tensor —
            # the einsum reduction per (row, object) pair matches the
            # per-row kernel bit for bit.
            budget = 32 * 1024 * 1024
            chunk = int(max(budget // (8 * self.data.shape[0] * self.data.shape[1]), 1))
            for start in range(0, num_rows, chunk):
                stop = min(start + chunk, num_rows)
                diff = self.data[None, :, :] - queries[start:stop, None, :]
                distances = np.sqrt(
                    np.maximum(np.einsum("qnd,qnd->qn", diff, diff), 0.0)
                )
                mask = (distances <= thresholds[start:stop, None]).astype(np.float64)
                out[start:stop] = mask @ onehot
            return out

        # Cosine (and any other kernel): one full-database scan per distinct
        # query, with the norm pass hoisted out of the loop.  A training
        # workload repeats each query at every one of its thresholds, and
        # rows with the same query bytes get the same distances.
        data_norms = None
        if self.distance.name == "cosine":
            data_norms = np.linalg.norm(self.data, axis=1)
        row_bytes = np.ascontiguousarray(queries).view(
            np.dtype((np.void, queries.dtype.itemsize * queries.shape[1]))
        ).ravel()
        _, first, inverse = np.unique(row_bytes, return_index=True, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        start = 0
        for group, stop in enumerate(np.cumsum(np.bincount(inverse))):
            rows = order[start:stop]
            start = stop
            query = queries[first[group]]
            if data_norms is not None:
                distances = cosine_distance_with_norms(query, self.data, data_norms)
            else:
                distances = self.distance(query, self.data)
            mask = (distances[None, :] <= thresholds[rows, None]).astype(np.float64)
            out[rows] = mask @ onehot
        return out


# ---------------------------------------------------------------------- #
# Region merging (greedy size-balancing, Section 5.3)
# ---------------------------------------------------------------------- #
def merge_regions_balanced(regions: Sequence[BallRegion], num_partitions: int) -> List[List[BallRegion]]:
    """Greedy merge of K' ball regions into K size-balanced clusters.

    Regions are sorted by decreasing size and each is assigned to the cluster
    with the fewest points so far — exactly the strategy described in the
    paper.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    clusters: List[List[BallRegion]] = [[] for _ in range(num_partitions)]
    cluster_sizes = np.zeros(num_partitions, dtype=np.int64)
    for region in sorted(regions, key=lambda r: r.size, reverse=True):
        target = int(np.argmin(cluster_sizes))
        clusters[target].append(region)
        cluster_sizes[target] += region.size
    return clusters


# ---------------------------------------------------------------------- #
# Partitioner front-ends
# ---------------------------------------------------------------------- #
def cover_tree_partitioning(
    data: np.ndarray,
    num_partitions: int = 3,
    distance="euclidean",
    partition_ratio: float = 0.05,
    seed: int = 0,
) -> Partitioning:
    """Cover-tree partitioning (the paper's default, "CT").

    ``partition_ratio`` is the paper's ``r``: cover-tree nodes stop expanding
    once they hold fewer than ``r |D|`` points.
    """
    data = np.asarray(data, dtype=np.float64)
    distance_fn = distance if isinstance(distance, DistanceFunction) else get_distance(distance)
    if not distance_fn.is_metric:
        # The paper falls back to random partitioning for non-metric distances.
        return random_partitioning(data, num_partitions, distance_fn, seed=seed)
    min_region_size = max(int(np.ceil(partition_ratio * len(data))), 1)
    tree = CoverTree(data, distance_fn, min_region_size=min_region_size, seed=seed)
    regions = tree.leaf_regions()
    clusters = merge_regions_balanced(regions, num_partitions)
    partitions = []
    for index, cluster in enumerate(clusters):
        if cluster:
            indices = np.concatenate([region.point_indices for region in cluster])
        else:
            indices = np.asarray([], dtype=np.int64)
        partitions.append(Partition(index=index, point_indices=indices, regions=list(cluster)))
    return Partitioning(data, partitions, distance_fn, always_active=False)


def random_partitioning(
    data: np.ndarray,
    num_partitions: int = 3,
    distance="euclidean",
    seed: int = 0,
) -> Partitioning:
    """Uniform random partitioning ("RP"); indicator is always all-ones."""
    data = np.asarray(data, dtype=np.float64)
    distance_fn = distance if isinstance(distance, DistanceFunction) else get_distance(distance)
    rng = np.random.default_rng(seed)
    assignment = rng.permutation(len(data)) % num_partitions
    partitions = []
    for index in range(num_partitions):
        indices = np.where(assignment == index)[0]
        partitions.append(Partition(index=index, point_indices=indices, regions=[]))
    return Partitioning(data, partitions, distance_fn, always_active=True)


def kmeans_partitioning(
    data: np.ndarray,
    num_partitions: int = 3,
    distance="euclidean",
    num_iterations: int = 25,
    seed: int = 0,
) -> Partitioning:
    """K-means (Lloyd's) partitioning ("KM").

    Clusters are described by one ball each (centroid + max member distance)
    so the intersection indicator still applies, but sizes can be very
    imbalanced — the behaviour the paper's Table 10 highlights.
    """
    data = np.asarray(data, dtype=np.float64)
    distance_fn = distance if isinstance(distance, DistanceFunction) else get_distance(distance)
    rng = np.random.default_rng(seed)
    num_partitions = min(num_partitions, len(data))
    centroid_index = rng.choice(len(data), size=num_partitions, replace=False)
    centroids = data[centroid_index].copy()

    assignment = np.zeros(len(data), dtype=np.int64)
    for _ in range(num_iterations):
        distances = distance_fn.pairwise(data, centroids)
        new_assignment = np.argmin(distances, axis=1)
        if np.array_equal(new_assignment, assignment):
            assignment = new_assignment
            break
        assignment = new_assignment
        for k in range(num_partitions):
            members = data[assignment == k]
            if len(members) > 0:
                centroids[k] = members.mean(axis=0)

    partitions = []
    for index in range(num_partitions):
        indices = np.where(assignment == index)[0]
        if len(indices) > 0:
            member_distances = distance_fn(centroids[index], data[indices])
            radius = float(member_distances.max())
        else:
            radius = 0.0
        region = BallRegion(center=centroids[index].copy(), radius=radius, point_indices=indices)
        partitions.append(Partition(index=index, point_indices=indices, regions=[region]))
    return Partitioning(data, partitions, distance_fn, always_active=False)


_PARTITIONERS = {
    "cover_tree": cover_tree_partitioning,
    "ct": cover_tree_partitioning,
    "random": random_partitioning,
    "rp": random_partitioning,
    "kmeans": kmeans_partitioning,
    "km": kmeans_partitioning,
}


def build_partitioning(
    method: str,
    data: np.ndarray,
    num_partitions: int = 3,
    distance="euclidean",
    seed: int = 0,
    **kwargs,
) -> Partitioning:
    """Build a partitioning by method name (``ct`` / ``rp`` / ``km``)."""
    key = method.lower()
    if key not in _PARTITIONERS:
        raise KeyError(f"unknown partitioning method {method!r}; choose from {sorted(set(_PARTITIONERS))}")
    return _PARTITIONERS[key](data, num_partitions=num_partitions, distance=distance, seed=seed, **kwargs)
