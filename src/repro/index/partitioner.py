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
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..distances import DistanceFunction, get_distance
from ..distances.metrics import COSINE_NORM_FLOOR, cosine_distance_with_norms, gemm
from .cover_tree import BallRegion, CoverTree

#: memory budget of one (rows, objects, dim) Euclidean difference tensor
_EUCLIDEAN_CHUNK_BYTES = 32 * 1024 * 1024


def distinct_rows(queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group a batch's repeated query rows into ``(first, inverse)``.

    ``first`` holds the index of the first row of every run of rows with
    identical bytes and ``inverse[i]`` the run row ``i`` belongs to, so
    ``queries[first][inverse]`` reproduces ``queries``.  Only *adjacent*
    repeats are merged: every producer of repeated rows (workload rows,
    ``curve_values`` grids, :meth:`~repro.SelectivityEstimator.selectivity_curve`)
    lays one query's rows out together, and one linear scan costs far less
    than sorting row bytes.  A query that reappears later in the batch just
    starts a new run.  With no repeats, ``first`` and ``inverse`` are both
    ``arange(len(queries))``.
    """
    queries = np.ascontiguousarray(queries)
    num_rows = len(queries)
    starts = np.ones(num_rows, dtype=bool)
    if num_rows > 1:
        # Compare bytes, not values: -0.0 / 0.0 and NaN payloads stay apart.
        words = queries.reshape(num_rows, -1).view(np.dtype(f"u{queries.dtype.itemsize}"))
        np.any(words[1:] != words[:-1], axis=1, out=starts[1:])
    first = np.flatnonzero(starts)
    inverse = np.cumsum(starts) - 1
    return first, inverse


def take_rows(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]`` for a ``first`` / ``inverse`` of :func:`distinct_rows`.

    Both index arrays are ``arange`` exactly when their length matches
    ``values`` (a batch without repeats), so that case returns ``values``
    itself instead of a copy.
    """
    return values if len(index) == len(values) else values[index]


#: bound on the one-double steps of :func:`least_hit_thresholds`, whose
#: estimate is a few doubles off: more steps mean a broken estimate
_GATE_SEARCH_STEPS = 64


def least_hit_thresholds(distances: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Element-wise least float64 ``t`` with ``distances <= radii + t``.

    The sum is rounded, but rounding is monotone in ``t``, so the
    thresholds that hit a ball form an up-set: the ball is hit at ``t``
    exactly when ``t`` is at least this value.  It is not ``d - r``: the
    rounded sum already reaches ``d`` from halfway to ``d``'s predecessor.
    The search starts from that estimate, a few doubles off at most (for
    ``d = inf``, from where the sum overflows), and steps one double at a
    time to the boundary.  A NaN distance is never hit (``+inf``).  Signs
    are free: rounding makes cosine distances and radii slightly negative.
    """
    d = np.asarray(distances, dtype=np.float64)
    finite = np.isfinite(d).all()
    if not finite:
        nan = np.isnan(d)
        d = np.where(nan, 0.0, d)
    with np.errstate(over="ignore", invalid="ignore"):
        t = (d - radii) - (d - np.nextafter(d, -np.inf)) / 2
        if not finite:
            top = np.finfo(np.float64).max
            overflow = (top - radii) + (top - np.nextafter(top, 0.0)) / 2
            t = np.where(np.isinf(d), overflow, t)
        for _ in range(_GATE_SEARCH_STEPS):
            # Step up where t misses, down where the double below still hits.
            below = np.nextafter(t, -np.inf)
            up = ~(d <= radii + t)
            down = d <= radii + below
            if not (up.any() or down.any()):
                break
            t = np.where(up, np.nextafter(t, np.inf), np.where(down, below, t))
        else:
            raise RuntimeError("partition gate search did not converge")
    return t if finite else np.where(nan, np.inf, t)


class _CentreTable(NamedTuple):
    """Every ball region of a partitioning as one array per field.

    Regions are ordered by partition, so partition ``owners[j]`` owns the
    column range starting at ``starts[j]``; ``empty`` lists the partitions
    without regions, which are always active.
    """

    centres: np.ndarray
    radii: np.ndarray
    #: ``np.linalg.norm(centres, axis=1)`` for cosine, else None
    norms: Optional[np.ndarray]
    starts: np.ndarray
    owners: np.ndarray
    empty: np.ndarray


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

    def __getstate__(self) -> dict:
        # The centre table is derived from the partitions: pickles leave it
        # out, and a loaded partitioning rebuilds it on first use.
        state = dict(self.__dict__)
        state.pop("_centre_table_cache", None)
        return state

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

    def indicator_batch(
        self,
        queries: np.ndarray,
        thresholds: np.ndarray,
        distinct: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Vector of indicators for aligned query / threshold arrays.

        The distances from each distinct query (``distinct``, the
        :func:`distinct_rows` of ``queries``, computed here when not given)
        to every ball centre come from one vectorised call against the
        centre table; each row then compares its query's distances with
        ``radius + t``.  Rows of one query share one distance per ball, so
        the indicator is non-decreasing in ``t`` across them.
        """
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if self.always_active:
            return np.ones((len(queries), self.num_partitions), dtype=np.float64)
        distances = self._row_distances(queries, distinct)
        return self._activate(distances <= self._centre_table().radii + thresholds[:, None])

    def partition_gates(self, queries: np.ndarray) -> Optional[np.ndarray]:
        """Each query's least activating threshold per partition, ``(m, K)``.

        Partition k is active for a query at threshold t in
        :meth:`indicator_batch` exactly when ``t >= gates[:, k]``: the
        minimum over its balls of :func:`least_hit_thresholds` (``-inf``
        for a partition without balls).  K values carry what the query's R
        ball-centre distances decide.  None when the partitioning is always
        active.
        """
        if self.always_active:
            return None
        table = self._centre_table()
        least = least_hit_thresholds(self.centre_distances(queries), table.radii)
        gates = np.full((len(least), self.num_partitions), -np.inf)
        if len(table.owners):
            gates[:, table.owners] = np.minimum.reduceat(least, table.starts, axis=1)
        return gates

    def indicator_at(self, gates: Optional[np.ndarray], thresholds: np.ndarray) -> np.ndarray:
        """Indicators of rows whose :meth:`partition_gates` are known, ``(rows, K)``.

        Equal to :meth:`indicator_batch` on the rows' queries for every
        threshold; ``gates`` may be None when the partitioning is always
        active.
        """
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if self.always_active:
            return np.ones((len(thresholds), self.num_partitions), dtype=np.float64)
        return (thresholds[:, None] >= gates).astype(np.float64)

    def _centre_table(self) -> _CentreTable:
        """The ball regions as arrays, built once per partitioning (cached)."""
        table = getattr(self, "_centre_table_cache", None)
        if table is None:
            regions = [region for partition in self.partitions for region in partition.regions]
            counts = np.asarray([len(p.regions) for p in self.partitions], dtype=np.int64)
            centres = np.asarray([r.center for r in regions], dtype=np.float64).reshape(
                len(regions), self.data.shape[1]
            )
            table = _CentreTable(
                centres=centres,
                radii=np.asarray([r.radius for r in regions], dtype=np.float64),
                norms=(
                    np.linalg.norm(centres, axis=1) if self.distance.name == "cosine" else None
                ),
                starts=(np.cumsum(counts) - counts)[counts > 0],
                owners=np.flatnonzero(counts > 0),
                empty=np.flatnonzero(counts == 0),
            )
            self._centre_table_cache = table
        return table

    def _row_distances(
        self, queries: np.ndarray, distinct: Optional[Tuple[np.ndarray, np.ndarray]]
    ) -> np.ndarray:
        """Every row's distances to every ball centre, ``(rows, R)``.

        They are computed once per distinct query and gathered per row.
        """
        first, inverse = distinct_rows(queries) if distinct is None else distinct
        return take_rows(self.centre_distances(take_rows(queries, first)), inverse)

    def centre_distances(self, queries: np.ndarray) -> np.ndarray:
        """Distances from every query to every ball centre, ``(m, R)``.

        Cosine is one GEMM with both norm passes hoisted, the formula of
        the exact oracle's distance tiles, and :func:`gemm` keeps a lone
        query off the GEMV path so a query's distances do not depend on the
        batch it arrives in.  Euclidean keeps the exact per-element
        difference reduction of :func:`~repro.distances.euclidean_distance`,
        chunked to bound the ``(rows, R, dim)`` difference tensor.  Any
        other kernel uses its own pairwise form.
        """
        table = self._centre_table()
        centres = table.centres
        if table.norms is not None:
            denom = np.linalg.norm(queries, axis=1)[:, None] * table.norms
            return 1.0 - gemm(queries, centres.T) / np.maximum(denom, COSINE_NORM_FLOOR)
        if self.distance.name != "euclidean":
            return self.distance.pairwise(queries, centres)
        distances = np.empty((len(queries), len(centres)), dtype=np.float64)
        chunk = max(_EUCLIDEAN_CHUNK_BYTES // max(8 * centres.size, 1), 1)
        for start in range(0, len(queries), chunk):
            diff = queries[start : start + chunk, None, :] - centres[None, :, :]
            distances[start : start + chunk] = np.sqrt(
                np.maximum(np.einsum("qcd,qcd->qc", diff, diff), 0.0)
            )
        return distances

    def _activate(self, hits: np.ndarray) -> np.ndarray:
        """Reduce per-region hits ``(..., R)`` to partition indicators ``(..., K)``."""
        table = self._centre_table()
        out = np.empty(hits.shape[:-1] + (self.num_partitions,), dtype=np.float64)
        out[..., table.empty] = 1.0
        if len(table.owners):
            out[..., table.owners] = np.logical_or.reduceat(hits, table.starts, axis=-1)
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

        Instead of one distance call per ``(row, partition)`` pair, each
        run of identical query rows (:func:`distinct_rows`) is scanned
        against the whole database once (for cosine; the Euclidean path
        batches rows) and the counts are segment-summed by partition.
        Per-query distance kernels are bit-stable under row subsetting, so
        the counts are bit-identical to one scan per row.
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
            chunk = int(max(_EUCLIDEAN_CHUNK_BYTES // (8 * self.data.size), 1))
            for start in range(0, num_rows, chunk):
                stop = min(start + chunk, num_rows)
                diff = self.data[None, :, :] - queries[start:stop, None, :]
                distances = np.sqrt(
                    np.maximum(np.einsum("qnd,qnd->qn", diff, diff), 0.0)
                )
                mask = (distances <= thresholds[start:stop, None]).astype(np.float64)
                out[start:stop] = mask @ onehot
            return out

        # Cosine (and any other kernel): one full-database scan per run of
        # identical query rows, with the norm pass hoisted out of the loop.
        # A training workload repeats each query at every one of its
        # thresholds, and rows with the same query bytes get the same
        # distances.
        data_norms = None
        if self.distance.name == "cosine":
            data_norms = np.linalg.norm(self.data, axis=1)
        first, _ = distinct_rows(queries)
        for start, stop in zip(first, np.append(first[1:], num_rows)):
            if data_norms is not None:
                distances = cosine_distance_with_norms(queries[start], self.data, data_norms)
            else:
                distances = self.distance(queries[start], self.data)
            mask = (distances[None, :] <= thresholds[start:stop, None]).astype(np.float64)
            out[start:stop] = mask @ onehot
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
