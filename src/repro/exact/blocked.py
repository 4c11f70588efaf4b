"""Blocked, multi-core exact-selectivity engine (the batched oracle).

The per-query oracle in :mod:`repro.data.ground_truth` pays one GEMV, one
``O(n log n)`` sort and (for cosine) a fresh norm pass per query.  This
module replaces that hot path with a *batched* engine:

* **Blocked pairwise kernels** — query-block x data-block GEMM with data
  squared-norms / norms precomputed once per oracle, memory-bounded by a
  configurable ``block_bytes`` budget.
* **Thread-pool scatter** over query blocks (the underlying BLAS releases
  the GIL) with a deterministic, order-preserving gather: every worker
  writes a disjoint slice of a preallocated output, so results are
  bit-identical for any worker count.
* **Count, don't sort** — :meth:`BlockedOracle.selectivities_batch` counts
  ``d <= t`` per data block and accumulates;
  :meth:`BlockedOracle.kth_distances` uses ``np.partition`` and
  :meth:`BlockedOracle.threshold_profile` partitions once at the largest
  rank and sorts only the tiny head, so workload generation never
  materialises a sorted ``n``-vector per query.
* **Optional triangle-inequality pruning** fed by
  :class:`~repro.index.cover_tree.BallRegion` regions (Euclidean only):
  regions whose ball lies entirely inside / outside the query ball are
  counted / skipped without a distance computation; only borderline
  regions are scanned with the exact kernel, behind a conservative margin
  so the counts stay exactly equal to the unpruned ones.

Bit-exactness contract
----------------------
All distances go through 2-D GEMM (one-row blocks are padded to two rows:
BLAS dispatches ``M == 1`` to a GEMV kernel whose summation order differs
from GEMM's).  Per-element GEMM results are invariant under row/column
blocking, so counts are identical across block sizes, worker counts, and
row deduplication — the property the exact-integer parity gate in
``repro oracle-bench`` asserts against :class:`~repro.exact.reference.
ReferenceOracle`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..distances import DistanceFunction, get_distance
from ..distances.metrics import COSINE_NORM_FLOOR, gemm

#: default memory budget for one query-block x data-block distance tile
DEFAULT_BLOCK_BYTES = 32 * 1024 * 1024

#: env var consulted for the default worker count
NUM_WORKERS_ENV = "REPRO_ORACLE_WORKERS"

_DEFAULT_NUM_WORKERS: Optional[int] = None

ProgressCallback = Callable[[int, int], None]


def set_default_num_workers(num_workers: Optional[int]) -> None:
    """Set the process-wide default oracle worker count (None = auto)."""
    global _DEFAULT_NUM_WORKERS
    _DEFAULT_NUM_WORKERS = None if num_workers is None else max(int(num_workers), 1)


def get_default_num_workers() -> int:
    """Default worker count: explicit setting, else $REPRO_ORACLE_WORKERS, else auto."""
    if _DEFAULT_NUM_WORKERS is not None:
        return _DEFAULT_NUM_WORKERS
    env = os.environ.get(NUM_WORKERS_ENV)
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            pass
    return max(min(4, os.cpu_count() or 1), 1)


class BlockedOracle:
    """Batched exact selectivities ``|{o in D : d(x, o) <= t}|``.

    Parameters
    ----------
    data:
        Database vectors, shape ``(n, dim)``; cached once as C-contiguous
        float64.
    distance:
        A :class:`~repro.distances.DistanceFunction` or its name.
    block_bytes:
        Memory budget for one distance tile (default 32 MiB).
    num_workers:
        Thread-pool width for the scatter over query blocks; ``None``
        means :func:`get_default_num_workers`.
    regions:
        Optional :class:`~repro.index.cover_tree.BallRegion` sequence
        enabling triangle-inequality pruning (Euclidean distance only;
        silently ignored otherwise).  The regions must cover disjoint
        database rows (e.g. ``CoverTree.leaf_regions()``).
    """

    def __init__(
        self,
        data: np.ndarray,
        distance,
        block_bytes: Optional[int] = None,
        num_workers: Optional[int] = None,
        regions: Optional[Sequence] = None,
    ) -> None:
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if self.data.ndim != 2:
            raise ValueError("data must be a 2-D array")
        self.distance: DistanceFunction = (
            distance if isinstance(distance, DistanceFunction) else get_distance(distance)
        )
        self.block_bytes = DEFAULT_BLOCK_BYTES if block_bytes is None else int(block_bytes)
        if self.block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.num_workers = num_workers
        self._data_t = np.ascontiguousarray(self.data.T)
        if self.distance.name == "euclidean":
            self._data_sq = np.einsum("ij,ij->i", self.data, self.data)
            self._data_norms = None
        elif self.distance.name == "cosine":
            self._data_sq = None
            self._data_norms = np.linalg.norm(self.data, axis=1)
        else:
            self._data_sq = None
            self._data_norms = None
        self._regions = self._prepare_regions(regions)

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def num_objects(self) -> int:
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])

    def _resolved_workers(self) -> int:
        if self.num_workers is not None:
            return max(int(self.num_workers), 1)
        return get_default_num_workers()

    def _row_block(self, columns: int, per_row_bytes: int = 8) -> int:
        """Query rows per block so one ``(rows, columns)`` tile fits the budget."""
        columns = max(int(columns), 1)
        return int(max(self.block_bytes // (per_row_bytes * columns), 1))

    def _column_block(self, rows: int) -> int:
        """Data columns per block for a fixed query-block height."""
        rows = max(int(rows), 1)
        return int(min(max(self.block_bytes // (8 * rows), 1024), max(self.num_objects, 1)))

    # ------------------------------------------------------------------ #
    # Distance tiles
    # ------------------------------------------------------------------ #
    def _distance_tile(
        self, queries: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Distances from a query block to ``data[start:stop]`` (GEMM path).

        The tile is a new array that belongs to the caller, who may write
        to it.  Euclidean and cosine tiles are finished in place on the GEMM
        output, so at most one other tile-sized array is live meanwhile.
        """
        if self.distance.name == "euclidean":
            gram = gemm(queries, self._data_t[:, start:stop])
            q_sq = np.einsum("ij,ij->i", queries, queries)
            return _euclidean_from_gram(gram, q_sq, self._data_sq[start:stop])
        if self.distance.name == "cosine":
            gram = gemm(queries, self._data_t[:, start:stop])
            q_norms = np.linalg.norm(queries, axis=1)
            # 1 - gram / max(|q| |o|, floor), one IEEE operation at a time.
            denom = np.multiply.outer(q_norms, self._data_norms[start:stop])
            np.maximum(denom, COSINE_NORM_FLOOR, out=denom)
            np.divide(gram, denom, out=gram)
            return np.subtract(1.0, gram, out=gram)
        return self.distance.pairwise(queries, self.data[start:stop])

    def distances_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Full ``(len(queries), n)`` distance matrix, assembled block-wise."""
        queries = self._coerce_queries(queries)
        rows_per_block = self._row_block(self.num_objects)
        if len(queries) <= rows_per_block:
            return self._fill_rows(queries)
        out = np.empty((len(queries), self.num_objects), dtype=np.float64)
        self._scatter(
            len(queries),
            rows_per_block,
            lambda s, e: out.__setitem__(slice(s, e), self._fill_rows(queries[s:e])),
        )
        return out

    def _fill_rows(self, block: np.ndarray) -> np.ndarray:
        """The ``(len(block), n)`` distances, owned by the caller.

        When one column block spans the database this is the tile itself;
        otherwise the column tiles are assembled into a new array.
        """
        step = self._column_block(len(block))
        if step >= self.num_objects:
            return self._distance_tile(block, 0, self.num_objects)
        rows = np.empty((len(block), self.num_objects), dtype=np.float64)
        for start in range(0, self.num_objects, step):
            stop = min(start + step, self.num_objects)
            rows[:, start:stop] = self._distance_tile(block, start, stop)
        return rows

    # ------------------------------------------------------------------ #
    # Scatter / gather
    # ------------------------------------------------------------------ #
    def _scatter(
        self,
        total_rows: int,
        rows_per_block: int,
        work: Callable[[int, int], None],
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """Run ``work(start, stop)`` over query blocks, optionally threaded.

        Each call writes a disjoint output slice, so the gather is
        order-preserving and deterministic for any worker count.
        """
        bounds = [
            (start, min(start + rows_per_block, total_rows))
            for start in range(0, total_rows, rows_per_block)
        ]
        # More threads than cores is pure loss for CPU-bound BLAS work (the
        # concurrent tiles evict each other from cache), so the requested
        # width is capped at the machine; results are identical either way.
        workers = min(self._resolved_workers(), len(bounds), os.cpu_count() or 1)
        if workers <= 1:
            done = 0
            for start, stop in bounds:
                work(start, stop)
                done += stop - start
                if progress is not None:
                    progress(done, total_rows)
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(work, start, stop) for start, stop in bounds]
            done = 0
            for (start, stop), future in zip(bounds, futures):
                future.result()  # re-raises worker errors; order-preserving
                done += stop - start
                if progress is not None:
                    progress(done, total_rows)

    @staticmethod
    def _coerce_queries(queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        return np.ascontiguousarray(queries)

    # ------------------------------------------------------------------ #
    # Selectivities
    # ------------------------------------------------------------------ #
    def selectivities_batch(
        self,
        queries: np.ndarray,
        thresholds: np.ndarray,
        progress: Optional[ProgressCallback] = None,
    ) -> np.ndarray:
        """Exact counts for aligned queries and thresholds.

        ``thresholds`` may be 1-D (one threshold per query) or 2-D
        ``(len(queries), w)`` (several thresholds per query); the result
        matches its shape with dtype int64.  Counts accumulate over data
        blocks — no sort is ever performed.
        """
        queries = self._coerce_queries(queries)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.ndim not in (1, 2) or len(thresholds) != len(queries):
            raise ValueError("queries and thresholds must be aligned")
        out = np.empty(thresholds.shape, dtype=np.int64)
        if len(queries) == 0:
            return out

        if thresholds.ndim == 1 and self._regions is not None:
            worker = lambda s, e: out.__setitem__(
                slice(s, e), self._pruned_counts(queries[s:e], thresholds[s:e])
            )
            width = self.num_objects
        elif thresholds.ndim == 1:
            worker = lambda s, e: out.__setitem__(
                slice(s, e), self._aligned_counts(queries[s:e], thresholds[s:e])
            )
            width = self._column_block(64)
        else:
            worker = lambda s, e: out.__setitem__(
                slice(s, e), self._grid_counts(queries[s:e], thresholds[s:e])
            )
            width = self._column_block(64)
        self._scatter(len(queries), self._row_block(width), worker, progress=progress)
        return out

    def _aligned_counts(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        counts = np.zeros(len(queries), dtype=np.int64)
        step = self._column_block(len(queries))
        cutoffs = thresholds[:, None]
        for start in range(0, self.num_objects, step):
            tile = self._distance_tile(queries, start, min(start + step, self.num_objects))
            counts += np.count_nonzero(tile <= cutoffs, axis=1)
        return counts

    def _grid_counts(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        counts = np.zeros(thresholds.shape, dtype=np.int64)
        step = self._column_block(len(queries))
        for start in range(0, self.num_objects, step):
            tile = self._distance_tile(queries, start, min(start + step, self.num_objects))
            for j in range(thresholds.shape[1]):
                counts[:, j] += np.count_nonzero(tile <= thresholds[:, j : j + 1], axis=1)
        return counts

    def selectivities_with_boundaries(
        self,
        queries: np.ndarray,
        thresholds: np.ndarray,
        guard: float = 1e-8,
    ):
        """Counts plus, per pair, the rows within a guard band of the threshold.

        Returns ``(counts, boundaries)`` where ``boundaries`` maps a
        flattened pair index (``row`` for 1-D thresholds, ``row * w + j``
        for 2-D) to ``(row_ids, outcomes)``: the database rows whose
        distance lies within ``guard * (1 + |t|)`` of the pair's threshold
        and whether this oracle counted them (``d <= t``).

        :class:`~repro.exact.delta.DeltaOracle` replays these recorded
        outcomes when subtracting deleted rows: recomputing a tie row's
        distance in a different GEMM shape can move it by one ulp across
        the threshold, but the guard band is orders of magnitude wider
        than any accumulation error, so every ambiguous comparison is
        resolved from the base pass and deleted contributions cancel
        exactly.
        """
        queries = self._coerce_queries(queries)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.ndim not in (1, 2) or len(thresholds) != len(queries):
            raise ValueError("queries and thresholds must be aligned")
        counts = np.zeros(thresholds.shape, dtype=np.int64)
        boundaries: dict = {}
        if len(queries) == 0:
            return counts, boundaries
        grid = thresholds if thresholds.ndim == 2 else thresholds[:, None]
        width = grid.shape[1]
        block_counts = np.zeros(grid.shape, dtype=np.int64)
        guards = guard * (1.0 + np.abs(grid))

        def work(start: int, stop: int) -> None:
            sub = queries[start:stop]
            step = self._column_block(len(sub))
            for col in range(0, self.num_objects, step):
                tile = self._distance_tile(sub, col, min(col + step, self.num_objects))
                for j in range(width):
                    cutoff = grid[start:stop, j : j + 1]
                    block_counts[start:stop, j] += np.count_nonzero(tile <= cutoff, axis=1)
                    near = np.abs(tile - cutoff) <= guards[start:stop, j : j + 1]
                    if not near.any():
                        continue
                    for i_local, row_local in zip(*np.nonzero(near)):
                        pair = (start + int(i_local)) * width + j
                        ids, outcomes = boundaries.setdefault(pair, ([], []))
                        ids.append(col + int(row_local))
                        outcomes.append(
                            bool(tile[i_local, row_local] <= grid[start + i_local, j])
                        )

        self._scatter(len(queries), self._row_block(self._column_block(64)), work)
        finalised = {
            pair: (np.asarray(ids, dtype=np.int64), np.asarray(outcomes, dtype=bool))
            for pair, (ids, outcomes) in boundaries.items()
        }
        counts[...] = block_counts if thresholds.ndim == 2 else block_counts[:, 0]
        return counts, finalised

    # ------------------------------------------------------------------ #
    # Order statistics
    # ------------------------------------------------------------------ #
    def kth_distances(
        self,
        queries: np.ndarray,
        ks: Sequence[int],
        progress: Optional[ProgressCallback] = None,
    ) -> np.ndarray:
        """The ``k``-th smallest distances (0-based) per query via ``np.partition``.

        Returns shape ``(len(queries), len(ks))`` in the order of ``ks``.
        """
        queries = self._coerce_queries(queries)
        ks = np.asarray(ks, dtype=np.int64)
        if ks.ndim != 1:
            raise ValueError("ks must be a 1-D sequence of ranks")
        if len(ks) and (ks.min() < 0 or ks.max() >= self.num_objects):
            raise ValueError("ranks must lie in [0, num_objects)")
        out = np.empty((len(queries), len(ks)), dtype=np.float64)
        if len(queries) == 0 or len(ks) == 0:
            return out
        unique = np.unique(ks)
        kth = unique if len(unique) > 1 else int(unique[0])

        def work(start: int, stop: int) -> None:
            rows = self._fill_rows(queries[start:stop])
            rows.partition(kth, axis=1)
            out[start:stop] = rows[:, ks]

        self._scatter(len(queries), self._row_block(self.num_objects), work, progress=progress)
        return out

    def tie_robust_thresholds(self, raw: np.ndarray) -> np.ndarray:
        """Nudge rank-derived thresholds just above their defining distance.

        A rank threshold *equals* some database row's computed distance, so
        any consumer that recomputes that distance with a different kernel
        (GEMV vs GEMM, a sampled subset, a post-update rebuild) can land one
        ulp above the raw threshold and lose the tie.  The margin is an
        error-propagation bound on that kernel spread — for Euclidean it is
        added in *squared* space, where GEMM accumulation error is uniform,
        which automatically widens near zero (the catastrophic-cancellation
        regime of ``sqrt``) and tightens to a relative nudge for large
        distances — so exact counts at the nudged threshold are identical
        for every brute-force kernel, while remaining far below any genuine
        gap between distinct data points.
        """
        raw = np.asarray(raw, dtype=np.float64)
        eps = float(np.finfo(np.float64).eps)
        spread = 64.0 * max(self.dim, 1) * eps
        if self.distance.name == "euclidean":
            scale_sq = 4.0 * float(self._data_sq.max()) if self.num_objects else 1.0
            return np.sqrt(raw * raw + spread * max(scale_sq, 1.0))
        if self.distance.name == "cosine":
            return raw + spread * np.maximum(np.abs(raw), 1.0)
        return raw + 1e-12 * (1.0 + np.abs(raw))

    def threshold_profile(
        self,
        queries: np.ndarray,
        ranks: Sequence[int],
        progress: Optional[ProgressCallback] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Tie-robust thresholds *and* exact counts at 1-based ranks, fused.

        For every query returns ``(thresholds, counts)`` of shape
        ``(len(queries), len(ranks))`` where ``thresholds[i, j]`` is the
        ``ranks[j]``-th smallest distance passed through
        :meth:`tie_robust_thresholds` and ``counts[i, j]`` the exact
        selectivity at that threshold (``>= ranks[j]``; ties push it up).

        One distance sweep serves both: the row is partitioned once at the
        largest rank, only the tiny head is sorted, and the few tail
        elements the nudged top threshold can reach are counted exactly —
        the full ``n``-vector is never sorted.
        """
        queries = self._coerce_queries(queries)
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.ndim != 1 or len(ranks) == 0:
            raise ValueError("ranks must be a non-empty 1-D sequence")
        if ranks.min() < 1 or ranks.max() > self.num_objects:
            raise ValueError("ranks must lie in [1, num_objects]")
        thresholds = np.empty((len(queries), len(ranks)), dtype=np.float64)
        counts = np.empty((len(queries), len(ranks)), dtype=np.int64)
        if len(queries) == 0:
            return thresholds, counts
        kmax = int(ranks.max()) - 1

        def work(start: int, stop: int) -> None:
            # The rows are this call's own: partition and sort them in place.
            rows = self._fill_rows(queries[start:stop])
            if kmax + 1 < rows.shape[1]:
                rows.partition(kmax, axis=1)
            head, tail = rows[:, : kmax + 1], rows[:, kmax + 1 :]
            head.sort(axis=1)
            block_thresholds = self.tie_robust_thresholds(head[:, ranks - 1])
            block_counts = np.empty_like(block_thresholds, dtype=np.int64)
            for i in range(len(head)):
                block_counts[i] = np.searchsorted(head[i], block_thresholds[i], side="right")
            # Only thresholds nudged past the partition boundary can reach
            # tail elements (in practice just the largest rank's ties).  No
            # tail element lies below its row's boundary, so the rows whose
            # threshold stays under it count nothing there: the tail is
            # compared whole, never copied row by row.
            reaches_tail = block_thresholds >= head[:, kmax, None]
            if tail.size:
                for j in np.nonzero(reaches_tail.any(axis=0))[0]:
                    block_counts[:, j] += np.count_nonzero(
                        tail <= block_thresholds[:, j : j + 1], axis=1
                    )
            thresholds[start:stop] = block_thresholds
            counts[start:stop] = block_counts

        self._scatter(len(queries), self._row_block(self.num_objects), work, progress=progress)
        return thresholds, counts

    def max_distances(self, queries: np.ndarray) -> np.ndarray:
        """Largest distance from each query to the database."""
        queries = self._coerce_queries(queries)
        out = np.empty(len(queries), dtype=np.float64)
        if len(queries) == 0:
            return out

        def work(start: int, stop: int) -> None:
            block = queries[start:stop]
            maxima = np.full(len(block), -np.inf)
            step = self._column_block(len(block))
            for col in range(0, self.num_objects, step):
                tile = self._distance_tile(block, col, min(col + step, self.num_objects))
                np.maximum(maxima, tile.max(axis=1), out=maxima)
            out[start:stop] = maxima

        self._scatter(len(queries), self._row_block(self._column_block(64)), work)
        return out

    # ------------------------------------------------------------------ #
    # Triangle-inequality pruning (Euclidean only)
    # ------------------------------------------------------------------ #
    def _prepare_regions(self, regions: Optional[Sequence]):
        if regions is None or self.distance.name != "euclidean":
            return None
        centers = np.ascontiguousarray(
            np.stack([np.asarray(region.center, dtype=np.float64) for region in regions])
        )
        radii = np.asarray([float(region.radius) for region in regions])
        members = [np.asarray(region.point_indices, dtype=np.int64) for region in regions]
        covered = np.concatenate(members) if members else np.asarray([], dtype=np.int64)
        if len(covered) != self.num_objects or len(np.unique(covered)) != self.num_objects:
            raise ValueError("pruning regions must cover every database row exactly once")
        blocks = [np.ascontiguousarray(self.data[index]) for index in members]
        sizes = np.asarray([len(index) for index in members], dtype=np.int64)
        return centers, radii, blocks, sizes

    def _pruned_counts(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Exact counts via ball bounds; borderline regions scanned exactly.

        The margin absorbs floating-point error in the computed bounds:
        regions decided by a bound would also be decided by the exact
        kernel, so pruned and unpruned counts are identical integers.
        """
        centers, radii, blocks, sizes = self._regions
        center_sq = np.einsum("ij,ij->i", centers, centers)
        q_sq = np.einsum("ij,ij->i", queries, queries)
        center_distances = _euclidean_from_gram(gemm(queries, centers.T), q_sq, center_sq)
        margin = 1e-9 * (1.0 + np.abs(thresholds))[:, None]
        all_in = center_distances + radii[None, :] <= thresholds[:, None] - margin
        all_out = center_distances - radii[None, :] > thresholds[:, None] + margin
        counts = (all_in * sizes[None, :]).sum(axis=1).astype(np.int64)
        scan = ~(all_in | all_out)
        for r in np.nonzero(scan.any(axis=0))[0]:
            block = blocks[r]
            if len(block) == 0:
                continue
            rows = np.nonzero(scan[:, r])[0]
            sub = np.ascontiguousarray(queries[rows])
            sub_sq = np.einsum("ij,ij->i", sub, sub)
            block_sq = np.einsum("ij,ij->i", block, block)
            tile = _euclidean_from_gram(gemm(sub, block.T), sub_sq, block_sq)
            counts[rows] += np.count_nonzero(tile <= thresholds[rows, None], axis=1)
        return counts


def _euclidean_from_gram(gram: np.ndarray, q_sq: np.ndarray, d_sq: np.ndarray) -> np.ndarray:
    """``sqrt(max(q_sq + d_sq - 2 gram, 0))`` with one tile beside ``gram``.

    The same IEEE operations in the same order as the broadcast expression,
    so the distances are bit-identical to it; ``gram`` is overwritten.
    """
    squared = np.add.outer(q_sq, d_sq)
    gram *= 2.0
    np.subtract(squared, gram, out=squared)
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared, out=squared)
