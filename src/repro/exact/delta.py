"""Incremental exact selectivities under insert/delete batches.

After a :mod:`repro.data.updates` stream mutates the database, the naive
path rebuilds a fresh oracle and rescans all ``n`` rows per relabel.
:class:`DeltaOracle` instead keeps running counts per cached
``(queries, thresholds)`` batch:

``count(D') = count(D_base) - count(deleted base rows) + count(live inserts)``

``insert`` and ``delete`` append to an operation log.  Each cached batch
holds its current counts and the log position it has reached, and a read
applies only the log entries after that position:

* an insert adds the inserted rows' outcomes (``d <= t`` per query and
  threshold) and keeps the batch's distances to those rows;
* a delete of inserted rows subtracts the outcomes of the kept distances,
  so it cancels its insert exactly (the same floats meet the same
  thresholds);
* a delete of base rows computes distances to the deleted rows only and
  subtracts their outcomes.

A write itself only logs its rows, and a read of a cached batch costs
only the rows changed since its previous read.  A batch read for the first
time (or again after LRU eviction) costs one full base scan plus one replay
of the log.

Exactness: workload thresholds are order statistics of the base data, so a
deleted row's distance frequently *equals* a threshold, and recomputing it
in a different GEMM shape can move it by one ulp across the boundary (BLAS
dispatches tiny matrices to different micro-kernels).  The base pass
therefore records, per ``(query, threshold)`` pair, the rows inside a
guard band of the threshold together with their counted outcome
(:meth:`~repro.exact.blocked.BlockedOracle.selectivities_with_boundaries`);
the deleted-row term replays those outcomes for any ambiguous comparison,
so deleted contributions cancel exactly and composed counts match a
from-scratch rebuild integer for integer (the ``DeltaOracle`` parity tests
assert this after mixed streams).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..distances import DistanceFunction, get_distance
from .blocked import BlockedOracle

#: distinct (queries, thresholds) batches whose running counts are retained
BASE_CACHE_SIZE = 8

#: relative guard band for ambiguous comparisons (orders of magnitude wider
#: than GEMM accumulation error, yet narrow enough that only genuine ties
#: and duplicate rows fall inside it)
COMPARISON_GUARD = 1e-9

#: boundary sets are recorded with a wider band so any comparison that looks
#: ambiguous when recomputed is guaranteed to have been recorded
RECORDING_GUARD = 1e-8


def _batch_digest(queries: np.ndarray, thresholds: np.ndarray) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(queries.shape).encode())
    digest.update(np.ascontiguousarray(queries).tobytes())
    digest.update(str(thresholds.shape).encode())
    digest.update(np.ascontiguousarray(thresholds).tobytes())
    return digest.digest()


def _outcome_counts(distances: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per ``(query, threshold)`` pair, how many of the rows count.

    ``distances`` is ``(Q, k)`` (query to row), ``grid`` is ``(Q, w)``.
    """
    return np.count_nonzero(distances[:, None, :] <= grid[:, :, None], axis=2)


@dataclass
class _Insert:
    """Log entry: rows appended to the database."""

    vectors: np.ndarray


@dataclass
class _Delete:
    """Log entry: rows removed from the database."""

    #: deleted base rows: ascending ids and their vectors
    base_ids: np.ndarray
    base_vectors: np.ndarray
    #: deleted inserted rows as ``(log index of their insert, columns)``
    inserted: List[Tuple[int, np.ndarray]]


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` owns its data and is read-only: its values cannot change."""
    return not array.flags.writeable and array.flags.owndata


@dataclass
class _Batch:
    """Running counts of one cached ``(queries, thresholds)`` batch."""

    counts: np.ndarray  # (Q, w) against the database at log position ``position``
    boundaries: dict
    position: int = 0
    #: per insert log index, this batch's ``(Q, k)`` distances to its rows
    insert_distances: Dict[int, np.ndarray] = field(default_factory=dict)
    #: the read-only ``(queries, thresholds)`` arrays last read through this
    #: batch, so the next read of the same arrays skips the digest
    arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None


class DeltaOracle:
    """Exact selectivities over a database evolving through updates.

    Row indexing follows :func:`repro.data.updates.apply_update`: deletes
    take indices into the *current* view (surviving base rows in original
    order followed by surviving inserted rows in insertion order; indices
    past the end are ignored) and inserts append at the end.
    """

    def __init__(
        self,
        data: np.ndarray,
        distance,
        block_bytes: Optional[int] = None,
        num_workers: Optional[int] = None,
    ) -> None:
        self.distance: DistanceFunction = (
            distance if isinstance(distance, DistanceFunction) else get_distance(distance)
        )
        self._base = BlockedOracle(
            data, self.distance, block_bytes=block_bytes, num_workers=num_workers
        )
        self._block_bytes = block_bytes
        self._base_alive = np.ones(self._base.num_objects, dtype=bool)
        self._num_objects = self._base.num_objects
        self._log: List[Union[_Insert, _Delete]] = []
        # Inserted rows are numbered in insertion order; the i-th insert's
        # rows start at number ``_insert_starts[i]`` and it sits at log
        # index ``_insert_logs[i]``.
        self._insert_alive = np.empty(0, dtype=bool)
        self._insert_starts: List[int] = []
        self._insert_logs: List[int] = []
        self._base_cache: "OrderedDict[bytes, _Batch]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Current view
    # ------------------------------------------------------------------ #
    @property
    def num_objects(self) -> int:
        return self._num_objects

    @property
    def base_size(self) -> int:
        return self._base.num_objects

    def current_data(self) -> np.ndarray:
        """Materialise the current database (matches ``apply_stream`` output)."""
        inserted = [entry.vectors for entry in self._log if isinstance(entry, _Insert)]
        if inserted:
            live = np.concatenate(inserted, axis=0)[self._insert_alive]
        else:
            live = np.empty((0, self._base.dim), dtype=np.float64)
        return np.concatenate([self._base.data[self._base_alive], live], axis=0)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def insert(self, vectors: np.ndarray) -> None:
        # A copy: the log keeps these rows after the caller's array changes.
        vectors = np.array(vectors, dtype=np.float64, ndmin=2)
        if vectors.shape[1] != self._base.dim:
            raise ValueError("inserted vectors must match the database dimensionality")
        self._insert_starts.append(len(self._insert_alive))
        self._insert_logs.append(len(self._log))
        self._insert_alive = np.concatenate([self._insert_alive, np.ones(len(vectors), dtype=bool)])
        self._log.append(_Insert(vectors=vectors))
        self._num_objects += len(vectors)

    def delete(self, indices: np.ndarray) -> None:
        """Delete rows by index into the current view.

        Semantics mirror :func:`~repro.data.updates.apply_update`: indices
        past the end are ignored, negative indices count from the end
        (numpy wrap-around), and indices below ``-size`` raise.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        size = self.num_objects
        indices = indices[indices < size]
        indices = np.unique(np.where(indices < 0, indices + size, indices))
        if len(indices) == 0:
            return
        if indices[0] < 0:
            raise IndexError("delete index out of bounds for the current database size")
        alive_base = np.nonzero(self._base_alive)[0]
        split = np.searchsorted(indices, len(alive_base))
        base_ids = alive_base[indices[:split]]
        insert_ids = np.nonzero(self._insert_alive)[0][indices[split:] - len(alive_base)]
        self._base_alive[base_ids] = False
        self._insert_alive[insert_ids] = False
        self._num_objects -= len(indices)
        inserted = []
        if len(insert_ids):
            which = np.searchsorted(self._insert_starts, insert_ids, side="right") - 1
            for index in np.unique(which):
                columns = insert_ids[which == index] - self._insert_starts[index]
                inserted.append((self._insert_logs[index], columns))
        self._log.append(
            _Delete(base_ids=base_ids, base_vectors=self._base.data[base_ids], inserted=inserted)
        )

    def apply(self, operation) -> None:
        """Apply one :class:`~repro.data.updates.UpdateOperation`."""
        if operation.kind == "insert":
            self.insert(operation.vectors)
        elif operation.kind == "delete":
            self.delete(operation.indices)
        else:  # pragma: no cover - UpdateOperation validates kinds
            raise ValueError(f"unknown operation kind {operation.kind!r}")

    def apply_stream(self, operations: Sequence) -> None:
        for operation in operations:
            self.apply(operation)

    # ------------------------------------------------------------------ #
    # Counting
    # ------------------------------------------------------------------ #
    def _batch(self, queries: np.ndarray, thresholds: np.ndarray) -> _Batch:
        frozen = _frozen(queries) and _frozen(thresholds)
        if frozen:
            # Arrays whose values cannot change are found by identity.
            for key, batch in self._base_cache.items():
                if batch.arrays is not None and (
                    batch.arrays[0] is queries and batch.arrays[1] is thresholds
                ):
                    self._base_cache.move_to_end(key)
                    return batch
        key = _batch_digest(queries, thresholds)
        batch = self._base_cache.get(key)
        if batch is None:
            counts, boundaries = self._base.selectivities_with_boundaries(
                queries, thresholds, guard=RECORDING_GUARD
            )
            grid_shape = thresholds.shape if thresholds.ndim == 2 else (len(thresholds), 1)
            batch = _Batch(counts=counts.reshape(grid_shape), boundaries=boundaries)
            self._base_cache[key] = batch
            while len(self._base_cache) > BASE_CACHE_SIZE:
                self._base_cache.popitem(last=False)
        else:
            self._base_cache.move_to_end(key)
        if frozen:
            batch.arrays = (queries, thresholds)
        return batch

    def _distances(self, queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """``(Q, k)`` distances from ``queries`` to a log entry's ``k`` rows."""
        rows = BlockedOracle(vectors, self.distance, block_bytes=self._block_bytes, num_workers=1)
        return rows.distances_matrix(queries)

    def _deleted_base_counts(
        self, queries: np.ndarray, grid: np.ndarray, batch: _Batch, entry: _Delete
    ) -> np.ndarray:
        """How many of ``entry``'s deleted base rows each pair counted.

        Distances to the deleted rows are recomputed; any comparison within
        the guard band of the threshold is resolved from the outcome the
        base pass recorded instead, so the subtraction cancels the base
        term exactly even at forced ties.
        """
        distances = self._distances(queries, entry.base_vectors)[:, None, :]
        cutoffs = grid[:, :, None]
        counted = distances <= cutoffs
        ambiguous = np.abs(distances - cutoffs) <= COMPARISON_GUARD * (1.0 + np.abs(cutoffs))
        width = grid.shape[1]
        for i, j, k in zip(*np.nonzero(ambiguous)):
            recorded = batch.boundaries.get(int(i) * width + int(j))
            if recorded is None:
                continue
            ids, outcomes = recorded
            row = entry.base_ids[k]
            slot = np.searchsorted(ids, row)
            if slot < len(ids) and ids[slot] == row:
                counted[i, j, k] = outcomes[slot]
        return np.count_nonzero(counted, axis=2)

    def _catch_up(self, queries: np.ndarray, grid: np.ndarray, batch: _Batch) -> None:
        """Apply the log entries ``batch`` has not seen to its counts."""
        for index in range(batch.position, len(self._log)):
            entry = self._log[index]
            if isinstance(entry, _Insert):
                distances = self._distances(queries, entry.vectors)
                batch.insert_distances[index] = distances
                batch.counts += _outcome_counts(distances, grid)
                continue
            for origin, columns in entry.inserted:
                batch.counts -= _outcome_counts(
                    batch.insert_distances[origin][:, columns], grid
                )
            if len(entry.base_ids):
                batch.counts -= self._deleted_base_counts(queries, grid, batch, entry)
        batch.position = len(self._log)

    def selectivities_batch(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Exact counts against the current database state.

        ``thresholds`` may be 1-D (aligned) or 2-D ``(len(queries), w)``,
        exactly as for :meth:`BlockedOracle.selectivities_batch`.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        batch = self._batch(queries, thresholds)
        grid = thresholds if thresholds.ndim == 2 else thresholds[:, None]
        self._catch_up(queries, grid, batch)
        return batch.counts.reshape(thresholds.shape).copy()

    batch_selectivity = selectivities_batch

    def cache_info(self) -> dict:
        """Introspection for tests and benchmarks."""
        return {
            "base_batches_cached": len(self._base_cache),
            "dead_base_rows": int(np.count_nonzero(~self._base_alive)),
            "live_inserted_rows": int(np.count_nonzero(self._insert_alive)),
        }
