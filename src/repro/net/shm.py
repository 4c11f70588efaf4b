"""Shared-memory slot ring: the zero-copy batch data plane.

The ``network`` shard backend splits every backend call into a *control
message* (a tiny pickled dict over a :mod:`multiprocessing` pipe — operation,
model name, slot index, row count) and a *data payload* (the query matrix,
thresholds and results) that crosses the process boundary through a
:class:`multiprocessing.shared_memory.SharedMemory` segment instead of the
pipe.  Arrays are written once into a ring slot by the router and mapped as
NumPy views by the shard worker — no pickling, no copies through kernel
buffers — and the worker writes its results back **into the same slot** (a
result row is never wider than its request row), so one segment serves both
directions.

The segment is divided into ``num_slots`` fixed-size slots.  Slot indices
travel in the control messages; the router allocates them from a
:class:`SlotPool` (blocking when every slot is in flight, which the
cluster's bounded admission queue makes rare) and releases each slot after
copying the results out.  A batch too large for one slot falls back to
pickling through the control pipe — counted, so the transport stats make the
fallback visible.

Layout of one slot holding an ``(n, dim)`` float64 batch (the request
footprint ``n*(dim+1)*8`` always covers the ``n*8`` result bytes)::

    [ queries: n*dim*8 bytes | thresholds: n*8 bytes ]   request
    [ results: n*8 bytes     | ...stale...           ]   response (in place)
"""

from __future__ import annotations

import threading
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

#: default slot payload size — holds a 256-row batch of 512-dim float64
#: queries (the cluster's default ``max_batch_size`` at a generous width)
DEFAULT_SLOT_BYTES = 1 << 20

_FLOAT = np.float64
_ITEM = 8


def batch_nbytes(num_rows: int, dim: int) -> int:
    """Bytes one ``(num_rows, dim)`` query batch plus thresholds occupies."""
    return num_rows * dim * _ITEM + num_rows * _ITEM


class ShmRing:
    """One shared-memory segment sliced into fixed-size transport slots."""

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        num_slots: int,
        slot_bytes: int,
        owner: bool,
    ) -> None:
        self._segment = segment
        self.num_slots = int(num_slots)
        self.slot_bytes = int(slot_bytes)
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, num_slots: int, slot_bytes: int = DEFAULT_SLOT_BYTES) -> "ShmRing":
        if num_slots < 1 or slot_bytes < 2 * _ITEM:
            raise ValueError("need at least one slot of at least 16 bytes")
        segment = shared_memory.SharedMemory(create=True, size=num_slots * slot_bytes)
        return cls(segment, num_slots, slot_bytes, owner=True)

    @classmethod
    def attach(cls, name: str, num_slots: int, slot_bytes: int) -> "ShmRing":
        """Map an existing ring (the shard-worker side).

        The attaching process must NOT let Python's resource tracker manage
        the segment: on 3.9–3.12 an attached ``SharedMemory`` registers
        itself (bpo-39959) and the tracker would either unlink the segment
        the router still uses when the worker exits (spawn: per-child
        tracker) or corrupt the creator's registration (fork: shared
        tracker).  Registration is suppressed for the attach call itself —
        the creating side alone owns unlinking.
        """
        try:  # pragma: no cover - interpreter-version dependent plumbing
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register

            def _skip_shm(name_, rtype):  # noqa: ANN001
                if rtype != "shared_memory":
                    original_register(name_, rtype)

            resource_tracker.register = _skip_shm
            try:
                segment = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        except ImportError:
            segment = shared_memory.SharedMemory(name=name)
        return cls(segment, num_slots, slot_bytes, owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    # ------------------------------------------------------------------ #
    def fits(self, num_rows: int, dim: int) -> bool:
        """Whether an ``(num_rows, dim)`` batch (and so its response) fits in one slot."""
        return batch_nbytes(num_rows, dim) <= self.slot_bytes

    def _slot(self, index: int) -> memoryview:
        if not 0 <= index < self.num_slots:
            raise IndexError(f"slot {index} out of range [0, {self.num_slots})")
        start = index * self.slot_bytes
        return self._segment.buf[start : start + self.slot_bytes]

    def write_batch(self, index: int, queries: np.ndarray, thresholds: np.ndarray) -> None:
        """Copy one request batch into a slot (the transport's only copy-in)."""
        n, dim = queries.shape
        if not self.fits(n, dim):
            raise ValueError(
                f"batch of {batch_nbytes(n, dim)} bytes exceeds slot size {self.slot_bytes}"
            )
        view = self._slot(index)
        q_bytes = n * dim * _ITEM
        q_dst = np.ndarray((n, dim), dtype=_FLOAT, buffer=view[:q_bytes])
        t_dst = np.ndarray((n,), dtype=_FLOAT, buffer=view[q_bytes : q_bytes + n * _ITEM])
        np.copyto(q_dst, queries)
        np.copyto(t_dst, thresholds)

    def read_batch(
        self, index: int, num_rows: int, dim: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy views of a slot's request batch (worker side).

        The views stay valid while the slot is in flight: the router never
        reuses a slot before the worker's reply for it arrives.
        """
        view = self._slot(index)
        q_bytes = num_rows * dim * _ITEM
        queries = np.ndarray((num_rows, dim), dtype=_FLOAT, buffer=view[:q_bytes])
        thresholds = np.ndarray(
            (num_rows,), dtype=_FLOAT, buffer=view[q_bytes : q_bytes + num_rows * _ITEM]
        )
        return queries, thresholds

    def write_results(self, index: int, results: np.ndarray) -> None:
        """Write the response in place at the head of the slot (worker side)."""
        n = len(results)
        view = self._slot(index)
        dst = np.ndarray((n,), dtype=_FLOAT, buffer=view[: n * _ITEM])
        np.copyto(dst, results)

    def read_results(self, index: int, num_rows: int) -> np.ndarray:
        """Copy the response out of a slot (router side) so it can be freed."""
        view = self._slot(index)
        return np.array(
            np.ndarray((num_rows,), dtype=_FLOAT, buffer=view[: num_rows * _ITEM])
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release this mapping (and the segment itself on the owner side)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - a view outlived the ring
            return
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class SlotPool:
    """Blocking free-list of ring-slot indices (router side, thread-safe)."""

    def __init__(self, num_slots: int) -> None:
        self._free: List[int] = list(range(num_slots))
        self._condition = threading.Condition()
        self._closed = False

    def acquire(self, timeout: Optional[float] = None) -> int:
        with self._condition:
            if not self._condition.wait_for(
                lambda: self._free or self._closed, timeout=timeout
            ):
                raise TimeoutError("no free shared-memory slot")
            if self._closed:
                raise RuntimeError("slot pool is closed")
            return self._free.pop()

    def release(self, index: int) -> None:
        with self._condition:
            self._free.append(index)
            self._condition.notify()

    def close(self) -> None:
        with self._condition:
            self._closed = True
            self._condition.notify_all()
