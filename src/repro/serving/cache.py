"""LRU cache of per-query SelNet control points, with hit-rate statistics.

Selectivity serving has heavy query reuse (the same embedding is probed at
many thresholds — blocking plans, progressive refinement, dashboards).  A
SelNet estimate is exactly piecewise linear in t once a query's control
points are known (Equation 1), so one cached entry per (model, query)
answers *every* threshold for that query, instead of one network forward
per request.  An entry is the query's
:class:`~repro.inference.kernels.ControlPoints`: its ``(tau, p)`` pairs, per
local model for a partitioned SelNet, plus the least threshold at which each
partition is active.  The kernel evaluates rows against them with its own
piecewise-linear step and partition gate, so a cached answer is the
kernel's answer, at every threshold, and is non-decreasing in t for as long
as the entry lives.

Only the SelNet family (kernels that fuse curves) is cached; every other
estimator is served uncached (:class:`~repro.serving.EstimationService`).

``max_bytes`` bounds the cache by *accounted bytes* (payload + key + a fixed
per-entry overhead), evicting least-recently-used entries past either the
entry-count or the byte budget.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Union

import numpy as np

from ..inference.kernels import ControlPoints

#: fixed per-entry bookkeeping charge (OrderedDict slot, entry object)
_ENTRY_OVERHEAD_BYTES = 64


#: rounding of query coordinates inside cache and routing keys: queries that
#: differ by less than 1e-10 per coordinate share one cache entry and shard
KEY_DECIMALS = 10


def rounded_queries(queries: np.ndarray) -> np.ndarray:
    """Query coordinates as keys see them: rounded to :data:`KEY_DECIMALS`.

    Works on one query or a batch (rounding is per element); a row's
    ``tobytes()`` is the identity its cache and routing keys are built on.
    """
    rounded = np.round(np.asarray(queries, dtype=np.float64), KEY_DECIMALS)
    # 0.0 and -0.0 have different byte patterns; normalise so they collide.
    return rounded + 0.0


def _rounded_query_bytes(query: np.ndarray) -> bytes:
    return rounded_queries(query).tobytes()


def query_cache_key(model_name: str, query: np.ndarray) -> bytes:
    """Stable cache key: model name + the rounded query bytes."""
    return model_name.encode("utf-8") + b"\x00" + _rounded_query_bytes(query)


def compact_cache_key(model_name: str, query: Union[np.ndarray, bytes]) -> bytes:
    """The cache's *stored* key: model name + a 16-byte query digest.

    Same identity semantics as :func:`query_cache_key` (which the shard
    router keeps using, so routing stays byte-compatible), but a
    byte-budgeted cache spends 16 bytes per key instead of ``dim * 8``.
    The model prefix stays in the clear for per-model invalidation scans.
    ``query`` is a query vector, or the bytes of its
    :func:`rounded_queries` row (a caller that rounded a whole batch once).
    """
    rounded = query if isinstance(query, bytes) else _rounded_query_bytes(query)
    digest = hashlib.blake2b(rounded, digest_size=16).digest()
    return model_name.encode("utf-8") + b"\x00" + digest


def _entry_nbytes(key: bytes, points: ControlPoints) -> int:
    return points.payload_nbytes + len(key) + _ENTRY_OVERHEAD_BYTES


class CurveCache:
    """A bounded LRU mapping (model, query) -> the query's control points.

    Parameters
    ----------
    capacity:
        Maximum number of cached entries; the least recently used entry is
        evicted when full.  ``capacity <= 0`` disables caching entirely
        (every ``get`` misses, ``put`` is a no-op).
    max_bytes:
        Optional byte budget over accounted cache memory (entry payloads,
        keys, per-entry overhead); LRU entries are evicted past it.
        ``None`` bounds by entry count only.

    ``query`` arguments are query vectors, or the bytes of a
    :func:`rounded_queries` row.
    """

    def __init__(self, capacity: int = 256, max_bytes: Optional[int] = None) -> None:
        self.capacity = int(capacity)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._entries: "OrderedDict[bytes, ControlPoints]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes(self) -> int:
        """Accounted cache memory: entry payloads + keys + overhead."""
        return self._bytes

    # ------------------------------------------------------------------ #
    def get(
        self, model_name: str, query: Union[np.ndarray, bytes], rows: int = 1
    ) -> Optional[ControlPoints]:
        """Cached control points for a query, or None on a miss.

        ``rows`` is the number of request rows the lookup answers: the
        hit and miss counters count rows.
        """
        key = compact_cache_key(model_name, query)
        points = self._entries.get(key)
        if points is None:
            self.misses += rows
            return None
        self._entries.move_to_end(key)
        self.hits += rows
        return points

    def put(
        self, model_name: str, query: Union[np.ndarray, bytes], points: ControlPoints
    ) -> None:
        if not isinstance(points, ControlPoints):
            raise TypeError(f"the cache holds ControlPoints, got {type(points).__name__}")
        if self.capacity <= 0:
            return
        key = compact_cache_key(model_name, query)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= _entry_nbytes(key, previous)
        self._entries[key] = points
        self._bytes += _entry_nbytes(key, points)
        while self._entries and (
            len(self._entries) > self.capacity
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            evicted_key, evicted = self._entries.popitem(last=False)
            self._bytes -= _entry_nbytes(evicted_key, evicted)
            self.evictions += 1

    def invalidate(self, model_name: Optional[str] = None) -> int:
        """Drop every entry (or only one model's — after a data update)."""
        if model_name is None:
            removed = len(self._entries)
            self._entries.clear()
            self._bytes = 0
        else:
            prefix = model_name.encode("utf-8") + b"\x00"
            stale = [key for key in self._entries if key.startswith(prefix)]
            for key in stale:
                self._bytes -= _entry_nbytes(key, self._entries.pop(key))
            removed = len(stale)
        self.invalidations += removed
        return removed

    # ------------------------------------------------------------------ #
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
        }
