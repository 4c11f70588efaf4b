"""Consistent-hash routing of (model, query) keys onto worker shards.

Routing keys on the *query* (not the request) so that all thresholds of a
repeated query land on the same shard — which is what keeps that shard's
:class:`~repro.serving.cache.CurveCache` hot.  The key is built by
:func:`repro.serving.cache.query_cache_key`, so the router and the per-shard
caches agree bit-for-bit on which queries are "the same" (both round query
coordinates to :data:`~repro.serving.cache.KEY_DECIMALS` decimals).

The ring hashes :data:`VIRTUAL_NODES` points per shard with BLAKE2b, making
placement deterministic across processes and Python invocations (no
``PYTHONHASHSEED`` dependence) and keeping the remap fraction near
``1 / (num_shards + 1)`` when a shard is added.  A key belongs to the first
ring point at or after its hash, wrapping past the end of the ring.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

from ..serving.cache import query_cache_key, rounded_queries

#: ring points per shard; more points smooth the key distribution
VIRTUAL_NODES = 64


def _hash64(data: bytes) -> int:
    """Stable 64-bit hash used for both ring points and request keys."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class ShardRouter:
    """Maps ``(model, query)`` keys to shard ids via a consistent-hash ring."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = int(num_shards)
        points = sorted(
            (_hash64(f"shard-{shard}:vnode-{vnode}".encode()), shard)
            for shard in range(self.num_shards)
            for vnode in range(VIRTUAL_NODES)
        )
        self._ring_hashes = np.asarray([point for point, _ in points], dtype=np.uint64)
        self._ring_shards = np.asarray([shard for _, shard in points], dtype=np.int64)

    # ------------------------------------------------------------------ #
    def key_for(self, model: str, query: np.ndarray) -> bytes:
        """The routing key — identical to the per-shard cache key."""
        return query_cache_key(model, query)

    def route(self, model: str, query: np.ndarray) -> int:
        """Shard id for one key."""
        return int(self.route_batch(model, np.asarray(query)[None, :])[0])

    def route_batch(self, model: str, queries: np.ndarray) -> np.ndarray:
        """Shard ids for a batch of queries (one id per row).

        A one-shard ring owns every key, so nothing is hashed.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.size == 0:
            return np.empty(0, dtype=np.int64)
        queries = np.atleast_2d(queries)
        if self.num_shards == 1:
            return np.zeros(len(queries), dtype=np.int64)
        # One rounding for the whole batch; each row's key is then the
        # bytes ``key_for`` builds for it.
        rounded = rounded_queries(queries)
        prefix = model.encode("utf-8") + b"\x00"
        points = np.fromiter(
            (_hash64(prefix + row.tobytes()) for row in rounded),
            dtype=np.uint64,
            count=len(rounded),
        )
        slots = np.searchsorted(self._ring_hashes, points, side="left")
        return self._ring_shards[slots % len(self._ring_shards)]

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, int]:
        return {
            "num_shards": self.num_shards,
            "ring_points": len(self._ring_shards),
        }
