"""LRU cache of per-query selectivity curves, with hit-rate statistics.

Selectivity serving has heavy query reuse (the same embedding is probed at
many thresholds — blocking plans, progressive refinement, dashboards).  A
curve cache exploits the shape of the problem: one cached entry per
(model, query) answers *every* threshold for that query, instead of one
model forward pass per request.  An entry is one of two kinds:

* **Control points** — for the SelNet family, whose estimate is exactly
  piecewise linear in t (Equation 1), the entry is the query's
  :class:`~repro.inference.kernels.ControlPoints`: its ``(tau, p)`` pairs,
  per local model for a partitioned SelNet, plus the least threshold at
  which each partition is active.  The kernel evaluates rows against them
  with its own piecewise-linear step and partition gate, so a cached
  answer is the kernel's answer, at every threshold, and is non-decreasing
  in t for as long as the entry lives.  These entries have no grid and are
  never quantized.
* **Sampled curves** — every other estimator's curve is sampled on a
  threshold grid (:class:`CachedCurve`) and read back by linear
  interpolation.  Two things keep these dense: *grid interning* (entries
  on the same per-model grid share one grid array, whose bytes are counted
  once) and *quantization* (:class:`QuantizedCurve` stores the samples as
  uint8/uint16 codes, 1–2 bytes per point instead of 8, to within half a
  quantization step; with ``CurveCache(quantize_bits=8)`` every inserted
  sampled curve is re-encoded on the way in).

``max_bytes`` bounds the cache by *accounted bytes* (payload + key + shared
grids + a fixed per-entry overhead), evicting least-recently-used entries
past either the entry-count or the byte budget.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..inference.kernels import ControlPoints
from ..inference.precision import dequantize_values, quantize_values

#: fixed per-entry bookkeeping charge (OrderedDict slot, entry object)
_ENTRY_OVERHEAD_BYTES = 64


@dataclass
class CachedCurve:
    """A selectivity curve sampled on a fixed threshold grid."""

    thresholds: np.ndarray
    values: np.ndarray

    def __call__(self, threshold: float) -> float:
        """Interpolated estimate at one threshold (clamped to the grid ends)."""
        return float(np.interp(threshold, self.thresholds, self.values))

    def at(self, thresholds: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(thresholds, dtype=np.float64), self.thresholds, self.values)

    @property
    def payload_nbytes(self) -> int:
        """Bytes this entry owns exclusively (the shared grid is not counted)."""
        return int(self.values.nbytes)


@dataclass
class QuantizedCurve:
    """A selectivity curve stored as affine uint codes on a shared grid.

    Duck-types :class:`CachedCurve` (``thresholds`` / ``values`` /
    ``__call__`` / ``at``) while holding 1–2 bytes per control point.
    Non-negative curves quantize in the ``log1p`` domain: selectivities are
    counts spanning orders of magnitude, and a log-domain code grid keeps
    the *relative* reconstruction error uniform across the range (a linear
    uint8 grid would concentrate all of its error budget on the small
    values, exactly where relative accuracy matters).  Interpolation
    happens on the decoded values, matching :class:`CachedCurve` up to the
    quantization step.
    """

    thresholds: np.ndarray
    codes: np.ndarray
    scale: float
    offset: float
    transform: str = "linear"

    @classmethod
    def encode(
        cls, thresholds: np.ndarray, values: np.ndarray, bits: int = 8
    ) -> "QuantizedCurve":
        values = np.asarray(values, dtype=np.float64)
        if values.size and float(values.min()) >= 0.0:
            transform = "log1p"
            encoded = np.log1p(values)
        else:
            transform = "linear"
            encoded = values
        codes, scale, offset = quantize_values(encoded, bits=bits)
        return cls(
            thresholds=thresholds,
            codes=codes,
            scale=scale,
            offset=offset,
            transform=transform,
        )

    @property
    def values(self) -> np.ndarray:
        decoded = dequantize_values(self.codes, self.scale, self.offset)
        return np.expm1(decoded) if self.transform == "log1p" else decoded

    def __call__(self, threshold: float) -> float:
        return float(np.interp(threshold, self.thresholds, self.values))

    def at(self, thresholds: np.ndarray) -> np.ndarray:
        return np.interp(
            np.asarray(thresholds, dtype=np.float64), self.thresholds, self.values
        )

    @property
    def bits(self) -> int:
        return int(self.codes.dtype.itemsize * 8)

    @property
    def payload_nbytes(self) -> int:
        # codes + the two float64 decode constants
        return int(self.codes.nbytes) + 16


Curve = Union[CachedCurve, QuantizedCurve, ControlPoints]


#: rounding of query coordinates inside cache and routing keys: queries that
#: differ by less than 1e-10 per coordinate share one cached curve and shard
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


def _grid_digest(grid: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(grid).tobytes(), digest_size=16).digest()


@dataclass
class _InternedGrid:
    """One shared threshold-grid array and how many entries reference it."""

    array: np.ndarray
    refcount: int = 0


@dataclass
class _Entry:
    """One cached entry plus the bookkeeping the byte accounting needs."""

    curve: Curve
    grid_key: Optional[Tuple[str, bytes]]
    nbytes: int


class CurveCache:
    """A bounded LRU mapping (model, query) -> cached selectivity curve.

    Parameters
    ----------
    capacity:
        Maximum number of cached entries; the least recently used entry is
        evicted when full.  ``capacity <= 0`` disables caching entirely
        (every ``get`` misses, ``put`` is a no-op).
    max_bytes:
        Optional byte budget over accounted cache memory (entry payloads,
        keys, interned grids, per-entry overhead); LRU entries are evicted
        past it.  ``None`` bounds by entry count only.
    quantize_bits:
        8 or 16 re-encodes every inserted :class:`CachedCurve` as a
        :class:`QuantizedCurve` with that many bits per sample; ``None``
        stores curves as handed in.  Control-point entries are always
        stored as handed in.

    ``query`` arguments are query vectors, or the bytes of a
    :func:`rounded_queries` row.
    """

    def __init__(
        self,
        capacity: int = 256,
        max_bytes: Optional[int] = None,
        quantize_bits: Optional[int] = None,
    ) -> None:
        self.capacity = int(capacity)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        if quantize_bits is not None and quantize_bits not in (8, 16):
            raise ValueError(f"quantize_bits must be 8, 16 or None, got {quantize_bits!r}")
        self.quantize_bits = quantize_bits
        self._entries: "OrderedDict[bytes, _Entry]" = OrderedDict()
        self._grids: Dict[Tuple[str, bytes], _InternedGrid] = {}
        self._entry_bytes = 0
        self._grid_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes(self) -> int:
        """Accounted cache memory: entry payloads + keys + shared grids."""
        return self._entry_bytes + self._grid_bytes

    @property
    def grid_count(self) -> int:
        return len(self._grids)

    # ------------------------------------------------------------------ #
    def get(
        self,
        model_name: str,
        query: Union[np.ndarray, bytes],
        threshold: Optional[float] = None,
        rows: int = 1,
    ) -> Optional[Curve]:
        """Cached entry for a query, or None on a miss.

        When ``threshold`` is given, a sampled curve whose grid does not
        reach it counts as a miss: interpolation would clamp to the grid
        end and silently return a wrong estimate, so the caller must
        rebuild the curve over a wider range instead.  Control points
        answer every threshold, so ``threshold`` never misses them.
        ``rows`` is the number of request rows the lookup answers: the
        hit and miss counters count rows.
        """
        key = compact_cache_key(model_name, query)
        entry = self._entries.get(key)
        if entry is None or (
            threshold is not None
            and not isinstance(entry.curve, ControlPoints)
            and threshold > entry.curve.thresholds[-1]
        ):
            self.misses += rows
            return None
        self._entries.move_to_end(key)
        self.hits += rows
        return entry.curve

    def put(self, model_name: str, query: Union[np.ndarray, bytes], curve: Curve) -> None:
        if self.capacity <= 0:
            return
        key = compact_cache_key(model_name, query)
        if self.quantize_bits is not None and isinstance(curve, CachedCurve):
            curve = QuantizedCurve.encode(
                curve.thresholds, curve.values, bits=self.quantize_bits
            )
        grid_key = (
            None if isinstance(curve, ControlPoints) else self._intern_grid(model_name, curve)
        )
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._release_entry(previous)
        entry = _Entry(
            curve=curve,
            grid_key=grid_key,
            nbytes=curve.payload_nbytes + len(key) + _ENTRY_OVERHEAD_BYTES,
        )
        self._entries[key] = entry
        self._entry_bytes += entry.nbytes
        while self._entries and (
            len(self._entries) > self.capacity
            or (self.max_bytes is not None and self.bytes > self.max_bytes)
        ):
            _, evicted = self._entries.popitem(last=False)
            self._release_entry(evicted)
            self.evictions += 1

    def invalidate(self, model_name: Optional[str] = None) -> int:
        """Drop every entry (or only one model's — after a data update)."""
        if model_name is None:
            removed = len(self._entries)
            self._entries.clear()
            self._grids.clear()
            self._entry_bytes = 0
            self._grid_bytes = 0
        else:
            prefix = model_name.encode("utf-8") + b"\x00"
            stale = [key for key in self._entries if key.startswith(prefix)]
            for key in stale:
                self._release_entry(self._entries.pop(key))
            removed = len(stale)
        self.invalidations += removed
        return removed

    # ------------------------------------------------------------------ #
    # Grid interning
    # ------------------------------------------------------------------ #
    def _intern_grid(self, model_name: str, curve: Curve) -> Optional[Tuple[str, bytes]]:
        """Share one threshold-grid array per (model, grid) across entries.

        The inserted curve's ``thresholds`` is swapped for the interned
        array (byte-identical by construction), so N entries on the same
        grid hold one float64 array between them — and its bytes are
        charged to the budget exactly once.
        """
        grid = np.asarray(curve.thresholds)
        grid_key = (model_name, _grid_digest(grid))
        interned = self._grids.get(grid_key)
        if interned is None:
            interned = _InternedGrid(array=np.ascontiguousarray(grid, dtype=np.float64))
            self._grids[grid_key] = interned
            self._grid_bytes += int(interned.array.nbytes)
        curve.thresholds = interned.array
        interned.refcount += 1
        return grid_key

    def _release_entry(self, entry: _Entry) -> None:
        self._entry_bytes -= entry.nbytes
        if entry.grid_key is None:
            return
        interned = self._grids.get(entry.grid_key)
        if interned is None:
            return
        interned.refcount -= 1
        if interned.refcount <= 0:
            self._grid_bytes -= int(interned.array.nbytes)
            del self._grids[entry.grid_key]

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
            "quantize_bits": self.quantize_bits,
            "grids": self.grid_count,
        }
