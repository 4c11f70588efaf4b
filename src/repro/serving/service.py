"""The estimator serving facade.

:class:`EstimationService` turns a directory of saved estimators (see
:mod:`repro.persistence`) into a queryable model store:

* models are loaded lazily by name, kept in memory and served through
  their **compiled** pure-NumPy inference kernels (:mod:`repro.inference`)
  — at the default float64 tier answers stay equal to the estimator's own
  ``estimate`` while skipping the autodiff graph entirely;
* batched ``(query, threshold)`` requests are routed through bounded
  micro-batches (:mod:`repro.serving.batching`);
* an LRU selectivity-curve cache (:mod:`repro.serving.cache`) answers
  repeated queries without a model forward pass.  For the SelNet family
  (kernels that fuse curves) an entry is the query's control points: a
  call rounds its batch once, looks each distinct query up once, fills
  every miss with one kernel forward per ``max_batch_size`` chunk, and
  answers its rows, one ``max_batch_size`` slice per evaluation, through
  the kernel's own piecewise-linear step and partition gates.  Cached
  answers therefore equal ``use_cache=False`` answers within the precision
  tier's budget and never decrease as t grows, across calls too.  Every
  other estimator caches its curve sampled on a grid covering its own
  query's largest threshold and answers by interpolation;
* per-model request counts, batch counts, latency and cache hit-rate
  statistics are tracked for observability;
* data updates are routed to estimators that support them; the model's
  cached curves and compiled kernel are dropped only when the update
  changed its weights (a ``selnet-inc`` fine-tune), and kept otherwise.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..estimator import SelectivityEstimator
from ..inference.kernels import ControlPoints
from ..obs import MetricsRegistry
from ..obs import trace as obstrace
from ..persistence import SIDECAR_FILE, load_estimator, read_metadata
from .batching import iter_microbatches
from .cache import CachedCurve, CurveCache, rounded_queries

PathLike = Union[str, Path]


def _require_dimensions(name: str, estimator: SelectivityEstimator, queries: np.ndarray) -> None:
    """Reject queries whose width differs from the one the model was fitted on."""
    expected = estimator.expected_input_dim
    if expected is not None and queries.shape[1] != expected:
        raise ValueError(
            f"queries have {queries.shape[1]} dimensions but {name!r} was fitted "
            f"on {expected}-dimensional vectors"
        )


def _require_finite(queries: np.ndarray, thresholds: np.ndarray) -> None:
    """Reject NaN/inf inputs before they reach a kernel or the curve cache.

    An infinite threshold would stretch a curve grid to ``linspace(0, inf)``
    (all NaN), and that curve would then answer every later request for the
    same query from the cache.
    """
    if not (np.isfinite(queries).all() and np.isfinite(thresholds).all()):
        raise ValueError("queries and thresholds must be finite (no NaN or inf)")


class ModelStats:
    """One model's counters, as a view over the service's metrics registry.

    The registry series (``repro_service_*_total{model=...}``) are the
    single source of truth; this object caches the labeled children so the
    hot path increments without label resolution, and ``as_dict`` keeps the
    historical per-model stats shape.
    """

    __slots__ = (
        "requests",
        "batches",
        "cache_hits",
        "cache_misses",
        "curve_builds",
        "updates",
        "estimate_seconds",
        "latency",
    )

    def __init__(self, registry: MetricsRegistry, model: str) -> None:
        def counter(name: str, help_text: str):
            return registry.counter(name, help_text, ("model",)).labels(model=model)

        self.requests = counter(
            "repro_service_requests_total", "Estimate requests served (rows)"
        )
        self.batches = counter(
            "repro_service_batches_total", "Estimator/kernel micro-batch calls"
        )
        self.cache_hits = counter(
            "repro_service_cache_hits_total", "Curve-cache hits"
        )
        self.cache_misses = counter(
            "repro_service_cache_misses_total", "Curve-cache misses"
        )
        self.curve_builds = counter(
            "repro_service_curve_builds_total", "Selectivity curves built and cached"
        )
        self.updates = counter(
            "repro_service_updates_total", "Data updates applied to the model"
        )
        self.estimate_seconds = counter(
            "repro_service_estimate_seconds_total", "Wall seconds inside estimate()"
        )
        self.latency = registry.histogram(
            "repro_service_estimate_latency_seconds",
            "Per-call estimate() latency",
            ("model",),
        ).labels(model=model)

    def as_dict(self) -> Dict[str, float]:
        hits = int(self.cache_hits.value)
        misses = int(self.cache_misses.value)
        requests = int(self.requests.value)
        seconds = self.estimate_seconds.value
        total_cache = hits + misses
        return {
            "requests": requests,
            "batches": int(self.batches.value),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / total_cache if total_cache else 0.0,
            "curve_builds": int(self.curve_builds.value),
            "updates": int(self.updates.value),
            "total_estimate_seconds": seconds,
            "mean_latency_ms_per_request": (
                1000.0 * seconds / requests if requests else 0.0
            ),
        }


class EstimationService:
    """Loads named estimators from disk and serves selectivity estimates.

    Parameters
    ----------
    model_dir:
        Directory whose sub-directories are saved estimators (each holding an
        ``estimator.json`` sidecar).  Optional — models can also be attached
        in-memory with :meth:`add_model`.
    cache_capacity:
        Maximum number of cached queries (``0`` disables the cache).
    curve_resolution:
        Number of grid points per sampled curve: the cached curves of
        estimators outside the SelNet family, and the default grid of
        :meth:`curves_for_queries`.
    max_batch_size:
        Upper bound on the rows per estimator call (micro-batching).
    kernel_dtype:
        Precision tier of the compiled kernels every answer comes from
        (:meth:`repro.SelectivityEstimator.compiled`): ``"float64"`` (the
        default, bit-equal to ``estimate``) or ``"float32"``, which trades
        bit-parity for batch throughput under an enforced error budget (see
        :mod:`repro.inference.precision`).  Estimators without a fused
        kernel serve through :class:`~repro.inference.GraphFallbackKernel`,
        which is ``estimate`` under ``no_grad``.
    cache_max_bytes:
        Byte budget for the curve cache (None = unbounded; the entry
        ``cache_capacity`` still applies either way).
    cache_quantize_bits:
        Store sampled curves quantized to 8- or 16-bit codes against an
        interned threshold grid (None keeps full float64 curves).  SelNet
        control points are never quantized.
    """

    def __init__(
        self,
        model_dir: Optional[PathLike] = None,
        cache_capacity: int = 256,
        curve_resolution: int = 64,
        max_batch_size: int = 256,
        kernel_dtype: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
        cache_quantize_bits: Optional[int] = None,
    ) -> None:
        from ..inference.precision import parse_tier

        if curve_resolution < 2:
            raise ValueError("curve_resolution must be at least 2")
        self.model_dir = None if model_dir is None else Path(model_dir)
        self.curve_resolution = int(curve_resolution)
        self.max_batch_size = int(max_batch_size)
        self._precision = parse_tier(kernel_dtype or "float64")
        self.kernel_dtype = self._precision.name
        self.cache = CurveCache(
            capacity=cache_capacity,
            max_bytes=cache_max_bytes,
            quantize_bits=cache_quantize_bits,
        )
        self.metrics = MetricsRegistry()
        self._cache_bytes_gauge = self.metrics.gauge(
            "repro_cache_bytes", "Bytes held by the curve cache"
        )
        self._kernel_dtype_gauge = self.metrics.gauge(
            "repro_kernel_dtype",
            "Compiled-kernel precision tier in use (value is always 1)",
            ("model", "dtype"),
        )
        self._estimators: Dict[str, SelectivityEstimator] = {}
        self._metadata: Dict[str, Dict[str, Any]] = {}
        self._stats: Dict[str, ModelStats] = {}

    @classmethod
    def from_store(cls, store, **kwargs) -> "EstimationService":
        """A service over a pipeline artifact store's trained models.

        Every :class:`repro.pipeline.TrainSpec` artifact is saved in the
        persistence layout under ``<store>/train/<spec-hash>/``, so the
        store's ``train/`` namespace is directly a model directory: models
        are addressed by their spec hash (``service.estimate(train_spec.
        spec_hash, ...)``).  ``kwargs`` are forwarded to the constructor.
        """
        return cls(model_dir=store.models_dir(), **kwargs)

    # ------------------------------------------------------------------ #
    # Model store
    # ------------------------------------------------------------------ #
    def available_models(self) -> List[str]:
        """Names of every servable model (in-memory plus on-disk).

        Dot-prefixed directories are skipped: the artifact store builds
        models inside hidden ``.tmp-*`` siblings before atomically renaming
        them into place, and a half-written temp dir must never be listed
        (or loaded) as a model.
        """
        names = set(self._estimators)
        if self.model_dir is not None and self.model_dir.is_dir():
            for child in sorted(self.model_dir.iterdir()):
                if child.name.startswith("."):
                    continue
                if (child / SIDECAR_FILE).is_file():
                    names.add(child.name)
        return sorted(names)

    def describe_models(self) -> Dict[str, Dict[str, Any]]:
        """Sidecar metadata for every servable model (no unpickling)."""
        described: Dict[str, Dict[str, Any]] = {}
        for name in self.available_models():
            if name in self._metadata:
                described[name] = self._metadata[name]
            elif self.model_dir is not None and (self.model_dir / name / SIDECAR_FILE).is_file():
                described[name] = read_metadata(self.model_dir / name)
            else:
                estimator = self._estimators[name]
                described[name] = {
                    "name": estimator.name,
                    "class": type(estimator).__qualname__,
                    "guarantees_consistency": estimator.guarantees_consistency,
                    "supports_updates": estimator.supports_updates,
                }
        return described

    def add_model(
        self,
        name: str,
        estimator: SelectivityEstimator,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Attach an already-constructed (fitted) estimator under ``name``.

        Replacing an existing model drops its cached selectivity curves —
        they describe the old estimator.
        """
        if name in self._estimators:
            self.cache.invalidate(name)
        self._estimators[name] = estimator
        if metadata is not None:
            self._metadata[name] = metadata
        self._model_stats(name)

    def get(self, name: str) -> SelectivityEstimator:
        """The estimator for ``name``, loading it from disk on first use."""
        if name in self._estimators:
            return self._estimators[name]
        if self.model_dir is None:
            raise KeyError(f"unknown model {name!r} (no model_dir configured)")
        path = self.model_dir / name
        if name.startswith(".") or not (path / SIDECAR_FILE).is_file():
            raise KeyError(
                f"unknown model {name!r}; available: {self.available_models()}"
            )
        # mmap: shard workers warming one shared model directory page the
        # weight bytes in through the OS cache instead of each reading the
        # full checkpoint (unmappable archives fall back to eager reads).
        estimator = load_estimator(path, mmap=True)
        self._estimators[name] = estimator
        self._metadata[name] = read_metadata(path)
        self._model_stats(name)
        return estimator

    def _model_stats(self, name: str) -> ModelStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats.setdefault(name, ModelStats(self.metrics, name))
        return stats

    def preload(self) -> List[str]:
        """Load every disk-backed model now (shard warm-up at spawn).

        Returns the names actually loaded from ``model_dir``; in-memory
        models are already resident.  A serving process calls this once at
        start so the first request never pays model-deserialization latency.
        """
        warmed: List[str] = []
        for name in self.available_models():
            if name not in self._estimators:
                self.get(name)
                warmed.append(name)
        return warmed

    def reload_models(self) -> Dict[str, Any]:
        """Hot-swap disk-backed models: drop them so the next use reloads.

        Models that came from ``model_dir`` are evicted from memory together
        with their cached curves; models attached in-memory via
        :meth:`add_model` (no on-disk source to re-read) are kept.  Newly
        appeared artifacts in ``model_dir`` become servable automatically,
        and the dropped ones are reloaded lazily — so an in-flight request
        that already holds its estimator finishes against the old weights
        while the next request sees the new artifact.
        """
        reloaded: List[str] = []
        kept: List[str] = []
        for name in sorted(self._estimators):
            on_disk = (
                self.model_dir is not None
                and not name.startswith(".")
                and (self.model_dir / name / SIDECAR_FILE).is_file()
            )
            if on_disk:
                del self._estimators[name]
                self._metadata.pop(name, None)
                self.cache.invalidate(name)
                reloaded.append(name)
            else:
                kept.append(name)
        return {"reloaded": reloaded, "kept": kept, "available": self.available_models()}

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        name: str,
        queries: np.ndarray,
        thresholds: np.ndarray,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Batched selectivity estimates from the named model.

        With ``use_cache=True`` every answer comes from the model's cached
        entry for its query (built on first sight of a query, then shared by
        all thresholds of that query): control points for the SelNet
        family, whose answers equal the uncached ones within the precision
        tier's budget, and an interpolated sampled curve otherwise.  With
        ``use_cache=False`` the call is routed straight through
        micro-batched estimator evaluation and is bit-identical to calling
        the estimator directly.
        """
        estimator = self.get(name)
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if queries.size == 0 and thresholds.ndim == 1 and len(thresholds) == 0:
            return np.empty(0, dtype=np.float64)
        if queries.ndim != 2 or thresholds.ndim != 1 or len(queries) != len(thresholds):
            raise ValueError(
                f"expected aligned (n, dim) queries and (n,) thresholds, got "
                f"{queries.shape} and {thresholds.shape}"
            )
        _require_dimensions(name, estimator, queries)
        _require_finite(queries, thresholds)
        stats = self._model_stats(name)
        start = time.perf_counter()
        if use_cache and self.cache.capacity > 0:
            results = self._estimate_cached(name, estimator, queries, thresholds, stats)
        else:
            results = self._estimate_direct(name, estimator, queries, thresholds, stats)
        elapsed = time.perf_counter() - start
        stats.requests.inc(len(thresholds))
        stats.estimate_seconds.inc(elapsed)
        stats.latency.observe(elapsed)
        return results

    def estimate_one(
        self, name: str, query: np.ndarray, threshold: float, use_cache: bool = True
    ) -> float:
        query = np.asarray(query, dtype=np.float64)
        result = self.estimate(name, query[None, :], np.asarray([threshold]), use_cache=use_cache)
        return float(result[0])

    def _kernel(self, name: str, estimator: SelectivityEstimator):
        """The model's compiled inference kernel at the service's tier."""
        kernel = estimator.compiled(dtype=self._precision.dtype)
        self._kernel_dtype_gauge.labels(model=name, dtype=kernel.precision).set(1.0)
        return kernel

    def _estimate_direct(
        self,
        name: str,
        estimator: SelectivityEstimator,
        queries: np.ndarray,
        thresholds: np.ndarray,
        stats: ModelStats,
    ) -> np.ndarray:
        kernel = self._kernel(name, estimator)
        results = np.empty(len(thresholds), dtype=np.float64)
        with obstrace.span("service.kernel_execute", model=name, rows=len(thresholds)):
            for batch in iter_microbatches(queries, thresholds, self.max_batch_size):
                results[batch.positions] = kernel.predict(batch.queries, batch.thresholds)
                stats.batches.inc()
        return results

    def _estimate_cached(
        self,
        name: str,
        estimator: SelectivityEstimator,
        queries: np.ndarray,
        thresholds: np.ndarray,
        stats: ModelStats,
    ) -> np.ndarray:
        kernel = self._kernel(name, estimator)
        if kernel.fuses_curves:
            points, inverse, missed_rows = self._cached_points(name, kernel, queries, stats)
            # Rows count, not queries: a row of a missed query is a miss.
            stats.cache_hits.inc(len(thresholds) - missed_rows)
            stats.cache_misses.inc(missed_rows)
            results = np.empty(len(thresholds), dtype=np.float64)
            with obstrace.span("service.kernel_execute", model=name, rows=len(thresholds)):
                for start in range(0, len(thresholds), self.max_batch_size):
                    rows = slice(start, start + self.max_batch_size)
                    results[rows] = kernel.evaluate(points.take(inverse[rows]), thresholds[rows])
            return results
        results = np.empty(len(thresholds), dtype=np.float64)
        miss_positions: List[int] = []
        with obstrace.span("service.cache_lookup", model=name, rows=len(thresholds)) as lookup:
            for i in range(len(thresholds)):
                # An entry whose grid stops short of the requested threshold is a
                # miss: the curve gets rebuilt over a range covering it.
                curve = self.cache.get(name, queries[i], threshold=float(thresholds[i]))
                if curve is not None:
                    results[i] = curve(thresholds[i])
                    stats.cache_hits.inc()
                else:
                    miss_positions.append(i)
                    stats.cache_misses.inc()
            lookup["misses"] = len(miss_positions)
        if miss_positions:
            self._fill_misses(name, kernel, queries, thresholds, miss_positions, results, stats)
        return results

    @staticmethod
    def _curve_upper(kernel, t_hi: float) -> float:
        """Upper end of a curve grid covering thresholds up to ``t_hi``.

        The grid spans the model's ``t_max`` (when its kernel knows one) or
        1.05x the threshold, whichever is larger, so every query whose
        thresholds fit under ``t_max`` gets the same default grid.
        """
        upper = max(float(getattr(kernel, "t_max", None) or 0.0), float(t_hi) * 1.05)
        return upper if upper > 0.0 else 1.0

    def _cached_points(
        self, name: str, kernel, queries: np.ndarray, stats: ModelStats
    ) -> Tuple[ControlPoints, np.ndarray, int]:
        """Control points of every row's query, from the cache or the kernel.

        Rows are grouped by their rounded key bytes (the batch is rounded
        once; repeats need not be adjacent) and each distinct query is
        looked up once, counted as its number of rows.  The misses are
        filled with one kernel forward per ``max_batch_size`` chunk and
        cached.  Returns the distinct queries' control points as one batch,
        each row's index into it, and the number of rows that missed.
        """
        rounded = rounded_queries(queries)
        width = rounded.shape[1] * rounded.itemsize
        flat = rounded.tobytes()
        slots: Dict[bytes, int] = {}
        first: List[int] = []
        inverse = []
        for row in range(len(rounded)):
            key = flat[row * width : (row + 1) * width]
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(first)
                first.append(row)
            inverse.append(slot)
        keys = list(slots)
        counts = np.bincount(inverse, minlength=len(keys)).tolist()
        with obstrace.span(
            "service.cache_lookup", model=name, rows=len(rounded), queries=len(keys)
        ) as lookup:
            entries = [self.cache.get(name, key, rows=n) for key, n in zip(keys, counts)]
            missed = [slot for slot, entry in enumerate(entries) if entry is None]
            lookup["misses"] = len(missed)
        for start in range(0, len(missed), self.max_batch_size):
            chunk = missed[start : start + self.max_batch_size]
            with obstrace.span("service.kernel_execute", model=name, rows=len(chunk)):
                points = kernel.query_points(queries[[first[slot] for slot in chunk]])
            stats.batches.inc()
            for offset, slot in enumerate(chunk):
                # Arrays of its own: a view of the batch would pin all of it.
                entries[slot] = points.row(offset)
                self.cache.put(name, keys[slot], entries[slot])
            stats.curve_builds.inc(len(chunk))
        missed_rows = sum(counts[slot] for slot in missed)
        return ControlPoints.stack(entries), np.asarray(inverse, dtype=np.intp), missed_rows

    def _sample_curves(
        self,
        name: str,
        kernel,
        unique_queries: np.ndarray,
        grids: List[np.ndarray],
        stats: ModelStats,
    ) -> np.ndarray:
        """Sampled curve values of a non-fusing kernel, one row per query.

        ``grids`` holds each query's grid.  The (query, grid point) rows
        are chunked so one estimator call never exceeds ``max_batch_size``
        rows.
        """
        num_grid = len(grids[0]) if grids else 0
        values = np.empty((len(unique_queries), num_grid), dtype=np.float64)
        with obstrace.span("service.kernel_execute", model=name, rows=len(unique_queries)):
            repeated = np.repeat(unique_queries, num_grid, axis=0)
            tiled = np.concatenate(grids) if grids else np.empty(0)
            flat = values.reshape(-1)
            for batch in iter_microbatches(repeated, tiled, self.max_batch_size):
                flat[batch.positions] = kernel.predict(batch.queries, batch.thresholds)
                stats.batches.inc()
        return values

    def _fill_misses(
        self,
        name: str,
        kernel,
        queries: np.ndarray,
        thresholds: np.ndarray,
        miss_positions: List[int],
        results: np.ndarray,
        stats: ModelStats,
    ) -> None:
        """Sample curves for unseen queries in batched calls, cache, answer.

        Each query's grid covers its own largest threshold: a grid stretched
        to another row's wide threshold would cache a coarser curve for it.
        """
        unique: Dict[bytes, List[int]] = {}
        for position in miss_positions:
            unique.setdefault(queries[position].tobytes(), []).append(position)
        members = list(unique.values())

        listed = thresholds.tolist()
        uppers = [
            self._curve_upper(kernel, max(listed[position] for position in positions))
            for positions in members
        ]
        grids = {upper: np.linspace(0.0, upper, self.curve_resolution) for upper in set(uppers)}
        rows = [positions[0] for positions in members]
        values = self._sample_curves(
            name, kernel, queries[rows], [grids[upper] for upper in uppers], stats
        )

        for positions, upper, row in zip(members, uppers, values):
            curve = CachedCurve(thresholds=grids[upper], values=row)
            self.cache.put(name, queries[positions[0]], curve)
            stats.curve_builds.inc()
            for position in positions:
                results[position] = curve(thresholds[position])

    def curves_for_queries(
        self, name: str, queries: np.ndarray, thresholds: Optional[np.ndarray] = None
    ) -> List[CachedCurve]:
        """Selectivity curves for a batch of queries in batched kernel calls.

        For the SelNet family the curves are sampled from the queries'
        control points, which are looked up in and added to the cache
        whatever the grid.  For other estimators, curves on the default
        grid (``thresholds=None``) are also cached for later ``estimate``
        calls; a caller-supplied grid is *not* cached (an arbitrary —
        possibly coarse or narrow — grid entering the shared cache would
        silently degrade every subsequent estimate for those queries).
        """
        estimator = self.get(name)
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError(f"queries must be a 2-D array, got shape {queries.shape}")
        _require_dimensions(name, estimator, queries)
        kernel = self._kernel(name, estimator)
        default_grid = thresholds is None
        if default_grid:
            grid = np.linspace(0.0, self._curve_upper(kernel, 0.0), self.curve_resolution)
        else:
            grid = np.asarray(thresholds, dtype=np.float64)
        _require_finite(queries, grid)
        stats = self._model_stats(name)
        if len(queries) == 0:
            return []
        if kernel.fuses_curves:
            points, inverse, _ = self._cached_points(name, kernel, queries, stats)
            values = np.empty((len(queries), len(grid)), dtype=np.float64)
            with obstrace.span("service.kernel_execute", model=name, rows=len(queries)):
                for start in range(0, len(queries), self.max_batch_size):
                    rows = slice(start, start + self.max_batch_size)
                    values[rows] = kernel.sample(points, inverse[rows], grid)
            return [CachedCurve(thresholds=grid, values=row) for row in values]
        values = self._sample_curves(name, kernel, queries, [grid] * len(queries), stats)
        curves: List[CachedCurve] = []
        for row in range(len(queries)):
            curve = CachedCurve(thresholds=grid, values=values[row])
            if default_grid:
                self.cache.put(name, queries[row], curve)
                stats.curve_builds.inc()
            curves.append(curve)
        return curves

    def curve(
        self, name: str, query: np.ndarray, thresholds: Optional[np.ndarray] = None
    ) -> CachedCurve:
        """The named model's selectivity curve for one query.

        One-query convenience wrapper around :meth:`curves_for_queries`
        (same caching rules).
        """
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise ValueError(f"expected a single 1-D query vector, got shape {query.shape}")
        return self.curves_for_queries(name, query[None, :], thresholds)[0]

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update(
        self,
        name: str,
        inserts: Optional[np.ndarray] = None,
        deletes: Optional[Sequence[int]] = None,
    ):
        """Route a data update to the named model.

        The model's cached curves are dropped only when the update changed
        its weights, which the estimator signals by bumping its
        :attr:`~repro.SelectivityEstimator.generation` (and dropping its
        own compiled kernel, so the next request freezes the new weights).
        A ``selnet-inc`` write that did not fine-tune keeps both: an answer
        depends only on the weights, so a kept curve equals the one a fresh
        service would build.  Raises
        :class:`repro.estimator.UpdateNotSupportedError` when the model's
        estimator does not implement the update protocol.
        """
        estimator = self.get(name)
        generation = estimator.generation
        reports = estimator.update(inserts=inserts, deletes=deletes)
        if estimator.generation != generation:
            self.cache.invalidate(name)
        self._model_stats(name).updates.inc()
        return reports

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Service-wide and per-model counters (JSON-able).

        The historical keys are views over :attr:`metrics`; the raw
        registry snapshot rides along under ``"metrics"`` so callers in
        other processes (shard workers answering a ``stats`` control
        message) can merge it into a cluster-wide snapshot.
        """
        self._cache_bytes_gauge.set(float(self.cache.bytes))
        per_model = {name: stats.as_dict() for name, stats in self._stats.items()}
        kernels = {
            name: kernel.describe()
            for name, estimator in self._estimators.items()
            if (kernel := estimator.__dict__.get("_compiled_kernel")) is not None
        }
        return {
            "models_loaded": sorted(self._estimators),
            "kernel_dtype": self.kernel_dtype,
            "kernels": kernels,
            "cache": self.cache.stats(),
            "per_model": per_model,
            "total_requests": sum(int(stats.requests.value) for stats in self._stats.values()),
            "total_batches": sum(int(stats.batches.value) for stats in self._stats.values()),
            "metrics": self.metrics.snapshot().as_dict(),
        }

