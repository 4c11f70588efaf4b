"""The estimator serving facade.

:class:`EstimationService` turns a directory of saved estimators (see
:mod:`repro.persistence`) into a queryable model store:

* models are loaded lazily by name, kept in memory and served through
  their **compiled** pure-NumPy inference kernels (:mod:`repro.inference`)
  — at the default float64 tier answers stay equal to the estimator's own
  ``estimate`` while skipping the autodiff graph entirely;
* batched ``(query, threshold)`` requests are routed through bounded
  micro-batches (:mod:`repro.serving.batching`);
* an LRU cache (:mod:`repro.serving.cache`) answers repeated SelNet
  queries without a network forward.  For the SelNet family (kernels that
  fuse curves) an entry is the query's control points: a call rounds its
  batch once, looks each distinct query up once, fills every miss with one
  kernel forward per ``max_batch_size`` chunk, and answers its rows, one
  ``max_batch_size`` slice per evaluation, through the kernel's own
  piecewise-linear step and partition gates.  Cached answers therefore
  equal ``use_cache=False`` answers within the precision tier's budget and
  never decrease as t grows, across calls too.  Every other estimator is
  served uncached whatever ``use_cache`` says, so its answers are
  ``estimate``'s own bits;
* per-model request counts, batch counts, latency and cache hit-rate
  statistics are tracked for observability;
* data updates are routed to estimators that support them; the model's
  cache entries and compiled kernel are dropped only when the update
  changed its weights (a ``selnet-inc`` fine-tune), and kept otherwise.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..distances import finite_squared_norms
from ..estimator import SelectivityEstimator
from ..inference.kernels import ControlPoints
from ..obs import MetricsRegistry
from ..obs import trace as obstrace
from ..persistence import SIDECAR_FILE, load_estimator, read_metadata
from .batching import iter_microbatches
from .cache import CurveCache, rounded_queries

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
    """Reject NaN/inf inputs before they reach a kernel or the cache.

    A query with a NaN or inf coordinate, or whose squared norm overflows
    float64, would be cached as control points of NaN under its key, and
    that entry would then answer every later request for the same key from
    the cache.
    """
    if not (finite_squared_norms(queries) and np.isfinite(thresholds).all()):
        raise ValueError(
            "queries and thresholds must be finite (no NaN or inf, and no query "
            "whose squared norm overflows float64)"
        )


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
            "repro_service_curve_builds_total", "Cache entries (control points) built"
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
        Maximum number of cached queries (``0`` disables the cache).  Only
        SelNet-family models are cached; see :meth:`estimate`.
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
        Byte budget for the cache (None = unbounded; the entry
        ``cache_capacity`` still applies either way).
    """

    def __init__(
        self,
        model_dir: Optional[PathLike] = None,
        cache_capacity: int = 256,
        max_batch_size: int = 256,
        kernel_dtype: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
    ) -> None:
        from ..inference.precision import parse_tier

        self.model_dir = None if model_dir is None else Path(model_dir)
        self.max_batch_size = int(max_batch_size)
        self._precision = parse_tier(kernel_dtype or "float64")
        self.kernel_dtype = self._precision.name
        self.cache = CurveCache(capacity=cache_capacity, max_bytes=cache_max_bytes)
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

        Replacing an existing model drops its cache entries — they describe
        the old estimator.
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
        with their cache entries; models attached in-memory via
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

        With ``use_cache=True`` a SelNet-family model answers every row from
        its query's cached control points (built on first sight of a query,
        then shared by all thresholds of that query); those answers equal
        the uncached ones within the precision tier's budget.  Every other
        model, and every call with ``use_cache=False``, is routed straight
        through micro-batched kernel evaluation and is bit-identical to
        calling the estimator directly: their curves have no finite exact
        description to cache, and direct evaluation measured faster than
        interpolating sampled curves (README, "Performance: the serving
        cache").
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
        kernel = estimator.compiled(dtype=self._precision.dtype)
        self._kernel_dtype_gauge.labels(model=name, dtype=kernel.precision).set(1.0)
        if use_cache and kernel.fuses_curves and self.cache.capacity > 0:
            results = self._estimate_cached(name, kernel, queries, thresholds, stats)
        else:
            results = self._estimate_direct(name, kernel, queries, thresholds, stats)
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

    def _estimate_direct(
        self,
        name: str,
        kernel,
        queries: np.ndarray,
        thresholds: np.ndarray,
        stats: ModelStats,
    ) -> np.ndarray:
        results = np.empty(len(thresholds), dtype=np.float64)
        with obstrace.span("service.kernel_execute", model=name, rows=len(thresholds)):
            for batch in iter_microbatches(queries, thresholds, self.max_batch_size):
                results[batch.positions] = kernel.predict(batch.queries, batch.thresholds)
                stats.batches.inc()
        return results

    def _estimate_cached(
        self,
        name: str,
        kernel,
        queries: np.ndarray,
        thresholds: np.ndarray,
        stats: ModelStats,
    ) -> np.ndarray:
        """Answer every row from its query's control points.

        Rows are grouped by their rounded key bytes (the batch is rounded
        once; repeats need not be adjacent) and each distinct query is
        looked up once, counted as its number of rows.  The misses are
        filled with one kernel forward per ``max_batch_size`` chunk and
        cached, and the rows are evaluated one ``max_batch_size`` slice at
        a time.
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
        # Rows count, not queries: a row of a missed query is a miss.
        missed_rows = sum(counts[slot] for slot in missed)
        stats.cache_hits.inc(len(thresholds) - missed_rows)
        stats.cache_misses.inc(missed_rows)
        points = ControlPoints.stack(entries)
        inverse = np.asarray(inverse, dtype=np.intp)
        results = np.empty(len(thresholds), dtype=np.float64)
        with obstrace.span("service.kernel_execute", model=name, rows=len(thresholds)):
            for start in range(0, len(thresholds), self.max_batch_size):
                rows = slice(start, start + self.max_batch_size)
                results[rows] = kernel.evaluate(points.take(inverse[rows]), thresholds[rows])
        return results

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

        The model's cache entries are dropped only when the update changed
        its weights, which the estimator signals by bumping its
        :attr:`~repro.SelectivityEstimator.generation` (and dropping its
        own compiled kernel, so the next request freezes the new weights).
        A ``selnet-inc`` write that did not fine-tune keeps both: an answer
        depends only on the weights, so a kept entry equals the one a fresh
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
        # The kernel each model serves at this service's tier, once compiled.
        kernels = {
            name: kernel.describe()
            for name, estimator in self._estimators.items()
            if (kernel := (estimator._compiled_kernels or {}).get(self._precision.dtype))
            is not None
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

