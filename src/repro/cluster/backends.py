"""Shard execution backends: where a shard's `EstimationService` lives.

Every shard of an :class:`~repro.cluster.EstimationCluster` hosts its *own*
:class:`~repro.serving.EstimationService` — its own lazily-loaded model
store (via :mod:`repro.persistence`) and its own curve cache.  The backend
decides where that service runs:

:class:`InlineShardBackend`
    The service lives in the calling process and submitted work is queued as
    thunks, executed when the result is claimed.  Deterministic and
    dependency-free — the backend used by tests and the default for small
    runs.  The deferred execution is what makes the bounded per-shard queue
    observable (and the shed/block admission policies exercisable) without
    real concurrency.

:class:`ProcessShardBackend`
    The service lives in a dedicated single-worker process
    (``concurrent.futures.ProcessPoolExecutor`` with one worker), so N
    shards give N-way CPU parallelism for scatter–gather batches.  Each
    worker process builds its service lazily from the cluster configuration
    on first task; in-memory models are shipped as pickles.

Both expose the same four operations — ``estimate``, ``update``,
``add_model`` and ``stats`` — returning :class:`ShardFuture` handles, so the
cluster tier is backend-agnostic.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Dict, Optional, Sequence, Type

import numpy as np

from ..persistence import _jsonify
from ..serving import EstimationService


class ShardFuture:
    """Uniform handle on one submitted shard call (inline thunk or future).

    Thread-safe: concurrent ``result()`` callers serialize on an internal
    lock and all observe the same outcome.  Exceptions are cached exactly
    like values — once a call has failed, every caller sees the same error
    instead of re-executing (or, worse, blocking forever on a backend that
    will never answer).  ``cancel`` injects such a terminal error for work
    that can no longer complete (e.g. the cluster is shutting down while a
    shard died mid-batch).
    """

    def __init__(
        self,
        compute: Optional[Callable[[], Any]] = None,
        future: Optional[Future] = None,
    ) -> None:
        if (compute is None) == (future is None):
            raise ValueError("exactly one of compute / future is required")
        self._compute = compute
        self._future = future
        self._lock = threading.Lock()
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def result(self) -> Any:
        with self._lock:
            if not self._done:
                try:
                    self._value = (
                        self._compute() if self._future is None else self._future.result()
                    )
                except BaseException as error:
                    self._error = error
                self._done = True
            if self._error is not None:
                raise self._error
            return self._value

    def cancel(self, error: BaseException) -> bool:
        """Settle the call with ``error`` unless it already completed."""
        with self._lock:
            if self._done:
                return False
            self._error = error
            self._done = True
            return True

    @property
    def done(self) -> bool:
        """Whether the work has already completed (inline: been executed)."""
        if self._done:
            return True
        return self._future is not None and self._future.done()


def _service_config_kwargs(config: "ClusterConfig") -> Dict[str, Any]:
    """The per-shard EstimationService constructor arguments."""
    return {
        "model_dir": config.model_dir,
        "cache_capacity": config.cache_capacity,
        "curve_resolution": config.curve_resolution,
        "max_batch_size": config.max_batch_size,
        "cache_key_decimals": config.cache_key_decimals,
        "kernel_dtype": config.kernel_dtype,
        "cache_max_bytes": config.cache_max_bytes,
        "cache_quantize_bits": config.cache_quantize_bits,
    }


class InlineShardBackend:
    """A shard whose service runs in the calling process (deferred thunks)."""

    name = "inline"

    def __init__(self, config: "ClusterConfig") -> None:
        self.service = EstimationService(**_service_config_kwargs(config))

    def estimate(
        self, model: str, queries: np.ndarray, thresholds: np.ndarray, use_cache: bool
    ) -> ShardFuture:
        return ShardFuture(
            compute=lambda: self.service.estimate(model, queries, thresholds, use_cache=use_cache)
        )

    def update(
        self, model: str, inserts: Optional[np.ndarray], deletes: Optional[Sequence[int]]
    ) -> ShardFuture:
        def _apply():
            reports = self.service.update(model, inserts=inserts, deletes=deletes)
            return {"model": model, "operations": len(reports)}

        return ShardFuture(compute=_apply)

    def add_model(self, name: str, payload: bytes) -> ShardFuture:
        # Unpickling gives this shard its own replica: shards must never
        # share mutable estimator state (updates are fanned out per shard).
        return ShardFuture(
            compute=lambda: self.service.add_model(name, pickle.loads(payload))
        )

    def stats(self) -> ShardFuture:
        return ShardFuture(compute=self.service.stats)

    def reload(self) -> ShardFuture:
        return ShardFuture(compute=self.service.reload_models)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# Process backend: one dedicated worker process per shard.
#
# The worker keeps its EstimationService in a module-level slot, built
# lazily from the service kwargs shipped with the first task.  (A plain
# global plus lazy construction survives both fork and spawn start methods
# without initializer plumbing.)
# ---------------------------------------------------------------------- #
_WORKER_SERVICE: Optional[EstimationService] = None


def _worker_service(service_kwargs: Dict[str, Any]) -> EstimationService:
    global _WORKER_SERVICE
    if _WORKER_SERVICE is None:
        _WORKER_SERVICE = EstimationService(**service_kwargs)
    return _WORKER_SERVICE


def _worker_estimate(
    service_kwargs: Dict[str, Any],
    model: str,
    queries: np.ndarray,
    thresholds: np.ndarray,
    use_cache: bool,
) -> np.ndarray:
    service = _worker_service(service_kwargs)
    return service.estimate(model, queries, thresholds, use_cache=use_cache)


def _worker_update(
    service_kwargs: Dict[str, Any],
    model: str,
    inserts: Optional[np.ndarray],
    deletes: Optional[Sequence[int]],
) -> Dict[str, Any]:
    service = _worker_service(service_kwargs)
    reports = service.update(model, inserts=inserts, deletes=deletes)
    # Reports may hold arbitrary estimator internals; return a JSON-able
    # summary instead of shipping them back across the process boundary.
    return {"model": model, "operations": len(_jsonify(reports))}


def _worker_add_model(service_kwargs: Dict[str, Any], name: str, payload: bytes) -> None:
    _worker_service(service_kwargs).add_model(name, pickle.loads(payload))


def _worker_stats(service_kwargs: Dict[str, Any]) -> Dict[str, Any]:
    return _worker_service(service_kwargs).stats()


def _worker_reload(service_kwargs: Dict[str, Any]):
    return _worker_service(service_kwargs).reload_models()


class ProcessShardBackend:
    """A shard hosted by its own single-worker process pool.

    One executor with exactly one worker pins the shard's model store and
    curve cache to one process (a shared pool would scatter a shard's
    requests over arbitrary processes and destroy cache locality), and its
    internal call queue preserves FIFO order of submitted work.
    """

    name = "process"

    def __init__(self, config: "ClusterConfig") -> None:
        self._service_kwargs = dict(_service_config_kwargs(config))
        if self._service_kwargs["model_dir"] is not None:
            self._service_kwargs["model_dir"] = str(self._service_kwargs["model_dir"])
        self._executor = ProcessPoolExecutor(max_workers=1)

    def estimate(
        self, model: str, queries: np.ndarray, thresholds: np.ndarray, use_cache: bool
    ) -> ShardFuture:
        return ShardFuture(
            future=self._executor.submit(
                _worker_estimate, self._service_kwargs, model, queries, thresholds, use_cache
            )
        )

    def update(
        self, model: str, inserts: Optional[np.ndarray], deletes: Optional[Sequence[int]]
    ) -> ShardFuture:
        return ShardFuture(
            future=self._executor.submit(
                _worker_update, self._service_kwargs, model, inserts, deletes
            )
        )

    def add_model(self, name: str, payload: bytes) -> ShardFuture:
        return ShardFuture(
            future=self._executor.submit(_worker_add_model, self._service_kwargs, name, payload)
        )

    def stats(self) -> ShardFuture:
        return ShardFuture(future=self._executor.submit(_worker_stats, self._service_kwargs))

    def reload(self) -> ShardFuture:
        return ShardFuture(future=self._executor.submit(_worker_reload, self._service_kwargs))

    def close(self) -> None:
        self._executor.shutdown(wait=True)


BACKENDS: Dict[str, Type] = {
    InlineShardBackend.name: InlineShardBackend,
    ProcessShardBackend.name: ProcessShardBackend,
}


def register_backend(name: str, backend_cls: Type) -> None:
    """Register a shard backend class under ``name`` (idempotent).

    Out-of-package backends (the shared-memory ``network`` backend of
    :mod:`repro.net`) register themselves through this hook so the cluster
    tier itself stays import-light.
    """
    existing = BACKENDS.get(name)
    if existing is not None and existing is not backend_cls:
        raise ValueError(f"shard backend {name!r} is already registered to {existing!r}")
    BACKENDS[name] = backend_cls
