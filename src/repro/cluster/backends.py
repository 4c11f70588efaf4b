"""Shard execution backends: where a shard's `EstimationService` lives.

Every shard of an :class:`~repro.cluster.EstimationCluster` hosts its *own*
:class:`~repro.serving.EstimationService` — its own lazily-loaded model
store (via :mod:`repro.persistence`) and its own curve cache.  The backend
decides where that service runs:

``inline`` (:class:`InlineShardBackend`)
    The service lives in the calling process and submitted work is queued as
    thunks, executed when the result is claimed.  Deterministic and
    dependency-free — the backend used by tests and in-process runs.  The
    deferred execution is what makes the bounded per-shard queue
    observable (and the shed/block admission policies exercisable) without
    real concurrency.

``network`` (:class:`repro.net.backend.NetworkShardBackend`)
    The service lives in a dedicated worker process per shard, so N shards
    give N-way CPU parallelism for scatter–gather batches.  Every call,
    batch data included, is one pickled message over the shard's pipe.

Both expose ``estimate``, ``update``, ``add_model``, ``stats`` and
``reload``, each returning a handle with ``result()`` and ``cancel()``, plus
``close``, so the cluster tier is backend-agnostic.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from ..serving import EstimationService

#: shard backend names accepted by ``ClusterConfig(backend=...)``
BACKENDS = ("inline", "network")


def _resolve_backend(name: str):
    """The backend class for ``name``, or None for an unknown name.

    The ``network`` backend is imported on demand, so the cluster tier does
    not pull in :mod:`repro.net` (and its process machinery) until a caller
    asks for it.
    """
    if name == "inline":
        return InlineShardBackend
    if name == "network":
        from ..net.backend import NetworkShardBackend

        return NetworkShardBackend
    return None


class ShardFuture:
    """Handle on one submitted inline shard call (a deferred thunk).

    Thread-safe: concurrent ``result()`` callers serialize on an internal
    lock and all observe the same outcome.  Exceptions are cached exactly
    like values — once a call has failed, every caller sees the same error
    instead of re-executing.  ``cancel`` injects such a terminal error for
    work that can no longer complete (e.g. the cluster is shutting down).
    """

    def __init__(self, compute: Callable[[], Any]) -> None:
        self._compute = compute
        self._lock = threading.Lock()
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def result(self) -> Any:
        with self._lock:
            if not self._done:
                try:
                    self._value = self._compute()
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


def _service_config_kwargs(config: "ClusterConfig") -> Dict[str, Any]:
    """The per-shard EstimationService constructor arguments."""
    return {
        "model_dir": config.model_dir,
        "cache_capacity": config.cache_capacity,
        "max_batch_size": config.max_batch_size,
        "kernel_dtype": config.kernel_dtype,
        "cache_max_bytes": config.cache_max_bytes,
    }


class InlineShardBackend:
    """A shard whose service runs in the calling process (deferred thunks)."""

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
