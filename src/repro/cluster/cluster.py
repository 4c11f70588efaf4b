"""The sharded estimation tier: scatter–gather over per-shard services.

:class:`EstimationCluster` runs ``N`` worker shards (each hosting its own
:class:`~repro.serving.EstimationService` — see
:mod:`repro.cluster.backends`), routes every request row with a
consistent-hash :class:`~repro.cluster.router.ShardRouter` keyed on
``(model, query)`` so each shard's curve cache stays hot, and enforces
admission control with bounded per-shard queues:

* ``overload_policy="block"`` — a submission to a full shard first waits
  for that shard's oldest in-flight work (the default: graceful
  backpressure);
* ``overload_policy="shed"`` — a submission to a full shard raises
  :class:`ClusterOverloadedError` and the rows are counted as shed (load
  shedding for latency-sensitive callers).

Batched estimation is scatter–gather: a request batch is split by shard,
each sub-batch is one backend call (sliced again into ``max_batch_size``
kernel calls inside the worker), and the results are reassembled in request
order.  Data updates fan out to *every* shard — each shard owns a full
replica of each model it serves, so an update must reach all of them, and
each shard drops its own cached curves when the update changed the model's
weights.

``stats()`` reads one snapshot: the cluster's registry merged with every
shard worker's, stamped with a ``shard`` label.  It reports cluster-level
counters with per-shard queue depth, p50/p95/p99 sub-batch latency and the
worker's own service stats.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..estimator import SelectivityEstimator
from ..obs import MetricsRegistry, MetricsSnapshot, latency_summary
from ..obs import trace as obstrace
from .backends import BACKENDS, ShardFuture, _resolve_backend
from .router import ShardRouter

PathLike = Union[str, Path]

OVERLOAD_POLICIES = ("block", "shed")


class ClusterOverloadedError(RuntimeError):
    """Raised under the ``shed`` policy when a shard's queue is full."""


class ClusterClosedError(RuntimeError):
    """Raised by in-flight calls that a cluster shutdown had to abandon."""


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to stand up an estimation cluster.

    ``cache_capacity`` / ``max_batch_size`` / ``kernel_dtype`` /
    ``cache_max_bytes`` configure each shard's private
    :class:`~repro.serving.EstimationService`, which answers through its
    models' compiled kernels and caches SelNet control points; the rest shape
    admission control.  ``network`` shards run in their own processes,
    reached over one pipe each, and preload every disk-backed model at
    spawn.
    """

    num_shards: int = 2
    model_dir: Optional[PathLike] = None
    backend: str = "inline"
    queue_capacity: int = 8
    overload_policy: str = "block"
    cache_capacity: int = 256
    max_batch_size: int = 256
    #: compiled-kernel precision tier per shard (float64 or float32;
    #: None = float64) — see :mod:`repro.inference.precision`
    kernel_dtype: Optional[str] = None
    #: byte budget for each shard's curve cache (None = unbounded)
    cache_max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if self.kernel_dtype is not None:
            # Fail here, in the coordinating process, rather than inside a
            # spawned shard worker where the traceback is much less helpful.
            from ..inference.precision import parse_tier

            parse_tier(self.kernel_dtype)
        if _resolve_backend(self.backend) is None:
            raise ValueError(f"unknown backend {self.backend!r}; available: {BACKENDS}")
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"unknown overload_policy {self.overload_policy!r}; "
                f"available: {OVERLOAD_POLICIES}"
            )
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be at least 1, got {self.max_batch_size}")


@dataclass
class _PendingCall:
    """One in-flight backend call, for queue accounting and latency."""

    future: ShardFuture
    rows: int
    submitted_at: float
    settled: bool = False


class _Shard:
    """Cluster-side accounting around one backend shard.

    ``lock`` guards the pending queue, counters and the latency window so
    concurrent client threads (the network serving tier) can submit and
    gather simultaneously.  Claiming a backend result happens *outside* the
    lock — one slow shard call must never block another thread's
    bookkeeping — and settlement is idempotent, so a call raced by its
    owner, an admission-control drain and ``close()`` is released exactly
    once.
    """

    def __init__(self, shard_id: int, backend, metrics: MetricsRegistry) -> None:
        self.shard_id = shard_id
        self.backend = backend
        self.lock = threading.Lock()
        self.pending: Deque[_PendingCall] = deque()
        label = {"shard": str(shard_id)}

        def counter(name: str, help_text: str):
            return metrics.counter(name, help_text, ("shard",)).labels(**label)

        self.requests = counter(
            "repro_cluster_requests_total", "Rows routed to this shard"
        )
        self.sub_batches = counter(
            "repro_cluster_sub_batches_total", "Scatter sub-batches sent to this shard"
        )
        self.shed_batches = counter(
            "repro_cluster_shed_batches_total", "Sub-batches refused by admission control"
        )
        self.shed_requests = counter(
            "repro_cluster_shed_requests_total", "Rows refused by admission control"
        )
        self.updates = counter(
            "repro_cluster_updates_total", "Data updates fanned out to this shard"
        )
        self.queue_gauge = metrics.gauge(
            "repro_cluster_queue_depth",
            "In-flight sub-batches on this shard's bounded queue",
            ("shard",),
            aggregation="last",
        ).labels(**label)
        self.max_queue_gauge = metrics.gauge(
            "repro_cluster_max_queue_depth",
            "High-water mark of this shard's queue depth",
            ("shard",),
            aggregation="max",
        ).labels(**label)
        self.latency = metrics.histogram(
            "repro_cluster_sub_batch_latency_seconds",
            "Submit-to-settle latency of one shard sub-batch",
            ("shard",),
        ).labels(**label)

    @property
    def queue_depth(self) -> int:
        return len(self.pending)

    def track(self, future: ShardFuture, rows: int) -> _PendingCall:
        call = _PendingCall(future=future, rows=rows, submitted_at=time.perf_counter())
        with self.lock:
            self.pending.append(call)
            depth = len(self.pending)
            self.queue_gauge.set(depth)
            if depth > self.max_queue_gauge.value:
                self.max_queue_gauge.set(depth)
        return call

    def settle(self, call: _PendingCall) -> Any:
        """Claim one call's result and release its queue slot (idempotent)."""
        try:
            with obstrace.span("cluster.queue_wait", shard=self.shard_id, rows=call.rows):
                value = call.future.result()
        finally:
            # A failed call must release its queue slot too — otherwise a
            # dead shard's queue stays "full" and blocks admission forever.
            with self.lock:
                if not call.settled:
                    call.settled = True
                    self.latency.observe(time.perf_counter() - call.submitted_at)
                    try:
                        self.pending.remove(call)
                    except ValueError:  # pragma: no cover - already released
                        pass
                    self.queue_gauge.set(len(self.pending))
        return value

    def oldest_pending(self) -> Optional[_PendingCall]:
        with self.lock:
            return self.pending[0] if self.pending else None

    def drain_oldest(self) -> None:
        call = self.oldest_pending()
        if call is not None:
            try:
                self.settle(call)
            except ClusterClosedError:
                pass

    def drain_all(self, cancel_error: Optional[BaseException] = None) -> None:
        """Settle every pending call; optionally cancel those that cannot
        complete (their owners then observe ``cancel_error`` instead of
        blocking forever)."""
        while True:
            call = self.oldest_pending()
            if call is None:
                return
            if cancel_error is not None:
                call.future.cancel(cancel_error)
            try:
                self.settle(call)
            except BaseException:
                # The error is cached in the future for the call's owner.
                pass


class ClusterEstimateFuture:
    """Gatherable handle on one scattered estimate batch."""

    def __init__(
        self,
        cluster: "EstimationCluster",
        num_rows: int,
        parts: List[Tuple[_Shard, np.ndarray, _PendingCall]],
    ) -> None:
        self._cluster = cluster
        self._num_rows = num_rows
        self._parts = parts
        self._lock = threading.Lock()
        self._result: Optional[np.ndarray] = None

    def result(self) -> np.ndarray:
        """Gather every shard's sub-batch and reassemble in request order."""
        with self._lock:
            if self._result is None:
                results = np.empty(self._num_rows, dtype=np.float64)
                for shard, positions, call in self._parts:
                    results[positions] = shard.settle(call)
                self._result = results
            return self._result


class EstimationCluster:
    """N sharded estimation workers behind one scatter–gather facade.

    The shard count is fixed for the cluster's whole life.
    """

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides) -> None:
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ClusterConfig or keyword overrides, not both")
        self.config = config
        self._lock = threading.RLock()
        self.metrics = MetricsRegistry()
        self.router = ShardRouter(config.num_shards)
        backend_cls = _resolve_backend(config.backend)
        self._shards = [
            _Shard(i, backend_cls(config), self.metrics) for i in range(config.num_shards)
        ]
        self._closed = False

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "EstimationCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, drain: bool = True) -> None:
        """Shut down every shard backend (idempotent).

        With ``drain=True`` (the default) every pending call is settled
        first, so callers still holding a :class:`ClusterEstimateFuture`
        gather cached results (or the call's cached failure) instead of
        blocking on a backend that no longer exists.  With ``drain=False``
        pending calls are cancelled with :class:`ClusterClosedError` — the
        fast path when a shard is known to be dead and computing results is
        impossible or pointless.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        error = (
            None
            if drain
            else ClusterClosedError("cluster closed before this call completed")
        )
        for shard in self._shards:
            shard.drain_all(cancel_error=error)
            shard.backend.close()

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def queue_depths(self) -> List[int]:
        return [shard.queue_depth for shard in self._shards]

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #
    def _admit_all(self, groups: List[Tuple["_Shard", np.ndarray]]) -> None:
        """Enforce every target shard's bounded queue before ANY submission.

        Admission must be all-or-nothing per batch: raising after some
        sub-batches were already submitted would leave in-flight calls no
        caller can ever settle, permanently leaking queue slots.  Under
        ``shed`` the whole batch is refused when any target shard is full
        (the full shards' counters record the demand they turned away);
        under ``block`` each full shard first drains its oldest work.
        """
        capacity = self.config.queue_capacity
        if self.config.overload_policy == "shed":
            full = [
                (shard, positions)
                for shard, positions in groups
                if shard.queue_depth >= capacity
            ]
            if full:
                for shard, positions in full:
                    shard.shed_batches.inc()
                    shard.shed_requests.inc(len(positions))
                shard_ids = [shard.shard_id for shard, _ in full]
                raise ClusterOverloadedError(
                    f"shard queue(s) {shard_ids} full ({capacity} in flight); "
                    "request shed"
                )
            return
        for shard, _ in groups:  # block: wait for the oldest work
            while shard.queue_depth >= capacity:
                shard.drain_oldest()

    # ------------------------------------------------------------------ #
    # Model store
    # ------------------------------------------------------------------ #
    def add_model(self, name: str, estimator: SelectivityEstimator) -> None:
        """Attach an in-memory estimator to *every* shard.

        Each shard receives its own unpickled replica, so per-shard state
        (update fine-tuning, caches) never aliases across shards — on the
        inline backend exactly as across the ``network`` backend's process
        boundary.
        """
        payload = pickle.dumps(estimator, protocol=pickle.HIGHEST_PROTOCOL)
        for future in [shard.backend.add_model(name, payload) for shard in self._shards]:
            future.result()

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def submit_estimate(
        self,
        model: str,
        queries: np.ndarray,
        thresholds: np.ndarray,
        use_cache: bool = True,
    ) -> ClusterEstimateFuture:
        """Scatter one batch by shard; returns a gatherable future.

        Routing is per row on ``(model, query)``, then each shard receives
        its rows as one backend call.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if queries.size == 0 and thresholds.ndim == 1 and len(thresholds) == 0:
            return ClusterEstimateFuture(self, 0, [])
        if queries.ndim != 2 or thresholds.ndim != 1 or len(queries) != len(thresholds):
            raise ValueError(
                f"expected aligned (n, dim) queries and (n,) thresholds, got "
                f"{queries.shape} and {thresholds.shape}"
            )
        # Admission and submission are one atomic step: two concurrent
        # batches must not both pass a shard's depth check for its last free
        # slot and overfill its bounded queue, and admission is
        # all-or-nothing per batch (see ``_admit_all``).
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is closed")
            shard_ids = self.router.route_batch(model, queries)
            groups: List[Tuple[_Shard, np.ndarray]] = [
                (self._shards[int(shard_id)], np.flatnonzero(shard_ids == shard_id))
                for shard_id in np.unique(shard_ids)
            ]
            with obstrace.span("cluster.admission", rows=len(thresholds)):
                self._admit_all(groups)
            parts: List[Tuple[_Shard, np.ndarray, _PendingCall]] = []
            for shard, positions in groups:
                future = shard.backend.estimate(
                    model, queries[positions], thresholds[positions], use_cache
                )
                call = shard.track(future, rows=len(positions))
                with shard.lock:
                    shard.requests.inc(len(positions))
                    shard.sub_batches.inc()
                parts.append((shard, positions, call))
        return ClusterEstimateFuture(self, len(thresholds), parts)

    def estimate(
        self,
        model: str,
        queries: np.ndarray,
        thresholds: np.ndarray,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Synchronous scatter–gather estimation (submit + gather)."""
        return self.submit_estimate(model, queries, thresholds, use_cache=use_cache).result()

    def estimate_one(
        self, model: str, query: np.ndarray, threshold: float, use_cache: bool = True
    ) -> float:
        query = np.asarray(query, dtype=np.float64)
        result = self.estimate(model, query[None, :], np.asarray([threshold]), use_cache=use_cache)
        return float(result[0])

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update(
        self,
        model: str,
        inserts: Optional[np.ndarray] = None,
        deletes: Optional[Sequence[int]] = None,
    ) -> List[Dict[str, Any]]:
        """Fan one data update out to every shard's replica of ``model``.

        Each shard applies the update to its own copy through
        :meth:`EstimationService.update`, so it drops its cached curves
        and compiled kernel for the model only when the update changed the
        weights (a ``selnet-inc`` fine-tune) and keeps them otherwise; the
        per-shard summaries come back in shard order.  Raises
        :class:`repro.estimator.UpdateNotSupportedError` (from every shard
        alike) when the model does not implement the update protocol.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        with self._lock:
            futures = [
                (shard, shard.backend.update(model, inserts, deletes))
                for shard in self._shards
            ]
        summaries = []
        for shard, future in futures:
            summary = dict(future.result())
            summary["shard"] = shard.shard_id
            shard.updates.inc()
            summaries.append(summary)
        return summaries

    def reload_models(self) -> List[Dict[str, Any]]:
        """Hot-reload every shard's disk-backed models (store hot swap).

        Each shard drops its in-memory copies of disk-backed models and
        invalidates their cached curves, so the next request loads the
        current artifact from ``model_dir`` — the path ``/models/reload``
        uses to swap a freshly trained artifact in without restarting (or
        even pausing) the cluster.  Per-shard reload summaries come back in
        shard order.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        with self._lock:
            futures = [(shard, shard.backend.reload()) for shard in self._shards]
        return [
            {"shard": shard.shard_id, **dict(future.result())}
            for shard, future in futures
        ]

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Aggregated cluster counters plus one entry per shard (JSON-able).

        Every number is read from one snapshot, carried under
        ``"metrics"``: this registry merged with each worker's (which its
        ``stats`` reply carries), stamped with a ``shard`` label.  Per shard:
        request/sub-batch/shed counts, queue depth (current and high-water),
        the sub-batch latency summary and the worker's own service stats
        (cache, per-model counters), without its snapshot.
        """
        for shard in self._shards:
            shard.queue_gauge.set(shard.queue_depth)
        snapshot = self.metrics.snapshot()
        per_shard: List[Dict[str, Any]] = []
        for shard in self._shards:
            label = str(shard.shard_id)
            worker = shard.backend.stats().result()
            worker_metrics = MetricsSnapshot.from_dict(worker.pop("metrics"))
            snapshot = snapshot.merge(worker_metrics.with_labels(shard=label))

            def count(name: str) -> int:
                return int(snapshot.value(name, shard=label))

            per_shard.append(
                {
                    "shard": shard.shard_id,
                    "requests": count("repro_cluster_requests_total"),
                    "sub_batches": count("repro_cluster_sub_batches_total"),
                    "shed_batches": count("repro_cluster_shed_batches_total"),
                    "shed_requests": count("repro_cluster_shed_requests_total"),
                    "updates": count("repro_cluster_updates_total"),
                    "queue_depth": count("repro_cluster_queue_depth"),
                    "max_queue_depth": count("repro_cluster_max_queue_depth"),
                    "latency": latency_summary(
                        snapshot.value("repro_cluster_sub_batch_latency_seconds", None, shard=label)
                    ),
                    "worker": worker,
                }
            )
        total_requests = sum(entry["requests"] for entry in per_shard)
        return {
            "backend": self.config.backend,
            "router": self.router.describe(),
            "num_shards": len(self._shards),
            "queue_capacity": self.config.queue_capacity,
            "overload_policy": self.config.overload_policy,
            "total_requests": total_requests,
            "total_sub_batches": sum(entry["sub_batches"] for entry in per_shard),
            "total_shed_requests": sum(entry["shed_requests"] for entry in per_shard),
            "total_updates": sum(entry["updates"] for entry in per_shard),
            "per_shard": per_shard,
            "metrics": snapshot.as_dict(),
        }
