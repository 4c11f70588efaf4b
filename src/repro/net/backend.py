"""The ``network`` shard backend: process shards over shared-memory transport.

Selected with ``ClusterConfig(backend="network")``.  Each shard is a
dedicated worker process (:mod:`repro.net.worker`) connected by

* a **control pipe** carrying small pickled dicts (operation, model name,
  slot index, counters) — the only thing that is ever pickled; and
* a **shared-memory slot ring** (:class:`repro.net.shm.ShmRing`) carrying
  the batch data: queries and thresholds are copied once into a slot,
  mapped zero-copy in the worker, and the results come back in place.

Replies arrive in submission order (the worker is serial), so the backend
keeps a FIFO of in-flight :class:`_NetFuture` handles and any thread
claiming a result pumps the pipe until its own future settles — fulfilling
earlier futures along the way.  A worker that dies mid-batch is detected by
the pump (pipe EOF / liveness probe) and every outstanding future fails with
:class:`ShardCrashedError` instead of blocking its caller forever.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Sequence, Type

import numpy as np

from ..cluster.backends import _service_config_kwargs
from ..estimator import UpdateNotSupportedError
from ..obs import MetricsRegistry, MetricsSnapshot
from ..obs import trace as obstrace
from .shm import ShmRing, SlotPool
from .worker import shard_main

#: seconds between liveness probes while waiting for a reply
_POLL_INTERVAL = 0.05
#: seconds to wait for the worker's ready handshake
_READY_TIMEOUT = 120.0


class ShardCrashedError(RuntimeError):
    """The shard worker process died with calls still in flight."""


class ShardRequestError(RuntimeError):
    """One shard call failed inside the worker (traceback included)."""


class _NetFuture:
    """Reply handle fulfilled by the backend's reply pump (thread-safe)."""

    def __init__(self, backend: "NetworkShardBackend", parse: Callable[[Dict[str, Any]], Any]) -> None:
        self._backend = backend
        self._parse = parse
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _complete(self, message: Dict[str, Any]) -> None:
        """Settle from a worker reply (called by the pump, exactly once)."""
        try:
            if message.get("ok"):
                self._value = self._parse(message)
            else:
                self._error = _error_from_reply(message)
        except BaseException as error:  # parse failure
            self._error = error
        self._event.set()

    def cancel(self, error: BaseException) -> bool:
        if self._event.is_set():
            return False
        self._error = error
        self._event.set()
        return True

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self) -> Any:
        if not self._event.is_set():
            self._backend._pump_until(self)
        if self._error is not None:
            raise self._error
        return self._value


#: worker exceptions re-raised as their own type (not ShardRequestError), so
#: cluster semantics — benchmark fallback on UpdateNotSupportedError, HTTP
#: 404 for unknown models, 400 for malformed batches — hold on every backend
_TYPED_ERRORS: Dict[str, Type[BaseException]] = {
    "UpdateNotSupportedError": UpdateNotSupportedError,
    "KeyError": KeyError,
    "ValueError": ValueError,
}


def _error_from_reply(message: Dict[str, Any]) -> BaseException:
    text = message.get("error", "shard call failed")
    kind, _, detail = text.partition(": ")
    if kind in _TYPED_ERRORS:
        return _TYPED_ERRORS[kind](detail or text)
    return ShardRequestError(f"{text}\n--- shard traceback ---\n{message.get('traceback', '')}")


class NetworkShardBackend:
    """A shard in its own process, reached through shared-memory transport."""

    def __init__(self, config: "ClusterConfig") -> None:
        self._service_kwargs = dict(_service_config_kwargs(config))
        if self._service_kwargs["model_dir"] is not None:
            self._service_kwargs["model_dir"] = str(self._service_kwargs["model_dir"])
        slot_bytes = int(config.shm_slot_bytes)
        # Slots only carry estimate batches, whose concurrency the cluster
        # bounds at queue_capacity; the margin covers direct backend users.
        num_slots = max(int(config.queue_capacity) + 2, 4)
        self._ring = ShmRing.create(num_slots, slot_bytes)
        self._slots = SlotPool(num_slots)
        context = multiprocessing.get_context()
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=shard_main,
            args=(
                child_conn,
                self._ring.name,
                num_slots,
                slot_bytes,
                self._service_kwargs,
                # The frontend's trace sink config rides along at spawn, so
                # autoscaled shards created mid-run trace like the originals.
                obstrace.trace_config(),
            ),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._send_lock = threading.Lock()  # orders sends and the FIFO
        self._pump_lock = threading.Lock()  # one reader on the pipe at a time
        self._inflight: Deque[_NetFuture] = deque()
        self._closed = False
        self.metrics = MetricsRegistry()
        self._shm_batches = self.metrics.counter(
            "repro_net_shm_batches_total", "Batches moved through the shm slot ring"
        )
        self._fallback_batches = self.metrics.counter(
            "repro_net_fallback_batches_total",
            "Oversized batches that fell back to the pickled control pipe",
        )
        self._shm_bytes = self.metrics.counter(
            "repro_net_shm_bytes_total", "Batch bytes written into shm slots"
        )
        ready = self._handshake()
        self.warmed_models = list(ready.get("warmed", []))

    def _handshake(self) -> Dict[str, Any]:
        if not self._conn.poll(_READY_TIMEOUT):
            self.close()
            raise ShardCrashedError("shard worker never became ready")
        try:
            ready = self._conn.recv()
        except (EOFError, OSError) as error:
            self.close()
            raise ShardCrashedError("shard worker died during startup") from error
        if not ready.get("ok"):
            self.close()
            raise ShardCrashedError(f"shard worker failed to start: {ready}")
        return ready

    # ------------------------------------------------------------------ #
    # Submission and the reply pump
    # ------------------------------------------------------------------ #
    def _submit(self, message: Dict[str, Any], parse: Callable[[Dict[str, Any]], Any]) -> _NetFuture:
        future = _NetFuture(self, parse)
        with self._send_lock:
            if self._closed:
                raise RuntimeError("network shard backend is closed")
            try:
                self._conn.send(message)
            except (BrokenPipeError, OSError) as error:
                raise ShardCrashedError("shard worker pipe is broken") from error
            self._inflight.append(future)
        return future

    def _pump_until(self, future: _NetFuture) -> None:
        """Read replies (in FIFO order) until ``future`` settles."""
        while not future.done:
            with self._pump_lock:
                if future.done:
                    return
                if not self._conn.poll(_POLL_INTERVAL):
                    if not self._process.is_alive():
                        self._fail_inflight(
                            ShardCrashedError(
                                f"shard worker (pid {self._process.pid}) died with "
                                "calls in flight"
                            )
                        )
                        return
                    continue
                try:
                    message = self._conn.recv()
                except (EOFError, OSError):
                    self._fail_inflight(
                        ShardCrashedError("shard worker closed its control pipe mid-call")
                    )
                    return
                with self._send_lock:
                    oldest = self._inflight.popleft() if self._inflight else None
                if oldest is not None:
                    oldest._complete(message)

    def _fail_inflight(self, error: BaseException) -> None:
        with self._send_lock:
            pending = list(self._inflight)
            self._inflight.clear()
        for future in pending:
            future.cancel(error)

    # ------------------------------------------------------------------ #
    # Backend operations
    # ------------------------------------------------------------------ #
    @property
    def transport_stats(self) -> Dict[str, int]:
        """The historical transport counter dict (view over the registry)."""
        return {
            "shm_batches": int(self._shm_batches.labels().value),
            "fallback_batches": int(self._fallback_batches.labels().value),
            "shm_bytes": int(self._shm_bytes.labels().value),
        }

    def estimate(
        self, model: str, queries: np.ndarray, thresholds: np.ndarray, use_cache: bool
    ) -> _NetFuture:
        # Slots carry float64 payloads (the results come back in place).
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        thresholds = np.ascontiguousarray(thresholds, dtype=np.float64)
        n, dim = queries.shape
        trace = obstrace.current_trace_id()
        if self._ring.fits(n, dim):
            slot = self._slots.acquire()
            with obstrace.span("transport.shm", rows=n):
                self._ring.write_batch(slot, queries, thresholds)
            self._shm_batches.inc()
            self._shm_bytes.inc(queries.nbytes + thresholds.nbytes)

            def _parse(message: Dict[str, Any], slot: int = slot) -> np.ndarray:
                results = self._ring.read_results(slot, message["n"])
                self._slots.release(slot)
                return results

            message = {
                "op": "estimate",
                "model": model,
                "slot": slot,
                "n": n,
                "dim": dim,
                "use_cache": bool(use_cache),
                "trace": trace,
            }
            try:
                future = self._submit(message, _parse)
            except BaseException:
                self._slots.release(slot)
                raise
            return future
        # Oversized batch: control-pipe fallback (counted; still correct).
        self._fallback_batches.inc()
        with obstrace.span("transport.pipe", rows=n):
            return self._submit(
                {
                    "op": "estimate",
                    "model": model,
                    "slot": None,
                    "queries": queries,
                    "thresholds": thresholds,
                    "use_cache": bool(use_cache),
                    "trace": trace,
                },
                lambda message: message["results"],
            )

    def update(
        self, model: str, inserts: Optional[np.ndarray], deletes: Optional[Sequence[int]]
    ) -> _NetFuture:
        return self._submit(
            {"op": "update", "model": model, "inserts": inserts, "deletes": deletes},
            lambda message: message["value"],
        )

    def add_model(self, name: str, payload: bytes) -> _NetFuture:
        return self._submit(
            {"op": "add_model", "name": name, "payload": payload},
            lambda message: None,
        )

    def stats(self) -> _NetFuture:
        def _parse(message: Dict[str, Any]) -> Dict[str, Any]:
            value = dict(message["value"])
            value["transport"] = self.transport_stats
            # Fold the frontend-side transport counters into the worker's
            # snapshot, so a cluster-wide merge sees both under one shard.
            worker_metrics = value.get("metrics")
            if worker_metrics is not None:
                value["metrics"] = (
                    MetricsSnapshot.from_dict(worker_metrics)
                    .merge(self.metrics.snapshot())
                    .as_dict()
                )
            return value

        return self._submit({"op": "stats"}, _parse)

    def reload(self) -> _NetFuture:
        return self._submit({"op": "reload"}, lambda message: message["value"])

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        # Any reply still unread belongs to a call the cluster chose not to
        # drain; fail it with a clear error rather than losing it silently.
        self._fail_inflight(
            ShardCrashedError("network shard backend closed with calls in flight")
        )
        try:
            self._conn.send({"op": "shutdown"})
        except (BrokenPipeError, OSError):
            pass
        if self._process.is_alive():
            self._process.join(timeout=10.0)
            if self._process.is_alive():  # pragma: no cover - last resort
                self._process.terminate()
                self._process.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        self._slots.close()
        self._ring.close()
