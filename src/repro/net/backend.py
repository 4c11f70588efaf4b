"""The ``network`` shard backend: process shards, one pipe each.

Selected with ``ClusterConfig(backend="network")``.  Each shard is a
dedicated worker process (:mod:`repro.net.worker`) connected by one
:mod:`multiprocessing` pipe: every call — an estimate batch's queries and
thresholds included — is one pickled message, and every reply (an
estimate's results included) is one pickled message back.

Replies arrive in submission order (the worker is serial), so the backend
keeps a FIFO of in-flight :class:`_NetFuture` handles and one reader thread
settles the oldest for each reply as it arrives.  Because replies are read
as they come, a caller may send any number of batches before it claims a
result, without the worker blocking on a reply nobody reads.  A worker
that dies mid-batch is detected by the reader (pipe EOF or the process
sentinel) and every outstanding future fails with
:class:`ShardCrashedError` instead of blocking its caller forever.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, Dict, Optional, Sequence, Type

import numpy as np

from ..cluster.backends import _service_config_kwargs
from ..estimator import UpdateNotSupportedError
from ..obs import trace as obstrace
from .worker import shard_main

#: seconds to wait for the worker's ready handshake
_READY_TIMEOUT = 120.0


class ShardCrashedError(RuntimeError):
    """The shard worker process died with calls still in flight."""


class ShardRequestError(RuntimeError):
    """One shard call failed inside the worker (traceback included)."""


class _NetFuture:
    """Reply handle settled by the backend's reader thread (thread-safe)."""

    def __init__(self, parse: Callable[[Dict[str, Any]], Any]) -> None:
        self._parse = parse
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _settle(self, value: Any, error: Optional[BaseException]) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._value, self._error = value, error
            self._event.set()
            return True

    def _complete(self, message: Dict[str, Any]) -> None:
        """Settle from a worker reply (called by the reader)."""
        try:
            if message.get("ok"):
                self._settle(self._parse(message), None)
            else:
                self._settle(None, _error_from_reply(message))
        except Exception as error:  # parse failure
            self._settle(None, error)

    def cancel(self, error: BaseException) -> bool:
        return self._settle(None, error)

    def result(self) -> Any:
        self._event.wait()
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
    """A shard in its own process, reached over one pipe."""

    def __init__(self, config: "ClusterConfig") -> None:
        self._service_kwargs = dict(_service_config_kwargs(config))
        if self._service_kwargs["model_dir"] is not None:
            self._service_kwargs["model_dir"] = str(self._service_kwargs["model_dir"])
        context = multiprocessing.get_context()
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=shard_main,
            args=(
                child_conn,
                self._service_kwargs,
                # The frontend's trace sink config rides along at spawn: the
                # worker reopens that sink under its own role, whatever the
                # start method.
                obstrace.trace_config(),
            ),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        # Sends are serialised so the FIFO matches the pipe; the reader takes
        # only ``_lock``, so a send blocked on a full pipe never stops it.
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()  # guards the FIFO, the failure and ``_closed``
        self._inflight: Deque[_NetFuture] = deque()
        self._failure: Optional[ShardCrashedError] = None
        self._closed = False
        ready = self._handshake()
        self.warmed_models = list(ready.get("warmed", []))
        self._reader = threading.Thread(
            target=self._read_replies, name=f"shard-reader-{self._process.pid}", daemon=True
        )
        self._reader.start()

    def _handshake(self) -> Dict[str, Any]:
        try:
            ready = self._conn.recv() if self._conn.poll(_READY_TIMEOUT) else None
        except (EOFError, OSError):
            ready = None  # the worker died during startup
        if not (ready and ready.get("ok")):
            self._conn.close()
            self._stop_worker()
            raise ShardCrashedError(f"shard worker failed to start: {ready}")
        return ready

    # ------------------------------------------------------------------ #
    # Submission and the reply reader
    # ------------------------------------------------------------------ #
    def _submit(self, message: Dict[str, Any], parse: Callable[[Dict[str, Any]], Any]) -> _NetFuture:
        future = _NetFuture(parse)
        with self._send_lock:
            with self._lock:
                if self._closed:
                    raise RuntimeError("network shard backend is closed")
                if self._failure is not None:
                    raise ShardCrashedError(str(self._failure))
                self._inflight.append(future)
            try:
                self._conn.send(message)
            except BaseException as error:
                # Nothing reached the worker (or the pipe is gone), so no
                # reply will come for this call: keep the FIFO aligned.
                with self._lock:
                    if future in self._inflight:
                        self._inflight.remove(future)
                if isinstance(error, OSError):
                    raise ShardCrashedError("shard worker pipe is broken") from error
                raise
        return future

    def _read_replies(self) -> None:
        """Settle the oldest in-flight call with each reply, until the worker exits."""
        error = ShardCrashedError("shard worker closed its pipe mid-call")
        try:
            while True:
                if self._conn not in wait([self._conn, self._process.sentinel]):
                    error = ShardCrashedError(
                        f"shard worker (pid {self._process.pid}) died with calls in flight"
                    )
                    return
                message = self._conn.recv()
                with self._lock:
                    oldest = self._inflight.popleft() if self._inflight else None
                if oldest is not None:
                    oldest._complete(message)
        except (EOFError, OSError):
            pass
        finally:
            self._fail_inflight(error)

    def _fail_inflight(self, error: ShardCrashedError) -> None:
        with self._lock:
            self._failure = error
            pending = list(self._inflight)
            self._inflight.clear()
        for future in pending:
            future.cancel(error)

    # ------------------------------------------------------------------ #
    # Backend operations
    # ------------------------------------------------------------------ #
    def estimate(
        self, model: str, queries: np.ndarray, thresholds: np.ndarray, use_cache: bool
    ) -> _NetFuture:
        thresholds = np.ascontiguousarray(thresholds, dtype=np.float64)
        message = {
            "op": "estimate",
            "model": model,
            "queries": np.ascontiguousarray(queries, dtype=np.float64),
            "thresholds": thresholds,
            "use_cache": bool(use_cache),
            "trace": obstrace.current_trace_id(),
        }
        with obstrace.span("transport.pipe", rows=len(thresholds)):
            return self._submit(message, lambda reply: reply["results"])

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
        return self._submit({"op": "stats"}, lambda message: message["value"])

    def reload(self) -> _NetFuture:
        return self._submit({"op": "reload"}, lambda message: message["value"])

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._send_lock:
            with self._lock:
                if self._closed:
                    return
                self._closed = True
            # Any reply still unread belongs to a call the cluster chose not
            # to drain; fail it with a clear error rather than losing it.
            self._fail_inflight(
                ShardCrashedError("network shard backend closed with calls in flight")
            )
            try:
                self._conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        self._stop_worker()
        # The reader stops once the worker has exited; join it before the
        # pipe it reads is closed.
        self._reader.join()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass

    def _stop_worker(self) -> None:
        if self._process.is_alive():
            self._process.join(timeout=10.0)
            if self._process.is_alive():  # pragma: no cover - last resort
                self._process.terminate()
                self._process.join(timeout=5.0)
