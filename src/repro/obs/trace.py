"""Cross-process request tracing: trace IDs, spans, and a JSONL sink.

Span taxonomy
-------------
One served request produces spans named by the layer that timed it:

``client.request``
    Wall time the client spent on the whole round-trip (binary or HTTP).
``server.estimate`` / ``server.update``
    Frontend handler time inside :mod:`repro.net.server` — parse,
    dispatch to the cluster, serialize.
``cluster.admission``
    Time from submit until a sub-batch was accepted by a shard's bounded
    queue (blocking admission waits show up here).
``cluster.queue_wait``
    Time the cluster spent claiming one sub-batch's result: the whole shard
    round trip after submission (transport, queueing in the worker and the
    worker's service call), not only the wait before the worker picked it up.
``transport.pipe``
    Pickling one batch and sending it over the shard's pipe into its
    worker process.
``worker.estimate``
    Worker-process service call, end to end.
``service.cache_lookup`` / ``service.kernel_execute``
    Inside :class:`~repro.serving.service.EstimationService`: curve-cache
    probe and the kernel work — the forward that fills cache misses and,
    for SelNet control points, the evaluation of the call's rows.
``pipeline.stage``
    One pipeline stage build (wall + CPU recorded in the stage report).

A trace ID is 16 hex chars (64 bits of :func:`uuid.uuid4`).  It travels

* in the binary protocol as an optional frame field (flag bit
  ``FLAG_TRACE``, the ID appended at the end of the payload so pre-trace
  peers parse the prefix unchanged),
* in HTTP as the ``X-Repro-Trace-Id`` header (request and echo),
* across the shard's pipe into its worker inside the batch message, and
* into every span record written to the sink.

Sampling is **deterministic per trace**: a blake2b hash of the trace ID
against ``sample`` ∈ [0, 1], so either *all* spans of a request are
recorded (across every process) or none are — no torn traces.

The sink appends one JSON object per line.  Writes are single
``os.write`` calls on an ``O_APPEND`` descriptor, so shard workers and
the frontend can share one file without interleaving partial lines.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: HTTP header carrying the trace ID (request and response echo)
TRACE_HEADER = "X-Repro-Trace-Id"

_current_trace: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace ID."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> Optional[str]:
    """The trace ID bound to the current context, if any."""
    return _current_trace.get()


@contextmanager
def trace_context(trace_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``trace_id`` for the duration of the block (None = untraced)."""
    token = _current_trace.set(trace_id)
    try:
        yield trace_id
    finally:
        _current_trace.reset(token)


class TraceSink:
    """An append-only JSONL span recorder with deterministic sampling."""

    def __init__(self, path: str, sample: float = 1.0) -> None:
        self.path = str(path)
        self.sample = float(sample)
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    def _descriptor(self) -> int:
        if self._fd is None:
            with self._lock:
                if self._fd is None:
                    self._fd = os.open(
                        self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                    )
        return self._fd

    def sampled(self, trace_id: str) -> bool:
        """Whether this trace is recorded — same answer in every process."""
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        digest = hashlib.blake2b(trace_id.encode("utf-8"), digest_size=8).digest()
        fraction = int.from_bytes(digest, "big") / 2.0 ** 64
        return fraction < self.sample

    def record(self, span: Dict[str, Any]) -> None:
        line = json.dumps(span, separators=(",", ":")) + "\n"
        os.write(self._descriptor(), line.encode("utf-8"))

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def config(self) -> Dict[str, Any]:
        """Plain-data form that reconstructs this sink in another process."""
        return {"path": self.path, "sample": self.sample}

    @classmethod
    def from_config(cls, config: Optional[Dict[str, Any]]) -> Optional["TraceSink"]:
        if not config:
            return None
        return cls(config["path"], config.get("sample", 1.0))


# Process-level tracing state.  ``configure_tracing`` is called once by the
# entrypoint (``repro serve --trace-out``), and shard workers call it with
# the config shipped in their spawn arguments.
_sink: Optional[TraceSink] = None
_role: str = "main"


def configure_tracing(
    trace_out: Optional[str],
    sample: float = 1.0,
    role: str = "main",
) -> Optional[TraceSink]:
    """Install (or clear, when ``trace_out`` is None) the process sink."""
    global _sink, _role
    if _sink is not None:
        _sink.close()
    _sink = TraceSink(trace_out, sample) if trace_out else None
    _role = role
    return _sink


def get_sink() -> Optional[TraceSink]:
    return _sink


def tracing_enabled() -> bool:
    return _sink is not None


def trace_config() -> Optional[Dict[str, Any]]:
    """The sink's shippable config (None when tracing is off)."""
    return _sink.config() if _sink is not None else None


@contextmanager
def span(
    name: str,
    trace_id: Optional[str] = None,
    **fields: Any,
) -> Iterator[Dict[str, Any]]:
    """Time a block and record it as one span of the current trace.

    No-ops (two attribute checks) when tracing is off or the context has
    no trace ID, so instrumented hot paths stay cheap in the common case.
    The yielded dict lets the block attach fields after the fact::

        with span("service.kernel_execute", batch=n) as s:
            ...
            s["cache_hits"] = hits
    """
    sink = _sink
    tid = trace_id if trace_id is not None else _current_trace.get()
    extra: Dict[str, Any] = dict(fields)
    if sink is None or tid is None or not sink.sampled(tid):
        yield extra
        return
    wall_start = time.perf_counter()
    cpu_start = time.thread_time()
    start_unix = time.time()
    try:
        yield extra
    finally:
        record = {
            "trace_id": tid,
            "span": name,
            "role": _role,
            "pid": os.getpid(),
            "start": round(start_unix, 6),
            "wall_s": round(time.perf_counter() - wall_start, 9),
            "cpu_s": round(time.thread_time() - cpu_start, 9),
        }
        if extra:
            record.update(extra)
        sink.record(record)


def read_trace_file(path: str) -> List[Dict[str, Any]]:
    """All spans in a JSONL trace file (skipping torn/blank lines)."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return spans


__all__ = [
    "TRACE_HEADER",
    "TraceSink",
    "configure_tracing",
    "current_trace_id",
    "get_sink",
    "new_trace_id",
    "read_trace_file",
    "span",
    "trace_config",
    "trace_context",
    "tracing_enabled",
]
