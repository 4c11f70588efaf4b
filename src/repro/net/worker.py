"""The shard worker process: one `EstimationService` behind a control pipe.

``shard_main`` is the entry point the ``network`` backend spawns one process
per shard for.  The worker owns a full :class:`~repro.serving.
EstimationService` (its own model store and curve cache), warms every
disk-backed model at spawn (so a freshly autoscaled shard serves its first
request without paying model-load latency), then answers control messages in
FIFO order:

``estimate``
    Batch rows arrive through the shared-memory ring (zero-copy NumPy views
    over the slot) or inline in the message for oversized batches; results
    are written back into the same slot.
``add_model`` / ``update`` / ``stats`` / ``reload`` / ``shutdown``
    Control-plane operations, pickled over the pipe (small payloads only).

Because the worker is strictly serial, a ``reload`` is naturally ordered
after every batch already in its pipe — hot model swaps never interrupt an
in-flight request.  Every reply carries ``ok``; failures ship the traceback
text back to the router, which raises them in the caller.
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import Any, Dict, Optional

from ..obs import trace as obstrace
from .shm import ShmRing


def _safe_reply(connection, payload: Dict[str, Any]) -> None:
    try:
        connection.send(payload)
    except (BrokenPipeError, OSError):  # router is gone; nothing left to do
        raise SystemExit(0)


def shard_main(
    connection,
    ring_name: str,
    num_slots: int,
    slot_bytes: int,
    service_kwargs: Dict[str, Any],
    trace_config: Optional[Dict[str, Any]] = None,
) -> None:
    """Run one shard worker until ``shutdown`` or the control pipe closes."""
    from ..estimator import UpdateNotSupportedError  # noqa: F401 (unpickling)
    from ..serving import EstimationService

    if trace_config:
        # Same JSONL sink as the frontend (O_APPEND keeps lines whole across
        # processes); sampling is deterministic per trace ID, so this worker
        # records exactly the traces the frontend records.
        obstrace.configure_tracing(
            trace_config["path"], trace_config.get("sample", 1.0), role="shard"
        )
    service = EstimationService(**service_kwargs)
    warmed = service.preload()
    ring = ShmRing.attach(ring_name, num_slots, slot_bytes)
    _safe_reply(connection, {"ok": True, "op": "ready", "pid": os.getpid(), "warmed": warmed})

    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            op = message.get("op")
            if op == "shutdown":
                break
            try:
                if op == "estimate":
                    slot = message.get("slot")
                    if slot is None:  # oversized batch: inline fallback
                        queries = message["queries"]
                        thresholds = message["thresholds"]
                    else:
                        queries, thresholds = ring.read_batch(
                            slot, message["n"], message["dim"]
                        )
                    trace = message.get("trace")
                    with obstrace.trace_context(trace), obstrace.span(
                        "worker.estimate",
                        model=message["model"],
                        rows=len(thresholds),
                        via="shm" if slot is not None else "pipe",
                    ):
                        results = service.estimate(
                            message["model"],
                            queries,
                            thresholds,
                            use_cache=message["use_cache"],
                        )
                    if slot is None:
                        _safe_reply(
                            connection, {"ok": True, "op": op, "results": results}
                        )
                    else:
                        ring.write_results(slot, results)
                        _safe_reply(
                            connection,
                            {"ok": True, "op": op, "slot": slot, "n": len(results)},
                        )
                elif op == "add_model":
                    service.add_model(message["name"], pickle.loads(message["payload"]))
                    _safe_reply(connection, {"ok": True, "op": op})
                elif op == "update":
                    reports = service.update(
                        message["model"],
                        inserts=message["inserts"],
                        deletes=message["deletes"],
                    )
                    _safe_reply(
                        connection,
                        {
                            "ok": True,
                            "op": op,
                            "value": {"model": message["model"], "operations": len(reports)},
                        },
                    )
                elif op == "stats":
                    _safe_reply(connection, {"ok": True, "op": op, "value": service.stats()})
                elif op == "reload":
                    _safe_reply(
                        connection,
                        {"ok": True, "op": op, "value": service.reload_models()},
                    )
                else:
                    raise ValueError(f"unknown shard operation {op!r}")
            except SystemExit:
                raise
            except BaseException as error:
                _safe_reply(
                    connection,
                    {
                        "ok": False,
                        "op": op,
                        "slot": message.get("slot"),
                        "error": f"{type(error).__name__}: {error}",
                        "traceback": traceback.format_exc(),
                    },
                )
    finally:
        ring.close()
        try:
            connection.close()
        except OSError:  # pragma: no cover
            pass
