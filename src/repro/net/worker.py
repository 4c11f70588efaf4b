"""The shard worker process: one `EstimationService` behind its pipe.

``shard_main`` is the entry point the ``network`` backend spawns one process
per shard for.  The worker owns a full :class:`~repro.serving.
EstimationService` (its own model store and curve cache), warms every
disk-backed model at spawn (so a shard serves its first request without
paying model-load latency), then answers the messages on its pipe in FIFO
order:

``estimate``
    The batch's queries and thresholds arrive inside the message; the
    results go back inside the reply.
``add_model`` / ``update`` / ``stats`` / ``reload`` / ``shutdown``
    Control-plane operations.

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

from ..obs import peak_rss_bytes
from ..obs import trace as obstrace


def _safe_reply(connection, payload: Dict[str, Any]) -> None:
    try:
        connection.send(payload)
    except (BrokenPipeError, OSError):  # router is gone; nothing left to do
        raise SystemExit(0)


def shard_main(
    connection,
    service_kwargs: Dict[str, Any],
    trace_config: Optional[Dict[str, Any]] = None,
) -> None:
    """Run one shard worker until ``shutdown`` or its pipe closes."""
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
                    thresholds = message["thresholds"]
                    with obstrace.trace_context(message.get("trace")), obstrace.span(
                        "worker.estimate", model=message["model"], rows=len(thresholds)
                    ):
                        results = service.estimate(
                            message["model"],
                            message["queries"],
                            thresholds,
                            use_cache=message["use_cache"],
                        )
                    _safe_reply(connection, {"ok": True, "op": op, "results": results})
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
                    value = dict(service.stats(), peak_rss_bytes=peak_rss_bytes())
                    _safe_reply(connection, {"ok": True, "op": op, "value": value})
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
                        "error": f"{type(error).__name__}: {error}",
                        "traceback": traceback.format_exc(),
                    },
                )
    finally:
        try:
            connection.close()
        except OSError:  # pragma: no cover
            pass
