"""The network serving tier: HTTP (JSON) and binary TCP front ends.

:class:`ServeApp` is the transport-agnostic application object — it owns the
:class:`~repro.cluster.EstimationCluster` and a model *catalog* (a
zero-capacity :class:`~repro.serving.EstimationService` used purely to list
and describe on-disk artifacts from their sidecars, never to load weights).
Two servers front it:

* :class:`HttpEstimationServer` — ``ThreadingHTTPServer`` speaking JSON:
  ``GET /healthz``, ``GET /stats``, ``GET /models``, ``POST /estimate``,
  ``POST /update``, ``POST /models/reload``;
* :class:`BinaryEstimationServer` — ``socketserver.ThreadingTCPServer``
  speaking the length-prefixed frames of :mod:`repro.net.protocol`
  (persistent connections, raw float64 batches — the low-latency path the
  saturation benchmark drives).

Both map failures to transport-appropriate errors: an overloaded cluster
(shed admission) becomes HTTP 503 / a typed ``STATUS_ERROR`` frame, an
unknown model 404, a malformed batch 400.  :class:`NetServer` bundles the
two servers behind one ``start`` / ``stop`` pair — the object ``repro
serve`` runs.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..cluster import ClusterConfig, ClusterOverloadedError, EstimationCluster
from ..estimator import UpdateNotSupportedError
from ..obs import (
    MetricsRegistry,
    MetricsSnapshot,
    aggregate_histogram,
    latency_summary,
    peak_rss_bytes,
)
from ..obs import trace as obstrace
from ..serving import EstimationService
from . import protocol

#: histogram families surfaced as the per-layer latency summary in /stats
_LAYER_HISTOGRAMS = {
    "server.request": "repro_app_request_latency_seconds",
    "cluster.sub_batch": "repro_cluster_sub_batch_latency_seconds",
    "service.estimate": "repro_service_estimate_latency_seconds",
}


class ServeApp:
    """Transport-agnostic serving application over one estimation cluster."""

    def __init__(self, cluster: EstimationCluster) -> None:
        self.cluster = cluster
        model_dir = cluster.config.model_dir
        self.catalog = EstimationService(model_dir=model_dir, cache_capacity=0)
        self.started_at = time.time()
        self.metrics = MetricsRegistry()
        self._endpoint_counter = self.metrics.counter(
            "repro_app_requests_total", "Frontend requests by endpoint", ("endpoint",)
        )
        self._request_latency = self.metrics.histogram(
            "repro_app_request_latency_seconds",
            "Frontend handler latency by endpoint",
            ("endpoint",),
        )

    def _count(self, endpoint: str) -> None:
        self._endpoint_counter.labels(endpoint=endpoint).inc()

    # ------------------------------------------------------------------ #
    # Operations (shared by both transports)
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        model: str,
        queries: np.ndarray,
        thresholds: np.ndarray,
        use_cache: bool = True,
    ) -> np.ndarray:
        self._count("estimate")
        start = time.perf_counter()
        try:
            return self.cluster.estimate(model, queries, thresholds, use_cache=use_cache)
        finally:
            self._request_latency.labels(endpoint="estimate").observe(
                time.perf_counter() - start
            )

    def update(self, model: str, inserts, deletes) -> Any:
        self._count("update")
        start = time.perf_counter()
        try:
            return self.cluster.update(model, inserts=inserts, deletes=deletes)
        finally:
            self._request_latency.labels(endpoint="update").observe(
                time.perf_counter() - start
            )

    def reload_models(self) -> Dict[str, Any]:
        self._count("reload")
        return {"shards": self.cluster.reload_models()}

    def models(self) -> Dict[str, Any]:
        self._count("models")
        return {
            "models": self.catalog.available_models(),
            "described": self.catalog.describe_models(),
        }

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload, every number read from one snapshot,
        which it carries under ``"metrics"``."""
        self._count("stats")
        cluster_stats, snapshot = self._collect()
        layers: Dict[str, Any] = {}
        for layer, family in _LAYER_HISTOGRAMS.items():
            data = aggregate_histogram(snapshot, family)
            if data is not None and data["count"]:
                layers[layer] = latency_summary(data)
        return {
            "uptime_seconds": time.time() - self.started_at,
            "endpoints": {
                labels["endpoint"]: int(count)
                for labels, count in snapshot.series("repro_app_requests_total")
            },
            "cluster": cluster_stats,
            "cache_bytes": int(snapshot.total("repro_cache_bytes")),
            "layers": layers,
            "peak_rss_bytes": self._peak_rss(cluster_stats),
            "metrics": snapshot.as_dict(),
        }

    def _collect(self) -> Tuple[Dict[str, Any], MetricsSnapshot]:
        """The cluster's stats, and its snapshot (its own registry and every
        worker's) merged with this app's.

        The catalog service's registry is deliberately excluded — its series
        are labeled ``(model,)`` while worker series carry ``(model, shard)``,
        and the catalog never serves estimates anyway.
        """
        cluster_stats = self.cluster.stats()
        snapshot = MetricsSnapshot.from_dict(cluster_stats.pop("metrics"))
        return cluster_stats, snapshot.merge(self.metrics.snapshot())

    @staticmethod
    def _peak_rss(cluster_stats: Dict[str, Any]) -> Dict[str, int]:
        """Peak resident set in bytes of this frontend and of each shard
        process (network shards report theirs on the stats reply; inline
        shards live in the frontend)."""
        peaks = {"frontend": peak_rss_bytes()}
        for entry in cluster_stats.get("per_shard", []):
            if "peak_rss_bytes" in entry.get("worker", {}):
                peaks[f"shard-{entry['shard']}"] = int(entry["worker"]["peak_rss_bytes"])
        return peaks

    def metrics_text(self) -> str:
        """Prometheus text exposition for ``GET /metrics``."""
        cluster_stats, snapshot = self._collect()
        # Derived gauges that only exist at scrape time: per-shard worker
        # cache hit rate, uptime and each process's peak resident set —
        # built in a transient registry so the live ones stay pure counters.
        derived = MetricsRegistry()
        hit_rate = derived.gauge(
            "repro_cache_hit_rate", "Worker curve-cache hit rate", ("shard",)
        )
        for entry in cluster_stats["per_shard"]:
            shard = entry["shard"]
            hits = snapshot.total("repro_service_cache_hits_total", shard=shard)
            lookups = hits + snapshot.total("repro_service_cache_misses_total", shard=shard)
            hit_rate.labels(shard=str(shard)).set(hits / lookups if lookups else 0.0)
        derived.gauge("repro_app_uptime_seconds", "Seconds since app start").set(
            time.time() - self.started_at
        )
        peak_rss = derived.gauge(
            "repro_process_peak_rss_bytes",
            "Peak resident set of each serving process",
            ("process",),
        )
        for process, peak in self._peak_rss(cluster_stats).items():
            peak_rss.labels(process=process).set(peak)
        return snapshot.merge(derived.snapshot()).to_prometheus()

    def healthz(self) -> Dict[str, Any]:
        return {"ok": True, "num_shards": self.cluster.num_shards}


def _error_status(error: BaseException) -> int:
    if isinstance(error, ClusterOverloadedError):
        return 503
    if isinstance(error, KeyError):
        return 404
    if isinstance(error, (ValueError, UpdateNotSupportedError)):
        return 400
    return 500


def _request_fields(body: Dict[str, Any], **arrays: Any) -> Tuple[str, Dict[str, Any]]:
    """The body's ``model`` and each named array (``key=dtype``) as NumPy,
    converted at the edge: ``ValueError`` (400) when ``model`` is not a
    string or a value cannot be read as its dtype (a JSON object, a
    non-numeric string, a ragged list).  An integer array takes only JSON
    integers and integral numbers: ``1.7``, ``true`` or ``"1"`` is refused,
    never truncated or parsed.  An absent or null array stays None."""
    model = body["model"]
    if not isinstance(model, str):
        raise ValueError(f"'model' must be a string, got {type(model).__name__}")
    values: Dict[str, Any] = dict.fromkeys(arrays)
    for key, dtype in arrays.items():
        value = body.get(key)
        if value is None:
            continue
        try:
            values[key] = np.asarray(value, dtype=dtype)
        except (TypeError, ValueError, OverflowError) as error:
            raise ValueError(f"{key!r} cannot be read as {np.dtype(dtype)}: {error}") from None
        # NumPy would truncate 1.7 and parse "1"; only the values as sent count.
        if values[key].dtype.kind == "i":
            given = np.asarray(value)
            if given.dtype.kind not in "if" or not np.array_equal(given, values[key]):
                raise ValueError(f"{key!r} must hold integers only")
    return model, values


# ---------------------------------------------------------------------- #
# HTTP front end
# ---------------------------------------------------------------------- #
class _HttpHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the caller's concern, not stderr's

    def _send_json(self, status: int, value: Any, trace_id: Optional[str] = None) -> None:
        body = json.dumps(value).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if trace_id:
            self.send_header(obstrace.TRACE_HEADER, trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, error: BaseException) -> None:
        self._send_json(
            _error_status(error),
            {"error": type(error).__name__, "message": str(error)},
        )

    def _read_json_body(self, *required: str) -> Dict[str, Any]:
        """The request's JSON object; ``ValueError`` (400) when it is not
        one or lacks a ``required`` key, so a missing key never reads as an
        unknown model (``KeyError``, 404)."""
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body; expected JSON")
        body = json.loads(raw.decode("utf-8"))
        if not isinstance(body, dict):
            raise ValueError(f"request body must be a JSON object, got {type(body).__name__}")
        missing = [key for key in required if key not in body]
        if missing:
            raise ValueError(f"request body lacks {', '.join(map(repr, missing))}")
        return body

    def _send_text(self, status: int, body: str, trace_id: Optional[str] = None) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        if trace_id:
            self.send_header(obstrace.TRACE_HEADER, trace_id)
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802
        try:
            if self.path == "/healthz":
                self._send_json(200, self.app.healthz())
            elif self.path == "/stats":
                self._send_json(200, self.app.stats())
            elif self.path == "/models":
                self._send_json(200, self.app.models())
            elif self.path == "/metrics":
                self._send_text(200, self.app.metrics_text())
            else:
                self._send_json(404, {"error": "NotFound", "message": self.path})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as error:
            self._send_error_json(error)

    def do_POST(self) -> None:  # noqa: N802
        trace_id = self.headers.get(obstrace.TRACE_HEADER)
        if trace_id is None and obstrace.tracing_enabled():
            # A server run with --trace-out records every (sampled) request,
            # not just those from trace-aware clients.
            trace_id = obstrace.new_trace_id()
        try:
            if self.path == "/estimate":
                body = self._read_json_body("model", "queries", "thresholds")
                model, arrays = _request_fields(body, queries=np.float64, thresholds=np.float64)
                with obstrace.trace_context(trace_id), obstrace.span(
                    "server.estimate", transport="http", model=model
                ):
                    results = self.app.estimate(
                        model, arrays["queries"], arrays["thresholds"],
                        use_cache=bool(body.get("use_cache", True)),
                    )
                response = {"model": model, "results": results.tolist()}
                if trace_id:
                    response["trace_id"] = trace_id
                self._send_json(200, response, trace_id=trace_id)
            elif self.path == "/update":
                body = self._read_json_body("model")
                model, arrays = _request_fields(body, inserts=np.float64, deletes=np.int64)
                summaries = self.app.update(model, arrays["inserts"], arrays["deletes"])
                self._send_json(200, {"model": model, "shards": summaries})
            elif self.path == "/models/reload":
                self._send_json(200, self.app.reload_models())
            else:
                self._send_json(404, {"error": "NotFound", "message": self.path})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as error:
            self._send_error_json(error)


class HttpEstimationServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: ServeApp) -> None:
        super().__init__(address, _HttpHandler)
        self.app = app


# ---------------------------------------------------------------------- #
# Binary front end
# ---------------------------------------------------------------------- #
class _BinaryHandler(socketserver.BaseRequestHandler):
    """One persistent connection: frames in, frames out, until EOF."""

    def handle(self) -> None:
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                payload = protocol.read_frame(sock)
            except (protocol.ProtocolError, OSError):
                return
            if payload is None:
                return
            try:
                op, fields = protocol.parse_request(payload)
                if op == protocol.OP_ESTIMATE:
                    trace_id = fields.get("trace")
                    if trace_id is None and obstrace.tracing_enabled():
                        trace_id = obstrace.new_trace_id()
                    with obstrace.trace_context(trace_id), obstrace.span(
                        "server.estimate", transport="binary", model=fields["model"]
                    ):
                        results = app.estimate(
                            fields["model"],
                            fields["queries"],
                            fields["thresholds"],
                            use_cache=fields["use_cache"],
                        )
                    response = protocol.pack_results_response(results)
                elif op == protocol.OP_STATS:
                    response = protocol.pack_json_response(app.stats())
                elif op == protocol.OP_MODELS:
                    response = protocol.pack_json_response(app.models())
                elif op == protocol.OP_RELOAD:
                    response = protocol.pack_json_response(app.reload_models())
                elif op == protocol.OP_PING:
                    response = protocol.pack_json_response(app.healthz())
                else:
                    raise protocol.ProtocolError(f"unknown opcode {op}")
            except Exception as error:
                response = protocol.pack_error_response(error)
            try:
                protocol.write_frame(sock, response)
            except OSError:
                return


class BinaryEstimationServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: ServeApp) -> None:
        super().__init__(address, _BinaryHandler)
        self.app = app


# ---------------------------------------------------------------------- #
# The bundle `repro serve` runs
# ---------------------------------------------------------------------- #
class NetServer:
    """HTTP + binary servers behind one start/stop pair.

    ``port`` serves HTTP; the binary protocol listens on ``port + 1`` unless
    ``binary_port`` says otherwise (``0`` picks an ephemeral port, handy for
    tests; ``None`` disables the binary listener).
    """

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 8585,
        binary_port: Optional[int] = -1,
    ) -> None:
        self.app = app
        self.http_server = HttpEstimationServer((host, port), app)
        self.binary_server: Optional[BinaryEstimationServer] = None
        if binary_port is not None:
            resolved = self.http_address[1] + 1 if binary_port == -1 else binary_port
            self.binary_server = BinaryEstimationServer((host, resolved), app)
        self._threads: list = []
        self._started = False

    @property
    def http_address(self) -> Tuple[str, int]:
        return self.http_server.server_address[:2]

    @property
    def binary_address(self) -> Optional[Tuple[str, int]]:
        if self.binary_server is None:
            return None
        return self.binary_server.server_address[:2]

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        servers = [self.http_server]
        if self.binary_server is not None:
            servers.append(self.binary_server)
        for server in servers:
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.1},
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self.http_server.shutdown()
        self.http_server.server_close()
        if self.binary_server is not None:
            self.binary_server.shutdown()
            self.binary_server.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        self.app.cluster.close()

    def __enter__(self) -> "NetServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def build_server(
    model_dir,
    host: str = "127.0.0.1",
    port: int = 8585,
    binary_port: Optional[int] = -1,
    num_shards: int = 1,
    backend: str = "network",
    queue_capacity: int = 8,
    overload_policy: str = "block",
    **cluster_overrides,
) -> NetServer:
    """Assemble cluster + servers (the ``repro serve`` recipe)."""
    cluster = EstimationCluster(
        ClusterConfig(
            num_shards=num_shards,
            model_dir=model_dir,
            backend=backend,
            queue_capacity=queue_capacity,
            overload_policy=overload_policy,
            **cluster_overrides,
        )
    )
    return NetServer(ServeApp(cluster), host=host, port=port, binary_port=binary_port)
