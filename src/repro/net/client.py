"""Clients for the two serving transports.

:class:`BinaryClient` speaks the length-prefixed frames of
:mod:`repro.net.protocol` over one persistent TCP connection (raw float64
batches, no JSON in the hot path) — estimation answers come back as NumPy
arrays bit-identical to an in-process cluster call.  :class:`HttpClient`
wraps the JSON endpoints with :mod:`urllib` — zero dependencies, handy for
scripts and the CI smoke test.

Server-side shed decisions survive the wire: a ``STATUS_ERROR`` frame (or
HTTP 503 body) naming :class:`~repro.cluster.ClusterOverloadedError` is
re-raised as that type, so a remote caller's backoff logic is identical to
a local caller's.

Both clients participate in request tracing: ``estimate(..., trace_id=...)``
ships the ID to the server (binary frame field / ``X-Repro-Trace-Id``
header), and constructing a client with ``trace=True`` mints a fresh ID per
request and wraps the round-trip in a ``client.request`` span.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..cluster import ClusterOverloadedError
from ..obs import trace as obstrace
from . import protocol


def _reraise_remote(error: protocol.RemoteError) -> BaseException:
    if error.kind == "ClusterOverloadedError":
        return ClusterOverloadedError(str(error))
    if error.kind == "KeyError":
        return KeyError(str(error))
    return error


class BinaryClient:
    """One persistent binary-protocol connection (thread-safe, serial)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        trace: bool = False,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()
        self.trace = trace

    def _roundtrip(self, request: bytes) -> Any:
        with self._lock:
            protocol.write_frame(self._sock, request)
            payload = protocol.read_frame(self._sock)
        if payload is None:
            raise protocol.ProtocolError("server closed the connection")
        try:
            return protocol.parse_response(payload)
        except protocol.RemoteError as error:
            raise _reraise_remote(error) from None

    # ------------------------------------------------------------------ #
    def estimate(
        self,
        model: str,
        queries: np.ndarray,
        thresholds: np.ndarray,
        use_cache: bool = True,
        trace_id: Optional[str] = None,
    ) -> np.ndarray:
        if trace_id is None and self.trace:
            trace_id = obstrace.new_trace_id()
        with obstrace.span(
            "client.request", trace_id=trace_id, transport="binary", model=model
        ):
            return self._roundtrip(
                protocol.pack_estimate_request(
                    model, queries, thresholds, use_cache, trace_id=trace_id
                )
            )

    def stats(self) -> Dict[str, Any]:
        return self._roundtrip(protocol.pack_control_request(protocol.OP_STATS))

    def models(self) -> Dict[str, Any]:
        return self._roundtrip(protocol.pack_control_request(protocol.OP_MODELS))

    def reload_models(self) -> Dict[str, Any]:
        return self._roundtrip(protocol.pack_control_request(protocol.OP_RELOAD))

    def ping(self) -> Dict[str, Any]:
        return self._roundtrip(protocol.pack_control_request(protocol.OP_PING))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "BinaryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class HttpClient:
    """JSON endpoints over :mod:`urllib` (no third-party HTTP stack)."""

    def __init__(
        self, host: str, port: int, timeout: float = 30.0, trace: bool = False
    ) -> None:
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        self.trace = trace

    def _request(
        self,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> Any:
        import urllib.error
        import urllib.request

        url = self.base_url + path
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if trace_id:
            headers[obstrace.TRACE_HEADER] = trace_id
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                detail = json.loads(error.read().decode("utf-8"))
            except Exception:
                raise error from None
            kind = detail.get("error", "")
            message = detail.get("message", "")
            if kind == "ClusterOverloadedError":
                raise ClusterOverloadedError(message) from None
            if kind == "KeyError":
                raise KeyError(message) from None
            raise RuntimeError(f"HTTP {error.code} {kind}: {message}") from None

    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, Any]:
        return self._request("/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("/stats")

    def models(self) -> Dict[str, Any]:
        return self._request("/models")

    def metrics_text(self) -> str:
        """The raw Prometheus text from ``GET /metrics``."""
        import urllib.request

        request = urllib.request.Request(self.base_url + "/metrics")
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read().decode("utf-8")

    def reload_models(self) -> Dict[str, Any]:
        return self._request("/models/reload", body={})

    def estimate(
        self,
        model: str,
        queries: np.ndarray,
        thresholds: np.ndarray,
        use_cache: bool = True,
        trace_id: Optional[str] = None,
    ) -> np.ndarray:
        if trace_id is None and self.trace:
            trace_id = obstrace.new_trace_id()
        body = {
            "model": model,
            "queries": np.asarray(queries, dtype=np.float64).tolist(),
            "thresholds": np.asarray(thresholds, dtype=np.float64).tolist(),
            "use_cache": use_cache,
        }
        with obstrace.span(
            "client.request", trace_id=trace_id, transport="http", model=model
        ):
            response = self._request("/estimate", body=body, trace_id=trace_id)
        return np.asarray(response["results"], dtype=np.float64)

    def update(
        self,
        model: str,
        inserts: Optional[np.ndarray] = None,
        deletes: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"model": model}
        if inserts is not None:
            body["inserts"] = np.asarray(inserts, dtype=np.float64).tolist()
        if deletes is not None:
            body["deletes"] = list(deletes)
        return self._request("/update", body=body)
