"""Length-prefixed binary wire protocol for the estimation service.

Every message is one *frame*::

    +--------+--------+----------------------+
    | magic  | length |       payload        |
    | 2 B    | u32 BE |     `length` bytes   |
    +--------+--------+----------------------+

with ``magic = b"SE"`` guarding against a stray HTTP client on the binary
port.  The payload starts with a one-byte opcode; numeric batch data
travels as raw little-endian float64 — no pickling on the wire, and the
arrays a server reads out of a request frame are the exact bytes the client
wrote (so a network round trip is bit-identical to an in-process call).

Request payloads
----------------
``OP_ESTIMATE``
    ``u8 op | u8 flags | u16 model_len | model utf-8 | u32 n | u32 dim |
    n*dim f64 queries | n f64 thresholds [| trace utf-8]`` — flags bit 0 =
    use_cache, flags bit 1 = a trace ID is appended *after* the thresholds
    (at the end so every pre-trace offset parses unchanged; a server that
    does not know the flag still reads the batch correctly).  Any other
    flag bit is refused.
``OP_STATS`` / ``OP_MODELS`` / ``OP_RELOAD`` / ``OP_PING``
    ``u8 op`` alone.

Response payloads
-----------------
``STATUS_OK`` for an estimate: ``u8 status | u32 n | n f64 results``.
``STATUS_OK_JSON`` for control operations: ``u8 status | utf-8 JSON``.
``STATUS_ERROR``: ``u8 status | u16 kind_len | kind utf-8 | utf-8 message``
(``kind`` is the exception class name, e.g. ``ClusterOverloadedError``, so
clients can re-raise shed errors as the right type).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

import numpy as np

MAGIC = b"SE"
MAX_FRAME_BYTES = 64 * 1024 * 1024  # refuse absurd lengths before allocating

OP_ESTIMATE = 1
OP_STATS = 2
OP_MODELS = 3
OP_RELOAD = 4
OP_PING = 5

STATUS_OK = 0
STATUS_OK_JSON = 1
STATUS_ERROR = 2

FLAG_USE_CACHE = 1
FLAG_TRACE = 2
_KNOWN_FLAGS = FLAG_USE_CACHE | FLAG_TRACE

#: trace IDs are 16 hex chars; cap defensively against garbage flags
MAX_TRACE_BYTES = 64

_HEADER = struct.Struct(">2sI")
_F64 = np.dtype("<f8")


class ProtocolError(RuntimeError):
    """Malformed frame, wrong magic or truncated stream."""


class RemoteError(RuntimeError):
    """A server-side failure relayed through a ``STATUS_ERROR`` frame."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}" if kind else message)
        self.kind = kind


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #
def write_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(MAGIC, len(payload)) + payload)


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    chunks = []
    remaining = nbytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(f"connection closed {remaining} bytes short of a frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[bytes]:
    """The next frame's payload, or ``None`` on a clean EOF between frames."""
    header = b""
    while len(header) < _HEADER.size:
        chunk = sock.recv(_HEADER.size - len(header))
        if not chunk:
            if header:
                raise ProtocolError("connection closed mid-header")
            return None
        header += chunk
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit {MAX_FRAME_BYTES}")
    return _recv_exact(sock, length)


# ---------------------------------------------------------------------- #
# Requests
# ---------------------------------------------------------------------- #
def pack_estimate_request(
    model: str,
    queries: np.ndarray,
    thresholds: np.ndarray,
    use_cache: bool = True,
    trace_id: Optional[str] = None,
) -> bytes:
    queries = np.ascontiguousarray(queries, dtype=_F64)
    thresholds = np.ascontiguousarray(thresholds, dtype=_F64)
    if queries.ndim != 2 or thresholds.ndim != 1 or len(queries) != len(thresholds):
        raise ValueError(
            f"expected aligned (n, dim) queries and (n,) thresholds, got "
            f"{queries.shape} and {thresholds.shape}"
        )
    name = model.encode("utf-8")
    n, dim = queries.shape
    flags = FLAG_USE_CACHE if use_cache else 0
    trailer = b""
    if trace_id:
        trailer = trace_id.encode("utf-8")
        if len(trailer) > MAX_TRACE_BYTES:
            raise ValueError(f"trace id longer than {MAX_TRACE_BYTES} bytes")
        flags |= FLAG_TRACE
    head = struct.pack(">BBH", OP_ESTIMATE, flags, len(name))
    shape = struct.pack(">II", n, dim)
    return head + name + shape + queries.tobytes() + thresholds.tobytes() + trailer


def pack_control_request(op: int) -> bytes:
    if op not in (OP_STATS, OP_MODELS, OP_RELOAD, OP_PING):
        raise ValueError(f"not a control opcode: {op}")
    return struct.pack(">B", op)


def _decode_text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolError(f"{what} is not valid UTF-8: {error}") from None


def parse_request(payload: bytes) -> Tuple[int, Optional[Dict[str, Any]]]:
    """Decode a request frame into ``(opcode, fields)`` (server side).

    Raises :class:`ProtocolError` for every malformed estimate frame.
    """
    if not payload:
        raise ProtocolError("empty request payload")
    op = payload[0]
    if op != OP_ESTIMATE:
        return op, None
    if len(payload) < 4:
        raise ProtocolError("truncated estimate header")
    _, flags, model_len = struct.unpack_from(">BBH", payload, 0)
    if flags & ~_KNOWN_FLAGS:
        raise ProtocolError(f"unknown estimate flag bits {flags & ~_KNOWN_FLAGS:#04x}")
    offset = 4 + model_len
    if len(payload) < offset + 8:
        raise ProtocolError(
            f"estimate frame of {len(payload)} bytes ends inside its model name or shape"
        )
    model = _decode_text(payload[4:offset], "model name")
    n, dim = struct.unpack_from(">II", payload, offset)
    offset += 8
    q_bytes = n * dim * _F64.itemsize
    expected = offset + q_bytes + n * _F64.itemsize
    trace: Optional[str] = None
    if flags & FLAG_TRACE:
        trailer = payload[expected:]
        if not trailer or len(trailer) > MAX_TRACE_BYTES:
            raise ProtocolError(
                f"trace flag set but trailer is {len(trailer)} bytes"
            )
        trace = _decode_text(trailer, "trace id")
    elif len(payload) != expected:
        raise ProtocolError(
            f"estimate frame is {len(payload)} bytes, expected {expected}"
        )
    queries = np.frombuffer(payload, dtype=_F64, count=n * dim, offset=offset).reshape(n, dim)
    thresholds = np.frombuffer(payload, dtype=_F64, count=n, offset=offset + q_bytes)
    return op, {
        "model": model,
        "queries": queries,
        "thresholds": thresholds,
        "use_cache": bool(flags & FLAG_USE_CACHE),
        "trace": trace,
    }


# ---------------------------------------------------------------------- #
# Responses
# ---------------------------------------------------------------------- #
def pack_results_response(results: np.ndarray) -> bytes:
    results = np.ascontiguousarray(results, dtype=_F64)
    return struct.pack(">BI", STATUS_OK, len(results)) + results.tobytes()


def pack_json_response(value: Any) -> bytes:
    return struct.pack(">B", STATUS_OK_JSON) + json.dumps(value).encode("utf-8")


def pack_error_response(error: BaseException) -> bytes:
    kind = type(error).__name__.encode("utf-8")
    message = str(error).encode("utf-8")
    return struct.pack(">BH", STATUS_ERROR, len(kind)) + kind + message


def parse_response(payload: bytes) -> Any:
    """Decode a response frame (client side); raises :class:`RemoteError`."""
    if not payload:
        raise ProtocolError("empty response payload")
    status = payload[0]
    if status == STATUS_OK:
        (n,) = struct.unpack_from(">I", payload, 1)
        return np.frombuffer(payload, dtype=_F64, count=n, offset=5).copy()
    if status == STATUS_OK_JSON:
        return json.loads(payload[1:].decode("utf-8"))
    if status == STATUS_ERROR:
        (kind_len,) = struct.unpack_from(">H", payload, 1)
        kind = payload[3 : 3 + kind_len].decode("utf-8")
        message = payload[3 + kind_len :].decode("utf-8")
        raise RemoteError(kind, message)
    raise ProtocolError(f"unknown response status {status}")
