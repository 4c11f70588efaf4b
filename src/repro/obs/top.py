"""``repro top`` — a live terminal dashboard over a running ``repro serve``.

The renderer is a pure function from two ``/stats`` payloads (current and
previous poll) to a block of text, so tests exercise it without a terminal
or a server; rates are the :meth:`~repro.obs.MetricsSnapshot.delta` of the
two payloads' ``"metrics"`` snapshots.  :func:`run_top` is the thin polling
loop around it that repaints with ANSI home+clear each interval.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from .metrics import MetricsSnapshot

_CLEAR = "\x1b[H\x1b[2J"


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _fmt_ms(value: Any) -> str:
    try:
        return f"{float(value):8.2f}"
    except (TypeError, ValueError):
        return "       -"


def render_dashboard(
    stats: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    interval: float = 1.0,
) -> str:
    """One frame of the dashboard from a ``/stats`` payload (and the last)."""
    cluster = stats.get("cluster", {})
    per_shard = cluster.get("per_shard", [])
    queue_capacity = max(int(cluster.get("queue_capacity", 1)), 1)
    lines: List[str] = []

    delta = None
    if previous and interval > 0:
        delta = MetricsSnapshot.from_dict(stats.get("metrics", {})).delta(
            MetricsSnapshot.from_dict(previous.get("metrics", {}))
        )

    def rate(name: str, **labels: Any) -> float:
        return delta.total(name, **labels) / interval if delta is not None else 0.0

    uptime = stats.get("uptime_seconds", 0.0)
    req_s = rate("repro_cluster_requests_total")
    shed_s = rate("repro_cluster_shed_requests_total")
    lines.append(
        f"repro top · up {uptime:7.1f}s · shards {cluster.get('num_shards', '?')} "
        f"· backend {cluster.get('backend', '?')} · policy {cluster.get('overload_policy', '?')}"
    )
    lines.append(
        f"traffic    {req_s:9.1f} req/s   shed {shed_s:7.1f}/s   "
        f"total {cluster.get('total_requests', 0):>10} req  "
        f"{cluster.get('total_updates', 0):>8} upd"
    )
    lines.append("")

    lines.append(
        "shard      queue            depth/max   req/s     p50 ms   p95 ms   p99 ms  cache"
    )
    for shard in per_shard:
        latency = shard.get("latency", {})
        cache = shard.get("worker", {}).get("cache", {})
        depth = shard.get("queue_depth", 0)
        shard_rate = rate("repro_cluster_requests_total", shard=shard.get("shard"))
        hit_rate = cache.get("hit_rate")
        hit_text = f"{hit_rate:5.1%}" if isinstance(hit_rate, (int, float)) else "    -"
        lines.append(
            f"  {shard.get('shard', '?'):>4}  [{_bar(depth / queue_capacity)}]  "
            f"{depth:>3}/{shard.get('max_queue_depth', 0):<3}  "
            f"{shard_rate:8.1f}  "
            f"{_fmt_ms(latency.get('p50_ms'))} {_fmt_ms(latency.get('p95_ms'))} "
            f"{_fmt_ms(latency.get('p99_ms'))}  {hit_text}"
        )
    if not per_shard:
        lines.append("  (no shard data)")
    lines.append("")

    layers = stats.get("layers")
    if layers:
        lines.append("layer p99 (ms)")
        for name in sorted(layers):
            data = layers[name]
            lines.append(
                f"  {name:<24} {_fmt_ms(data.get('p99_ms'))}  "
                f"({int(data.get('count', 0))} obs)"
            )
        lines.append("")

    endpoints = stats.get("endpoints", {})
    if endpoints:
        summary = "  ".join(f"{name}={count}" for name, count in sorted(endpoints.items()))
        lines.append(f"endpoints  {summary}")
    return "\n".join(lines) + "\n"


def fetch_stats(base_url: str, timeout: float = 5.0) -> Dict[str, Any]:
    import urllib.request

    request = urllib.request.Request(base_url.rstrip("/") + "/stats")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def run_top(
    base_url: str,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    write=None,
) -> int:
    """Poll ``/stats`` and repaint until interrupted (or ``iterations`` polls,
    failed ones included, have run).

    Returns the number of frames drawn; ``write`` defaults to stdout and is
    injectable for tests.
    """
    import sys

    emit = write if write is not None else sys.stdout.write
    previous: Optional[Dict[str, Any]] = None
    frames = polls = 0
    try:
        while iterations is None or polls < iterations:
            if polls:
                time.sleep(interval)
            polls += 1
            try:
                stats = fetch_stats(base_url)
            except Exception as error:  # noqa: BLE001 - keep polling through blips
                emit(f"{_CLEAR}repro top · {base_url} unreachable: {error}\n")
                continue
            emit(_CLEAR + render_dashboard(stats, previous, interval))
            previous = stats
            frames += 1
    except KeyboardInterrupt:
        pass
    return frames


__all__ = ["render_dashboard", "fetch_stats", "run_top"]
