"""Open-loop saturation benchmarking of the network serving tier.

``repro saturate`` stands up a real :class:`~repro.net.server.NetServer`
(binary transport, loopback TCP) per scenario and sweeps *offered* load
against it: batches are dispatched on a fixed wall-clock schedule —
independent of how fast the server answers, which is what makes the loop
*open* — by a pool of sender threads each holding its own persistent
:class:`~repro.net.client.BinaryClient` connection.  For every offered rate
the sweep records the *achieved* rate, batch-latency percentiles and shed
counts; the **knee** of a scenario is the highest offered rate the tier
still sustains (achieved ≥ ``KNEE_EFFICIENCY`` × offered).  Results land in
``BENCH_net.json``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..cluster import ClusterOverloadedError
from ..obs import trace as obstrace
from .client import BinaryClient
from .server import build_server

#: a load point "sustains" its offered rate when achieved/offered is ≥ this
KNEE_EFFICIENCY = 0.9


@dataclass(frozen=True)
class SaturationScenario:
    """One serving configuration to sweep offered load against."""

    name: str
    backend: str = "network"
    num_shards: int = 1
    queue_capacity: int = 8
    overload_policy: str = "block"


@dataclass
class LoadPoint:
    """Measurements at one offered rate."""

    offered_rps: float
    achieved_rps: float
    batches_sent: int
    batches_completed: int
    batches_shed: int
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float


@dataclass
class SaturationReport:
    """One scenario's full sweep (JSON-able via :func:`dataclasses.asdict`)."""

    scenario: str
    backend: str
    num_shards: int
    batch_size: int
    connections: int
    points: List[LoadPoint] = field(default_factory=list)
    knee_rps: float = 0.0
    peak_achieved_rps: float = 0.0

    @property
    def text(self) -> str:
        lines = [
            f"saturate: scenario={self.scenario} backend={self.backend} "
            f"shards={self.num_shards} batch={self.batch_size} "
            f"connections={self.connections}",
            f"  knee: {self.knee_rps:,.0f} requests/s sustained "
            f"(peak achieved {self.peak_achieved_rps:,.0f} r/s)",
        ]
        for point in self.points:
            lines.append(
                f"  offered {point.offered_rps:>9,.0f} r/s -> achieved "
                f"{point.achieved_rps:>9,.0f} r/s  p99 {point.p99_latency_ms:7.1f} ms  "
                f"shed {point.batches_shed}"
            )
        return "\n".join(lines)


def _drive_load(
    address: Tuple[str, int],
    model: str,
    queries: np.ndarray,
    thresholds: np.ndarray,
    offered_rps: float,
    duration_seconds: float,
    batch_size: int,
    connections: int,
    seed: int,
) -> Dict[str, Any]:
    """Send batches at a fixed schedule; measure what actually completes."""
    total_batches = max(int(offered_rps * duration_seconds / batch_size), 1)
    interval = batch_size / offered_rps
    pool = len(thresholds)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, pool, size=(total_batches, batch_size))

    cursor_lock = threading.Lock()
    cursor = [0]
    latencies: List[float] = []
    completed = [0]
    shed = [0]
    record_lock = threading.Lock()
    start = time.perf_counter()

    def _sender() -> None:
        # When `repro saturate --trace-out` configured a sink, every batch
        # gets a trace ID: the sender's client.request span and the server
        # and worker-side spans all land in the same JSONL file.
        client = BinaryClient(address[0], address[1], trace=obstrace.tracing_enabled())
        try:
            while True:
                with cursor_lock:
                    index = cursor[0]
                    if index >= total_batches:
                        return
                    cursor[0] += 1
                # Open loop: wait for this batch's scheduled send time (a
                # server falling behind just means the wait is already over).
                delay = start + index * interval - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                rows = picks[index]
                tick = time.perf_counter()
                try:
                    client.estimate(model, queries[rows], thresholds[rows])
                except ClusterOverloadedError:
                    with record_lock:
                        shed[0] += 1
                    continue
                latency = 1000.0 * (time.perf_counter() - tick)
                with record_lock:
                    latencies.append(latency)
                    completed[0] += 1
        finally:
            client.close()

    threads = [threading.Thread(target=_sender, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # The schedule sends its last batch (total - 1) intervals after the
    # first, so a tier that keeps up finishes before total intervals pass:
    # dividing by that span would overstate the achieved rate.
    elapsed = max(time.perf_counter() - start, total_batches * interval)

    array = np.asarray(latencies) if latencies else np.zeros(1)
    return {
        "offered_rps": offered_rps,
        "achieved_rps": completed[0] * batch_size / elapsed,
        "batches_sent": total_batches,
        "batches_completed": completed[0],
        "batches_shed": shed[0],
        "mean_latency_ms": float(array.mean()),
        "p50_latency_ms": float(np.percentile(array, 50)),
        "p95_latency_ms": float(np.percentile(array, 95)),
        "p99_latency_ms": float(np.percentile(array, 99)),
    }


def run_saturation_benchmark(
    scenario: SaturationScenario,
    model: str,
    queries: np.ndarray,
    thresholds: np.ndarray,
    estimator=None,
    model_dir=None,
    offered_loads: Sequence[float] = (250.0, 1000.0, 4000.0, 16000.0),
    duration_seconds: float = 2.0,
    batch_size: int = 32,
    connections: int = 4,
    seed: int = 0,
) -> SaturationReport:
    """Sweep offered load against one freshly built serving tier.

    The model comes either from ``model_dir`` (shards warm it at spawn) or
    as an in-memory ``estimator`` replicated to every shard.  Each offered
    rate gets ``duration_seconds`` of scheduled traffic after a small
    warm-up burst (so the first point does not pay cache/model cold starts).
    """
    server = build_server(
        model_dir,
        host="127.0.0.1",
        port=0,
        binary_port=0,
        num_shards=scenario.num_shards,
        backend=scenario.backend,
        queue_capacity=scenario.queue_capacity,
        overload_policy=scenario.overload_policy,
    )
    report = SaturationReport(
        scenario=scenario.name,
        backend=scenario.backend,
        num_shards=scenario.num_shards,
        batch_size=batch_size,
        connections=connections,
    )
    with server:
        if estimator is not None:
            server.app.cluster.add_model(model, estimator)
        address = server.binary_address
        assert address is not None
        # Warm-up: fill curve caches / compiled kernels off the clock.
        warm = BinaryClient(address[0], address[1])
        try:
            for _ in range(4):
                warm.estimate(model, queries[:batch_size], thresholds[:batch_size])
        finally:
            warm.close()
        for offered in offered_loads:
            point = _drive_load(
                address,
                model,
                queries,
                thresholds,
                offered_rps=float(offered),
                duration_seconds=duration_seconds,
                batch_size=batch_size,
                connections=connections,
                seed=seed,
            )
            report.points.append(LoadPoint(**point))
    sustained = [
        p.offered_rps for p in report.points
        if p.achieved_rps >= KNEE_EFFICIENCY * p.offered_rps
    ]
    report.peak_achieved_rps = max((p.achieved_rps for p in report.points), default=0.0)
    # Past the knee the tier saturates: offered load keeps rising but the
    # achieved rate flattens at (roughly) the peak.
    report.knee_rps = max(sustained) if sustained else report.peak_achieved_rps
    return report


def report_as_dict(report: SaturationReport) -> Dict[str, Any]:
    return asdict(report)
