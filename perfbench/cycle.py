"""One cycle of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per cycle::

    python3 perfbench/cycle.py WORKLOAD --seed N --seconds S \
        --spawned-at MONOTONIC --work-dir DIR [--trace] [--tiny]

A cycle sets up its workload, runs the timed window, checks the outputs and
prints one JSON object as the last line of its standard output. Setup time
runs from the moment ``run.py`` spawned the interpreter, so start-up and
``import repro`` count. With ``--trace`` the public functions named in
:mod:`tracer` are wrapped and the cycle also reports per-layer numbers.

The program is driven only through its public entry points:
``build_workload_split``, ``create_estimator(...).fit/estimate/save``,
``repro serve`` with ``BinaryClient``, and ``EstimationService``. The exact
oracles serve the output checks.
"""

from __future__ import annotations

import os

# Before NumPy loads: one BLAS thread, in this process and in every process
# it starts (the server and its shard inherit the environment).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import copy
import ctypes
import gc
import json
import platform
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro import build_workload_split, create_estimator
from repro.data import Dataset
from repro.exact import BlockedOracle, DeltaOracle
from repro.net.client import BinaryClient
from repro.serving import EstimationService

import inputs
import tracer

#: Workload sizes; ``tiny`` is the smoke-test size.
PROFILES = {
    "full": {
        "num_vectors": 2500,
        "dim": 20,
        "thresholds_per_query": 24,
        # database rows sampled as held-out queries (less any the training
        # workload also sampled)
        "held_out_queries": 560,
        # Many training queries for few epochs keep the held-out q-error
        # steady across seeds: for the same number of steps, half as many
        # queries for twice the epochs spread its p95 two to three times
        # wider over ten seeds.
        "build": {"queries": 320, "epochs": 3, "pretrain_epochs": 2, "ae_pretrain_epochs": 3},
        # With one epoch fewer, the served q-error p95 of one model each for
        # ten seeds spread 0.38 (quartiles over median) instead of 0.15.
        "serve": {"queries": 320, "epochs": 2, "pretrain_epochs": 1, "ae_pretrain_epochs": 3},
        # A fit shorter than about 2 s follows the host's switches between a
        # fast and a slow state: with 160 queries (1.3 s) the update cycles'
        # fit times ranged 1.15-1.72 s within single runs.
        "update": {"queries": 320, "epochs": 5, "ae_pretrain_epochs": 3},
        # distinct queries requested; the shard's curve cache holds 256
        "serve_queries": 384,
        "read_queries": 128,
        "operations": 100,
    },
    "tiny": {
        "num_vectors": 400,
        "dim": 8,
        "thresholds_per_query": 8,
        "held_out_queries": 40,
        "build": {"queries": 20, "epochs": 1, "pretrain_epochs": 1, "ae_pretrain_epochs": 1},
        "serve": {"queries": 20, "epochs": 1, "pretrain_epochs": 1, "ae_pretrain_epochs": 1},
        "update": {"queries": 20, "epochs": 1, "ae_pretrain_epochs": 1},
        "serve_queries": 24,
        "read_queries": 16,
        "operations": 6,
    },
}

#: Rows per estimate call, in every workload.
BATCH_ROWS = 32
#: Window work per ``--seconds``: passes of the built model over the
#: held-out rows, serve requests and update-stream passes (the fit is fixed).
#: The work is fixed for a given ``--seconds``, so work counts repeat across
#: runs. At 15 s every cycle makes at least 1000 calls, so at least ten lie
#: beyond its own p99.
BUILD_PASSES_PER_SECOND = 0.2
SERVE_REQUESTS_PER_SECOND = 80
#: Each update pass applies the whole stream to a fresh copy of the fitted
#: model.
UPDATE_PASSES_PER_SECOND = 0.2
#: Consistency check: probe queries x an increasing threshold grid.
PROBE_QUERIES = 8
PROBE_THRESHOLDS = 32
#: Monotonicity tolerance, as in ``repro.eval.metrics.empirical_monotonicity``.
MONOTONE_TOLERANCE = 1e-9
#: Client timeout; a failed call counts with at least this latency.
CALL_TIMEOUT_S = 30.0
SERVE_MODEL = "perfbench-selnet"
UPDATE_MODEL = "perfbench-selnet-inc"


class Cycle:
    """Arguments, profile, window clock and (when traced) the span recorder."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.seed = args.seed
        self.profile = PROFILES["tiny" if args.tiny else "full"]
        self.width = self.profile["thresholds_per_query"]
        self.work_dir = Path(args.work_dir)
        self.recorder = tracer.Recorder() if args.trace else None
        if self.recorder is not None:
            tracer.install(self.recorder)
        self.result: Dict[str, object] = {"attempted": 0, "failed": 0, "errors": [], "checks": {}}
        self._window_start = 0.0

    def span(self, name: str):
        """A root span in traced cycles; nothing otherwise."""
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    def start_window(self) -> None:
        gc.collect()
        now = time.monotonic()
        self.result["setup_s"] = now - self.args.spawned_at
        self._window_start = now

    def end_window(self) -> None:
        self.result["window_s"] = time.monotonic() - self._window_start

    def report_latencies(self, calls: List[float], tail: List[float]) -> None:
        """Mean over every call the caller waited on; p99 over the ``tail`` calls."""
        self.result["latency_mean_ms"] = float(np.mean(calls))
        self.result["latency_p99_ms"] = float(np.percentile(tail, 99))

    def timed_call(self, latencies: List[float], root: str, call):
        """Run one operation of the window; a raising call is a failed one."""
        self.result["attempted"] += 1
        start = time.perf_counter()
        try:
            with self.span(root):
                value = call()
        except Exception as error:  # refused, timed out or raised: count it, go on
            latencies.append(1000.0 * max(time.perf_counter() - start, CALL_TIMEOUT_S))
            self.result["failed"] += 1
            self.result["errors"].append(f"{root}: {type(error).__name__}: {error}")
            return None
        latencies.append(1000.0 * (time.perf_counter() - start))
        return value

    def dataset(self) -> Dataset:
        vectors = inputs.clustered_unit_vectors(
            self.seed, self.profile["num_vectors"], self.profile["dim"]
        )
        return Dataset(name="perfbench-face", vectors=vectors, distances=("cosine",))

    def label(self, dataset: Dataset, num_queries: int, seed: int):
        return build_workload_split(
            dataset,
            "cosine",
            num_queries=num_queries,
            thresholds_per_query=self.width,
            max_selectivity_fraction=0.25,
            seed=seed,
        )

    def build(self, dataset: Dataset, estimator_name: str, **params):
        """Label a training workload and fit on it: the timed ``build_s``."""
        start = time.perf_counter()
        with self.span("build"):
            split = self.label(dataset, params.pop("queries"), self.seed)
            estimator = create_estimator(estimator_name, seed=self.seed, **params).fit(split)
        self.result["build_s"] = time.perf_counter() - start
        return split, estimator


class HeldOut:
    """Labeled queries the model never trained on.

    ``queries`` is ``(Q, dim)``; ``thresholds`` and ``truth`` are ``(Q, w)``,
    the thresholds increasing along each row.
    """

    def __init__(self, labeled, split, width: int) -> None:
        parts = [labeled.train, labeled.validation, labeled.test]
        queries = np.concatenate([part.queries[::width] for part in parts])
        seen = {
            row.tobytes()
            for part in (split.train, split.validation, split.test)
            for row in part.queries[::width]
        }
        keep = np.array([row.tobytes() not in seen for row in queries])
        self.queries = queries[keep]
        self.thresholds = np.concatenate([p.thresholds.reshape(-1, width) for p in parts])[keep]
        self.truth = np.concatenate([p.selectivities.reshape(-1, width) for p in parts])[keep]
        self.t_max = split.t_max

    def rows(self, query_index: np.ndarray, threshold_index: np.ndarray):
        return self.queries[query_index], self.thresholds[query_index, threshold_index]

    def all_rows(self):
        width = self.thresholds.shape[1]
        return np.repeat(self.queries, width, axis=0), self.thresholds.reshape(-1)

    def probes(self, seed: int):
        """Probe queries and the increasing threshold grid of the consistency check."""
        chosen = inputs.probe_queries(seed, len(self.queries), PROBE_QUERIES)
        grid = np.linspace(0.0, self.t_max, PROBE_THRESHOLDS)
        probes = self.queries[chosen]
        return np.repeat(probes, len(grid), axis=0), np.tile(grid, len(probes)), len(probes)


def q_error_percentiles(estimates: np.ndarray, truth: np.ndarray) -> Dict[str, float]:
    """q-error with both sides floored at one count, at p50 and p95."""
    estimates = np.maximum(np.asarray(estimates, dtype=np.float64), 1.0)
    truth = np.maximum(np.asarray(truth, dtype=np.float64), 1.0)
    errors = np.maximum(estimates / truth, truth / estimates)
    return {
        "q_error_p50": float(np.percentile(errors, 50)),
        "q_error_p95": float(np.percentile(errors, 95)),
    }


def is_monotone(values: np.ndarray, num_probes: int) -> bool:
    """Finite, and non-decreasing along each probe's threshold grid."""
    curves = np.asarray(values, dtype=np.float64).reshape(num_probes, -1)
    return bool(
        np.all(np.isfinite(curves)) and np.all(np.diff(curves, axis=1) >= -MONOTONE_TOLERANCE)
    )


def valid_answers(values) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0.0))


def training_counts(estimator, split) -> Dict[str, int]:
    """SelNet training steps and epochs, from the fit's loss history."""
    history = estimator.history
    batches = -(-len(split.train) // estimator.config.batch_size)
    epochs = len(history.pretrain_loss) + len(history.train_loss)
    return {"train.steps": epochs * batches, "train.epochs": epochs}


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (VmHWM) of ``pids``, from ``/proc``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                total_kb += sum(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
        except OSError:
            continue
    return total_kb / 1024.0


def descendants(pid: int) -> List[int]:
    found: List[int] = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as handle:
                    children = [int(child) for child in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            pending.extend(children)
    return found


def is_running(pid: int) -> bool:
    """False once ``pid`` has exited (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def machine_record() -> Dict[str, object]:
    from repro.exact.blocked import get_default_num_workers

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "oracle_workers": get_default_num_workers(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
        libraries = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", handle.read())))
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


# ---------------------------------------------------------------------- #
# build: a cold build of the full SelNet, then its evaluation calls
# ---------------------------------------------------------------------- #
def run_build(cycle: Cycle) -> None:
    result = cycle.result
    with cycle.span("setup"):
        dataset = cycle.dataset()
        labeled = cycle.label(dataset, cycle.profile["held_out_queries"], cycle.seed + 1)

    cycle.start_window()
    result["attempted"] += 1
    split, estimator = cycle.build(dataset, "selnet", num_partitions=3, **cycle.profile["build"])
    held = HeldOut(labeled, split, cycle.width)
    queries, thresholds = held.all_rows()
    latencies: List[float] = []
    estimates = np.empty(len(thresholds))
    for _ in range(max(1, round(cycle.args.seconds * BUILD_PASSES_PER_SECOND))):
        for start in range(0, len(thresholds), BATCH_ROWS):
            rows = slice(start, start + BATCH_ROWS)
            answer = cycle.timed_call(
                latencies, "estimate", lambda: estimator.estimate(queries[rows], thresholds[rows])
            )
            estimates[rows] = np.nan if answer is None else answer
    cycle.end_window()

    with cycle.span("check"):
        cycle.report_latencies(latencies, latencies)
        result.update(q_error_percentiles(estimates, held.truth.reshape(-1)))
        probe_queries, grid, probes = held.probes(cycle.seed)
        result["checks"] = {
            "estimates_valid": valid_answers(estimates),
            "monotone_fitted_model": is_monotone(estimator.estimate(probe_queries, grid), probes),
        }
        result["counts"] = training_counts(estimator, split)
        result["peak_rss_mb"] = peak_rss_mb([os.getpid()])
    if cycle.recorder is not None:
        result["layers"] = training_layers(cycle.recorder)
        result["layers"]["build.unattributed_ms"] = 1000.0 * unattributed(cycle.recorder, "build")


def training_layers(recorder: tracer.Recorder) -> Dict[str, float]:
    """Labeling, partitioning, AE pretraining and per-step SelNet training
    time inside the ``build`` span."""
    layers = {
        metric: sum(recorder.duration(index) for index in recorder.within(name, "build"))
        for metric, name in (
            ("exact.label_s", "exact.label"),
            ("index.partition_s", "index.partition"),
            ("nn.ae_pretrain_s", "nn.ae_pretrain"),
        )
    }
    # Autoencoder pretraining steps count towards nn.ae_pretrain_s only.
    steps = {
        index
        for index in recorder.within("train.step", "build")
        if not recorder.has_ancestor(index, "nn.ae_pretrain")
    }
    parts = {"core.forward": 0.0, "autodiff.backward": 0.0, "nn.optimizer": 0.0}
    for index, span in enumerate(recorder.spans):
        if span[tracer.PARENT] in steps and span[tracer.NAME] in parts:
            parts[span[tracer.NAME]] += recorder.duration(index)
    step_total = sum(recorder.duration(index) for index in steps)
    count = max(len(steps), 1)
    layers.update(
        {
            "core.forward_ms": 1000.0 * parts["core.forward"] / count,
            "autodiff.backward_ms": 1000.0 * parts["autodiff.backward"] / count,
            "nn.optimizer_ms": 1000.0 * parts["nn.optimizer"] / count,
            "train.residual_ms": 1000.0 * (step_total - sum(parts.values())) / count,
            "train.steps": float(len(steps)),
        }
    )
    return layers


def unattributed(recorder: tracer.Recorder, *roots: str) -> float:
    """Mean over the root spans named ``roots`` of their time no child span covers."""
    kids = recorder.children()
    residuals = []
    for index in kids.get(-1, []):
        name, start, end, _ = recorder.spans[index]
        if name in roots:
            intervals = [
                (recorder.spans[child][tracer.START], recorder.spans[child][tracer.END])
                for child in kids.get(index, [])
            ]
            residuals.append(end - start - tracer.covered(intervals, start, end))
    return float(np.mean(residuals)) if residuals else 0.0


# ---------------------------------------------------------------------- #
# serve: `repro serve` with one network shard, one closed-loop caller
# ---------------------------------------------------------------------- #
class Server:
    """A `repro serve` process on ephemeral ports, stopped by SIGINT."""

    def __init__(self, model_dir: Path, trace_out: Optional[Path]) -> None:
        command = [
            sys.executable, "-m", "repro", "serve", str(model_dir),
            "--port", "0", "--binary-port", "0", "--shards", "1", "--backend", "network",
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.binary_port = self._wait_ready(timeout=120.0)

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_ready(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        port = None
        while True:
            line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            if line is None:
                raise RuntimeError(f"repro serve exited during start-up ({self.process.poll()})")
            if "binary protocol" in line:
                port = int(line.rsplit(":", 1)[1])
            elif "endpoints" in line:
                if port is None:
                    raise RuntimeError("repro serve reported no binary port")
                return port

    def pids(self) -> List[int]:
        return [self.process.pid] + descendants(self.process.pid)

    def stop(self) -> None:
        pids = self.pids()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        deadline = time.monotonic() + 15.0
        while any(is_running(pid) for pid in pids[1:]) and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in pids[1:]:
            if is_running(pid):
                os.kill(pid, signal.SIGKILL)
        self._reader.join(timeout=5.0)
        self.process.stdout.close()


def shard_counts(client: BinaryClient) -> Dict[str, int]:
    """Cache and curve counters of the served model, from `/stats`."""
    counts = {"serving.cache_hits": 0, "serving.cache_misses": 0, "serving.curve_builds": 0}
    for shard in client.stats()["cluster"]["per_shard"]:
        model = shard["worker"].get("per_model", {}).get(SERVE_MODEL, {})
        counts["serving.cache_hits"] += int(model.get("cache_hits", 0))
        counts["serving.cache_misses"] += int(model.get("cache_misses", 0))
        counts["serving.curve_builds"] += int(model.get("curve_builds", 0))
    return counts


def run_serve(cycle: Cycle) -> None:
    result = cycle.result
    num_requests = max(1, round(cycle.args.seconds * SERVE_REQUESTS_PER_SECOND))
    trace_out = cycle.work_dir / "serve-trace.jsonl" if cycle.recorder is not None else None
    server = client = None
    try:
        with cycle.span("setup"):
            dataset = cycle.dataset()
            split, estimator = cycle.build(
                dataset, "selnet", num_partitions=3, **cycle.profile["serve"]
            )
            labeled = cycle.label(dataset, cycle.profile["held_out_queries"], cycle.seed + 1)
            held = HeldOut(labeled, split, cycle.width)
            pool = min(cycle.profile["serve_queries"], len(held.queries))
            stream_queries, stream_thresholds = inputs.zipf_stream(
                cycle.seed, False, pool, cycle.width, num_requests, BATCH_ROWS
            )
            model_dir = cycle.work_dir / "models"
            estimator.save(model_dir / SERVE_MODEL)
            # One closed-loop caller gives the caller, the frontend and the
            # shard nothing to do at the same time, so all three share one
            # CPU (the server and its shard inherit the affinity). A hand-off
            # then never waits for an idle CPU to wake, a delay that follows
            # the host's load: in eight pairs of cycles on one input set,
            # alternating between the two, requests spread over both CPUs
            # averaged 5.5-8.7 ms with a p99 of 10-25 ms, on one CPU 3.2-5.2
            # ms with a p99 of 6.3-8.4 ms.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            server = Server(model_dir, trace_out)
            client = BinaryClient(
                "127.0.0.1", server.binary_port, timeout=CALL_TIMEOUT_S,
                trace=cycle.recorder is not None,
            )
            # The first request, kept out of the window: one query's thresholds.
            client.estimate(
                SERVE_MODEL, np.repeat(held.queries[:1], cycle.width, axis=0), held.thresholds[0]
            )
            before = shard_counts(client)

        cycle.start_window()
        latencies: List[float] = []
        valid = True
        for batch in range(num_requests):
            queries, thresholds = held.rows(stream_queries[batch], stream_thresholds[batch])
            answer = cycle.timed_call(
                latencies, "request", lambda: client.estimate(SERVE_MODEL, queries, thresholds)
            )
            if answer is None:
                # The connection may be mid-frame: start a fresh one.
                client.close()
                client = BinaryClient("127.0.0.1", server.binary_port, timeout=CALL_TIMEOUT_S)
                continue
            valid &= valid_answers(answer)
        cycle.end_window()

        with cycle.span("check"):
            after = shard_counts(client)
            result["peak_rss_mb"] = peak_rss_mb(server.pids())
            # Served (cached-curve) answers for every held-out row, not only
            # the rows the zipfian stream happened to pick.
            queries, thresholds = held.all_rows()
            chunk = BATCH_ROWS * cycle.width
            served = np.concatenate([
                client.estimate(SERVE_MODEL, queries[start:start + chunk], thresholds[start:start + chunk])
                for start in range(0, len(thresholds), chunk)
            ])
            valid &= valid_answers(served)
            result.update(q_error_percentiles(served, held.truth.reshape(-1)))
            probe_queries, grid, probes = held.probes(cycle.seed)
            result["checks"] = {
                "served_answers_valid": valid,
                **{
                    f"monotone_served_{'cached' if use_cache else 'uncached'}": is_monotone(
                        client.estimate(SERVE_MODEL, probe_queries, grid, use_cache=use_cache),
                        probes,
                    )
                    for use_cache in (True, False)
                },
            }
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()

    cycle.report_latencies(latencies, latencies)
    counts = {name: after[name] - before[name] for name in after}
    counts.update(training_counts(estimator, split))
    result["counts"] = counts
    if cycle.recorder is not None:
        layers = training_layers(cycle.recorder)
        layers.update(serve_layers(cycle.recorder, trace_out))
        hits, misses = counts["serving.cache_hits"], counts["serving.cache_misses"]
        layers["serving.cache_hit_ratio"] = hits / max(hits + misses, 1)
        result["layers"] = layers


#: Server- and shard-side spans of `repro serve --trace-out`, per layer metric.
SERVER_LAYERS = {
    "net.server_ms": ("server.estimate",),
    "cluster.admission_ms": ("cluster.admission",),
    "cluster.queue_wait_ms": ("cluster.queue_wait",),
    "net.transport_ms": ("transport.shm", "transport.pipe"),
    "serving.worker_ms": ("worker.estimate",),
    "serving.cache_lookup_ms": ("service.cache_lookup",),
    "inference.kernel_ms": ("service.kernel_execute",),
}


def serve_layers(recorder: tracer.Recorder, trace_out: Path) -> Dict[str, float]:
    """Per-request layer times: client spans joined to server spans by trace ID."""
    from repro.obs.trace import read_trace_file

    by_trace: Dict[str, Dict[str, float]] = {}
    for record in read_trace_file(str(trace_out)) if trace_out.is_file() else []:
        spans = by_trace.setdefault(record.get("trace_id"), {})
        spans[record["span"]] = spans.get(record["span"], 0.0) + float(record["wall_s"])
    roundtrips = recorder.within("net.roundtrip", "request")
    totals = dict.fromkeys(SERVER_LAYERS, 0.0)
    roundtrip_total = residual_total = 0.0
    for index in roundtrips:
        roundtrip = recorder.duration(index)
        spans = by_trace.get(recorder.attrs[index]["trace_id"], {})
        for metric, names in SERVER_LAYERS.items():
            totals[metric] += sum(spans.get(name, 0.0) for name in names)
        roundtrip_total += roundtrip
        # The server handler is the client span's only child.
        residual_total += roundtrip - spans.get("server.estimate", 0.0)
    count = max(len(roundtrips), 1)
    layers = {metric: 1000.0 * total / count for metric, total in totals.items()}
    layers["net.roundtrip_ms"] = 1000.0 * roundtrip_total / count
    layers["serve.unattributed_ms"] = 1000.0 * residual_total / count
    return layers


# ---------------------------------------------------------------------- #
# update: the Section 7.6 stream through an in-process EstimationService
# ---------------------------------------------------------------------- #
def run_update(cycle: Cycle) -> None:
    result = cycle.result
    num_passes = max(1, round(cycle.args.seconds * UPDATE_PASSES_PER_SECOND))
    with cycle.span("setup"):
        dataset = cycle.dataset()
        split, estimator = cycle.build(dataset, "selnet-inc", **cycle.profile["update"])
        labeled = cycle.label(dataset, cycle.profile["held_out_queries"], cycle.seed + 1)
        held = HeldOut(labeled, split, cycle.width)
        operations = inputs.update_stream(cycle.seed, dataset.vectors, cycle.profile["operations"])
        pool = min(cycle.profile["read_queries"], len(held.queries))
        stream_queries, stream_thresholds = inputs.zipf_stream(
            cycle.seed, True, pool, cycle.width,
            len(operations) * inputs.READ_BATCHES_PER_WRITE, BATCH_ROWS,
        )
        # Each pass applies the stream to its own copy of the fitted model,
        # behind its own service.
        services = []
        for _ in range(num_passes):
            service = EstimationService()
            service.add_model(UPDATE_MODEL, copy.deepcopy(estimator))
            # The first read, kept out of the window: compiles the kernel.
            service.estimate(
                UPDATE_MODEL, np.repeat(held.queries[:1], cycle.width, axis=0), held.thresholds[0]
            )
            services.append(service)
        before = [service.stats()["per_model"][UPDATE_MODEL] for service in services]

    cycle.start_window()
    update_latencies: List[float] = []
    read_latencies: List[float] = []
    reports: List[list] = [[] for _ in services]
    valid = True
    for service, applied in zip(services, reports):
        batch = 0
        for kind, payload in operations:
            change = {"inserts": payload} if kind == "insert" else {"deletes": payload}
            applied.extend(
                cycle.timed_call(
                    update_latencies, "update", lambda: service.update(UPDATE_MODEL, **change)
                )
                or []
            )
            for _ in range(inputs.READ_BATCHES_PER_WRITE):
                queries, thresholds = held.rows(stream_queries[batch], stream_thresholds[batch])
                batch += 1
                answer = cycle.timed_call(
                    read_latencies, "read",
                    lambda: service.estimate(UPDATE_MODEL, queries, thresholds),
                )
                valid &= answer is None or valid_answers(answer)
    cycle.end_window()

    with cycle.span("check"):
        after = [service.stats()["per_model"][UPDATE_MODEL] for service in services]
        result["peak_rss_mb"] = peak_rss_mb([os.getpid()])
        final = inputs.apply_stream(dataset.vectors, operations)
        # Exact counts after the stream: the incremental oracle, fed the same
        # stream, must agree with a fresh oracle over the final vectors.
        delta = DeltaOracle(dataset.vectors, "cosine")
        for kind, payload in operations:
            if kind == "insert":
                delta.insert(payload)
            else:
                delta.delete(payload)
        truth = delta.selectivities_batch(held.queries, held.thresholds)
        fresh = BlockedOracle(final, "cosine").selectivities_batch(held.queries, held.thresholds)
        # Passes end alike unless a fine-tune ran; the first one gives the
        # q-error, and the fine-tune counts cover all of them.
        queries, thresholds = held.all_rows()
        estimates = services[0].estimate(UPDATE_MODEL, queries, thresholds, use_cache=False)
        result.update(q_error_percentiles(estimates, truth.reshape(-1)))
        probe_queries, grid, probes = held.probes(cycle.seed)
        result["checks"] = {
            "read_answers_valid": valid,
            "delta_oracle_matches_fresh_oracle": bool(np.array_equal(truth, fresh)),
            "stream_applied": all(
                applied and applied[-1].database_size == len(final) for applied in reports
            ),
            **{
                f"monotone_after_stream_{'cached' if use_cache else 'uncached'}": all(
                    is_monotone(
                        service.estimate(UPDATE_MODEL, probe_queries, grid, use_cache=use_cache),
                        probes,
                    )
                    for service in services
                )
                for use_cache in (True, False)
            },
        }

    # The mean is over every call the caller waits on, writes and reads; the
    # p99 over reads only, so it shows the refill after each write.
    cycle.report_latencies(update_latencies + read_latencies, read_latencies)
    result["update_ms"] = update_latencies
    result["read_ms"] = read_latencies
    counts = {
        f"serving.{name}": sum(end[name] - start[name] for start, end in zip(before, after))
        for name in ("cache_hits", "cache_misses", "curve_builds")
    }
    applied = [report for pass_reports in reports for report in pass_reports]
    counts["core.fine_tunes"] = sum(1 for report in applied if report.retrained)
    counts["core.fine_tune_epochs"] = sum(report.fine_tune_epochs for report in applied)
    counts.update(training_counts(estimator.state.estimator, split))
    result["counts"] = counts
    if cycle.recorder is not None:
        layers = training_layers(cycle.recorder)
        layers.update(update_layers(cycle.recorder, len(update_latencies), len(read_latencies)))
        result["layers"] = layers


def update_layers(recorder: tracer.Recorder, updates: int, reads: int) -> Dict[str, float]:
    def per_call(name: str, root: str, calls: int) -> float:
        spans = recorder.within(name, root)
        return 1000.0 * sum(recorder.duration(index) for index in spans) / max(calls, 1)

    lookups = recorder.within("serving.cache_lookup", "read")
    hits = sum(1 for index in lookups if recorder.attrs[index]["hit"])
    compiles = len(recorder.within("inference.compile", "read"))
    return {
        "exact.delta_apply_ms": per_call("exact.delta_apply", "update", updates),
        "exact.relabel_ms": per_call("exact.relabel", "update", updates),
        "core.drift_check_ms": per_call("core.drift_check", "update", updates),
        "serving.cache_lookup_ms": per_call("serving.cache_lookup", "read", reads),
        "inference.kernel_ms": per_call("inference.kernel", "read", reads),
        "inference.compile_ms": per_call("inference.compile", "read", compiles),
        "serving.cache_hit_ratio": hits / max(len(lookups), 1),
        "update.unattributed_ms": 1000.0 * unattributed(recorder, "update", "read"),
    }


WORKLOADS = {"build": run_build, "serve": run_serve, "update": run_update}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running server gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # A handled (not ignored) SIGINT is reset to its default in the server at
    # exec, so the SIGINT that stops the server works even when this process
    # was started with SIGINT ignored, as background jobs are.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    cycle = Cycle(args)
    machine = machine_record()
    WORKLOADS[args.workload](cycle)
    cycle.result["machine"] = machine
    print(json.dumps(cycle.result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
