#!/usr/bin/env python3
"""Benchmark of the SelNet reproduction: cold build, network serving, updates.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build|serve|update --seed N \
        --seconds S --trace 0|1

Workloads (inputs come from ``--seed`` alone, see ``inputs.py``):

* ``build``  -- label a cosine workload with the exact oracle, fit the full
  SelNet (cover-tree partitioned, K=3) with fewer epochs than the early-stop
  patience, then answer the held-out rows in 32-row ``estimate`` calls;
* ``serve``  -- fit and save a full SelNet, serve it with ``repro serve``
  (binary protocol, one network shard) and send 32-row requests from one
  closed-loop caller, zipfian over more distinct queries than the shard's
  256-curve cache holds; the caller, the server and its shard share one CPU;
* ``update`` -- an in-process ``EstimationService`` over ``selnet-inc``
  applies the Section 7.6 stream (100 operations of 5 records) with four
  zipfian 32-row read batches after each operation, over fewer queries than
  the cache holds.

``--seconds`` sets the window work: the built model's passes over the
held-out rows, the serve requests and the passes over the update stream
(each on a fresh copy of the fitted model); the fits are fixed. A run starts
``cycle.py`` three times, each in a fresh interpreter with its own input set
(cycle seed ``3 * seed + i``), and reports the median over those cycles of
each cycle's figure, except the fit time and the mean latency, which are
their means. With
``--trace 1`` it runs four cycles, an untraced and a traced one on each of
two input sets, and reports the per-layer numbers of the traced ones and the
tracing overhead.

Every workload reports every end-to-end metric: ``build_s`` is labeling
plus fit (inside setup for ``serve`` and ``update``); the latencies are per
32-row call the caller waits on -- the built model's ``estimate`` calls or
request round trips. For ``update`` the mean is over writes and reads
together and the p99 over reads only; the write percentiles and the read
median are printed on their own lines.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give the
machine record, each cycle, the output checks, each cycle's work counts and
any flag raised because they differ from an earlier cycle of the same input
set and code (kept in ``.perfbench/counts.json``).
"""

from __future__ import annotations

import os

# Before NumPy loads, and inherited by every process the benchmark starts.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
#: A run must end within 180 s: cycles get what is left of this budget, and
#: stopping a late one takes at most another 25 s.
RUN_BUDGET_S = 150.0
CYCLES = 3

WORKLOADS = ("build", "serve", "update")

#: End-to-end metrics, printed by every workload (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "latency_mean_ms": "ms",
    "latency_p99_ms": "ms",
    "q_error_p50": "ratio",
    "q_error_p95": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run (``--trace 1``); a layer a workload
#: does not exercise reads 0.
PER_LAYER = {
    "exact.label_s": "s",
    "index.partition_s": "s",
    "nn.ae_pretrain_s": "s",
    "core.forward_ms": "ms",
    "autodiff.backward_ms": "ms",
    "nn.optimizer_ms": "ms",
    "train.residual_ms": "ms",
    "train.steps": "count",
    "train.epochs": "count",
    "net.roundtrip_ms": "ms",
    "net.server_ms": "ms",
    "cluster.admission_ms": "ms",
    "cluster.queue_wait_ms": "ms",
    "net.transport_ms": "ms",
    "serving.worker_ms": "ms",
    "serving.cache_lookup_ms": "ms",
    "inference.kernel_ms": "ms",
    "inference.compile_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.cache_hits": "count",
    "serving.cache_misses": "count",
    "serving.curve_builds": "count",
    "exact.delta_apply_ms": "ms",
    "exact.relabel_ms": "ms",
    "core.drift_check_ms": "ms",
    "core.fine_tunes": "count",
    "core.fine_tune_epochs": "count",
    "build.unattributed_ms": "ms",
    "serve.unattributed_ms": "ms",
    "update.unattributed_ms": "ms",
    "tracing.latency_overhead_ms": "ms",
    "tracing.build_overhead_s": "s",
}

#: Work counts taken from return values and `/stats`, per layer metric.
COUNTED_LAYERS = (
    "train.epochs",
    "serving.cache_hits",
    "serving.cache_misses",
    "serving.curve_builds",
    "core.fine_tunes",
    "core.fine_tune_epochs",
)


def cpu_times() -> List[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:9]]


def run_cycle(args, cycle_seed: int, traced: bool, work_dir: Path, deadline: float) -> Dict[str, object]:
    """One cycle in a fresh interpreter, in its own process group."""
    command = [
        sys.executable, str(HERE / "cycle.py"), args.workload,
        "--seed", str(cycle_seed), "--seconds", str(args.seconds),
        "--work-dir", str(work_dir),
    ]
    command += ["--trace"] * traced + ["--tiny"] * args.tiny
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "cycle timed out"}
    finally:
        stop_group(process)
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"error": f"cycle exited with {process.returncode}"}
    return json.loads(lines[-1])


def group_members(group: int) -> List[int]:
    """Live (not zombie) processes of a process group, from ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == group:
            members.append(int(entry))
    return members


def stop_group(process: subprocess.Popen) -> None:
    """Stop the cycle and whatever is left in its process group; wait for all.

    SIGTERM first: the cycle then stops its server, which removes its shared
    memory. SIGKILL for anything still there after that.
    """
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            pass
    if group_members(process.pid):
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.wait()
    deadline = time.monotonic() + 10.0
    while group_members(process.pid) and time.monotonic() < deadline:
        time.sleep(0.05)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: Figures taken as the mean over cycles; the others are medians.
MEAN_OVER_CYCLES = ("build_s", "latency_mean_ms")


def end_to_end(cycles: List[dict]) -> Dict[str, float]:
    """Medians over cycles of each cycle's figure; the fit time and the mean
    latency are means over cycles, the latter so over every call of the run.

    Each cycle runs its own input set because the q-errors, which repeat
    exactly for one input set, spread widely from one to the next: over ten
    seeds, the q-error p95 of one input set per run spread 0.25 (serve) and
    0.21 (build) as quartiles over median; the median of three sets per run
    spread 0.07 and 0.05. The latency is a mean, not a per-call median: the
    host switches between a fast and a slow state (about 1.7x apart for
    interpreter-bound calls) every second or so, so the per-call median jumps
    between the two from run to run, while the time average moves smoothly
    with the share of time in each state. That share also differs from one
    cycle to the next, and the mean of the three cycles follows it more
    closely than their median: over the same cycles of ten seeds, the build
    latency spread 0.19 as the mean and 0.28 as the median, the update fit
    time 0.17 and 0.24. The median of the cycles' own p99s keeps one slow
    burst in one cycle from moving the run's figure.
    """
    return {
        name: float((np.mean if name in MEAN_OVER_CYCLES else np.median)([cycle[name] for cycle in cycles]))
        for name in END_TO_END
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    layers = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        values = [cycle["layers"][name] for cycle in traced if name in cycle["layers"]]
        if name in COUNTED_LAYERS:
            values = [cycle["counts"][name] for cycle in traced if name in cycle["counts"]]
        if values:
            layers[name] = float(np.mean(values))
    if untraced:
        plain, timed = end_to_end(untraced), end_to_end(traced)
        layers["tracing.latency_overhead_ms"] = timed["latency_mean_ms"] - plain["latency_mean_ms"]
        layers["tracing.build_overhead_s"] = timed["build_s"] - plain["build_s"]
    return layers


def work_record(cycle: dict) -> dict:
    """What must repeat exactly for one input set: work counts and q-errors."""
    return {**cycle["counts"], "q_error_p50": cycle["q_error_p50"], "q_error_p95": cycle["q_error_p95"]}


def code_digest() -> str:
    """Digest of the program's and the benchmark's source, so only runs of
    the same code are compared."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def compare_with_earlier_runs(key: str, record: dict) -> Optional[str]:
    """Store this seed's work record; describe any difference from earlier runs."""
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / "counts.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    earlier = known.setdefault(key, record)
    if earlier != record:
        return f"work differs from an earlier run of {key}: earlier {earlier}, now {record}"
    temporary = path.with_suffix(f".{os.getpid()}.tmp")
    temporary.write_text(json.dumps(known, indent=1, sort_keys=True))
    temporary.replace(path)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running cycle gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    steal_before = cpu_times()
    # (input set, traced) per cycle
    plan = [(0, False), (0, True), (1, False), (1, True)] if args.trace else [(i, False) for i in range(CYCLES)]
    print(
        f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} cycles={len(plan)}{' (tiny)' if args.tiny else ''}"
    )
    work_dir = STATE_DIR / f"run-{os.getpid()}"
    results: List[dict] = []
    try:
        for number, (offset, traced) in enumerate(plan, 1):
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            cycle_seed = CYCLES * args.seed + offset
            result = run_cycle(args, cycle_seed, traced, work_dir, deadline)
            result.update(traced=traced, cycle_seed=cycle_seed)
            results.append(result)
            if "error" in result:
                print(f"cycle {number}: FAILED: {result['error']}")
                break
            print(
                f"cycle {number}{' (traced)' if traced else ''}: setup {result['setup_s']:.3f} s, "
                f"window {result['window_s']:.3f} s, build {result['build_s']:.3f} s, "
                f"latency mean {result['latency_mean_ms']:.3f} ms, "
                f"p99 {result['latency_p99_ms']:.3f} ms, "
                f"attempted {result['attempted']}, failed {result['failed']}"
            )
            for error in result["errors"][:3]:
                print(f"  error: {error}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    done = [result for result in results if "error" not in result]
    if not done:
        print("perfbench: no cycle completed", file=sys.stderr)
        return 1
    steal = [after - before for before, after in zip(steal_before, cpu_times())]
    machine = dict(done[0]["machine"], seed=args.seed, steal_share=steal[7] / max(sum(steal), 1))
    print(f"machine: {json.dumps(machine, sort_keys=True)}")

    checks = {name: all(result["checks"][name] for result in done) for name in done[0]["checks"]}
    failed_checks = [name for name, passed in checks.items() if not passed]
    print(f"checks: {'all passed' if not failed_checks else 'FAILED ' + ', '.join(failed_checks)}")
    # A traced cycle is checked against the untraced one of its input set too.
    flags = []
    digest = code_digest()
    for result in done:
        record = work_record(result)
        print(f"work counts, cycle seed {result['cycle_seed']}: {json.dumps(record, sort_keys=True)}")
        key = (
            f"{args.workload}/cycle-seed={result['cycle_seed']}/seconds={args.seconds:g}"
            f"{'/tiny' if args.tiny else ''}/code={digest}"
        )
        flags.append(compare_with_earlier_runs(key, record))
    for flag in filter(None, flags):
        print(f"FLAG: {flag}")
        print(f"perfbench FLAG: {flag}", file=sys.stderr)

    untraced = [result for result in done if not result["traced"]]
    traced = [result for result in done if result["traced"]]
    summary = end_to_end(untraced or done)
    report = {name: (summary[name], unit) for name, unit in END_TO_END.items()}
    if args.workload == "update":
        writes = [value for result in untraced or done for value in result["update_ms"]]
        reads = [value for result in untraced or done for value in result["read_ms"]]
        report["update_p50_ms"] = (percentile(writes, 50), "ms")
        report["update_p90_ms"] = (percentile(writes, 90), "ms")
        report["read_p50_ms"] = (percentile(reads, 50), "ms")
    units = END_TO_END
    metrics = summary
    if args.trace:
        if not traced:
            print("perfbench: no traced cycle completed", file=sys.stderr)
            return 1
        units = PER_LAYER
        metrics = per_layer(traced, untraced)
        report.update({name: (metrics[name], unit) for name, unit in units.items()})
    for name, (value, unit) in report.items():
        print(f"  {name:<28} {value:>14.6f} {unit}")

    # A cycle that never reported counts as one failed operation.
    lost = len(results) - len(done)
    attempted = sum(result["attempted"] for result in done) + lost
    failed = sum(result["failed"] for result in done) + lost
    correct = len(done) == len(plan) and not failed_checks
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
