#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json`` and both trace settings, runs
``perfbench/run.py --tiny`` and checks that its last line is the result
object, that the run passed its output checks with no failed operation, and
that it reports exactly the metrics ``BENCHMARK.json`` names, with their
units. Then checks that the benchmark refuses to run in a directory holding
only ``BENCHMARK.json`` and the benchmark's own files. Exits non-zero on
the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    completed = run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        ROOT,
    )
    label = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        raise SystemExit(f"{label}: exit {completed.returncode}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{label}: unexpected result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{label}: run not clean\n{completed.stdout}")
    expected = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in expected}
    reported = {name: value["unit"] for name, value in result["metrics"].items()}
    if reported != units:
        raise SystemExit(f"{label}: metrics {reported} differ from BENCHMARK.json {units}")
    for name, value in result["metrics"].items():
        number = value["value"]
        if not isinstance(number, (int, float)) or not math.isfinite(number):
            raise SystemExit(f"{label}: {name} is not a finite number: {number!r}")
        if not trace and number <= 0:
            raise SystemExit(f"{label}: end-to-end metric {name} is {number}, not positive")
    print(f"ok  {label}: attempted {result['attempted']}, failed {result['failed']}, "
          f"{len(reported)} metrics")


def check_refuses_without_program(spec: dict) -> None:
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero exit."""
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        completed = run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
            bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or '"metrics"' in completed.stdout:
        raise SystemExit("benchmark ran without the program to measure")
    print(f"ok  refuses to run without the program (exit {completed.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, workload["name"], trace)
    check_refuses_without_program(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
