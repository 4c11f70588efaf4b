"""Aggregate the repo's committed ``BENCH_*.json`` files into one table.

Each benchmark writes its own JSON artifact (``BENCH_inference.json``,
``BENCH_net.json``, ``BENCH_oracle.json``, ``BENCH_pipeline.json``) with its
own schema.  ``repro bench-report`` reads whatever subset is present and
renders one performance-trajectory table — the quick answer to "where does
the stack stand right now" without opening four JSON files.  Each section
shows the worst case next to the best: the slowest speedup per precision
tier, the load a knee was *not* sustained at, and every pipeline
executor's cold time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

PathLike = Union[str, Path]

#: the benchmark artifacts this report understands, in display order
BENCH_FILES = (
    "BENCH_inference.json",
    "BENCH_net.json",
    "BENCH_oracle.json",
    "BENCH_pipeline.json",
)


def collect_bench_reports(root: PathLike = ".") -> Dict[str, Dict[str, Any]]:
    """Load every known ``BENCH_*.json`` under ``root`` (missing ones skipped)."""
    root = Path(root)
    reports: Dict[str, Dict[str, Any]] = {}
    for name in BENCH_FILES:
        path = root / name
        if path.is_file():
            with open(path) as handle:
                reports[name] = json.load(handle)
    return reports


def _speedup_at(row: Dict[str, Any]) -> str:
    return f"{row['speedup']:.2f}x {row.get('estimator', '?')} @{row.get('batch_size', '?')}"


def _inference_lines(data: Dict[str, Any]) -> List[str]:
    rows = data.get("rows", [])
    if not rows:
        return ["  (no rows)"]
    lines = [
        f"  {'dtype':<8} {'best speedup':<24} {'worst speedup':<24} {'best rows/s':>12} "
        f"{'max |dev|':>10} {'max rel dev':>12}"
    ]
    tiers: List[str] = []
    for row in rows:
        tier = row.get("dtype", "float64")
        if tier not in tiers:
            tiers.append(tier)
    for tier in tiers:
        tier_rows = [row for row in rows if row.get("dtype", "float64") == tier]
        best = max(tier_rows, key=lambda row: row["speedup"])
        worst = min(tier_rows, key=lambda row: row["speedup"])
        lines.append(
            f"  {tier:<8} {_speedup_at(best):<24} {_speedup_at(worst):<24} "
            f"{max(row['compiled_rows_per_second'] for row in tier_rows):>12,.0f} "
            f"{max(row['max_abs_deviation'] for row in tier_rows):>10.2e} "
            f"{max(row.get('max_rel_deviation', 0.0) for row in tier_rows):>12.2e}"
        )
    return lines


def _knee_bracket(scenario: Dict[str, Any]) -> str:
    """The knee as the offered-load grid resolves it: sustained at one load, not the next."""
    knee = scenario["knee_rps"]
    points = sorted(scenario.get("points", []), key=lambda point: point["offered_rps"])
    if not points:
        return f"knee {knee:,.0f} rps"
    if not any(point["offered_rps"] == knee for point in points):
        lowest = points[0]
        return (
            f"knee below the grid: not {lowest['offered_rps']:,.0f} "
            f"(achieved {lowest['achieved_rps']:,.0f})"
        )
    above = [point for point in points if point["offered_rps"] > knee]
    if not above:
        return f"knee sustained {knee:,.0f}, the top of the grid"
    return (
        f"knee sustained {knee:,.0f}, not {above[0]['offered_rps']:,.0f} "
        f"(achieved {above[0]['achieved_rps']:,.0f})"
    )


def _net_lines(data: Dict[str, Any]) -> List[str]:
    lines: List[str] = []
    for scenario in data.get("scenarios", []):
        lines.append(
            f"  {scenario['scenario']:<14} {_knee_bracket(scenario):<52} "
            f"peak {scenario['peak_achieved_rps']:>8,.0f} rps   "
            f"shards {scenario.get('num_shards', '?')}"
        )
    return lines or ["  (no scenarios)"]


def _oracle_lines(data: Dict[str, Any]) -> List[str]:
    rows = data.get("rows", [])
    if not rows:
        return ["  (no rows)"]
    lines = []
    for row in rows:
        speedup = (
            row["engine_queries_per_second"] / row["baseline_queries_per_second"]
            if row.get("baseline_queries_per_second")
            else float("inf")
        )
        lines.append(
            f"  {row.get('distance', '?'):<12} dim {row.get('dim', 0):>4}  "
            f"engine {row['engine_queries_per_second']:>10,.0f} q/s  "
            f"({speedup:.1f}x over baseline, "
            f"parity={'exact' if row.get('parity_exact') else 'approx'})"
        )
    return lines


def _pipeline_lines(data: Dict[str, Any]) -> List[str]:
    lines = []
    cold = data.get("cold", {})
    warm = data.get("warm", {})
    if cold and warm:
        lines.append(
            f"  cold {cold.get('elapsed_seconds', 0.0):.2f}s -> warm "
            f"{warm.get('elapsed_seconds', 0.0):.2f}s "
            f"({data.get('speedup_warm_over_cold', 0.0):.1f}x, "
            f"{len(data.get('metadata', {}).get('models', []))} models)"
        )
    backends = data.get("backends", {})
    executors = data.get("metadata", {}).get("executors") or sorted(backends)
    executors = [executor for executor in executors if executor in backends]
    if executors:
        reference = executors[0]
        reference_cold = backends[reference]["cold"]["elapsed_seconds"]
        for executor in executors:
            runs = backends[executor]
            cold = runs["cold"]["elapsed_seconds"]
            ratio = (
                "" if executor == reference else f"  ({reference_cold / cold:.2f}x of {reference})"
            )
            lines.append(
                f"  executor {executor:<8} cold {cold:.2f}s  "
                f"warm {runs['warm']['elapsed_seconds']:.2f}s{ratio}"
            )
    return lines or ["  (no runs)"]


_SECTION_RENDERERS = {
    "BENCH_inference.json": ("inference: compiled kernels vs autodiff graph", _inference_lines),
    "BENCH_net.json": ("net: serving-tier saturation", _net_lines),
    "BENCH_oracle.json": ("oracle: vectorized labeling engine", _oracle_lines),
    "BENCH_pipeline.json": ("pipeline: artifact-store experiment runs", _pipeline_lines),
}


def format_trajectory(reports: Dict[str, Dict[str, Any]]) -> str:
    """One text table across every present benchmark artifact."""
    if not reports:
        return "bench-report: no BENCH_*.json artifacts found"
    lines = ["bench-report: committed performance trajectory", ""]
    for name in BENCH_FILES:
        data = reports.get(name)
        if data is None:
            continue
        title, renderer = _SECTION_RENDERERS[name]
        lines.append(f"{name} — {title}")
        lines.extend(renderer(data))
        lines.append("")
    return "\n".join(lines).rstrip()


def bench_report(root: PathLike = ".", output: Optional[PathLike] = None) -> str:
    """Collect, render and (optionally) serialise the aggregate report."""
    reports = collect_bench_reports(root)
    text = format_trajectory(reports)
    if output is not None:
        summary = {"benchmark": "repro-trajectory", "sources": sorted(reports), "reports": reports}
        with open(output, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return text
