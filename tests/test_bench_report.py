"""Tests for ``repro bench-report``: every section shows its worst case."""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench_report import BENCH_FILES, bench_report, format_trajectory

REPO_ROOT = Path(__file__).resolve().parents[1]


def _inference_row(estimator, batch_size, speedup, dtype="float64"):
    return {
        "estimator": estimator,
        "batch_size": batch_size,
        "dtype": dtype,
        "speedup": speedup,
        "compiled_rows_per_second": 1000.0 * speedup,
        "max_abs_deviation": 0.0,
        "max_rel_deviation": 0.0,
    }


def _scenario(name, points, knee_rps, num_shards=1):
    return {
        "scenario": name,
        "num_shards": num_shards,
        "points": [
            {"offered_rps": offered, "achieved_rps": achieved} for offered, achieved in points
        ],
        "knee_rps": knee_rps,
        "peak_achieved_rps": max(achieved for _, achieved in points),
    }


def _synthetic_reports():
    return {
        "BENCH_inference.json": {
            "rows": [
                _inference_row("selnet", 1, 3.0),
                _inference_row("selnet", 256, 4.5),
                _inference_row("kde", 256, 0.7),
                _inference_row("kde", 16, 1.2, dtype="float32"),
                _inference_row("selnet", 2048, 5.1, dtype="float32"),
            ]
        },
        "BENCH_net.json": {
            "scenarios": [
                _scenario("grid", [(1000.0, 1001.0), (4000.0, 3990.0), (16000.0, 9000.0)], 4000.0),
                _scenario("unsaturated", [(1000.0, 1000.0), (2000.0, 1999.0)], 2000.0, 2),
                _scenario("overloaded", [(1000.0, 500.0), (2000.0, 600.0)], 600.0),
                {"scenario": "empty", "points": [], "knee_rps": 0.0, "peak_achieved_rps": 0.0},
            ],
        },
        "BENCH_pipeline.json": {
            "metadata": {"executors": ["thread", "process"], "models": ["a", "b"]},
            "cold": {"elapsed_seconds": 40.0},
            "warm": {"elapsed_seconds": 0.01},
            "speedup_warm_over_cold": 4000.0,
            "backends": {
                "process": {"cold": {"elapsed_seconds": 50.0}, "warm": {"elapsed_seconds": 0.02}},
                "thread": {"cold": {"elapsed_seconds": 40.0}, "warm": {"elapsed_seconds": 0.01}},
            },
        },
    }


class TestFormatTrajectory:
    def test_each_tier_prints_its_best_and_worst_speedup(self):
        lines = format_trajectory(_synthetic_reports()).splitlines()
        float64 = next(line for line in lines if line.lstrip().startswith("float64"))
        float32 = next(line for line in lines if line.lstrip().startswith("float32"))
        assert "4.50x selnet @256" in float64 and "0.70x kde @256" in float64
        assert "5.10x selnet @2048" in float32 and "1.20x kde @16" in float32

    def test_knee_is_printed_as_the_bracket_the_grid_resolves(self):
        text = format_trajectory(_synthetic_reports())
        assert "knee sustained 4,000, not 16,000 (achieved 9,000)" in text
        assert "knee sustained 2,000, the top of the grid" in text
        assert "knee below the grid: not 1,000 (achieved 500)" in text
        assert "empty          knee 0 rps" in text

    def test_each_scenario_prints_its_shard_count(self):
        lines = format_trajectory(_synthetic_reports()).splitlines()
        shards = {
            line.split()[0]: line.rsplit("shards ", 1)[1]
            for line in lines
            if line.lstrip().startswith(("grid", "unsaturated", "empty"))
        }
        assert shards == {"grid": "1", "unsaturated": "2", "empty": "?"}

    def test_every_executor_cold_time_and_its_ratio(self):
        lines = format_trajectory(_synthetic_reports()).splitlines()
        thread = next(line for line in lines if "executor thread" in line)
        process = next(line for line in lines if "executor process" in line)
        assert "cold 40.00s" in thread and "x of" not in thread
        assert "cold 50.00s" in process and "(0.80x of thread)" in process

    def test_no_reports(self):
        assert "no BENCH_*.json" in format_trajectory({})


class TestCommittedReports:
    def test_renders_the_committed_files(self, tmp_path):
        output = tmp_path / "trajectory.json"
        text = bench_report(REPO_ROOT, output=output)
        present = [name for name in BENCH_FILES if (REPO_ROOT / name).is_file()]
        assert present
        for name in present:
            assert name in text
        assert sorted(json.loads(output.read_text())["sources"]) == sorted(present)
