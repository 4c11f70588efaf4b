"""Network serving tier — saturation knees.

Not a paper table: this benchmark measures the repo's own network tier
(`repro.net`).  Each scenario stands up a real loopback TCP server over
process worker shards and sweeps *offered* load (open loop: batches are
sent on a fixed wall-clock schedule regardless of server progress); the
knee of a scenario is the highest offered rate the tier still sustains.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro import create_estimator
from repro.eval.harness import build_setting_split
from repro.net import SaturationScenario, run_saturation_benchmark

SCENARIOS = (
    SaturationScenario(name="fixed-1shard", num_shards=1),
    SaturationScenario(name="fixed-2shard", num_shards=2),
)
OFFERED_LOADS = (250.0, 1000.0, 4000.0)
DURATION_SECONDS = 1.0
BATCH_SIZE = 32
CONNECTIONS = 4
SEED = 0


def _sweep(tiny_scale):
    split = build_setting_split("face-cos", tiny_scale, seed=0)
    estimator = create_estimator("kde", num_samples=128, seed=0).fit(split)
    folds = (split.train, split.validation, split.test)
    queries = np.concatenate([fold.queries for fold in folds])
    thresholds = np.concatenate([fold.thresholds for fold in folds])

    return [
        run_saturation_benchmark(
            scenario,
            "kde",
            queries,
            thresholds,
            estimator=estimator,
            offered_loads=OFFERED_LOADS,
            duration_seconds=DURATION_SECONDS,
            batch_size=BATCH_SIZE,
            connections=CONNECTIONS,
            seed=SEED,
        )
        for scenario in SCENARIOS
    ]


def _format(reports) -> str:
    lines = ["Network tier saturation on face-cos [tiny]"]
    for report in reports:
        lines.append(report.text)
    return "\n".join(lines)


def test_net_saturation(tiny_scale, save_result, benchmark):
    reports = run_once(benchmark, lambda: _sweep(tiny_scale))
    save_result("net_saturation", _format(reports))
    for report in reports:
        assert report.knee_rps > 0
        assert all(point.batches_completed > 0 for point in report.points)
