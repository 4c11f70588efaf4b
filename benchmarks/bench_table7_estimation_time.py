"""Table 7 — average estimation time (milliseconds per query).

Paper reference: DNN is the fastest (0.03-0.16 ms), the DB approaches (LSH,
KDE) are the slowest (0.85-4.95 ms), SelNet sits in between and SelNet-ct is
roughly twice as fast as partitioned SelNet.  The ordering is structural
(model complexity), so this benchmark runs at the tiny scale by default; set
``REPRO_BENCH_TIMING_SCALE=small`` for a full-scale run.

The SelNet rows time the compiled float64 kernel, which is what their
``estimate`` runs; DNN, RMI and MoE still run their autodiff tape under
``no_grad``.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.experiments import PAPER_SETTINGS, run_timing_table


def test_table7_estimation_time(tiny_scale, save_result, benchmark):
    result = run_once(
        benchmark, lambda: run_timing_table(settings=PAPER_SETTINGS, scale=tiny_scale)
    )
    save_result("table7_estimation_time", result.text)

    times = {}
    for row in result.rows:
        times.setdefault(row["model"], []).append(row["estimation_ms"])
    mean_times = {model: float(np.mean(values)) for model, values in times.items()}
    # Structural shape checks from the paper's Table 7.
    assert mean_times["DNN"] <= mean_times["KDE"], "DNN should be faster than KDE"
    if "LSH" in mean_times:
        assert mean_times["DNN"] <= mean_times["LSH"], "DNN should be faster than LSH"
    assert mean_times["SelNet-ct"] <= mean_times["SelNet"], (
        "SelNet-ct avoids the partition indicator and should not be slower"
    )
