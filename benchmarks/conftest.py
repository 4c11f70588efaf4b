"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  The scale is
selected with the ``REPRO_BENCH_SCALE`` environment variable (``tiny``,
``small`` — the default — or ``medium``); see :mod:`repro.experiments.scale`
for what each scale means.  Each benchmark runs its experiment exactly once
(``rounds=1``) — the experiments are full train-and-evaluate loops, not
micro-benchmarks — and writes the reproduced table to
``benchmarks/results/`` in addition to printing it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import get_scale

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale():
    """Experiment scale profile for the whole benchmark session."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    return get_scale(name)


@pytest.fixture(scope="session")
def tiny_scale():
    """Always-tiny profile used by the structural benchmarks (e.g. timing)."""
    return get_scale(os.environ.get("REPRO_BENCH_TIMING_SCALE", "tiny"))


@pytest.fixture(scope="session")
def save_result():
    """Persist a reproduced table/figure under benchmarks/results/ and print it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print()
        print(text)

    return _save


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
