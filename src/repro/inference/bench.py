"""Compiled-vs-graph inference benchmark (the ``repro infer-bench`` CLI).

For each estimator and batch size the benchmark times two arms over the
same request stream:

* **graph** — the training-time autodiff forward (tensor allocation,
  backward closures, tape bookkeeping): for the SelNet family the model's
  ``forward`` is invoked directly under :func:`repro.autodiff.enable_grad`
  — exactly what every ``estimate()`` call paid before the compiled path
  existed (inference-mode ``predict`` now runs under ``no_grad``, so going
  through it would measure a different thing) — and other estimators run
  their plain ``estimate``;
* **compiled** — ``estimator.compiled().predict``: the frozen pure-NumPy
  kernel the serving and cluster tiers run by default.

Each arm runs ``repeats`` timed iterations (after warmup), recording p50 /
p99 latency and mean throughput, plus the maximum absolute deviation of the
compiled answers from the graph-mode reference — the parity number the CI
smoke asserts on.  The reference is ``model.predict`` for the SelNet family,
whose ``estimate`` is the float64 kernel itself, and ``estimate`` for every
other estimator, whose fallback kernel wraps it.  The graph arm is timed
only: it runs the tape on every row, while the reference and the kernels
evaluate each run of adjacent repeated rows once, so its answers can differ
from both in the last bits.  Results serialise to ``BENCH_inference.json``
via :func:`write_benchmark_json`, seeding the repo's tracked performance
trajectory.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..autodiff import enable_grad

PathLike = Union[str, Path]

DEFAULT_BATCH_SIZES = (1, 16, 256, 2048)


@dataclass
class InferenceBenchmarkRow:
    """One (estimator, precision tier, batch size) measurement."""

    estimator: str
    kernel_kind: str
    batch_size: int
    repeats: int
    graph_p50_ms: float
    graph_p99_ms: float
    graph_rows_per_second: float
    compiled_p50_ms: float
    compiled_p99_ms: float
    compiled_rows_per_second: float
    speedup: float
    max_abs_deviation: float
    #: precision tier the compiled arm ran at
    dtype: str = "float64"
    #: max deviation relative to the graph answer (scale ``max(|ref|, 1)``)
    max_rel_deviation: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class InferenceBenchmarkReport:
    """All measurements of one benchmark run."""

    rows: List[InferenceBenchmarkRow] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def max_deviation(self, dtype: Optional[str] = None) -> float:
        """Max *absolute* deviation, optionally restricted to one tier."""
        return max(
            (
                row.max_abs_deviation
                for row in self.rows
                if dtype is None or row.dtype == dtype
            ),
            default=0.0,
        )

    def max_relative_deviation(self, dtype: Optional[str] = None) -> float:
        """Max relative deviation, optionally restricted to one tier."""
        return max(
            (
                row.max_rel_deviation
                for row in self.rows
                if dtype is None or row.dtype == dtype
            ),
            default=0.0,
        )

    def dtypes(self) -> List[str]:
        """The precision tiers present, in first-seen order."""
        seen: List[str] = []
        for row in self.rows:
            if row.dtype not in seen:
                seen.append(row.dtype)
        return seen

    def speedup_for(
        self, estimator: str, batch_size: Optional[int] = None, dtype: Optional[str] = None
    ) -> float:
        """Best speedup for an estimator (optionally at one batch size / tier)."""
        candidates = [
            row.speedup
            for row in self.rows
            if row.estimator == estimator
            and (batch_size is None or row.batch_size == batch_size)
            and (dtype is None or row.dtype == dtype)
        ]
        if not candidates:
            raise KeyError(f"no benchmark rows for estimator {estimator!r}")
        return max(candidates)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": "repro-inference",
            "metadata": dict(self.metadata),
            "rows": [row.as_dict() for row in self.rows],
        }

    @property
    def text(self) -> str:
        lines = [
            "infer-bench: compiled (pure-NumPy kernel) vs graph (autodiff forward)",
            f"{'estimator':<14} {'kernel':<20} {'dtype':<8} {'batch':>6} "
            f"{'graph p50/p99 ms':>18} {'compiled p50/p99 ms':>20} "
            f"{'speedup':>8} {'max |dev|':>10} {'rel dev':>9}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.estimator:<14} {row.kernel_kind:<20} {row.dtype:<8} {row.batch_size:>6} "
                f"{row.graph_p50_ms:>8.3f} /{row.graph_p99_ms:>8.3f} "
                f"{row.compiled_p50_ms:>9.3f} /{row.compiled_p99_ms:>8.3f} "
                f"{row.speedup:>7.2f}x {row.max_abs_deviation:>10.2e} {row.max_rel_deviation:>9.2e}"
            )
        return "\n".join(lines)


def _graph_arm(estimator, queries: np.ndarray, thresholds: np.ndarray):
    """A callable reproducing the pre-compile hot path for one batch.

    SelNet variants build the full backward tape through ``model.forward``
    (mirroring the seed's ``predict``; their ``estimate`` is the compiled
    kernel, so it cannot stand for the graph).  Estimators without
    an inner SelNet model run their ordinary ``estimate`` — for those the
    "graph" arm and the fallback kernel are the same computation
    (tensor-based baselines apply ``no_grad`` inside ``estimate``), so their
    reported speedup is honestly ~1x; the compiled path only claims wins
    for the fused kernels.
    """
    from ..autodiff import Tensor
    from ..core.partitioned import PartitionedSelNet
    from ..core.selnet import SelNetModel
    from .compiler import inner_selnet_model

    model = inner_selnet_model(estimator)
    if isinstance(model, SelNetModel):

        def run() -> np.ndarray:
            with enable_grad():
                output = model.forward(Tensor(queries), thresholds)
            return np.clip(output.data.reshape(len(queries)), 0.0, None)

        return run
    if isinstance(model, PartitionedSelNet):

        def run() -> np.ndarray:
            indicators = model.partitioning.indicator_batch(queries, thresholds)
            with enable_grad():
                output = model.forward(Tensor(queries), thresholds, indicators)
            return np.clip(output.data.reshape(len(queries)), 0.0, None)

        return run

    def run() -> np.ndarray:
        with enable_grad():
            return np.asarray(estimator.estimate(queries, thresholds), dtype=np.float64)

    return run


def _percentile_ms(latencies: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies) * 1000.0, q))


def _time_arm(fn, repeats: int, warmup: int) -> List[float]:
    for _ in range(warmup):
        fn()
    latencies = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        latencies.append(time.perf_counter() - start)
    return latencies


def run_inference_benchmark(
    estimators: Dict[str, Any],
    queries: np.ndarray,
    thresholds: np.ndarray,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    repeats: int = 20,
    warmup: int = 3,
    seed: int = 0,
    metadata: Optional[Dict[str, Any]] = None,
    dtypes: Sequence[str] = ("float64",),
) -> InferenceBenchmarkReport:
    """Measure compiled vs graph inference for named fitted estimators.

    ``queries`` / ``thresholds`` form the request pool; each batch is drawn
    from it with a seeded generator (wrapping around when the pool is
    smaller than the batch).  ``dtypes`` names the precision tiers to
    compile (``float64``/``float32`` — see
    :mod:`repro.inference.precision`); the graph arm is timed once per
    batch and shared across tiers, and every tier's deviations are measured
    against the same float64 graph-mode answers (``model.predict`` for the
    SelNet family, ``estimate`` for the rest).
    """
    from .compiler import inner_selnet_model
    from .precision import parse_tier, relative_deviation

    queries = np.asarray(queries, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if len(queries) == 0:
        raise ValueError("the request pool is empty")
    tiers = [parse_tier(token) for token in dtypes]
    if not tiers:
        raise ValueError("at least one precision tier is required")
    rng = np.random.default_rng(seed)

    report = InferenceBenchmarkReport(metadata=dict(metadata or {}))
    report.metadata.setdefault("repeats", repeats)
    report.metadata.setdefault("warmup", warmup)
    report.metadata.setdefault("pool_size", int(len(thresholds)))
    report.metadata.setdefault("dtypes", [tier.name for tier in tiers])

    for name, estimator in estimators.items():
        kernels = [(tier, estimator.compiled(dtype=tier.dtype)) for tier in tiers]
        # A SelNet's estimate is its float64 kernel: compare with the graph.
        model = inner_selnet_model(estimator)
        graph_predict = estimator.estimate if model is None else model.predict
        for batch_size in batch_sizes:
            index = rng.integers(0, len(thresholds), size=int(batch_size))
            batch_queries = np.ascontiguousarray(queries[index])
            batch_thresholds = np.ascontiguousarray(thresholds[index])

            reference = np.asarray(
                graph_predict(batch_queries, batch_thresholds), dtype=np.float64
            )
            graph_arm = _graph_arm(estimator, batch_queries, batch_thresholds)
            graph_latencies = _time_arm(graph_arm, repeats, warmup)
            graph_mean = float(np.mean(graph_latencies))

            for tier, kernel in kernels:

                def compiled_arm():
                    return kernel.predict(batch_queries, batch_thresholds)

                estimates = np.asarray(compiled_arm(), dtype=np.float64)
                deviation = float(np.max(np.abs(reference - estimates)))
                rel_deviation = relative_deviation(estimates, reference)
                compiled_latencies = _time_arm(compiled_arm, repeats, warmup)
                compiled_mean = float(np.mean(compiled_latencies))
                report.rows.append(
                    InferenceBenchmarkRow(
                        estimator=name,
                        kernel_kind=kernel.kind,
                        batch_size=int(batch_size),
                        repeats=repeats,
                        graph_p50_ms=_percentile_ms(graph_latencies, 50),
                        graph_p99_ms=_percentile_ms(graph_latencies, 99),
                        graph_rows_per_second=(
                            batch_size / graph_mean if graph_mean else float("inf")
                        ),
                        compiled_p50_ms=_percentile_ms(compiled_latencies, 50),
                        compiled_p99_ms=_percentile_ms(compiled_latencies, 99),
                        compiled_rows_per_second=(
                            batch_size / compiled_mean if compiled_mean else float("inf")
                        ),
                        speedup=graph_mean / compiled_mean if compiled_mean else float("inf"),
                        max_abs_deviation=deviation,
                        dtype=tier.name,
                        max_rel_deviation=rel_deviation,
                    )
                )
    return report


def write_benchmark_json(report: InferenceBenchmarkReport, path: PathLike) -> Path:
    """Serialise a benchmark report to ``path`` (e.g. ``BENCH_inference.json``)."""
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
