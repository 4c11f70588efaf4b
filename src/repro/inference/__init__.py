"""Compiled pure-NumPy inference path for fitted estimators.

The training substrate (:mod:`repro.autodiff` / :mod:`repro.nn`) optimises
for differentiability; serving optimises for answer latency.  This package
separates the two: :func:`compile_estimator` freezes any fitted estimator
into a :class:`CompiledKernel` — flat contiguous weights, in-place NumPy
forward, batched piecewise-linear evaluation, zero autograd overhead — and
the serving / cluster tiers (and the SelNet family's own ``estimate``)
answer every request through those kernels, at the float64 or float32
precision tier (:mod:`repro.inference.precision`).

Quick start::

    from repro import create_estimator
    from repro.inference import compile_estimator

    estimator = create_estimator("selnet-ct", epochs=20).fit(split)
    kernel = estimator.compiled()          # cached per tier; same as compile_estimator(estimator)
    kernel.predict(queries, thresholds)    # what estimator.estimate(...) returns, and
                                           # bit-equal to graph-mode estimator.model.predict(...)
    kernel.curve_values(queries, grid)     # one forward per query, all thresholds

Benchmarks: :func:`run_inference_benchmark` (the ``repro infer-bench``
subcommand) measures compiled-vs-graph throughput and latency percentiles
and writes ``BENCH_inference.json``.
"""

from .bench import (
    InferenceBenchmarkReport,
    run_inference_benchmark,
    write_benchmark_json,
)
from .compiler import compile_estimator
from .kernels import (
    CompiledKernel,
    CompiledPartitionedSelNet,
    CompiledSelNet,
    ControlPointKernel,
    ControlPoints,
    FusedFeedForward,
    GraphFallbackKernel,
    KernelCompilationError,
    piecewise_linear_batch,
)
from .precision import (
    DEFAULT_ERROR_BUDGETS,
    Precision,
    parse_tier,
    relative_deviation,
    resolve_precision,
)

__all__ = [
    "compile_estimator",
    "CompiledKernel",
    "CompiledSelNet",
    "CompiledPartitionedSelNet",
    "ControlPointKernel",
    "ControlPoints",
    "GraphFallbackKernel",
    "FusedFeedForward",
    "KernelCompilationError",
    "piecewise_linear_batch",
    "InferenceBenchmarkReport",
    "run_inference_benchmark",
    "write_benchmark_json",
    "DEFAULT_ERROR_BUDGETS",
    "Precision",
    "parse_tier",
    "relative_deviation",
    "resolve_precision",
]
