"""Experiment harness: fit and evaluate estimators on workload splits.

This module ties the data substrate, the estimator registry and the metrics
together; the table / figure reproductions in :mod:`repro.experiments` and
the benchmark suite are thin wrappers around it.

The harness is **spec-driven**: workload splits are described by
:class:`repro.pipeline.WorkloadSpec`, model runs by
:class:`repro.pipeline.TrainSpec` / :class:`repro.pipeline.EvalSpec`, and
:func:`run_setting` executes them as a DAG through a
:class:`repro.pipeline.PipelineRunner`.  With no artifact store active the
pipeline degenerates to a per-call memo table (pure compute); with a store
active
(:func:`repro.pipeline.use_store`, or ``repro run`` / ``table`` / ``figure``
on the CLI) every dataset, labeled workload, trained model and evaluation is
memoized under its spec hash and reruns become cache hits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..data.workload import Workload, WorkloadSplit
from ..estimator import SelectivityEstimator
from ..experiments.scale import ExperimentScale
from ..pipeline import (
    ArtifactStore,
    EvalSpec,
    ExperimentSpec,
    PipelineReport,
    PipelineRunner,
    WorkloadSpec,
    resolve_store,
)
from .metrics import ErrorMetrics, compute_error_metrics, empirical_monotonicity
from .registry import train_specs_for_models


@dataclass
class EvaluationResult:
    """Everything measured for one estimator on one workload split."""

    model_name: str
    guarantees_consistency: bool
    validation_metrics: ErrorMetrics
    test_metrics: ErrorMetrics
    fit_seconds: float
    estimation_milliseconds: float
    monotonicity_percent: Optional[float] = None

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for table formatting / CSV export."""
        row = {
            "model": self.model_name,
            "consistent": self.guarantees_consistency,
            "mse_valid": self.validation_metrics.mse,
            "mse_test": self.test_metrics.mse,
            "mae_valid": self.validation_metrics.mae,
            "mae_test": self.test_metrics.mae,
            "mape_valid": self.validation_metrics.mape,
            "mape_test": self.test_metrics.mape,
            "fit_seconds": self.fit_seconds,
            "estimation_ms": self.estimation_milliseconds,
        }
        if self.monotonicity_percent is not None:
            row["monotonicity_percent"] = self.monotonicity_percent
        return row


@dataclass
class SettingEvaluation:
    """All model results for one dataset / distance setting."""

    setting: str
    results: List[EvaluationResult] = field(default_factory=list)
    #: per-stage wall-clock / cache stats of the pipeline run
    pipeline_report: Optional[PipelineReport] = None

    def by_model(self) -> Dict[str, EvaluationResult]:
        return {result.model_name: result for result in self.results}

    def best_model(self, metric: str = "mse_test") -> str:
        rows = [result.as_row() for result in self.results]
        best = min(rows, key=lambda row: row[metric])
        return str(best["model"])


def _timed_estimate(
    estimator: SelectivityEstimator, workload: Workload
) -> tuple:
    """Run estimation over a workload and return (estimates, ms per query)."""
    start = time.perf_counter()
    estimates = estimator.estimate(workload.queries, workload.thresholds)
    elapsed = time.perf_counter() - start
    per_query_ms = 1000.0 * elapsed / max(len(workload), 1)
    return np.asarray(estimates, dtype=np.float64), per_query_ms


def evaluate_fitted(
    estimator: SelectivityEstimator,
    split: WorkloadSplit,
    fit_seconds: float = 0.0,
    measure_monotonicity: bool = False,
    monotonicity_queries: int = 40,
    monotonicity_thresholds: int = 50,
    seed: int = 0,
) -> EvaluationResult:
    """Measure an **already fitted** estimator (the EvalSpec stage body).

    ``fit_seconds`` is carried into the result so a model served from the
    artifact store reports the wall-clock of the fit that actually produced
    it, not zero.  Note it is plain wall-clock: under the pipeline runner
    other training branches may have been running concurrently, so treat it
    as indicative (comparable across runs only at ``num_workers=1``); the
    per-query estimation latency, by contrast, is always measured with the
    pool drained (exclusive eval stages).
    """
    validation_estimates, _ = _timed_estimate(estimator, split.validation)
    test_estimates, estimation_ms = _timed_estimate(estimator, split.test)

    monotonicity = None
    if measure_monotonicity:
        monotonicity = empirical_monotonicity(
            estimator,
            split.test.queries,
            split.t_max,
            num_queries=monotonicity_queries,
            thresholds_per_query=monotonicity_thresholds,
            seed=seed,
        )

    return EvaluationResult(
        model_name=estimator.name,
        guarantees_consistency=estimator.guarantees_consistency,
        validation_metrics=compute_error_metrics(
            validation_estimates, split.validation.selectivities
        ),
        test_metrics=compute_error_metrics(test_estimates, split.test.selectivities),
        fit_seconds=fit_seconds,
        estimation_milliseconds=estimation_ms,
        monotonicity_percent=monotonicity,
    )


def build_setting_split(
    setting: str,
    scale: ExperimentScale,
    threshold_distribution: str = "geometric",
    seed: int = 0,
    num_workers: Optional[int] = None,
    block_bytes: Optional[int] = None,
    progress=None,
    store: Optional[ArtifactStore] = None,
) -> WorkloadSplit:
    """Dataset + workload split for one of the paper's settings at a scale.

    The split is described by a :class:`repro.pipeline.WorkloadSpec`; with an
    artifact store active (or passed explicitly) it is served from / saved
    to the store under its content hash, so the expensive exact labeling
    runs at most once per distinct spec.  ``num_workers``, ``block_bytes``
    and ``progress`` tune / observe the labeling engine only — they never
    affect the artifact's identity.

    With an active store the returned split is the store's **shared cached
    object** (every caller of the same spec gets the same instance): treat
    it as immutable.  Code that refreshes labels already does —
    :func:`~repro.data.workload.relabel_workload` returns new ``Workload``
    objects rather than mutating in place.
    """
    spec = WorkloadSpec.for_setting(
        setting, scale, threshold_distribution=threshold_distribution, seed=seed
    )
    # No active store -> a throwaway memory store: the same WorkloadSpec.build
    # code path runs either way (one copy of the parity-critical stage logic),
    # just without persistence.
    active = resolve_store(store) or ArtifactStore.memory()
    return active.get_or_build(
        spec, num_workers=num_workers, block_bytes=block_bytes, progress=progress
    )


def run_setting(
    setting: str,
    scale: ExperimentScale,
    models: Optional[Iterable[str]] = None,
    threshold_distribution: str = "geometric",
    measure_monotonicity: bool = False,
    seed: int = 0,
    store: Optional[ArtifactStore] = None,
    num_workers: Optional[int] = None,
    engine_options: Optional[Dict] = None,
    executor: Optional[str] = None,
) -> SettingEvaluation:
    """Evaluate a set of models on one dataset / distance setting.

    The models become ``TrainSpec``/``EvalSpec`` stages sharing one
    ``WorkloadSpec``, executed as a DAG by a
    :class:`~repro.pipeline.PipelineRunner` (independent model branches run
    on a worker pool; with a store, finished stages are reused across runs).

    Parameters
    ----------
    setting:
        One of ``fasttext-cos``, ``fasttext-l2``, ``face-cos``,
        ``youtube-cos``.
    scale:
        Experiment scale profile.
    models:
        Optional subset of model names (paper order preserved); all models by
        default.
    threshold_distribution:
        ``"geometric"`` (Tables 1-4) or ``"beta"`` (Table 11).
    measure_monotonicity:
        Also compute the empirical monotonicity measure (Table 5).
    seed:
        Seed shared by the workload and every estimator.
    store:
        Artifact store override (defaults to the active store, if any).
    num_workers:
        Stage-level worker-pool width of the pipeline runner.
    engine_options:
        Labeling-engine tuning for the workload stage (``num_workers`` /
        ``block_bytes`` / ``progress``).
    executor:
        Pipeline execution backend (``"thread"`` or ``"process"``); the
        process executor needs a persistent store.  See
        :mod:`repro.pipeline.runner`.
    """
    workload_spec = WorkloadSpec.for_setting(
        setting, scale, threshold_distribution=threshold_distribution, seed=seed
    )
    train_specs = train_specs_for_models(scale, workload_spec, include=models, seed=seed)
    eval_specs = [
        EvalSpec(
            train=train_spec,
            measure_monotonicity=measure_monotonicity,
            monotonicity_queries=scale.monotonicity_queries,
            monotonicity_thresholds=scale.monotonicity_thresholds,
            seed=seed,
        )
        for train_spec in train_specs.values()
    ]
    experiment = ExperimentSpec(
        name=f"setting-{setting}-{scale.name}-{threshold_distribution}"
        + ("-mono" if measure_monotonicity else ""),
        evals=tuple(eval_specs),
    )
    runner = PipelineRunner(
        store=resolve_store(store),
        num_workers=num_workers,
        engine_options=engine_options,
        executor=executor,
    )
    outcome = runner.run(experiment)
    return SettingEvaluation(
        setting=setting,
        results=[outcome.value(spec) for spec in eval_specs],
        pipeline_report=outcome.report,
    )
