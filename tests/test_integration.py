"""End-to-end integration tests across the whole library.

These exercise the same paths the benchmarks use, at tiny scale: dataset ->
workload -> estimators -> metrics -> reports, plus the consistency invariant
across every estimator that claims it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SelNetConfig,
    SelNetEstimator,
    build_workload_split,
    make_dataset,
)
from repro.baselines import (
    DLNEstimator,
    KDEEstimator,
    LightGBMEstimator,
    LSHEstimator,
    UMNNEstimator,
)
from repro.eval import compute_error_metrics, empirical_monotonicity
from repro.experiments import (
    TINY,
    figure4_control_points,
    figure5_updates,
    run_ablation_table,
    run_monotonicity_table,
    run_partition_method_table,
    run_partition_size_sweep,
    run_timing_table,
)

FAST = dict(epochs=4, early_stopping_patience=None)


@pytest.fixture(scope="module")
def split():
    dataset = make_dataset("face_like", num_vectors=700, dim=10, num_clusters=14, seed=21)
    return build_workload_split(
        dataset,
        "cosine",
        num_queries=50,
        thresholds_per_query=12,
        max_selectivity_fraction=0.2,
        seed=2,
    )


class TestPublicAPIWorkflow:
    def test_quickstart_workflow(self, split):
        """The README quickstart: build data, fit SelNet, estimate, evaluate."""
        config = SelNetConfig(
            num_control_points=8,
            epochs=10,
            ae_pretrain_epochs=3,
            num_partitions=1,
            early_stopping_patience=None,
            seed=0,
        )
        estimator = SelNetEstimator(config).fit(split)
        estimates = estimator.estimate(split.test.queries, split.test.thresholds)
        metrics = compute_error_metrics(estimates, split.test.selectivities)
        constant_mse = np.mean(
            (split.train.selectivities.mean() - split.test.selectivities) ** 2
        )
        assert metrics.mse < constant_mse
        assert np.all(estimates >= 0)

    def test_every_consistent_estimator_is_actually_monotone(self, split):
        """Cross-cutting invariant: every estimator that claims consistency
        scores 100% on the empirical monotonicity measure."""
        estimators = [
            SelNetEstimator(
                SelNetConfig(num_control_points=6, epochs=4, ae_pretrain_epochs=2, seed=0)
            ),
            KDEEstimator(num_samples=80),
            LSHEstimator(num_hash_bits=8, num_samples=80),
            LightGBMEstimator(monotone=True, num_trees=15),
            DLNEstimator(num_lattices=3, **FAST),
            UMNNEstimator(hidden_sizes=(16,), num_quadrature_points=8, **FAST),
        ]
        for estimator in estimators:
            estimator.fit(split)
            assert estimator.guarantees_consistency
            score = empirical_monotonicity(
                estimator,
                split.test.queries,
                split.t_max,
                num_queries=3,
                thresholds_per_query=15,
                seed=1,
            )
            assert score == pytest.approx(100.0), f"{estimator.name} violated consistency"

    def test_partitioned_selnet_end_to_end(self, split):
        config = SelNetConfig(
            num_control_points=6,
            epochs=4,
            pretrain_epochs=2,
            ae_pretrain_epochs=2,
            num_partitions=3,
            early_stopping_patience=None,
            seed=0,
        )
        estimator = SelNetEstimator(config).fit(split)
        estimates = estimator.estimate(split.test.queries, split.test.thresholds)
        assert np.all(np.isfinite(estimates)) and np.all(estimates >= 0)


class TestExperimentDriversEndToEnd:
    def test_monotonicity_table(self, golden):
        result = run_monotonicity_table(scale=TINY, models=["KDE", "DNN", "SelNet-ct"])
        rows = {row["model"]: row for row in result.rows}
        assert rows["KDE"]["monotonicity_percent"] == pytest.approx(100.0)
        assert rows["SelNet-ct"]["monotonicity_percent"] == pytest.approx(100.0)
        golden("table5_face-cos", result.rows)

    def test_ablation_table_structure(self, golden):
        result = run_ablation_table(settings=("face-cos",), scale=TINY)
        assert len(result.rows) == 3
        assert {row["model"] for row in result.rows} == {"SelNet", "SelNet-ct", "SelNet-ad-ct"}
        golden("table6_face-cos", result.rows)

    def test_timing_table_structure(self):
        result = run_timing_table(settings=("face-cos",), scale=TINY, models=["KDE", "DNN"])
        assert "face-cos" in result.text
        assert any(row["model"] == "DNN" for row in result.rows)

    def test_partition_sweeps(self, golden):
        size_sweep = run_partition_size_sweep("face-cos", partition_sizes=(1, 2), scale=TINY)
        assert [row["partitions"] for row in size_sweep.rows] == [1, 2]
        golden("table9_face-cos", size_sweep.rows)
        method_sweep = run_partition_method_table(
            "face-cos", methods=("ct", "rp"), num_partitions=2, scale=TINY
        )
        assert [row["method"] for row in method_sweep.rows] == ["CT", "RP"]
        golden("table10_face-cos", method_sweep.rows)

    def test_figure4(self, golden):
        figure = figure4_control_points(scale=TINY, num_example_queries=2)
        assert "Figure 4" in figure.text
        assert any(key.endswith("_tau") for key in figure.series)
        # ad-ct control points are identical across queries; ct's differ.
        assert figure.series["tau_spread_SelNet-ad-ct"][0] == pytest.approx(0.0, abs=1e-9)
        golden(
            "figure4_fasttext-cos",
            {
                model: figure.series[f"tau_spread_{model}"][0]
                for model in ("SelNet-ct", "SelNet-ad-ct")
            },
        )

    def test_figure5_short_stream(self, golden):
        figure = figure5_updates(
            settings=("face-cos",), scale=TINY, num_operations=3, mae_drift_threshold=1e9
        )
        assert len(figure.series["face-cos_mse"]) == 3
        assert np.all(np.isfinite(figure.series["face-cos_mse"]))
        golden(
            "figure5_face-cos",
            {key: figure.series[f"face-cos_{key}"] for key in ("mse", "mape")},
        )
