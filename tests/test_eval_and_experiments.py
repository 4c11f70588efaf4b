"""Tests for the evaluation harness, metrics, registry and experiment drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SelNetConfig, SelNetEstimator
from repro.estimator import SelectivityEstimator
from repro.eval import (
    CONSISTENT_MODELS,
    PAPER_MODEL_ORDER,
    compute_error_metrics,
    empirical_monotonicity,
    evaluate_fitted,
    format_accuracy_table,
    format_monotonicity_table,
    format_sweep_table,
    format_timing_table,
    mean_absolute_error,
    mean_absolute_percentage_error,
    mean_squared_error,
    results_to_csv,
    run_setting,
    train_specs_for_models,
)
from repro.experiments import (
    TINY,
    figure3_dln_vs_selnet,
    get_scale,
    run_accuracy_table,
    run_control_point_sweep,
    setting_distance,
)
from repro.pipeline import ArtifactStore, DatasetSpec, WorkloadSpec
from repro.registry import create_estimator


class _OracleEstimator(SelectivityEstimator):
    """Test double: answers with the exact selectivity (perfect, consistent)."""

    name = "Oracle"
    guarantees_consistency = True

    def fit(self, split):
        self._oracle = split.oracle
        return self

    def estimate(self, queries, thresholds):
        return self._oracle.batch_selectivity(queries, thresholds).astype(float)


class _BrokenEstimator(SelectivityEstimator):
    """Test double: deliberately non-monotone estimates."""

    name = "Broken"
    guarantees_consistency = False

    def fit(self, split):
        return self

    def estimate(self, queries, thresholds):
        return 100.0 * np.sin(np.asarray(thresholds) * 50.0) + 100.0


class TestErrorMetrics:
    def test_mse_mae_mape_values(self):
        prediction = np.array([2.0, 4.0])
        target = np.array([1.0, 2.0])
        assert mean_squared_error(prediction, target) == pytest.approx(2.5)
        assert mean_absolute_error(prediction, target) == pytest.approx(1.5)
        assert mean_absolute_percentage_error(prediction, target) == pytest.approx(1.0)

    def test_mape_floor_prevents_division_by_zero(self):
        value = mean_absolute_percentage_error(np.array([5.0]), np.array([0.0]))
        assert np.isfinite(value)

    def test_compute_error_metrics_bundle(self, rng):
        prediction = rng.uniform(0, 10, size=20)
        target = rng.uniform(0, 10, size=20)
        metrics = compute_error_metrics(prediction, target)
        assert metrics.mse == pytest.approx(mean_squared_error(prediction, target))
        assert set(metrics.as_dict()) == {"mse", "mae", "mape"}

    def test_perfect_prediction(self, rng):
        values = rng.uniform(1, 100, size=15)
        metrics = compute_error_metrics(values, values)
        assert metrics.mse == 0 and metrics.mae == 0 and metrics.mape == 0


class TestEmpiricalMonotonicity:
    def test_oracle_is_fully_monotone(self, tiny_cosine_split):
        estimator = _OracleEstimator().fit(tiny_cosine_split)
        score = empirical_monotonicity(
            estimator,
            tiny_cosine_split.test.queries,
            tiny_cosine_split.t_max,
            num_queries=5,
            thresholds_per_query=20,
        )
        assert score == pytest.approx(100.0)

    def test_broken_estimator_detected(self, tiny_cosine_split):
        estimator = _BrokenEstimator().fit(tiny_cosine_split)
        score = empirical_monotonicity(
            estimator,
            tiny_cosine_split.test.queries,
            tiny_cosine_split.t_max,
            num_queries=5,
            thresholds_per_query=20,
        )
        assert score < 100.0

    def test_selnet_full_monotonicity(self, tiny_cosine_split, fast_selnet_config):
        estimator = SelNetEstimator(fast_selnet_config).fit(tiny_cosine_split)
        score = empirical_monotonicity(
            estimator,
            tiny_cosine_split.test.queries,
            tiny_cosine_split.t_max,
            num_queries=4,
            thresholds_per_query=25,
        )
        assert score == pytest.approx(100.0)


class TestHarness:
    def test_evaluate_fitted_fields(self, tiny_cosine_split):
        estimator = _OracleEstimator().fit(tiny_cosine_split)
        result = evaluate_fitted(
            estimator, tiny_cosine_split, fit_seconds=0.25, measure_monotonicity=True
        )
        assert result.test_metrics.mse == pytest.approx(0.0)
        assert result.monotonicity_percent == pytest.approx(100.0)
        assert result.fit_seconds == 0.25
        assert result.estimation_milliseconds >= 0
        row = result.as_row()
        assert row["model"] == "Oracle" and row["consistent"] is True

    def test_registry_paper_order_and_lsh_exclusion(self):
        cosine = train_specs_for_models(TINY, WorkloadSpec.for_setting("face-cos", TINY))
        euclidean = train_specs_for_models(TINY, WorkloadSpec.for_setting("fasttext-l2", TINY))
        assert "LSH" in cosine and "LSH" not in euclidean
        assert list(cosine) == [name for name in PAPER_MODEL_ORDER if name in cosine]

    def test_registry_include_filter(self):
        specs = train_specs_for_models(
            TINY, WorkloadSpec.for_setting("face-cos", TINY), include=["KDE", "DNN"]
        )
        assert list(specs) == ["KDE", "DNN"]

    def test_consistent_model_set_matches_estimators(self):
        specs = train_specs_for_models(TINY, WorkloadSpec.for_setting("face-cos", TINY))
        for name, spec in specs.items():
            estimator = create_estimator(spec.estimator, **spec.params_dict)
            assert estimator.guarantees_consistency == (name in CONSISTENT_MODELS)

    def test_run_setting_small_subset(self):
        evaluation = run_setting("face-cos", TINY, models=["KDE", "LightGBM-m"])
        assert {result.model_name for result in evaluation.results} == {"KDE", "LightGBM-m"}
        assert evaluation.best_model() in {"KDE", "LightGBM-m"}


class TestReporting:
    @pytest.fixture(scope="class")
    def evaluation(self):
        return run_setting("face-cos", TINY, models=["KDE"], measure_monotonicity=True)

    def test_accuracy_table_contains_model_and_star(self, evaluation):
        text = format_accuracy_table(evaluation, title="Table X")
        assert "Table X" in text and "KDE *" in text and "MSE(test)" in text

    def test_monotonicity_table(self, evaluation):
        text = format_monotonicity_table(evaluation)
        assert "KDE" in text and "%" in text or "Monotonicity" in text

    def test_timing_table(self, evaluation):
        text = format_timing_table({"face-cos": evaluation})
        assert "face-cos" in text and "KDE" in text

    def test_sweep_table(self):
        rows = [{"L": 4, "mse": 1.0, "mae": 0.5, "mape": 0.1}, {"L": 8, "mse": 0.5, "mae": 0.4, "mape": 0.09}]
        text = format_sweep_table(rows, parameter_name="L")
        assert "MSE" in text and "4" in text and "8" in text

    def test_csv_export(self, evaluation):
        csv = results_to_csv(evaluation.results)
        lines = csv.splitlines()
        assert lines[0].startswith("model,")
        assert len(lines) == 1 + len(evaluation.results)

    def test_csv_empty(self):
        assert results_to_csv([]) == ""


class TestExperimentScaffolding:
    def test_get_scale(self):
        assert get_scale("tiny").name == "tiny"
        assert get_scale("SMALL").name == "small"
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_setting_datasets(self):
        store = ArtifactStore.memory()
        for setting in ("fasttext-cos", "fasttext-l2", "face-cos", "youtube-cos"):
            dataset = store.get_or_build(DatasetSpec.for_setting(setting, TINY))
            assert dataset.num_vectors > 0
        with pytest.raises(KeyError):
            DatasetSpec.for_setting("wikipedia", TINY)

    def test_setting_distance(self):
        assert setting_distance("fasttext-l2") == "euclidean"
        assert setting_distance("face-cos") == "cosine"

    def test_selnet_config_from_scale(self):
        config = TINY.selnet_config(num_partitions=1)
        assert isinstance(config, SelNetConfig)
        assert config.num_partitions == 1
        assert config.epochs == TINY.selnet_epochs

    def test_figure3(self):
        figure = figure3_dln_vs_selnet()
        assert "Figure 3" in figure.text
        dln_error = np.mean((figure.series["dln_estimate"] - figure.series["ground_truth"]) ** 2)
        selnet_error = np.mean(
            (figure.series["selnet_estimate"] - figure.series["ground_truth"]) ** 2
        )
        # The qualitative claim of Figure 3: adaptive control points fit far better.
        assert selnet_error < 0.5 * dln_error

    def test_accuracy_table_tiny(self, golden):
        result = run_accuracy_table("face-cos", scale=TINY)
        assert result.table_id == "Table 3"
        assert [row["model"] for row in result.rows] == list(PAPER_MODEL_ORDER)
        assert "KDE" in result.text
        golden("table3_face-cos", result.rows)

    def test_control_point_sweep_tiny(self, golden):
        result = run_control_point_sweep(
            "face-cos", control_points=(4, 8), scale=TINY
        )
        assert result.table_id == "Table 8"
        assert len(result.rows) == 2
        assert all("mse" in row for row in result.rows)
        golden("table8_face-cos", result.rows)
