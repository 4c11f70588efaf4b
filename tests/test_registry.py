"""Tests for the public estimator registry and the lifecycle protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SelectivityEstimator,
    UpdateNotSupportedError,
    available_estimators,
    create_estimator,
    get_estimator_spec,
    iter_estimator_specs,
)
from repro.core import IncrementalSelNetEstimator, SelNetEstimator
from repro.eval.registry import CONSISTENT_MODELS, PAPER_MODEL_ORDER, train_specs_for_models
from repro.experiments.scale import TINY
from repro.pipeline import WorkloadSpec
from repro.registry import find_registration


EXPECTED_NAMES = {
    "lsh",
    "kde",
    "lightgbm",
    "lightgbm-m",
    "dnn",
    "moe",
    "rmi",
    "dln",
    "umnn",
    "selnet",
    "selnet-ct",
    "selnet-ad-ct",
    "selnet-inc",
    "isotonic-dnn",
}


class TestRegistry:
    def test_every_builtin_is_registered(self):
        assert EXPECTED_NAMES <= set(available_estimators())

    def test_specs_cover_paper_display_names(self):
        displays = {spec.display_name for spec in iter_estimator_specs()}
        assert set(PAPER_MODEL_ORDER) <= displays

    def test_create_estimator_applies_params(self):
        estimator = create_estimator("kde", num_samples=77, seed=3)
        assert estimator.num_samples == 77 and estimator.seed == 3

    def test_create_selnet_from_flat_config_fields(self):
        estimator = create_estimator("selnet", epochs=5, num_partitions=2, seed=9)
        assert isinstance(estimator, SelNetEstimator)
        assert estimator.config.epochs == 5
        assert estimator.config.num_partitions == 2
        assert estimator.name == "SelNet"

    def test_variant_factories_force_their_ablation(self):
        ct = create_estimator("selnet-ct")
        ad = create_estimator("selnet-ad-ct")
        assert ct.config.num_partitions == 1 and ct.config.query_dependent_tau
        assert ad.config.num_partitions == 1 and not ad.config.query_dependent_tau

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(KeyError, match="selnet"):
            create_estimator("no-such-model")

    def test_spec_capability_flags(self):
        assert get_estimator_spec("selnet").guarantees_consistency
        assert not get_estimator_spec("dnn").guarantees_consistency
        assert get_estimator_spec("selnet-inc").supports_updates
        assert not get_estimator_spec("selnet").supports_updates
        assert get_estimator_spec("lsh").supported_distances == ("cosine",)
        assert not get_estimator_spec("lsh").supports_distance("euclidean")

    def test_consistency_flags_match_instances(self):
        for spec in iter_estimator_specs():
            estimator = spec.build(seed=0)
            assert estimator.guarantees_consistency == spec.guarantees_consistency, spec.name
            assert estimator.supports_updates == spec.supports_updates, spec.name

    def test_params_for_scale_uses_scale_budgets(self):
        params = get_estimator_spec("kde").params_for_scale(TINY, num_vectors=1000)
        assert params["num_samples"] == TINY.sample_budget(1000)
        params = get_estimator_spec("dnn").params_for_scale("tiny")
        assert params["epochs"] == TINY.baseline_epochs
        params = get_estimator_spec("selnet").params_for_scale(TINY)
        assert params["num_partitions"] == TINY.num_partitions

    def test_describe_is_jsonable(self):
        import json

        for spec in iter_estimator_specs():
            json.dumps(spec.describe())

    def test_find_registration(self):
        assert find_registration(create_estimator("kde")) == "kde"
        ct = create_estimator("selnet-ct")
        assert find_registration(ct) == "selnet-ct"

    def test_eval_registry_is_a_thin_consumer(self):
        assert CONSISTENT_MODELS >= {
            "LSH",
            "KDE",
            "LightGBM-m",
            "DLN",
            "UMNN",
            "SelNet",
            "SelNet-ct",
            "SelNet-ad-ct",
        }
        cosine = WorkloadSpec.for_setting("face-cos", TINY)
        euclidean = WorkloadSpec.for_setting("fasttext-l2", TINY)
        assert list(train_specs_for_models(TINY, cosine)) == list(PAPER_MODEL_ORDER)
        assert "LSH" not in train_specs_for_models(TINY, euclidean)


class TestUpdateProtocol:
    def test_non_incremental_estimators_reject_updates(self):
        estimator = create_estimator("kde")
        with pytest.raises(UpdateNotSupportedError, match="selnet-inc"):
            estimator.update(inserts=np.zeros((1, 4)))

    def test_incremental_selnet_applies_updates(self, tiny_cosine_split, fast_selnet_config):
        from dataclasses import asdict

        params = asdict(fast_selnet_config)
        params.update(epochs=3, update_max_epochs=2, update_mae_drift_threshold=1e9)
        estimator = IncrementalSelNetEstimator(**params).fit(tiny_cosine_split)
        assert estimator.supports_updates

        rng = np.random.default_rng(0)
        dim = tiny_cosine_split.train.queries.shape[1]
        before = len(estimator.state.data)
        reports = estimator.update(
            inserts=rng.normal(size=(5, dim)), deletes=np.arange(3)
        )
        assert [report.operation_kind for report in reports] == ["delete", "insert"]
        assert len(estimator.state.data) == before - 3 + 5
        # drift threshold is huge, so no fine-tuning happened
        assert not any(report.retrained for report in reports)
        assert estimator.reports == reports

    def test_update_requires_some_operation(self, tiny_cosine_split, fast_selnet_config):
        from dataclasses import asdict

        params = asdict(fast_selnet_config)
        params["epochs"] = 2
        estimator = IncrementalSelNetEstimator(**params).fit(tiny_cosine_split)
        with pytest.raises(ValueError):
            estimator.update()


class TestQueryValidation:
    @pytest.fixture(scope="class")
    def fitted_kde(self, tiny_cosine_split):
        return create_estimator("kde", num_samples=64).fit(tiny_cosine_split)

    def test_estimate_one_rejects_2d_query(self, fitted_kde):
        with pytest.raises(ValueError, match="1-D query"):
            fitted_kde.estimate_one(np.zeros((2, 10)), 0.5)

    def test_estimate_one_rejects_wrong_dimensionality(self, fitted_kde):
        with pytest.raises(ValueError, match="fitted on 10-dimensional"):
            fitted_kde.estimate_one(np.zeros(4), 0.5)

    def test_estimate_one_rejects_array_threshold(self, fitted_kde):
        with pytest.raises(ValueError, match="scalar"):
            fitted_kde.estimate_one(np.zeros(10), np.asarray([0.1, 0.2]))

    def test_selectivity_curve_rejects_bad_shapes(self, fitted_kde):
        with pytest.raises(ValueError, match="1-D query"):
            fitted_kde.selectivity_curve(np.zeros((3, 10)), np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="thresholds"):
            fitted_kde.selectivity_curve(np.zeros(10), 0.5)

    def test_valid_single_query_still_works(self, fitted_kde, tiny_cosine_split):
        query = tiny_cosine_split.test.queries[0]
        value = fitted_kde.estimate_one(query, 0.4)
        assert np.isfinite(value) and value >= 0.0
        curve = fitted_kde.selectivity_curve(query, np.linspace(0.0, 0.8, 7))
        assert curve.shape == (7,)
