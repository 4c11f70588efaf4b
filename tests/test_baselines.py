"""Tests for every baseline estimator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DLNEstimator,
    DNNEstimator,
    GradientBoostingRegressor,
    IsotonicCalibratedEstimator,
    KDEEstimator,
    LightGBMEstimator,
    LSHEstimator,
    MoEEstimator,
    RMIEstimator,
    UMNNEstimator,
    bin_features,
    build_bin_edges,
    clenshaw_curtis,
    pool_adjacent_violators,
)
from repro.baselines.base import ThresholdEmbedding
from repro.autodiff import Tensor

FAST_NN_KWARGS = dict(epochs=5, batch_size=64, early_stopping_patience=None)


def _mse(prediction, truth):
    return float(np.mean((np.asarray(prediction) - np.asarray(truth)) ** 2))


def _constant_baseline_mse(split):
    constant = split.train.selectivities.mean()
    return float(np.mean((constant - split.test.selectivities) ** 2))


class TestThresholdEmbedding:
    def test_shape_and_nonnegative(self, rng):
        embedding = ThresholdEmbedding(embedding_dim=6, rng=rng)
        out = embedding(Tensor(rng.uniform(0, 1, size=(9, 1))))
        assert out.shape == (9, 6)
        assert np.all(out.data >= 0)


class TestKDE:
    def test_fit_estimate_shapes(self, tiny_cosine_split):
        estimator = KDEEstimator(num_samples=100).fit(tiny_cosine_split)
        out = estimator.estimate(
            tiny_cosine_split.test.queries[:10], tiny_cosine_split.test.thresholds[:10]
        )
        assert out.shape == (10,)
        assert np.all(out >= 0)

    def test_consistency(self, tiny_cosine_split):
        estimator = KDEEstimator(num_samples=100).fit(tiny_cosine_split)
        curve = estimator.selectivity_curve(
            tiny_cosine_split.test.queries[0], np.linspace(0, tiny_cosine_split.t_max, 40)
        )
        assert np.all(np.diff(curve) >= -1e-9)

    def test_estimate_bounded_by_database_size(self, tiny_cosine_split):
        estimator = KDEEstimator(num_samples=100).fit(tiny_cosine_split)
        out = estimator.estimate(
            tiny_cosine_split.test.queries, np.full(len(tiny_cosine_split.test), 10.0)
        )
        assert np.all(out <= tiny_cosine_split.dataset.num_vectors + 1e-6)

    def test_requires_fit(self, rng):
        with pytest.raises(RuntimeError):
            KDEEstimator().estimate(rng.normal(size=(2, 4)), np.array([0.1, 0.2]))

    @pytest.mark.parametrize("bandwidth", [None, 0.05])
    def test_batches_answer_like_one_row_at_a_time(
        self, bandwidth, tiny_cosine_split, tiny_euclidean_split, rng, monkeypatch
    ):
        """Distances and bandwidth once per run of a query's rows, the CDF
        per row: bit-equal to the per-row loop on repeated, interleaved and
        single-row batches, also when a run spans several CDF chunks."""
        from scipy import special

        from repro.baselines import kde as kde_module

        def one_row_at_a_time(estimator, queries, thresholds):
            answers = []
            for query, threshold in zip(queries, thresholds):
                distances = estimator._distance(query, estimator._sample)
                width = bandwidth if bandwidth is not None else kde_module._adaptive_bandwidth(
                    distances
                )
                z = (threshold - distances) / width
                cdf = 0.5 * (1.0 + special.erf(z / np.sqrt(2.0)))
                answers.append(float(estimator._num_objects * cdf.mean()))
            return np.asarray(answers)

        for split in (tiny_cosine_split, tiny_euclidean_split):
            estimator = KDEEstimator(num_samples=64, bandwidth=bandwidth).fit(split)
            queries, thresholds = split.test.queries, split.test.thresholds
            interleaved = rng.integers(0, len(thresholds), size=50)
            batches = [
                (queries, thresholds),  # each query's thresholds side by side
                (queries[interleaved], thresholds[interleaved]),
                (queries[:1], thresholds[:1]),
                (np.repeat(queries[:1], 40, axis=0), np.linspace(0.0, split.t_max, 40)),
            ]
            for chunk_values in (kde_module._CDF_CHUNK_VALUES, 3 * 64):
                monkeypatch.setattr(kde_module, "_CDF_CHUNK_VALUES", chunk_values)
                for batch_queries, batch_thresholds in batches:
                    expected = one_row_at_a_time(estimator, batch_queries, batch_thresholds)
                    np.testing.assert_array_equal(
                        estimator.estimate(batch_queries, batch_thresholds), expected
                    )

    def test_better_than_nothing(self, tiny_cosine_split):
        estimator = KDEEstimator(num_samples=200).fit(tiny_cosine_split)
        out = estimator.estimate(tiny_cosine_split.test.queries, tiny_cosine_split.test.thresholds)
        zero_mse = np.mean(tiny_cosine_split.test.selectivities ** 2)
        assert _mse(out, tiny_cosine_split.test.selectivities) < zero_mse


class TestLSH:
    def test_cosine_only(self, tiny_euclidean_split):
        with pytest.raises(ValueError):
            LSHEstimator().fit(tiny_euclidean_split)

    def test_fit_estimate(self, tiny_cosine_split):
        estimator = LSHEstimator(num_hash_bits=10, num_samples=150).fit(tiny_cosine_split)
        out = estimator.estimate(
            tiny_cosine_split.test.queries[:10], tiny_cosine_split.test.thresholds[:10]
        )
        assert out.shape == (10,)
        assert np.all(out >= 0)

    def test_consistency_same_query(self, tiny_cosine_split):
        estimator = LSHEstimator(num_hash_bits=10, num_samples=150).fit(tiny_cosine_split)
        curve = estimator.selectivity_curve(
            tiny_cosine_split.test.queries[1], np.linspace(0, tiny_cosine_split.t_max, 30)
        )
        assert np.all(np.diff(curve) >= -1e-9)

    @pytest.mark.parametrize("num_samples", [150, 37])
    def test_batches_answer_like_one_row_at_a_time(
        self, num_samples, tiny_cosine_split, rng, monkeypatch
    ):
        """Signature, strata and sample once per run of a query's rows, the
        hit counts per row: bit-equal to one-row calls on repeated,
        interleaved and single-row batches, also when a run spans several
        comparison chunks."""
        from repro.baselines import lsh as lsh_module

        estimator = LSHEstimator(num_hash_bits=10, num_samples=num_samples).fit(
            tiny_cosine_split
        )
        queries, thresholds = tiny_cosine_split.test.queries, tiny_cosine_split.test.thresholds
        interleaved = rng.integers(0, len(thresholds), size=50)
        batches = [
            (queries, thresholds),  # each query's thresholds side by side
            (queries[interleaved], thresholds[interleaved]),
            (queries[:1], thresholds[:1]),
            (np.repeat(queries[:1], 40, axis=0), np.linspace(0.0, tiny_cosine_split.t_max, 40)),
        ]
        for chunk_values in (lsh_module._HIT_CHUNK_VALUES, 3 * num_samples):
            monkeypatch.setattr(lsh_module, "_HIT_CHUNK_VALUES", chunk_values)
            for batch_queries, batch_thresholds in batches:
                expected = [
                    estimator.estimate(query[None, :], threshold[None])[0]
                    for query, threshold in zip(batch_queries, batch_thresholds)
                ]
                np.testing.assert_array_equal(
                    estimator.estimate(batch_queries, batch_thresholds), expected
                )

    def test_full_budget_is_exact(self, tiny_cosine_split):
        """With the sampling budget covering the database the estimate is exact."""
        n = tiny_cosine_split.dataset.num_vectors
        estimator = LSHEstimator(num_hash_bits=8, num_samples=n * 2).fit(tiny_cosine_split)
        rows = slice(0, 15)
        out = estimator.estimate(
            tiny_cosine_split.test.queries[rows], tiny_cosine_split.test.thresholds[rows]
        )
        np.testing.assert_allclose(out, tiny_cosine_split.test.selectivities[rows], rtol=1e-9)


class TestGBDTInternals:
    def test_bin_edges_and_binning(self, rng):
        features = rng.normal(size=(200, 3))
        edges = build_bin_edges(features, max_bins=16)
        binned = bin_features(features, edges)
        assert binned.shape == features.shape
        assert binned.min() >= 0
        assert binned.max() <= 16

    def test_boosting_fits_smooth_function(self, rng):
        x = rng.uniform(-2, 2, size=(500, 2))
        y = 3 * x[:, 0] + np.sin(3 * x[:, 1])
        model = GradientBoostingRegressor(num_trees=40, learning_rate=0.2, max_depth=4).fit(x, y)
        prediction = model.predict(x)
        assert _mse(prediction, y) < 0.2 * np.var(y)

    def test_monotone_constraint_enforced(self, rng):
        """Prediction must be non-decreasing in the constrained feature."""
        x = rng.uniform(0, 1, size=(600, 2))
        y = 5 * x[:, 1] + rng.normal(scale=0.3, size=600)  # increasing in feature 1
        model = GradientBoostingRegressor(
            num_trees=30, learning_rate=0.2, max_depth=4, monotone_increasing=(1,)
        ).fit(x, y)
        grid = np.linspace(0, 1, 50)
        for fixed in [0.2, 0.5, 0.8]:
            features = np.column_stack([np.full(50, fixed), grid])
            prediction = model.predict(features)
            assert np.all(np.diff(prediction) >= -1e-9)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.zeros((2, 2)))


class TestLightGBMEstimators:
    def test_plain_fit_estimate(self, tiny_cosine_split):
        estimator = LightGBMEstimator(monotone=False, num_trees=20).fit(tiny_cosine_split)
        out = estimator.estimate(tiny_cosine_split.test.queries, tiny_cosine_split.test.thresholds)
        assert np.all(out >= 0)
        assert _mse(out, tiny_cosine_split.test.selectivities) < _constant_baseline_mse(
            tiny_cosine_split
        ) * 1.5

    def test_monotone_variant_consistent(self, tiny_cosine_split):
        estimator = LightGBMEstimator(monotone=True, num_trees=20).fit(tiny_cosine_split)
        assert estimator.guarantees_consistency
        for row in range(0, 20, 5):
            curve = estimator.selectivity_curve(
                tiny_cosine_split.test.queries[row], np.linspace(0, tiny_cosine_split.t_max, 40)
            )
            assert np.all(np.diff(curve) >= -1e-9)

    def test_names(self):
        assert LightGBMEstimator(monotone=False).name == "LightGBM"
        assert LightGBMEstimator(monotone=True).name == "LightGBM-m"


class TestDeepBaselines:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DNNEstimator(hidden_sizes=(32, 16), **FAST_NN_KWARGS),
            lambda: MoEEstimator(num_experts=3, top_k=2, expert_hidden_sizes=(16,), **FAST_NN_KWARGS),
            lambda: RMIEstimator(num_leaf_models=3, leaf_hidden_sizes=(16,), **FAST_NN_KWARGS),
        ],
        ids=["DNN", "MoE", "RMI"],
    )
    def test_fit_and_estimate(self, tiny_cosine_split, factory):
        estimator = factory().fit(tiny_cosine_split)
        out = estimator.estimate(tiny_cosine_split.test.queries, tiny_cosine_split.test.thresholds)
        assert out.shape == (len(tiny_cosine_split.test),)
        assert np.all(out >= 0) and np.all(np.isfinite(out))

    def test_deep_baselines_not_consistent_by_contract(self):
        assert not DNNEstimator().guarantees_consistency
        assert not MoEEstimator().guarantees_consistency
        assert not RMIEstimator().guarantees_consistency

    def test_moe_top_k_validation(self):
        with pytest.raises(ValueError):
            from repro.baselines.moe import MixtureOfExperts

            MixtureOfExperts(input_dim=4, num_experts=2, top_k=5)

    def test_requires_fit(self, rng):
        with pytest.raises(RuntimeError):
            DNNEstimator().estimate(rng.normal(size=(2, 5)), np.array([0.1, 0.2]))


class TestDLN:
    def test_fit_and_estimate(self, tiny_cosine_split):
        estimator = DLNEstimator(num_lattices=3, epochs=5, early_stopping_patience=None).fit(
            tiny_cosine_split
        )
        out = estimator.estimate(tiny_cosine_split.test.queries, tiny_cosine_split.test.thresholds)
        assert np.all(out >= 0) and np.all(np.isfinite(out))

    def test_consistency(self, tiny_cosine_split):
        estimator = DLNEstimator(num_lattices=3, epochs=3, early_stopping_patience=None).fit(
            tiny_cosine_split
        )
        for row in (0, 7):
            curve = estimator.selectivity_curve(
                tiny_cosine_split.test.queries[row], np.linspace(0, tiny_cosine_split.t_max, 30)
            )
            assert np.all(np.diff(curve) >= -1e-9)

    def test_calibrator_monotone_outputs(self, rng):
        from repro.baselines.dln import Calibrator

        calibrator = Calibrator(0.0, 1.0, num_keypoints=6, monotone=True, rng=rng)
        values = calibrator(np.linspace(0, 1, 25)).data.reshape(-1)
        assert np.all(np.diff(values) >= -1e-9)
        assert values[-1] == pytest.approx(1.0, abs=1e-6)


class TestUMNN:
    def test_clenshaw_curtis_weights(self):
        nodes, weights = clenshaw_curtis(9)
        assert len(nodes) == len(weights) == 9
        assert np.all(weights >= 0)
        # CC weights integrate constants exactly: sum of weights == 2 (length of [-1, 1]).
        assert weights.sum() == pytest.approx(2.0, abs=1e-9)
        # And integrate x^2 on [-1, 1] to 2/3.
        assert np.sum(weights * nodes ** 2) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_clenshaw_curtis_rejects_single_point(self):
        with pytest.raises(ValueError):
            clenshaw_curtis(1)

    def test_fit_and_estimate(self, tiny_cosine_split):
        estimator = UMNNEstimator(
            hidden_sizes=(32, 16), num_quadrature_points=8, epochs=5, early_stopping_patience=None
        ).fit(tiny_cosine_split)
        out = estimator.estimate(tiny_cosine_split.test.queries, tiny_cosine_split.test.thresholds)
        assert np.all(out >= 0) and np.all(np.isfinite(out))

    def test_consistency(self, tiny_cosine_split):
        estimator = UMNNEstimator(
            hidden_sizes=(16,), num_quadrature_points=8, epochs=3, early_stopping_patience=None
        ).fit(tiny_cosine_split)
        curve = estimator.selectivity_curve(
            tiny_cosine_split.test.queries[2], np.linspace(0, tiny_cosine_split.t_max, 40)
        )
        assert np.all(np.diff(curve) >= -1e-9)

    def test_zero_threshold_gives_offset_only(self, tiny_cosine_split):
        estimator = UMNNEstimator(hidden_sizes=(16,), num_quadrature_points=8, epochs=2).fit(
            tiny_cosine_split
        )
        out = estimator.estimate(tiny_cosine_split.test.queries[:5], np.zeros(5))
        assert np.all(out >= 0)


class TestIsotonic:
    def test_pav_already_monotone(self):
        values = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(pool_adjacent_violators(values), values)

    def test_pav_averages_violations(self):
        np.testing.assert_allclose(
            pool_adjacent_violators(np.array([3.0, 1.0])), np.array([2.0, 2.0])
        )

    def test_pav_output_monotone(self, rng):
        values = rng.normal(size=50)
        out = pool_adjacent_violators(values)
        assert np.all(np.diff(out) >= -1e-12)

    def test_pav_preserves_mean(self, rng):
        values = rng.normal(size=30)
        assert pool_adjacent_violators(values).mean() == pytest.approx(values.mean())

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30)
    )
    def test_property_pav_monotone_and_bounded(self, values):
        """Property: PAV output is monotone and within the input range."""
        array = np.asarray(values)
        out = pool_adjacent_violators(array)
        assert np.all(np.diff(out) >= -1e-9)
        assert out.min() >= array.min() - 1e-9
        assert out.max() <= array.max() + 1e-9

    def test_isotonic_wrapper_makes_dnn_consistent(self, tiny_cosine_split):
        wrapped = IsotonicCalibratedEstimator(DNNEstimator(hidden_sizes=(16,), **FAST_NN_KWARGS))
        wrapped.fit(tiny_cosine_split)
        assert wrapped.guarantees_consistency
        query = tiny_cosine_split.test.queries[0]
        thresholds = np.linspace(0, tiny_cosine_split.t_max, 40)
        curve = wrapped.selectivity_curve(query, thresholds)
        assert np.all(np.diff(curve) >= -1e-9)
