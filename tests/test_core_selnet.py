"""Tests for the SelNet models, trainer, estimator API and incremental learning."""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.core import (
    IncrementalConfig,
    IncrementalSelNet,
    PartitionedSelNet,
    SelNetConfig,
    SelNetEstimator,
    SelNetModel,
    train_selnet_model,
)
from repro.data import generate_update_stream
from repro.index import cover_tree_partitioning
from repro.nn import Adam


class TestSelNetConfig:
    def test_defaults_valid(self):
        config = SelNetConfig()
        assert config.num_control_points > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_control_points": 0},
            {"num_partitions": 0},
            {"partition_method": "metis"},
            {"partition_ratio": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SelNetConfig(**kwargs)

    def test_scaled_for_paper(self):
        paper = SelNetConfig().scaled_for_paper()
        assert paper.num_control_points == 50
        assert paper.epochs == 1500


class TestSelNetModel:
    @pytest.fixture()
    def model(self, fast_selnet_config, rng):
        return SelNetModel(input_dim=10, t_max=1.0, config=fast_selnet_config, rng=rng)

    def test_forward_shape(self, model, rng):
        queries = Tensor(rng.normal(size=(6, 10)))
        thresholds = rng.uniform(0, 1, size=6)
        out = model.forward(queries, thresholds)
        assert out.shape == (6,)

    def test_predict_non_negative(self, model, rng):
        predictions = model.predict(rng.normal(size=(8, 10)), rng.uniform(0, 1, size=8))
        assert np.all(predictions >= 0)

    def test_consistency_untrained(self, model, rng):
        """Monotonicity must hold even before any training (by construction)."""
        query = rng.normal(size=10)
        thresholds = np.linspace(0, 1, 50)
        curve = model.predict(np.repeat(query[None, :], 50, axis=0), thresholds)
        assert np.all(np.diff(curve) >= -1e-9)

    def test_curve_for_query(self, model, rng):
        curve = model.curve_for_query(rng.normal(size=10))
        assert curve.is_monotone
        assert curve.tau[0] == pytest.approx(0.0)
        assert curve.tau[-1] == pytest.approx(1.0)

    def test_augment_concatenates_latent(self, model, rng):
        augmented = model.augment(Tensor(rng.normal(size=(4, 10))))
        assert augmented.shape == (4, 10 + model.config.latent_dim)

    def test_gradients_flow_through_whole_model(self, model, rng):
        queries = Tensor(rng.normal(size=(5, 10)))
        out = model.forward(queries, rng.uniform(0.1, 0.9, size=5))
        out.sum().backward()
        with_grad = sum(1 for p in model.parameters() if p.grad is not None and np.any(p.grad != 0))
        assert with_grad > 0


class TestSelNetTraining:
    def test_training_reduces_loss(self, tiny_cosine_split, fast_selnet_config, rng):
        model = SelNetModel(
            input_dim=tiny_cosine_split.train.queries.shape[1],
            t_max=tiny_cosine_split.t_max,
            config=fast_selnet_config,
            rng=rng,
        )
        history = train_selnet_model(
            model, tiny_cosine_split.train, tiny_cosine_split.validation, fast_selnet_config, rng=rng
        )
        assert history.train_loss[-1] < history.train_loss[0]

    def test_estimator_fit_and_estimate(self, tiny_cosine_split, fast_selnet_config):
        estimator = SelNetEstimator(fast_selnet_config)
        estimator.fit(tiny_cosine_split)
        estimates = estimator.estimate(
            tiny_cosine_split.test.queries, tiny_cosine_split.test.thresholds
        )
        assert estimates.shape == (len(tiny_cosine_split.test),)
        assert np.all(estimates >= 0)
        assert np.all(np.isfinite(estimates))

    def test_estimator_beats_constant_baseline(self, tiny_cosine_split, fast_selnet_config):
        """Sanity: the trained model beats predicting the training mean."""
        estimator = SelNetEstimator(fast_selnet_config).fit(tiny_cosine_split)
        estimates = estimator.estimate(
            tiny_cosine_split.test.queries, tiny_cosine_split.test.thresholds
        )
        truth = tiny_cosine_split.test.selectivities
        model_mse = np.mean((estimates - truth) ** 2)
        constant_mse = np.mean((tiny_cosine_split.train.selectivities.mean() - truth) ** 2)
        assert model_mse < constant_mse

    def test_estimator_requires_fit(self, fast_selnet_config, rng):
        estimator = SelNetEstimator(fast_selnet_config)
        with pytest.raises(RuntimeError):
            estimator.estimate(rng.normal(size=(2, 10)), np.array([0.1, 0.2]))

    def test_estimator_names(self, fast_selnet_config):
        from dataclasses import replace

        assert SelNetEstimator(replace(fast_selnet_config, num_partitions=3)).name == "SelNet"
        assert SelNetEstimator(replace(fast_selnet_config, num_partitions=1)).name == "SelNet-ct"
        assert (
            SelNetEstimator(replace(fast_selnet_config, query_dependent_tau=False)).name
            == "SelNet-ad-ct"
        )

    def test_consistency_after_training(self, tiny_cosine_split, fast_selnet_config):
        estimator = SelNetEstimator(fast_selnet_config).fit(tiny_cosine_split)
        query = tiny_cosine_split.test.queries[0]
        thresholds = np.linspace(0, tiny_cosine_split.t_max, 60)
        curve = estimator.selectivity_curve(query, thresholds)
        assert np.all(np.diff(curve) >= -1e-9)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_property_untrained_estimates_monotone(self, tiny_cosine_split, seed):
        """Property: consistency holds for any random initialisation (Lemma 1)."""
        config = SelNetConfig(
            num_control_points=5,
            latent_dim=3,
            tau_hidden_sizes=(6,),
            p_hidden_sizes=(8,),
            embedding_dim=4,
            ae_hidden_sizes=(6,),
            epochs=1,
            ae_pretrain_epochs=0,
            seed=seed,
        )
        model = SelNetModel(
            input_dim=tiny_cosine_split.train.queries.shape[1],
            t_max=tiny_cosine_split.t_max,
            config=config,
            rng=np.random.default_rng(seed),
        )
        query = tiny_cosine_split.test.queries[seed % len(tiny_cosine_split.test)]
        thresholds = np.linspace(0, tiny_cosine_split.t_max, 30)
        curve = model.predict(np.repeat(query[None, :], 30, axis=0), thresholds)
        assert np.all(np.diff(curve) >= -1e-9)


class TestPartitionedSelNet:
    def test_partitioned_fit_and_estimate(self, tiny_cosine_split, fast_selnet_config):
        from dataclasses import replace

        config = replace(fast_selnet_config, num_partitions=3, epochs=4, pretrain_epochs=2)
        estimator = SelNetEstimator(config).fit(tiny_cosine_split)
        estimates = estimator.estimate(
            tiny_cosine_split.test.queries, tiny_cosine_split.test.thresholds
        )
        assert np.all(estimates >= 0) and np.all(np.isfinite(estimates))

    def test_partition_count_mismatch_rejected(self, tiny_cosine_split, fast_selnet_config, rng):
        from dataclasses import replace

        config = replace(fast_selnet_config, num_partitions=3)
        partitioning = cover_tree_partitioning(
            tiny_cosine_split.dataset.vectors, num_partitions=2, distance=tiny_cosine_split.distance
        )
        with pytest.raises(ValueError):
            PartitionedSelNet(
                tiny_cosine_split.train.queries.shape[1],
                tiny_cosine_split.t_max,
                config,
                partitioning,
                rng=rng,
            )

    def test_local_models_share_autoencoder(self, tiny_cosine_split, fast_selnet_config, rng):
        from dataclasses import replace

        config = replace(fast_selnet_config, num_partitions=2)
        partitioning = cover_tree_partitioning(
            tiny_cosine_split.dataset.vectors, num_partitions=2, distance=tiny_cosine_split.distance
        )
        model = PartitionedSelNet(
            tiny_cosine_split.train.queries.shape[1],
            tiny_cosine_split.t_max,
            config,
            partitioning,
            rng=rng,
        )
        assert all(local.autoencoder is model.autoencoder for local in model.local_models)

    @staticmethod
    def make_model(split, config, rng, num_partitions=3):
        config = replace(config, num_partitions=num_partitions)
        partitioning = cover_tree_partitioning(
            split.dataset.vectors, num_partitions=num_partitions, distance=split.distance
        )
        return PartitionedSelNet(
            split.train.queries.shape[1], split.t_max, config, partitioning, rng=rng
        )

    def test_parameters_are_distinct(self, tiny_cosine_split, fast_selnet_config, rng):
        model = self.make_model(tiny_cosine_split, fast_selnet_config, rng)
        params = model.parameters()
        assert len({id(param) for param in params}) == len(params)
        names = [name for name, _ in model.named_parameters()]
        assert not any(".autoencoder." in name for name in names)
        assert sum(name.startswith("autoencoder.") for name in names) == len(
            model.autoencoder.parameters()
        )

    def test_one_step_moves_shared_autoencoder_like_an_unshared_one(
        self, tiny_cosine_split, fast_selnet_config, rng
    ):
        model = self.make_model(tiny_cosine_split, fast_selnet_config, rng)
        unshared = copy.deepcopy(model.autoencoder)
        for param in model.parameters():
            param.grad = rng.normal(size=param.shape)
        for mine, shared in zip(unshared.parameters(), model.autoencoder.parameters()):
            mine.grad = shared.grad.copy()
        Adam(model.parameters(), learning_rate=0.01).step()
        Adam(unshared.parameters(), learning_rate=0.01).step()
        for mine, shared in zip(unshared.parameters(), model.autoencoder.parameters()):
            np.testing.assert_array_equal(shared.data, mine.data)

    def test_local_outputs_encode_the_batch_once(self, tiny_cosine_split, fast_selnet_config, rng):
        model = self.make_model(tiny_cosine_split, fast_selnet_config, rng)
        queries = Tensor(tiny_cosine_split.test.queries[:6])
        thresholds = tiny_cosine_split.test.thresholds[:6]
        separate = [local.forward(queries, thresholds).data for local in model.local_models]
        calls = []
        encode = model.autoencoder.encode
        model.autoencoder.encode = lambda x: calls.append(1) or encode(x)
        shared = model.local_outputs(queries, thresholds)
        del model.autoencoder.encode
        assert len(calls) == 1
        for ours, expected in zip(shared, separate):
            np.testing.assert_array_equal(ours.data, expected)

    def test_global_is_indicator_weighted_sum(self, tiny_cosine_split, fast_selnet_config, rng):
        from dataclasses import replace

        config = replace(fast_selnet_config, num_partitions=2)
        partitioning = cover_tree_partitioning(
            tiny_cosine_split.dataset.vectors, num_partitions=2, distance=tiny_cosine_split.distance
        )
        model = PartitionedSelNet(
            tiny_cosine_split.train.queries.shape[1],
            tiny_cosine_split.t_max,
            config,
            partitioning,
            rng=rng,
        )
        queries = tiny_cosine_split.test.queries[:4]
        thresholds = tiny_cosine_split.test.thresholds[:4]
        indicators = partitioning.indicator_batch(queries, thresholds)
        locals_ = [m.predict(queries, thresholds) for m in model.local_models]
        expected = sum(indicators[:, k] * locals_[k] for k in range(2))
        np.testing.assert_allclose(model.predict(queries, thresholds), expected, atol=1e-9)


class TestIncrementalSelNet:
    @pytest.fixture()
    def fitted(self, tiny_cosine_split, fast_selnet_config):
        estimator = SelNetEstimator(fast_selnet_config).fit(tiny_cosine_split)
        return estimator, tiny_cosine_split

    def test_rejects_partitioned_model(self, tiny_cosine_split, fast_selnet_config):
        from dataclasses import replace

        config = replace(fast_selnet_config, num_partitions=2, epochs=2, pretrain_epochs=1)
        estimator = SelNetEstimator(config).fit(tiny_cosine_split)
        with pytest.raises(TypeError):
            IncrementalSelNet(
                estimator=estimator,
                data=tiny_cosine_split.dataset.vectors,
                distance=tiny_cosine_split.distance,
                train=tiny_cosine_split.train,
                validation=tiny_cosine_split.validation,
            )

    def test_small_update_skips_retraining(self, fitted):
        estimator, split = fitted
        incremental = IncrementalSelNet(
            estimator=estimator,
            data=split.dataset.vectors,
            distance=split.distance,
            train=split.train,
            validation=split.validation,
            config=IncrementalConfig(mae_drift_threshold=1e9),
        )
        stream = generate_update_stream(split.dataset.vectors, num_operations=2, seed=0)
        reports = incremental.apply_stream(stream)
        assert len(reports) == 2
        assert not any(report.retrained for report in reports)

    def test_forced_retraining_path(self, fitted):
        estimator, split = fitted
        incremental = IncrementalSelNet(
            estimator=estimator,
            data=split.dataset.vectors,
            distance=split.distance,
            train=split.train,
            validation=split.validation,
            config=IncrementalConfig(mae_drift_threshold=-1.0, max_epochs=2, patience=1),
        )
        stream = generate_update_stream(split.dataset.vectors, num_operations=1, seed=1)
        report = incremental.apply_operation(stream[0])
        assert report.retrained
        assert report.fine_tune_epochs >= 1
        # After fine-tuning the model must still produce finite estimates.
        estimates = incremental.estimate(split.test.queries[:5], split.test.thresholds[:5])
        assert np.all(np.isfinite(estimates))

    def test_database_size_tracked(self, fitted):
        estimator, split = fitted
        incremental = IncrementalSelNet(
            estimator=estimator,
            data=split.dataset.vectors,
            distance=split.distance,
            train=split.train,
            validation=split.validation,
            config=IncrementalConfig(mae_drift_threshold=1e9),
        )
        from repro.data.updates import UpdateOperation

        report = incremental.apply_operation(
            UpdateOperation(kind="insert", vectors=np.zeros((5, split.dataset.dim)))
        )
        assert report.database_size == split.dataset.num_vectors + 5

    def test_delete_below_minus_size_raises_before_any_change(self, fitted):
        """An index below ``-size`` is a ``ValueError`` (a bad request), and
        the write it came with changes nothing: no row, no report."""
        estimator, split = fitted
        incremental = IncrementalSelNet(
            estimator=estimator,
            data=split.dataset.vectors,
            distance=split.distance,
            train=split.train,
            validation=split.validation,
            config=IncrementalConfig(mae_drift_threshold=1e9),
        )
        size = split.dataset.num_vectors
        with pytest.raises(ValueError, match="out of bounds"):
            incremental.update(inserts=np.zeros((2, split.dataset.dim)), deletes=[0, -size - 1])
        assert incremental.reports == []
        np.testing.assert_array_equal(incremental.data, split.dataset.vectors)
        [report] = incremental.update(deletes=[-size])
        assert report.database_size == size - 1

    def test_writes_group_and_hash_the_validation_rows_once(self, fitted, monkeypatch):
        """Ten writes group the validation rows once and hash them once: the
        model groups them on its first relabel, and the delta oracle finds
        its batch by the grouping's read-only arrays.  The labels stay those
        of a fresh oracle's aligned pass."""
        from repro.data.updates import UpdateOperation
        from repro.exact import BlockedOracle, delta

        estimator, split = fitted
        validation = split.validation
        incremental = IncrementalSelNet(
            estimator=estimator,
            data=split.dataset.vectors,
            distance=split.distance,
            train=split.train,
            validation=validation,
            config=IncrementalConfig(mae_drift_threshold=1e9),
        )
        groupings, digests = [], []
        unique, batch_digest = np.unique, delta._batch_digest

        def counting_unique(values, *args, **kwargs):
            if values is validation.query_ids:
                groupings.append(1)
            return unique(values, *args, **kwargs)

        def counting_digest(queries, thresholds):
            digests.append(1)
            return batch_digest(queries, thresholds)

        monkeypatch.setattr(np, "unique", counting_unique)
        monkeypatch.setattr(delta, "_batch_digest", counting_digest)
        rng = np.random.default_rng(5)
        for _ in range(10):
            vectors = rng.normal(size=(3, split.dataset.dim))
            incremental.apply_operation(UpdateOperation(kind="insert", vectors=vectors))
        assert len(groupings) == 1 and len(digests) == 1
        fresh = BlockedOracle(incremental.data, split.distance).selectivities_batch(
            validation.queries, validation.thresholds
        )
        np.testing.assert_array_equal(incremental.validation.selectivities, fresh)

    def test_state_pickled_before_the_operation_log_still_updates(self, fitted):
        """An older pickle kept the current rows as ``data`` and an oracle of
        another layout; restoring it restarts the oracle from those rows and
        later writes label exactly as an uninterrupted stream does."""
        estimator, split = fitted
        incremental = IncrementalSelNet(
            estimator=copy.deepcopy(estimator),
            data=split.dataset.vectors,
            distance=split.distance,
            train=split.train,
            validation=split.validation,
            config=IncrementalConfig(mae_drift_threshold=1e9),
        )
        stream = generate_update_stream(split.dataset.vectors, num_operations=6, seed=4)
        incremental.apply_stream(stream[:3])
        legacy = dict(vars(incremental), data=incremental.data, _delta=None)
        del legacy["_predictions"]
        restored = IncrementalSelNet.__new__(IncrementalSelNet)
        restored.__setstate__(legacy)
        for operation in stream[3:]:
            expected = incremental.apply_operation(operation)
            assert restored.apply_operation(operation) == expected
        np.testing.assert_array_equal(restored.data, incremental.data)
        np.testing.assert_array_equal(
            restored.validation.selectivities, incremental.validation.selectivities
        )

    @pytest.mark.parametrize("drift_threshold", [1e9, 0.0])
    def test_drift_check_evaluates_once_per_write(self, fitted, drift_threshold):
        """A write reuses the validation predictions until a fine-tune changes
        the weights: it costs one validation pass per fine-tune epoch and
        none otherwise, and every MAE equals a fresh evaluation bit for bit."""
        estimator, split = fitted
        incremental = IncrementalSelNet(
            estimator=estimator,
            data=split.dataset.vectors,
            distance=split.distance,
            train=split.train,
            validation=split.validation,
            config=IncrementalConfig(mae_drift_threshold=drift_threshold, max_epochs=2, patience=1),
        )
        calls = []
        original = estimator.estimate
        estimator.estimate = lambda q, t: (calls.append(len(t)), original(q, t))[1]
        queries, thresholds = split.validation.queries, split.validation.thresholds
        for operation in generate_update_stream(split.dataset.vectors, num_operations=3, seed=2):
            before = original(queries, thresholds)
            calls.clear()
            report = incremental.apply_operation(operation)
            assert len(calls) == report.fine_tune_epochs
            labels = incremental.validation.selectivities
            after = original(queries, thresholds)
            assert report.validation_mae_before == float(np.mean(np.abs(before - labels)))
            assert report.validation_mae_after == float(np.mean(np.abs(after - labels)))
            if not report.retrained:
                assert report.validation_mae_after == report.validation_mae_before
        assert any(report.retrained for report in incremental.reports) == (drift_threshold == 0.0)

    def test_fine_tune_is_deterministic(self, tiny_cosine_split, fast_selnet_config):
        """One update stream fine-tunes the same way on every run."""
        split = tiny_cosine_split
        # An under-trained model, so fine-tuning improves it and keeps its weights.
        estimator = SelNetEstimator(replace(fast_selnet_config, epochs=1)).fit(split)
        fitted_state = estimator.model.state_dict()
        stream = generate_update_stream(split.dataset.vectors, num_operations=2, seed=1)
        config = IncrementalConfig(
            mae_drift_threshold=-1.0, max_epochs=4, patience=2, learning_rate=5e-3, batch_size=64
        )
        runs = []
        for _ in range(2):
            copy_ = copy.deepcopy(estimator)
            incremental = IncrementalSelNet(
                estimator=copy_,
                data=split.dataset.vectors,
                distance=split.distance,
                train=split.train,
                validation=split.validation,
                config=config,
            )
            epochs = [report.fine_tune_epochs for report in incremental.apply_stream(stream)]
            runs.append((epochs, copy_.model.state_dict()))
        (epochs, state), (other_epochs, other_state) = runs
        assert epochs == other_epochs and min(epochs) >= 1
        assert any(not np.array_equal(state[name], fitted_state[name]) for name in state)
        assert sorted(state) == sorted(other_state)
        for name, array in state.items():
            np.testing.assert_array_equal(array, other_state[name])
