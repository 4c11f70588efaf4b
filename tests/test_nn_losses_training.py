"""Tests for loss functions and the generic training loop."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import create_estimator
from repro.autodiff import Tensor, is_grad_enabled
from repro.baselines import base as deep_regression, dln, umnn
from repro.core import trainer
from repro.core.selnet import SelNetModel
from repro.nn import (
    TrainingConfig,
    feed_forward,
    fit_regressor,
    huber_loss,
    log_huber_loss,
    mae_loss,
    mse_loss,
    q_error,
)


class TestBasicLosses:
    def test_mse_zero_for_identical(self, rng):
        values = rng.normal(size=10)
        assert mse_loss(Tensor(values), Tensor(values)).item() == pytest.approx(0.0)

    def test_mse_matches_numpy(self, rng):
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(np.mean((a - b) ** 2))

    def test_mae_matches_numpy(self, rng):
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert mae_loss(Tensor(a), Tensor(b)).item() == pytest.approx(np.mean(np.abs(a - b)))

    def test_huber_below_mse_for_outliers(self, rng):
        prediction = Tensor(np.zeros(5))
        target = Tensor(np.array([100.0, 0.0, 0.0, 0.0, 0.0]))
        assert huber_loss(prediction, target).item() < mse_loss(prediction, target).item()

    def test_losses_accept_numpy_targets(self, rng):
        prediction = Tensor(rng.normal(size=6), requires_grad=True)
        loss = mse_loss(prediction, rng.normal(size=6))
        loss.backward()
        assert prediction.grad is not None


class TestLogHuberLoss:
    def test_zero_for_exact_prediction(self):
        values = np.array([1.0, 10.0, 1000.0])
        assert log_huber_loss(Tensor(values), Tensor(values)).item() == pytest.approx(0.0, abs=1e-12)

    def test_relative_error_scale_invariance(self):
        """Being off by 2x costs roughly the same at selectivity 100 and 100'000.

        The invariance is only approximate because of the +1 padding inside
        the logarithm, so the tolerance is loose.
        """
        small = log_huber_loss(Tensor([200.0]), Tensor([100.0])).item()
        large = log_huber_loss(Tensor([200000.0]), Tensor([100000.0])).item()
        assert small == pytest.approx(large, rel=0.05)

    def test_negative_prediction_is_safe(self):
        loss = log_huber_loss(Tensor([-5.0]), Tensor([10.0]))
        assert np.isfinite(loss.item())

    def test_gradient_flows(self):
        prediction = Tensor(np.array([5.0, 50.0]), requires_grad=True)
        log_huber_loss(prediction, Tensor(np.array([10.0, 10.0]))).backward()
        assert prediction.grad is not None
        assert np.all(np.isfinite(prediction.grad))
        # Underestimate -> gradient pushes prediction up (negative d loss / d pred).
        assert prediction.grad[0] < 0
        assert prediction.grad[1] > 0

    @settings(max_examples=30, deadline=None)
    @given(
        target=st.floats(0.0, 1e6, allow_nan=False),
        prediction=st.floats(0.0, 1e6, allow_nan=False),
    )
    def test_property_loss_nonnegative_finite(self, target, prediction):
        loss = log_huber_loss(Tensor([prediction]), Tensor([target])).item()
        assert loss >= 0.0 and np.isfinite(loss)


class TestQError:
    def test_exact_prediction_gives_one(self):
        np.testing.assert_allclose(q_error(np.array([5.0]), np.array([5.0])), [1.0])

    def test_symmetric_in_over_and_under_estimation(self):
        over = q_error(np.array([20.0]), np.array([10.0]))
        under = q_error(np.array([10.0]), np.array([20.0]))
        np.testing.assert_allclose(over, under)

    def test_at_least_one(self, rng):
        prediction = np.abs(rng.normal(size=20)) * 100
        target = np.abs(rng.normal(size=20)) * 100
        assert np.all(q_error(prediction, target) >= 1.0)


class TestFitRegressor:
    def _make_problem(self, rng, n=300):
        x = rng.normal(size=(n, 3))
        y = 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2]
        return x, y

    def test_fit_reduces_loss(self, rng):
        x, y = self._make_problem(rng)
        model = feed_forward(3, [16], 1, rng=rng)
        config = TrainingConfig(epochs=30, batch_size=32, learning_rate=5e-3)
        history = fit_regressor(
            model,
            lambda prediction, target: mse_loss(prediction.reshape(len(target)), Tensor(target)),
            x,
            y,
            config,
            rng=rng,
        )
        assert history.train_loss[-1] < history.train_loss[0] * 0.5

    def test_early_stopping_restores_best_model(self, rng):
        x, y = self._make_problem(rng, n=200)
        x_valid, y_valid = self._make_problem(rng, n=50)
        model = feed_forward(3, [16], 1, rng=rng)
        config = TrainingConfig(
            epochs=40, batch_size=32, learning_rate=5e-3, early_stopping_patience=5
        )
        history = fit_regressor(
            model,
            lambda prediction, target: mse_loss(prediction.reshape(len(target)), Tensor(target)),
            x,
            y,
            config,
            validation=(x_valid, y_valid),
            rng=rng,
        )
        assert history.validation_loss
        assert history.best_validation_loss == pytest.approx(min(history.validation_loss))

    def test_model_in_eval_mode_after_fit(self, rng):
        x, y = self._make_problem(rng, n=100)
        model = feed_forward(3, [8], 1, rng=rng)
        fit_regressor(
            model,
            lambda prediction, target: mse_loss(prediction.reshape(len(target)), Tensor(target)),
            x,
            y,
            TrainingConfig(epochs=2, batch_size=32),
            rng=rng,
        )
        assert not model.training


def _recording_loss(loss, seen, is_validation):
    """``loss`` that records ``(grad enabled, prediction records a tape)`` on
    the calls whose targets are the validation labels."""

    def recorded(prediction, targets, *args, **kwargs):
        if is_validation(targets):
            seen.append((is_grad_enabled(), prediction.requires_grad))
        return loss(prediction, targets, *args, **kwargs)

    return recorded


class TestValidationRecordsNoTape:
    """Scoring the validation set is evaluation only: the forward and the
    loss run under ``no_grad``, so no tape is built for a set that is never
    backpropagated."""

    #: estimator -> (module whose loss its loop calls, that loss's name, params);
    #: ``selnet-ct`` and ``selnet`` run the two SelNet loops, ``dnn`` runs
    #: ``fit_regressor`` (as RMI and MoE do)
    LOOPS = {
        "selnet-ct": (trainer, "_estimation_loss", {}),
        "selnet": (trainer, "_estimation_loss", {"num_partitions": 2}),
        "dnn": (deep_regression, "log_huber_loss", {"hidden_sizes": (8,), "epochs": 2}),
        "dln": (dln, "log_huber_loss", {"num_lattices": 2, "epochs": 2}),
        "umnn": (
            umnn,
            "log_huber_loss",
            {"hidden_sizes": (8,), "num_quadrature_points": 4, "epochs": 2},
        ),
    }

    @pytest.mark.parametrize("name", sorted(LOOPS))
    def test_estimator_validation_pass(
        self, name, monkeypatch, tiny_cosine_split, fast_selnet_config
    ):
        module, attribute, params = self.LOOPS[name]
        if name.startswith("selnet"):
            params = dict(asdict(fast_selnet_config), epochs=2, pretrain_epochs=1, **params)
        labels = tiny_cosine_split.validation.selectivities
        seen = []
        monkeypatch.setattr(
            module,
            attribute,
            _recording_loss(getattr(module, attribute), seen, lambda targets: targets is labels),
        )
        create_estimator(name, **params).fit(tiny_cosine_split)
        assert len(seen) == 2, "one validation pass per epoch"
        assert set(seen) == {(False, False)}

    def test_curve_for_query_records_no_tape(
        self, monkeypatch, tiny_cosine_split, fast_selnet_config
    ):
        model = SelNetModel(
            tiny_cosine_split.train.queries.shape[1], tiny_cosine_split.t_max, fast_selnet_config
        )
        seen = []
        control_points = model.control_points

        def recorded(queries):
            tau, p = control_points(queries)
            seen.append((is_grad_enabled(), tau.requires_grad or p.requires_grad))
            return tau, p

        monkeypatch.setattr(model, "control_points", recorded)
        model.curve_for_query(tiny_cosine_split.test.queries[0])
        assert seen == [(False, False)]
