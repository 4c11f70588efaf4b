"""Tests for the piece-wise linear machinery and control-point generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, check_gradients
from repro.core import (
    PiecewiseLinearCurve,
    evaluate_piecewise_linear,
    fit_piecewise_linear_curve,
    is_monotone_curve,
)
from repro.core.control_points import ControlPointHead, PGenerator, TauGenerator
from repro.nn import Linear
from repro.nn.layers import feed_forward


class TestPiecewiseLinearCurve:
    def test_evaluation_matches_interp(self, rng):
        tau = np.sort(rng.uniform(0, 1, size=8))
        p = np.sort(rng.uniform(0, 100, size=8))
        grid = rng.uniform(tau[0], tau[-1], size=30)
        np.testing.assert_allclose(
            evaluate_piecewise_linear(tau, p, grid), np.interp(grid, tau, p)
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            evaluate_piecewise_linear(np.zeros(4), np.zeros(5), np.zeros(2))

    def test_curve_call_and_properties(self, rng):
        tau = np.linspace(0, 1, 6)
        p = np.cumsum(rng.uniform(0, 1, size=6))
        curve = PiecewiseLinearCurve(tau=tau, p=p)
        assert curve.num_control_points == 6
        assert curve.is_monotone
        assert len(curve.control_points()) == 6
        assert len(curve.segment_slopes()) == 5
        assert np.all(curve.segment_slopes() >= 0)

    def test_non_monotone_detected(self):
        curve = PiecewiseLinearCurve(tau=np.array([0.0, 1.0, 2.0]), p=np.array([0.0, 5.0, 3.0]))
        assert not curve.is_monotone

    def test_is_monotone_curve_helper(self):
        assert is_monotone_curve(np.array([0, 1, 2]), np.array([0, 0, 1]))
        assert not is_monotone_curve(np.array([0, 1, 2]), np.array([1, 0, 2]))


class TestFitPiecewiseLinearCurve:
    def test_adaptive_beats_uniform_on_exponential(self, rng):
        """The Figure 3 claim: adaptive knots fit exp(t)/10 far better."""
        t = np.sort(rng.uniform(0, 10, size=120))
        y = np.exp(t) / 10.0
        adaptive = fit_piecewise_linear_curve(t, y, 8, adaptive=True)
        uniform = fit_piecewise_linear_curve(t, y, 8, adaptive=False)
        grid = np.linspace(0, 10, 300)
        truth = np.exp(grid) / 10.0
        adaptive_mse = np.mean((adaptive(grid) - truth) ** 2)
        uniform_mse = np.mean((uniform(grid) - truth) ** 2)
        assert adaptive_mse < 0.5 * uniform_mse

    def test_fits_are_monotone(self, rng):
        t = np.sort(rng.uniform(0, 5, size=60))
        y = np.cumsum(np.abs(rng.normal(size=60)))
        for adaptive in (True, False):
            curve = fit_piecewise_linear_curve(t, y, 6, adaptive=adaptive)
            assert curve.is_monotone

    def test_number_of_control_points(self, rng):
        t = np.sort(rng.uniform(0, 5, size=50))
        y = t ** 2
        curve = fit_piecewise_linear_curve(t, y, 7, adaptive=True)
        assert curve.num_control_points <= 7
        assert curve.num_control_points >= 2

    def test_rejects_too_few_points(self, rng):
        with pytest.raises(ValueError):
            fit_piecewise_linear_curve(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1)


class TestTauGenerator:
    def make_generator(self, rng, query_dependent=True, num_points=6, t_max=2.0):
        return TauGenerator(
            input_dim=5,
            num_control_points=num_points,
            t_max=t_max,
            hidden_sizes=(8,),
            query_dependent=query_dependent,
            rng=rng,
        )

    def test_output_shape_and_bounds(self, rng):
        generator = self.make_generator(rng)
        tau = generator(Tensor(rng.normal(size=(7, 5))))
        assert tau.shape == (7, 8)
        np.testing.assert_allclose(tau.data[:, 0], 0.0)
        np.testing.assert_allclose(tau.data[:, -1], 2.0)

    def test_monotone_non_decreasing(self, rng):
        generator = self.make_generator(rng)
        tau = generator(Tensor(rng.normal(size=(10, 5))))
        assert np.all(np.diff(tau.data, axis=1) >= -1e-12)

    def test_query_dependence(self, rng):
        generator = self.make_generator(rng, query_dependent=True)
        tau = generator(Tensor(rng.normal(size=(2, 5)) * 3))
        assert not np.allclose(tau.data[0], tau.data[1])

    def test_ablation_is_query_independent(self, rng):
        generator = self.make_generator(rng, query_dependent=False)
        tau = generator(Tensor(rng.normal(size=(2, 5)) * 3))
        np.testing.assert_allclose(tau.data[0], tau.data[1])

    def test_invalid_t_max(self, rng):
        with pytest.raises(ValueError):
            TauGenerator(input_dim=3, num_control_points=4, t_max=0.0, rng=rng)

    def test_gradient_flows_to_network(self, rng):
        generator = self.make_generator(rng)
        tau = generator(Tensor(rng.normal(size=(4, 5))))
        tau.sum().backward()
        grads = [p.grad for p in generator.parameters()]
        assert any(g is not None and np.any(g != 0) for g in grads)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), t_max=st.floats(0.1, 50.0))
    def test_property_tau_always_valid(self, seed, t_max):
        """Property: for any weights/input, tau is a valid monotone grid on [0, t_max]."""
        rng = np.random.default_rng(seed)
        generator = TauGenerator(4, 5, t_max=t_max, hidden_sizes=(6,), rng=rng)
        tau = generator(Tensor(rng.normal(size=(3, 4)) * 10)).data
        assert np.all(np.diff(tau, axis=1) >= -1e-9)
        np.testing.assert_allclose(tau[:, 0], 0.0)
        np.testing.assert_allclose(tau[:, -1], t_max)


class TestPGenerator:
    def make_generator(self, rng, num_points=6):
        return PGenerator(input_dim=5, num_control_points=num_points, embedding_dim=4, hidden_sizes=(12,), rng=rng)

    def test_output_shape(self, rng):
        generator = self.make_generator(rng)
        p = generator(Tensor(rng.normal(size=(3, 5))))
        assert p.shape == (3, 8)

    def test_non_decreasing(self, rng):
        generator = self.make_generator(rng)
        p = generator(Tensor(rng.normal(size=(10, 5)) * 5))
        assert np.all(np.diff(p.data, axis=1) >= -1e-12)

    def test_non_negative(self, rng):
        generator = self.make_generator(rng)
        p = generator(Tensor(rng.normal(size=(10, 5))))
        assert np.all(p.data >= -1e-12)

    def test_gradients_reach_decoders(self, rng):
        generator = self.make_generator(rng)
        p = generator(Tensor(rng.normal(size=(4, 5))))
        p.sum().backward()
        weight = generator.decoder_weight
        assert weight.grad is not None and weight.grad.shape == weight.shape == (8, 4, 1)
        assert generator.decoder_bias.grad.shape == (8, 1, 1)

    def test_initial_weights_draw_the_per_decoder_stream(self):
        """The stacked decoders draw he-normal (fan-in E) weights one control
        point after another, as a list of Linear(E, 1) layers did."""
        generator = self.make_generator(np.random.default_rng(3))
        rng = np.random.default_rng(3)
        encoder = feed_forward(5, [12], 8 * 4, rng=rng)
        decoders = [Linear(4, 1, rng=rng) for _ in range(8)]
        for ours, theirs in zip(generator.encoder.parameters(), encoder.parameters()):
            np.testing.assert_array_equal(ours.data, theirs.data)
        np.testing.assert_array_equal(
            generator.decoder_weight.data, np.stack([d.weight.data for d in decoders])
        )
        np.testing.assert_array_equal(generator.decoder_bias.data, np.zeros((8, 1, 1)))

    def test_batched_decoder_equals_per_point_decoders(self, rng):
        generator = self.make_generator(rng)
        generator.decoder_bias.data = rng.normal(size=(8, 1, 1))
        x = Tensor(rng.normal(size=(6, 5)))
        embeddings = generator.encoder(x).data
        weight, bias = generator.decoder_weight.data, generator.decoder_bias.data
        increments = [
            np.maximum(embeddings[:, 4 * i : 4 * (i + 1)] @ weight[i] + bias[i, 0], 0.0)
            for i in range(8)
        ]
        expected = np.cumsum(np.concatenate(increments, axis=1), axis=1)
        np.testing.assert_array_equal(generator(x).data, expected)

    def test_batched_decoder_gradients(self, rng):
        generator = self.make_generator(rng)
        # Shift the biases so no ReLU sits at its kink under the finite differences.
        generator.decoder_bias.data = np.full((8, 1, 1), 0.5)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        params = [generator.decoder_weight, generator.decoder_bias]
        assert check_gradients(lambda q, w, b: generator(q), [x] + params, atol=1e-4)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_p_monotone_for_any_weights(self, seed):
        """Property (Lemma 1 premise): p is non-decreasing for any weights."""
        rng = np.random.default_rng(seed)
        generator = PGenerator(3, 4, embedding_dim=3, hidden_sizes=(5,), rng=rng)
        p = generator(Tensor(rng.normal(size=(2, 3)) * 10)).data
        assert np.all(np.diff(p, axis=1) >= -1e-9)


class TestControlPointHead:
    def test_joint_output(self, rng):
        head = ControlPointHead(
            input_dim=6,
            num_control_points=5,
            t_max=1.5,
            embedding_dim=4,
            tau_hidden_sizes=(8,),
            p_hidden_sizes=(10,),
            rng=rng,
        )
        tau, p = head(Tensor(rng.normal(size=(4, 6))))
        assert tau.shape == p.shape == (4, 7)
        assert np.all(np.diff(tau.data, axis=1) >= -1e-12)
        assert np.all(np.diff(p.data, axis=1) >= -1e-12)
