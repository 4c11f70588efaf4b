"""Unit and property tests for the higher-level autodiff functions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import (
    Tensor,
    affine,
    check_gradients,
    cumsum,
    dropout,
    gather_rows,
    huber,
    log_softmax,
    logsumexp,
    norm_l2_squared,
    piecewise_linear,
    prefix_sum_matrix,
    softmax,
)


class TestAffine:
    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert check_gradients(affine, [x, weight, bias])

    def test_batched_gradients(self, rng):
        """The batched form SelNet's stacked decoders use: (P, n, E) @ (P, E, 1)."""
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 4, 1)), requires_grad=True)
        bias = Tensor(rng.normal(size=(3, 1, 1)), requires_grad=True)
        assert check_gradients(affine, [x, weight, bias])

    def test_without_bias(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        assert check_gradients(affine, [x, weight])

    def test_bit_equal_to_matmul_then_add(self, rng):
        x_data = rng.normal(size=(7, 5))
        w_data, b_data = rng.normal(size=(5, 3)), rng.normal(size=(3,))
        pair = [Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data)]
        fused = [Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data)]
        upstream = rng.normal(size=(7, 3))
        expected = pair[0] @ pair[1] + pair[2]
        expected.backward(upstream)
        out = affine(*fused)
        out.backward(upstream)
        np.testing.assert_array_equal(out.data, expected.data)
        for left, right in zip(fused, pair):
            np.testing.assert_array_equal(left.grad, right.grad)

    def test_one_tape_node_and_no_input_gradient_for_data(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        weight = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        out = affine(x, weight, Tensor(np.zeros(2), requires_grad=True))
        assert out._parents[0] is x and out._parents[1] is weight
        grads = out._backward_fn(np.ones((4, 2)))
        assert grads[0] is None and grads[1].shape == (3, 2)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        out = softmax(Tensor(rng.normal(size=(4, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_softmax_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        multiplier = Tensor(rng.normal(size=(3, 5)))
        assert check_gradients(lambda v: softmax(v) * multiplier, [x])

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(2, 6))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(log_softmax(x).data, np.log(softmax(x).data), atol=1e-12)

    def test_log_softmax_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert check_gradients(lambda v: log_softmax(v), [x])

    def test_logsumexp_matches_numpy(self, rng):
        x = rng.normal(size=(3, 6))
        expected = np.log(np.exp(x).sum(axis=1))
        np.testing.assert_allclose(logsumexp(Tensor(x), axis=1).data, expected, atol=1e-12)

    def test_logsumexp_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        assert check_gradients(lambda v: logsumexp(v, axis=1), [x])


class TestNormL2Squared:
    def test_rows_sum_to_one(self, rng):
        out = norm_l2_squared(Tensor(rng.normal(size=(5, 9))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-9)

    def test_strictly_positive(self, rng):
        out = norm_l2_squared(Tensor(rng.normal(size=(5, 9))))
        assert np.all(out.data > 0)

    def test_zero_input_is_uniform(self):
        out = norm_l2_squared(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, np.full((2, 4), 0.25), atol=1e-9)

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        assert check_gradients(lambda v: norm_l2_squared(v), [x], atol=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(
        data=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(2, 8)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_property_simplex_output(self, data):
        """Property: Norm_l2 output is a point on the probability simplex."""
        out = norm_l2_squared(Tensor(data)).data
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(len(data)), atol=1e-8)


class TestCumsumAndPrefixSum:
    def test_cumsum_matches_numpy(self, rng):
        x = rng.normal(size=(3, 7))
        np.testing.assert_allclose(cumsum(Tensor(x), axis=1).data, np.cumsum(x, axis=1))

    def test_cumsum_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
        multiplier = Tensor(rng.normal(size=(3, 7)))
        assert check_gradients(lambda v: cumsum(v, axis=1) * multiplier, [x])

    def test_cumsum_axis0_gradient(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        assert check_gradients(lambda v: cumsum(v, axis=0), [x])

    def test_prefix_sum_matrix_equivalence(self, rng):
        """Multiplying by M_psum equals cumsum (the paper's formulation)."""
        x = rng.normal(size=(2, 5))
        matrix = prefix_sum_matrix(5)
        np.testing.assert_allclose(x @ matrix.T, np.cumsum(x, axis=1))

    def test_prefix_sum_matrix_is_lower_triangular_ones(self):
        matrix = prefix_sum_matrix(4)
        assert matrix.shape == (4, 4)
        assert np.all(matrix == np.tril(np.ones((4, 4))))


class TestHuber:
    def test_quadratic_region(self):
        out = huber(Tensor([0.5]), delta=1.0)
        assert out.data[0] == pytest.approx(0.125)

    def test_linear_region(self):
        out = huber(Tensor([3.0]), delta=1.0)
        assert out.data[0] == pytest.approx(1.0 * (3.0 - 0.5))

    def test_symmetry(self, rng):
        x = rng.normal(size=20) * 3
        np.testing.assert_allclose(huber(Tensor(x)).data, huber(Tensor(-x)).data)

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(4, 4)) * 3, requires_grad=True)
        assert check_gradients(lambda v: huber(v), [x], atol=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(value=st.floats(-100, 100, allow_nan=False), delta=st.floats(0.1, 5.0))
    def test_property_huber_bounded_by_quadratic(self, value, delta):
        """Property: the Huber penalty never exceeds the pure quadratic one."""
        penalty = float(huber(Tensor([value]), delta=delta).data[0])
        assert penalty <= 0.5 * value ** 2 + 1e-9
        assert penalty >= 0.0


class TestDropout:
    def test_inference_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = dropout(x, rate=0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_zero_rate_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = dropout(x, rate=0.0, training=True)
        np.testing.assert_allclose(out.data, x.data)

    def test_training_preserves_expectation(self, rng):
        x = Tensor(np.ones((2000,)))
        out = dropout(x, rate=0.3, training=True, rng=np.random.default_rng(0))
        assert out.data.mean() == pytest.approx(1.0, abs=0.1)


class TestGatherRows:
    def test_values(self, rng):
        x = rng.normal(size=(6, 3))
        indices = np.array([0, 2, 2, 5])
        out = gather_rows(Tensor(x), indices)
        np.testing.assert_allclose(out.data, x[indices])

    def test_gradient_accumulates_duplicates(self):
        x = Tensor(np.zeros((4, 2)), requires_grad=True)
        out = gather_rows(x, np.array([1, 1, 3]))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


class TestPiecewiseLinear:
    def make_inputs(self, rng, batch=4, points=7):
        tau = np.sort(rng.uniform(0.0, 1.0, size=(batch, points)), axis=1)
        tau[:, 0] = 0.0
        tau[:, -1] = 1.0
        p = np.sort(rng.uniform(0.0, 50.0, size=(batch, points)), axis=1)
        t = rng.uniform(0.05, 0.95, size=batch)
        return Tensor(tau, requires_grad=True), Tensor(p, requires_grad=True), t

    def test_matches_numpy_interp(self, rng):
        tau, p, t = self.make_inputs(rng)
        out = piecewise_linear(tau, p, t)
        expected = [np.interp(ti, taui, pi) for ti, taui, pi in zip(t, tau.data, p.data)]
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_endpoints(self, rng):
        tau, p, _ = self.make_inputs(rng)
        at_zero = piecewise_linear(tau, p, np.zeros(4))
        at_one = piecewise_linear(tau, p, np.ones(4))
        np.testing.assert_allclose(at_zero.data, p.data[:, 0], atol=1e-9)
        np.testing.assert_allclose(at_one.data, p.data[:, -1], atol=1e-9)

    def test_clamps_out_of_range_thresholds(self, rng):
        tau, p, _ = self.make_inputs(rng)
        below = piecewise_linear(tau, p, np.full(4, -1.0))
        above = piecewise_linear(tau, p, np.full(4, 2.0))
        np.testing.assert_allclose(below.data, p.data[:, 0])
        np.testing.assert_allclose(above.data, p.data[:, -1])

    def test_gradients(self, rng):
        tau, p, t = self.make_inputs(rng)
        assert check_gradients(lambda a, b: piecewise_linear(a, b, t), [tau, p], atol=1e-3)

    def test_shape_mismatch_raises(self, rng):
        tau, p, t = self.make_inputs(rng)
        bad_p = Tensor(p.data[:, :-1])
        with pytest.raises(ValueError):
            piecewise_linear(tau, bad_p, t)

    def test_monotone_p_gives_monotone_output(self, rng):
        """Lemma 1: non-decreasing p implies the estimate is monotone in t."""
        tau, p, _ = self.make_inputs(rng)
        thresholds = np.linspace(0.0, 1.0, 40)
        for row in range(tau.shape[0]):
            row_tau = Tensor(np.repeat(tau.data[row : row + 1], len(thresholds), axis=0))
            row_p = Tensor(np.repeat(p.data[row : row + 1], len(thresholds), axis=0))
            values = piecewise_linear(row_tau, row_p, thresholds).data
            assert np.all(np.diff(values) >= -1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_output_within_p_range(self, seed):
        """Property: interpolation never leaves the [p_0, p_last] interval."""
        rng = np.random.default_rng(seed)
        tau, p, t = self.make_inputs(rng, batch=3, points=6)
        out = piecewise_linear(tau, p, t).data
        assert np.all(out >= p.data[:, 0] - 1e-9)
        assert np.all(out <= p.data[:, -1] + 1e-9)
