"""Unit tests for the neural-network substrate: modules, layers, optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.nn import (
    SGD,
    Adam,
    Autoencoder,
    DataLoader,
    Dropout,
    ELUPlusOne,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Softplus,
    Tanh,
    feed_forward,
    train_validation_split,
)
from repro.nn.init import get_initializer, he_normal, small_normal, xavier_uniform, zeros


class TestInitializers:
    def test_xavier_bounds(self, rng):
        weights = xavier_uniform((100, 50), rng)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(weights) <= limit)

    def test_he_scale(self, rng):
        weights = he_normal((2000, 10), rng)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 2000), rel=0.15)

    def test_zeros(self):
        assert np.all(zeros((3, 3)) == 0)

    def test_small_normal(self, rng):
        weights = small_normal((5000,), rng, std=0.01)
        assert abs(weights.std() - 0.01) < 0.002

    def test_registry_lookup(self):
        assert get_initializer("he") is he_normal
        with pytest.raises(KeyError):
            get_initializer("bogus")


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_reach_parameters(self, rng):
        layer = Linear(4, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(6, 4))))
        out.sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None

    def test_gradient_correctness(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 3)))
        assert check_gradients(lambda w, b: x @ w + b, [layer.weight, layer.bias])


class TestActivationsAndContainers:
    @pytest.mark.parametrize("activation", [ReLU(), Sigmoid(), Tanh(), Softplus(), ELUPlusOne()])
    def test_activation_shapes(self, rng, activation):
        x = Tensor(rng.normal(size=(5, 4)))
        assert activation(x).shape == (5, 4)

    def test_elu_plus_one_positive(self, rng):
        out = ELUPlusOne()(Tensor(rng.normal(size=(200,)) * 5))
        assert np.all(out.data > 0)

    def test_elu_plus_one_continuity_at_zero(self):
        out = ELUPlusOne()(Tensor([-1e-9, 0.0, 1e-9]))
        np.testing.assert_allclose(out.data, [1.0, 1.0, 1.0], atol=1e-6)

    def test_sequential_applies_in_order(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 1, rng=rng))
        out = model(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 1)
        assert len(model) == 3

    def test_feed_forward_builder(self, rng):
        model = feed_forward(6, [10, 10], 2, rng=rng)
        out = model(Tensor(rng.normal(size=(4, 6))))
        assert out.shape == (4, 2)

    def test_feed_forward_output_activation(self, rng):
        model = feed_forward(3, [5], 1, output_activation="softplus", rng=rng)
        out = model(Tensor(rng.normal(size=(10, 3))))
        assert np.all(out.data > 0)

    def test_feed_forward_unknown_activation(self, rng):
        with pytest.raises(KeyError):
            feed_forward(3, [5], 1, activation="bogus", rng=rng)

    def test_dropout_eval_mode(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        x = Tensor(rng.normal(size=(5, 5)))
        np.testing.assert_allclose(layer(x).data, x.data)


class TestModuleProtocol:
    def test_named_parameters_nested(self, rng):
        class Wrapper(Module):
            def __init__(self):
                super().__init__()
                self.inner = Linear(2, 2, rng=rng)
                self.extra = Tensor(np.zeros(3), requires_grad=True)

            def forward(self, x):
                return self.inner(x) + self.extra[:2]

        names = dict(Wrapper().named_parameters())
        assert "inner.weight" in names and "inner.bias" in names and "extra" in names

    def test_named_parameters_in_lists(self, rng):
        model = Sequential(Linear(2, 3, rng=rng), ReLU(), Linear(3, 1, rng=rng))
        names = [name for name, _ in model.named_parameters()]
        assert any(name.startswith("layers.0") for name in names)
        assert any(name.startswith("layers.2") for name in names)

    def test_state_dict_roundtrip(self, rng):
        model = feed_forward(4, [6], 1, rng=rng)
        state = model.state_dict()
        clone = feed_forward(4, [6], 1, rng=np.random.default_rng(999))
        clone.load_state_dict(state)
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_state_dict_shape_mismatch(self, rng):
        model = feed_forward(4, [6], 1, rng=rng)
        other = feed_forward(4, [7], 1, rng=rng)
        with pytest.raises((KeyError, ValueError)):
            model.load_state_dict(other.state_dict())

    def test_num_parameters(self, rng):
        model = Linear(4, 3, rng=rng)
        assert model.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self, rng):
        model = Sequential(Dropout(0.5, rng=rng), Linear(2, 2, rng=rng))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self, rng):
        model = Linear(3, 1, rng=rng)
        model(Tensor(rng.normal(size=(2, 3)))).sum().backward()
        model.zero_grad()
        assert model.weight.grad is None

    def test_shared_submodule_listed_once(self, rng):
        shared = Linear(2, 2, rng=rng)

        class Twice(Module):
            def __init__(self):
                super().__init__()
                self.first = shared
                self.branches = [Sequential(shared, ReLU()), Sequential(shared)]

        model = Twice()
        names = [name for name, _ in model.named_parameters()]
        assert names == ["first.weight", "first.bias"]
        assert model.parameter_aliases() == {
            "branches.0.layers.0.weight": "first.weight",
            "branches.0.layers.0.bias": "first.bias",
            "branches.1.layers.0.weight": "first.weight",
            "branches.1.layers.0.bias": "first.bias",
        }
        modules = list(model.modules())
        assert len(modules) == len({id(module) for module in modules}) == 5
        assert sorted(model.state_dict()) == ["first.bias", "first.weight"]


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        parameter = Tensor(np.zeros(2), requires_grad=True)
        return parameter, target

    def test_sgd_converges_on_quadratic(self):
        parameter, target = self._quadratic_problem()
        optimizer = SGD([parameter], learning_rate=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            loss = ((parameter - Tensor(target)) ** 2).sum()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-3)

    def test_sgd_with_momentum_converges(self):
        parameter, target = self._quadratic_problem()
        optimizer = SGD([parameter], learning_rate=0.05, momentum=0.9)
        for _ in range(200):
            optimizer.zero_grad()
            ((parameter - Tensor(target)) ** 2).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-2)

    def test_adam_converges_on_quadratic(self):
        parameter, target = self._quadratic_problem()
        optimizer = Adam([parameter], learning_rate=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            ((parameter - Tensor(target)) ** 2).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-2)

    def test_adam_gradient_clipping(self):
        parameter = Tensor(np.zeros(2), requires_grad=True)
        optimizer = Adam([parameter], learning_rate=0.1, max_grad_norm=1.0)
        optimizer.zero_grad()
        (parameter * 1e6).sum().backward()
        optimizer.step()
        assert np.all(np.isfinite(parameter.data))

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], learning_rate=0.1)

    def test_adam_rejects_duplicate_parameters(self):
        parameter = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([parameter, parameter])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("max_grad_norm", [None, 1e9])
    def test_flat_adam_matches_per_parameter_loop(self, rng, weight_decay, max_grad_norm):
        """Bit-identical to the per-parameter loop whenever clipping does not
        fire, including parameters without a gradient (DLN trains with such
        parameters) and a parameter rebound by load_state_dict."""
        model = feed_forward(4, [5], 3, rng=rng)
        # More elements than one update block, so segments straddle blocks.
        model.wide = Tensor(rng.normal(size=(201, 200)), requires_grad=True)
        model.frozen = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        params = model.parameters()
        reference = ReferenceAdam(
            [param.data.copy() for param in params], learning_rate=0.01, weight_decay=weight_decay
        )
        optimizer = Adam(
            params, learning_rate=0.01, weight_decay=weight_decay, max_grad_norm=max_grad_norm
        )
        for step in range(6):
            grads = [rng.normal(size=param.shape) for param in params]
            grads[-1] = None  # ``frozen`` never receives a gradient
            if step == 2:
                grads[0] = None  # a parameter skipped for one step only
            if step == 4:
                state = {name: rng.normal(size=p.shape) for name, p in model.named_parameters()}
                model.load_state_dict(state)
                reference.values = [state[name].copy() for name, _ in model.named_parameters()]
            for param, grad in zip(params, grads):
                param.grad = grad
            optimizer.step()
            reference.step(grads)
            for param, expected in zip(params, reference.values):
                np.testing.assert_array_equal(param.data, expected)

    def test_adam_step_never_writes_into_handed_out_arrays(self, rng):
        layer = Linear(3, 2, rng=rng)
        optimizer = Adam(layer.parameters(), learning_rate=0.1)
        before = layer.weight.data
        frozen = before.copy()
        for _ in range(2):
            layer(Tensor(rng.normal(size=(4, 3)))).sum().backward()
            optimizer.step()
            optimizer.zero_grad()
        np.testing.assert_array_equal(before, frozen)
        assert not np.array_equal(layer.weight.data, frozen)

    def test_adam_clipping_scales_the_gradients(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        optimizer = Adam([parameter], learning_rate=0.1, max_grad_norm=1.0)
        parameter.grad = np.full(4, 3.0)
        optimizer.step()
        np.testing.assert_allclose(np.linalg.norm(parameter.grad), 1.0)

    def test_weight_decay_shrinks_parameters(self):
        parameter = Tensor(np.ones(3) * 10.0, requires_grad=True)
        optimizer = SGD([parameter], learning_rate=0.1, weight_decay=1.0)
        optimizer.zero_grad()
        (parameter * 0.0).sum().backward()
        optimizer.step()
        assert np.all(np.abs(parameter.data) < 10.0)


class ReferenceAdam:
    """The per-parameter Adam loop the flat-buffer optimizer replaced (no
    clipping): the bit-level reference for :class:`repro.nn.Adam`."""

    def __init__(self, values, learning_rate, weight_decay=0.0, beta1=0.9, beta2=0.999):
        self.values = values
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.epsilon = beta1, beta2, 1e-8
        self.first = [np.zeros_like(value) for value in values]
        self.second = [np.zeros_like(value) for value in values]
        self.count = 0

    def step(self, grads):
        self.count += 1
        bias_correction1 = 1.0 - self.beta1 ** self.count
        bias_correction2 = 1.0 - self.beta2 ** self.count
        for index, (grad, m, v) in enumerate(zip(grads, self.first, self.second)):
            if grad is None:
                continue
            value = self.values[index]
            if self.weight_decay:
                grad = grad + self.weight_decay * value
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            self.values[index] = value - self.learning_rate * m_hat / (
                np.sqrt(v_hat) + self.epsilon
            )


class TestDataLoader:
    def test_batches_cover_all_rows(self, rng):
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        loader = DataLoader(x, y, batch_size=8, shuffle=True, rng=rng)
        seen = sum(len(batch_x) for batch_x, _ in loader)
        assert seen == 25
        assert len(loader) == 4

    def test_no_shuffle_keeps_order(self, rng):
        x = np.arange(10)[:, None].astype(float)
        loader = DataLoader(x, batch_size=4, shuffle=False)
        first = next(iter(loader))[0]
        np.testing.assert_allclose(first[:, 0], [0, 1, 2, 3])

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            DataLoader(np.zeros((5, 2)), np.zeros(4))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(np.zeros((5, 2)), batch_size=0)

    def test_train_validation_split_sizes(self, rng):
        x = rng.normal(size=(50, 2))
        (train_x,), (valid_x,) = train_validation_split([x], validation_fraction=0.2, rng=rng)
        assert len(train_x) == 40 and len(valid_x) == 10

    def test_train_validation_split_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            train_validation_split([np.zeros((10, 1))], validation_fraction=1.5)


class TestAutoencoder:
    def test_encode_shape(self, rng):
        model = Autoencoder(input_dim=8, latent_dim=3, hidden_sizes=(6,), rng=rng)
        latent = model.encode(Tensor(rng.normal(size=(5, 8))))
        assert latent.shape == (5, 3)

    def test_pretrain_reduces_reconstruction_loss(self, rng):
        data = rng.normal(size=(200, 6))
        model = Autoencoder(input_dim=6, latent_dim=3, hidden_sizes=(12,), rng=rng)
        history = model.pretrain(data, epochs=15, batch_size=32, learning_rate=5e-3, rng=rng)
        assert history[-1] < history[0]

    def test_reconstruction_loss_scalar(self, rng):
        model = Autoencoder(input_dim=4, latent_dim=2, rng=rng)
        loss = model.reconstruction_loss(Tensor(rng.normal(size=(7, 4))))
        assert loss.size == 1
