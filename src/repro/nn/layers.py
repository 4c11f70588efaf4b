"""Neural-network layers: linear layers, activations and containers."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..autodiff import Tensor, affine, dropout
from . import init as initializers
from .module import Module


class Linear(Module):
    """Fully connected layer ``y = x W + b``, one :func:`~repro.autodiff.affine` node.

    Parameters
    ----------
    in_features:
        Input dimensionality.
    out_features:
        Output dimensionality.
    bias:
        Whether to add a learnable bias.
    initializer:
        One of ``"he"`` (default, suited to ReLU stacks), ``"xavier"`` or
        ``"small"``.
    rng:
        Random generator used for weight initialisation; a fresh default
        generator is used when omitted.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        initializer: str = "he",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
        init_fn = initializers.get_initializer(initializer)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init_fn((in_features, out_features), rng), requires_grad=True, name="weight")
        if bias:
            self.bias: Optional[Tensor] = Tensor(
                initializers.zeros((out_features,)), requires_grad=True, name="bias"
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Softplus(Module):
    """Softplus activation ``log(1 + exp(x))`` — strictly positive output."""

    def forward(self, x: Tensor) -> Tensor:
        return x.softplus()


class ELUPlusOne(Module):
    """``ELU(x) + 1``: a smooth, strictly positive activation.

    UMNN uses a strictly positive derivative network; ``ELU + 1`` is the
    activation recommended by the original paper for that purpose.
    """

    def forward(self, x: Tensor) -> Tensor:
        data = x.data
        positive = data > 0

        exp_part = (x.clip(maximum=0.0)).exp()  # exp(min(x, 0)) is stable
        from ..autodiff import where as ad_where

        return ad_where(positive, x + 1.0, exp_part)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, rate: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.rate, self.training, self._rng)


class Sequential(Module):
    """Container applying modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers: List[Module] = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def append(self, module: Module) -> "Sequential":
        self.layers.append(module)
        return self

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


def feed_forward(
    input_dim: int,
    hidden_sizes: Sequence[int],
    output_dim: int,
    activation: str = "relu",
    output_activation: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """Build a plain feed-forward network (the paper's FFN building block).

    Parameters
    ----------
    input_dim, hidden_sizes, output_dim:
        Layer sizes; ``hidden_sizes`` may be empty for a single linear map.
    activation:
        Hidden activation: ``"relu"``, ``"tanh"`` or ``"sigmoid"``.
    output_activation:
        Optional activation applied to the output layer.
    rng:
        Random generator shared by all layers for reproducible initialisation.
    """
    activations = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid, "softplus": Softplus}
    if activation not in activations:
        raise KeyError(f"unknown activation {activation!r}")
    if rng is None:
        rng = np.random.default_rng()

    layers: List[Module] = []
    previous = input_dim
    for size in hidden_sizes:
        layers.append(Linear(previous, size, rng=rng))
        layers.append(activations[activation]())
        previous = size
    layers.append(Linear(previous, output_dim, rng=rng))
    if output_activation is not None:
        if output_activation not in activations:
            raise KeyError(f"unknown activation {output_activation!r}")
        layers.append(activations[output_activation]())
    return Sequential(*layers)
