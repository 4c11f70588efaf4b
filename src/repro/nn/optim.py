"""Gradient-descent optimizers (SGD with momentum, Adam)."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..autodiff import Tensor

#: Elements per block of the Adam update.  The seven buffers one block
#: touches (256 KiB each) stay in a 2 MiB L2 cache across the update's
#: dozen passes; whole-buffer passes over a SelNet's 168k parameters ran
#: about a quarter slower on a 2-vCPU Xeon.
_BLOCK = 32768


class Optimizer:
    """Base class holding a parameter list and a learning rate."""

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.learning_rate = learning_rate

    def zero_grad(self) -> None:
        """Clear the gradient of every managed parameter."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, learning_rate)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data = param.data - self.learning_rate * update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction and gradient clipping.

    Parameters
    ----------
    parameters:
        Trainable tensors, each at most once.
    learning_rate, beta1, beta2, epsilon, weight_decay:
        Standard Adam hyper-parameters.
    max_grad_norm:
        Optional global gradient-norm clip, useful for stabilising the
        Huber-log training of the selectivity models.

    Parameters, gradients and both moments live in flat buffers, one segment
    per parameter, so a step is a dozen NumPy operations per block of the
    buffers instead of a loop over parameters.  Every ``param.data`` is a
    view of the current parameter buffer.  A step writes a new buffer and
    rebinds the views, so an array handed out before the step (a compiled
    kernel's frozen weights) never changes.  A parameter whose ``grad`` is
    ``None`` keeps its value and moments.
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
        max_grad_norm: Optional[float] = None,
    ) -> None:
        super().__init__(parameters, learning_rate)
        if len({id(param) for param in self.parameters}) != len(self.parameters):
            raise ValueError("Adam received the same parameter tensor more than once")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self._step_count = 0
        # (start, stop, shape) of each parameter's segment.
        self._layout: List[Tuple[int, int, Tuple[int, ...]]] = []
        offset = 0
        for param in self.parameters:
            self._layout.append((offset, offset + param.data.size, param.data.shape))
            offset += param.data.size
        self._gather_parameters()
        self._first_moment = np.zeros(offset)
        self._second_moment = np.zeros(offset)
        self._scratch = (np.empty(_BLOCK), np.empty(_BLOCK))

    def _segments(self, flat: np.ndarray) -> List[np.ndarray]:
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]

    def _bind(self, flat: np.ndarray) -> None:
        self._flat = flat
        self._views = self._segments(flat)
        for param, view in zip(self.parameters, self._views):
            param.data = view

    def _gather_parameters(self) -> None:
        """Copy every parameter into a fresh buffer and bind them to it."""
        self._bind(np.concatenate([param.data for param in self.parameters], axis=None))

    def _gather_gradients(self) -> Tuple[np.ndarray, List[int]]:
        """The flat gradient, and the indices of parameters without one."""
        grads = [param.grad for param in self.parameters]
        missing = [index for index, grad in enumerate(grads) if grad is None]
        for index in missing:
            grads[index] = np.zeros(self._layout[index][2])
        return np.concatenate(grads, axis=None), missing

    def _clip_gradients(self, grad: np.ndarray) -> np.ndarray:
        if self.max_grad_norm is None:
            return grad
        norm = np.sqrt(float(np.dot(grad, grad)))
        if norm > self.max_grad_norm and norm > 0:
            grad = grad * (self.max_grad_norm / norm)
            for param, clipped in zip(self.parameters, self._segments(grad)):
                if param.grad is not None:
                    param.grad = clipped
        return grad

    def _update_block(self, flat, grad, m, v, out, bias_correction1, bias_correction2) -> None:
        """The per-parameter update on one block of the flat buffers: the same
        elementwise operations in the same order, hence the same bits."""
        update, denom = (scratch[: flat.size] for scratch in self._scratch)
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=update)
        m += update
        v *= self.beta2
        np.square(grad, out=update)
        update *= 1.0 - self.beta2
        v += update
        np.divide(v, bias_correction2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        np.divide(m, bias_correction1, out=update)
        update *= self.learning_rate
        update /= denom
        np.subtract(flat, update, out=out)

    def step(self) -> None:
        if any(param.data is not view for param, view in zip(self.parameters, self._views)):
            # A parameter was rebound (e.g. by load_state_dict) since the
            # last step: its new value becomes its segment.
            self._gather_parameters()
        grad, missing = self._gather_gradients()
        grad = self._clip_gradients(grad)
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        flat, m, v = self._flat, self._first_moment, self._second_moment
        kept = [
            (start, stop, m[start:stop].copy(), v[start:stop].copy())
            for start, stop, _ in (self._layout[index] for index in missing)
        ]
        if self.weight_decay:
            grad = grad + self.weight_decay * flat
        new_flat = np.empty_like(flat)
        for start in range(0, flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            self._update_block(
                flat[block], grad[block], m[block], v[block], new_flat[block],
                bias_correction1, bias_correction2,
            )
        for start, stop, m_kept, v_kept in kept:
            m[start:stop] = m_kept
            v[start:stop] = v_kept
            new_flat[start:stop] = flat[start:stop]
        self._bind(new_flat)
