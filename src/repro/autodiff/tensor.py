"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the computational substrate of the SelNet reproduction.  The
paper's models were originally implemented in TensorFlow; no deep-learning
framework is available in this environment, so we provide a small,
well-tested reverse-mode autodiff engine instead.

The design follows the classic tape-based approach: every :class:`Tensor`
records the operation that produced it and references to its parents.  A call
to :meth:`Tensor.backward` topologically sorts the graph and accumulates
gradients.  All operations are vectorised over numpy arrays and are
broadcasting-aware (gradients are "unbroadcast" back to the parents' shapes).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from . import grad_mode

ArrayLike = Union[np.ndarray, float, int, list, tuple]


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    """Coerce ``value`` into a float numpy array."""
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    When an operation broadcasts one of its inputs, the gradient flowing back
    has the broadcast shape.  The chain rule requires summing over the
    broadcast axes so the gradient matches the original input's shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient bookkeeping.

    Parameters
    ----------
    data:
        The array (or scalar) wrapped by this tensor.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    parents:
        Tensors this tensor was computed from (internal use).
    backward_fn:
        Function mapping the output gradient to a tuple of gradients, one per
        parent (internal use).
    name:
        Optional human-readable label, useful when debugging graphs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __getstate__(self) -> tuple:
        # A gradient belongs to the backward pass that produced it, not to
        # the tensor's value: pickles and deep copies (``state.pkl``, a
        # cluster's model payloads) leave it out.  The state keeps the
        # default ``(None, slots)`` form of a slotted class, so code without
        # ``__setstate__`` loads it too.
        slots = {slot: getattr(self, slot) for slot in Tensor.__slots__}
        slots["grad"] = None
        return None, slots

    def __setstate__(self, state: tuple) -> None:
        # A pickle written before ``__getstate__`` existed holds a gradient.
        for slot, value in state[1].items():
            setattr(self, slot, value)
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]],
        name: str = "",
    ) -> "Tensor":
        # requires_grad propagation: an output records the tape only when at
        # least one parent participates in it AND recording is on for this
        # thread (see repro.autodiff.grad_mode) — otherwise the backward
        # closure is dropped immediately and the result is a plain leaf.
        if not grad_mode._state.enabled:
            return Tensor(data, requires_grad=False, name=name)
        requires_grad = any(p.requires_grad for p in parents)
        if not requires_grad:
            return Tensor(data, requires_grad=False, name=name)
        return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn, name=name)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.  If
            omitted, this tensor must be a scalar and the gradient defaults
            to 1.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order = self._topological_order()
        grads: dict = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and (node._backward_fn is None or not node._parents):
                # Leaf tensor: accumulate into .grad.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad

    def _topological_order(self) -> list:
        """Return tensors reachable from ``self`` in reverse topological order."""
        visited = set()
        order: list = []

        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return list(reversed(order))

    # ------------------------------------------------------------------ #
    # Arithmetic operators
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward_fn(grad: np.ndarray):
            return (unbroadcast(grad, self.shape), unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward_fn, name="add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data - other.data

        def backward_fn(grad: np.ndarray):
            return (unbroadcast(grad, self.shape), unbroadcast(-grad, other.shape))

        return self._make(out_data, (self, other), backward_fn, name="sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray):
            return (
                unbroadcast(grad * other.data, self.shape),
                unbroadcast(grad * self.data, other.shape),
            )

        return self._make(out_data, (self, other), backward_fn, name="mul")

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward_fn(grad: np.ndarray):
            return (
                unbroadcast(grad / other.data, self.shape),
                unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
            )

        return self._make(out_data, (self, other), backward_fn, name="div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward_fn(grad: np.ndarray):
            return (-grad,)

        return self._make(-self.data, (self,), backward_fn, name="neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward_fn(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._make(out_data, (self,), backward_fn, name="pow")

    # ------------------------------------------------------------------ #
    # Matrix operations
    # ------------------------------------------------------------------ #
    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Matrix product ``self @ other`` (2-D by 2-D, or batched by 2-D)."""
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward_fn(grad: np.ndarray):
            grad_self = grad @ np.swapaxes(other.data, -1, -2)
            grad_other = np.swapaxes(self.data, -1, -2) @ grad
            return (unbroadcast(grad_self, self.shape), unbroadcast(grad_other, other.shape))

        return self._make(out_data, (self, other), backward_fn, name="matmul")

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)

        def backward_fn(grad: np.ndarray):
            if axes is None:
                return (np.transpose(grad),)
            inverse = np.argsort(axes)
            return (np.transpose(grad, inverse),)

        return self._make(out_data, (self,), backward_fn, name="transpose")

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward_fn(grad: np.ndarray):
            return (grad.reshape(original_shape),)

        return self._make(out_data, (self,), backward_fn, name="reshape")

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.shape

        def backward_fn(grad: np.ndarray):
            if axis is None:
                return (np.broadcast_to(grad, input_shape).copy(),)
            grad_expanded = grad
            if not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % len(input_shape) for a in axes):
                    grad_expanded = np.expand_dims(grad_expanded, ax)
            return (np.broadcast_to(grad_expanded, input_shape).copy(),)

        return self._make(out_data, (self,), backward_fn, name="sum")

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        input_shape = self.shape

        def backward_fn(grad: np.ndarray):
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                return (mask * grad,)
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            grad_expanded = grad if keepdims else np.expand_dims(grad, axis)
            return (mask * np.broadcast_to(grad_expanded, input_shape),)

        return self._make(out_data, (self,), backward_fn, name="max")

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray):
            return (grad * out_data,)

        return self._make(out_data, (self,), backward_fn, name="exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray):
            return (grad / self.data,)

        return self._make(out_data, (self,), backward_fn, name="log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward_fn(grad: np.ndarray):
            return (grad * 0.5 / np.maximum(out_data, 1e-12),)

        return self._make(out_data, (self,), backward_fn, name="sqrt")

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward_fn(grad: np.ndarray):
            return (grad * (self.data > 0.0),)

        return self._make(out_data, (self,), backward_fn, name="relu")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(grad: np.ndarray):
            return (grad * out_data * (1.0 - out_data),)

        return self._make(out_data, (self,), backward_fn, name="sigmoid")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray):
            return (grad * (1.0 - out_data ** 2),)

        return self._make(out_data, (self,), backward_fn, name="tanh")

    def softplus(self) -> "Tensor":
        out_data = np.logaddexp(0.0, self.data)

        def backward_fn(grad: np.ndarray):
            return (grad / (1.0 + np.exp(-self.data)),)

        return self._make(out_data, (self,), backward_fn, name="softplus")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward_fn(grad: np.ndarray):
            return (grad * np.sign(self.data),)

        return self._make(out_data, (self,), backward_fn, name="abs")

    def clip(self, minimum: Optional[float] = None, maximum: Optional[float] = None) -> "Tensor":
        out_data = np.clip(self.data, minimum, maximum)

        def backward_fn(grad: np.ndarray):
            mask = np.ones_like(self.data)
            if minimum is not None:
                mask = mask * (self.data >= minimum)
            if maximum is not None:
                mask = mask * (self.data <= maximum)
            return (grad * mask,)

        return self._make(out_data, (self,), backward_fn, name="clip")

    # ------------------------------------------------------------------ #
    # Indexing / shaping
    # ------------------------------------------------------------------ #
    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        input_shape = self.shape

        def backward_fn(grad: np.ndarray):
            full = np.zeros(input_shape, dtype=self.data.dtype)
            np.add.at(full, key, grad)
            return (full,)

        return self._make(out_data, (self,), backward_fn, name="getitem")

    # Comparison operators return plain numpy boolean arrays (no gradient).
    def __gt__(self, other) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data > other_data

    def __lt__(self, other) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data < other_data

    def __ge__(self, other) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data >= other_data

    def __le__(self, other) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data <= other_data


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward_fn(grad: np.ndarray):
        grads = []
        start = 0
        for size in sizes:
            index = [slice(None)] * grad.ndim
            index[axis if axis >= 0 else grad.ndim + axis] = slice(start, start + size)
            grads.append(grad[tuple(index)])
            start += size
        return tuple(grads)

    return Tensor._make(out_data, tensors, backward_fn, name="concat")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad: np.ndarray):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(out_data, tensors, backward_fn, name="stack")


def where(condition: np.ndarray, a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Differentiable selection: ``condition ? a : b``.

    ``condition`` is a boolean numpy array (no gradient flows through it).
    """
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward_fn(grad: np.ndarray):
        return (
            unbroadcast(grad * condition, a.shape),
            unbroadcast(grad * (~condition), b.shape),
        )

    return Tensor._make(out_data, (a, b), backward_fn, name="where")


def maximum(a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Elementwise maximum with gradient routed to the larger input."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    out_data = np.maximum(a.data, b.data)

    def backward_fn(grad: np.ndarray):
        mask = a.data >= b.data
        return (
            unbroadcast(grad * mask, a.shape),
            unbroadcast(grad * (~mask), b.shape),
        )

    return Tensor._make(out_data, (a, b), backward_fn, name="maximum")


def minimum(a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Elementwise minimum with gradient routed to the smaller input."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    out_data = np.minimum(a.data, b.data)

    def backward_fn(grad: np.ndarray):
        mask = a.data <= b.data
        return (
            unbroadcast(grad * mask, a.shape),
            unbroadcast(grad * (~mask), b.shape),
        )

    return Tensor._make(out_data, (a, b), backward_fn, name="minimum")
