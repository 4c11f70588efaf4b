"""Higher-level differentiable functions built on :mod:`repro.autodiff.tensor`.

These are the building blocks the SelNet architecture needs beyond plain
elementwise operators: softmax, the ``Norm_l2`` squared-normalisation used to
generate threshold increments (Section 5.2 of the paper), prefix sums
(the ``M_psum`` matrix), cumulative sums, and the piecewise-linear
interpolation operator (Equation 1) with a hand-written backward pass.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .tensor import ArrayLike, Tensor, unbroadcast


def affine(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` as one tape node.

    The same arithmetic as a ``matmul`` node followed by an ``add`` node, so
    values and gradients are bit-identical to that pair, at half the tape
    bookkeeping.  Works batched: ``x`` of shape ``(..., n, in)`` against
    ``weight`` of shape ``(..., in, out)``; ``bias`` must broadcast to the
    product's shape.  The gradient of an input that does not require one
    (typically the data batch feeding a first layer) is never computed.
    """
    x = Tensor._ensure(x)
    x_data, w_data = x.data, weight.data
    out_data = x_data @ w_data
    parents: Tuple[Tensor, ...] = (x, weight)
    if bias is not None:
        out_data += bias.data
        parents = (x, weight, bias)

    def backward_fn(grad: np.ndarray):
        grad_x = None
        if x.requires_grad:
            grad_x = unbroadcast(grad @ np.swapaxes(w_data, -1, -2), x_data.shape)
        grad_w = unbroadcast(np.swapaxes(x_data, -1, -2) @ grad, w_data.shape)
        if bias is None:
            return (grad_x, grad_w)
        return (grad_x, grad_w, unbroadcast(grad, bias.data.shape))

    return Tensor._make(out_data, parents, backward_fn, name="affine")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = Tensor._ensure(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward_fn(grad: np.ndarray):
        # d softmax_i / d x_j = s_i (delta_ij - s_j)
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return ((grad - dot) * out_data,)

    return Tensor._make(out_data, (x,), backward_fn, name="softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Logarithm of softmax, computed stably."""
    x = Tensor._ensure(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    soft = np.exp(out_data)

    def backward_fn(grad: np.ndarray):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (x,), backward_fn, name="log_softmax")


def norm_l2_squared(x: Tensor, epsilon: float = 1e-6) -> Tensor:
    """The paper's ``Norm_l2`` operator (Section 5.2).

    Maps a vector ``t`` of dimension ``d`` to::

        Norm_l2(t)_i = (t_i^2 + eps / d) / (t^T t + eps)

    The output is strictly positive and sums to one along the last axis, which
    is the property SelNet relies on to turn a free-form network output into
    non-negative threshold increments.  Operates row-wise on 2-D inputs.
    """
    x = Tensor._ensure(x)
    data = x.data
    d = data.shape[-1]
    squared = data ** 2
    denom = squared.sum(axis=-1, keepdims=True) + epsilon
    numer = squared + epsilon / d
    out_data = numer / denom

    def backward_fn(grad: np.ndarray):
        # out_i = (x_i^2 + eps/d) / (sum_j x_j^2 + eps)
        # d out_i / d x_k = (2 x_k [i == k] * denom - numer_i * 2 x_k) / denom^2
        #                 = 2 x_k ([i == k] - out_i) / denom
        dot = (grad * out_data).sum(axis=-1, keepdims=True)
        grad_x = 2.0 * data * (grad - dot) / denom
        return (grad_x,)

    return Tensor._make(out_data, (x,), backward_fn, name="norm_l2_squared")


def cumsum(x: Tensor, axis: int = -1) -> Tensor:
    """Cumulative sum (prefix sum), i.e. multiplication by ``M_psum``.

    The paper implements the running totals of threshold / selectivity
    increments by right-multiplying with a lower-triangular matrix of ones;
    a cumulative sum is the same operation without materialising the matrix.
    """
    x = Tensor._ensure(x)
    out_data = np.cumsum(x.data, axis=axis)

    def backward_fn(grad: np.ndarray):
        flipped = np.flip(grad, axis=axis)
        return (np.flip(np.cumsum(flipped, axis=axis), axis=axis),)

    return Tensor._make(out_data, (x,), backward_fn, name="cumsum")


def prefix_sum_matrix(size: int) -> np.ndarray:
    """Return the lower-triangular prefix-sum matrix ``M_psum`` of the paper."""
    return np.tril(np.ones((size, size), dtype=np.float64))


def dropout(x: Tensor, rate: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout.  No-op when not training or ``rate`` is 0."""
    if not training or rate <= 0.0:
        return x
    if rng is None:
        rng = np.random.default_rng()
    x = Tensor._ensure(x)
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out_data = x.data * mask

    def backward_fn(grad: np.ndarray):
        return (grad * mask,)

    return Tensor._make(out_data, (x,), backward_fn, name="dropout")


def segment_upper_indices(tau: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Batched segment lookup for per-row sorted grids.

    For each row ``i`` returns the index of the first ``tau[i, j] >= t[i]``
    (i.e. ``np.searchsorted(tau[i], t[i], side="left")``), clipped into
    ``[1, num_points - 1]`` so ``(index - 1, index)`` always brackets a valid
    segment.  One vectorised comparison over the whole batch replaces the
    per-row ``np.searchsorted`` Python loop — for row-sorted grids counting
    the entries strictly below ``t`` is exactly the ``side="left"`` insertion
    point.  Shared by the differentiable op below and the compiled inference
    kernels (:mod:`repro.inference`).
    """
    upper = np.count_nonzero(tau < t[:, None], axis=1)
    return np.clip(upper, 1, tau.shape[1] - 1)


def piecewise_linear(
    tau: Tensor,
    p: Tensor,
    t: Union[Tensor, ArrayLike],
) -> Tensor:
    """Evaluate the continuous piece-wise linear estimator of Equation (1).

    Parameters
    ----------
    tau:
        Control-point abscissae of shape ``(batch, L + 2)``.  Each row must be
        non-decreasing with ``tau[:, 0] = 0`` and ``tau[:, -1] = t_max``.
    p:
        Control-point ordinates (estimated selectivities) of shape
        ``(batch, L + 2)``.
    t:
        Query thresholds of shape ``(batch,)`` (no gradient is propagated to
        ``t``; thresholds are inputs, not parameters).

    Returns
    -------
    Tensor of shape ``(batch,)`` holding the interpolated selectivity.

    Notes
    -----
    The segment index ``i`` with ``tau[i] <= t < tau[i+1]`` is a
    piecewise-constant function of the parameters, so its "gradient" is zero
    almost everywhere; within a segment the output is differentiable in both
    the surrounding ``tau`` and ``p`` values, and the backward pass below
    implements those analytic derivatives.
    """
    tau = Tensor._ensure(tau)
    p = Tensor._ensure(p)
    t_data = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
    if t_data.ndim == 2 and t_data.shape[1] == 1:
        t_data = t_data[:, 0]

    tau_data = tau.data
    p_data = p.data
    batch, num_points = tau_data.shape
    if p_data.shape != (batch, num_points):
        raise ValueError(
            f"tau and p must have the same shape; got {tau_data.shape} and {p_data.shape}"
        )

    # Clamp thresholds into the supported range so queries at or beyond t_max
    # return the final control value (and never index out of bounds).
    t_clamped = np.clip(t_data, tau_data[:, 0], tau_data[:, -1])

    # For each row find the segment [tau_{i-1}, tau_i) containing t: a single
    # batched lookup (index of the first tau >= t, the right end of the
    # segment) instead of one np.searchsorted call per row.
    rows = np.arange(batch)
    upper_idx = segment_upper_indices(tau_data, t_clamped)
    lower_idx = upper_idx - 1

    tau_lo = tau_data[rows, lower_idx]
    tau_hi = tau_data[rows, upper_idx]
    p_lo = p_data[rows, lower_idx]
    p_hi = p_data[rows, upper_idx]

    width = np.maximum(tau_hi - tau_lo, 1e-12)
    fraction = (t_clamped - tau_lo) / width
    out_data = p_lo + fraction * (p_hi - p_lo)

    def backward_fn(grad: np.ndarray):
        grad = grad.reshape(batch)

        grad_p = np.zeros_like(p_data)
        np.add.at(grad_p, (rows, lower_idx), grad * (1.0 - fraction))
        np.add.at(grad_p, (rows, upper_idx), grad * fraction)

        # out = p_lo + (t - tau_lo) / (tau_hi - tau_lo) * (p_hi - p_lo), so
        #   d out / d tau_lo = (p_hi - p_lo) * (t - tau_hi) / (tau_hi - tau_lo)^2
        #   d out / d tau_hi = -(p_hi - p_lo) * (t - tau_lo) / (tau_hi - tau_lo)^2
        grad_tau = np.zeros_like(tau_data)
        d_tau_lo = grad * (p_hi - p_lo) * (t_clamped - tau_hi) / (width ** 2)
        d_tau_hi = grad * (p_hi - p_lo) * (tau_lo - t_clamped) / (width ** 2)
        np.add.at(grad_tau, (rows, lower_idx), d_tau_lo)
        np.add.at(grad_tau, (rows, upper_idx), d_tau_hi)
        return (grad_tau, grad_p)

    return Tensor._make(out_data, (tau, p), backward_fn, name="piecewise_linear")


def huber(residual: Tensor, delta: float = 1.345) -> Tensor:
    """Elementwise Huber penalty of a residual tensor.

    ``delta = 1.345`` is the standard robust-regression recommendation cited
    by the paper.
    """
    residual = Tensor._ensure(residual)
    r = residual.data
    absolute = np.abs(r)
    quadratic = 0.5 * r ** 2
    linear = delta * (absolute - 0.5 * delta)
    out_data = np.where(absolute <= delta, quadratic, linear)

    def backward_fn(grad: np.ndarray):
        d_residual = np.where(absolute <= delta, r, delta * np.sign(r))
        return (grad * d_residual,)

    return Tensor._make(out_data, (residual,), backward_fn, name="huber")


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select ``x[indices]`` along the first axis with gradient support."""
    x = Tensor._ensure(x)
    indices = np.asarray(indices, dtype=np.int64)
    out_data = x.data[indices]
    input_shape = x.shape

    def backward_fn(grad: np.ndarray):
        full = np.zeros(input_shape, dtype=x.data.dtype)
        np.add.at(full, indices, grad)
        return (full,)

    return Tensor._make(out_data, (x,), backward_fn, name="gather_rows")


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp reduction."""
    x = Tensor._ensure(x)
    maximum = x.data.max(axis=axis, keepdims=True)
    shifted = np.exp(x.data - maximum)
    summed = shifted.sum(axis=axis, keepdims=True)
    out_keep = maximum + np.log(summed)
    out_data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)
    soft = shifted / summed

    def backward_fn(grad: np.ndarray):
        grad_expanded = grad if keepdims else np.expand_dims(grad, axis)
        return (grad_expanded * soft,)

    return Tensor._make(out_data, (x,), backward_fn, name="logsumexp")
