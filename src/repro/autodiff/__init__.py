"""Reverse-mode autodiff engine used as the deep-learning substrate."""

from .functional import (
    affine,
    cumsum,
    dropout,
    gather_rows,
    huber,
    log_softmax,
    logsumexp,
    norm_l2_squared,
    piecewise_linear,
    prefix_sum_matrix,
    segment_upper_indices,
    softmax,
)
from .grad_mode import enable_grad, is_grad_enabled, no_grad, set_grad_enabled
from .gradcheck import check_gradients, numerical_gradient
from .tensor import Tensor, concat, maximum, minimum, stack, unbroadcast, where

__all__ = [
    "Tensor",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "segment_upper_indices",
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "unbroadcast",
    "affine",
    "softmax",
    "log_softmax",
    "logsumexp",
    "norm_l2_squared",
    "cumsum",
    "prefix_sum_matrix",
    "dropout",
    "piecewise_linear",
    "huber",
    "gather_rows",
    "check_gradients",
    "numerical_gradient",
]
