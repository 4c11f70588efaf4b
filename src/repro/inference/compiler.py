"""The compile step: freeze a fitted estimator into an inference kernel.

:func:`compile_estimator` inspects the estimator and picks the most fused
kernel available (see :mod:`repro.inference.kernels`); anything it does not
recognise gets the generic :class:`GraphFallbackKernel`, so compilation
never fails for a fitted estimator — the worst case is "same answers,
no-grad forward".  A SelNet whose network cannot be fused falls back to its
graph-mode ``model.predict``, not to ``estimate``: the SelNet family's
``estimate`` is this kernel.

Callers normally go through :meth:`repro.SelectivityEstimator.compiled`,
which caches the kernel on the estimator and recompiles after ``fit`` /
``update`` / persistence ``load``.
"""

from __future__ import annotations

import numpy as np

from .kernels import (
    CompiledKernel,
    CompiledPartitionedSelNet,
    CompiledSelNet,
    GraphFallbackKernel,
    KernelCompilationError,
)


def inner_selnet_model(estimator):
    """The SelNet network inside ``estimator``, or None when there is none.

    Resolves the two wrappers that carry one: :class:`SelNetEstimator`
    (``model``) and :class:`IncrementalSelNetEstimator` (the fitted
    ``state``'s inner estimator).  Shared by the compiler and the
    inference benchmark so both dispatch on the same rule.
    """
    from ..core.incremental import IncrementalSelNetEstimator
    from ..core.trainer import SelNetEstimator

    if isinstance(estimator, IncrementalSelNetEstimator):
        if estimator.state is not None:
            return estimator.state.estimator.model
        return None
    if isinstance(estimator, SelNetEstimator):
        return estimator.model
    return None


def compile_estimator(estimator, dtype=np.float64) -> CompiledKernel:
    """Freeze ``estimator`` into a pure-NumPy inference kernel.

    Parameters
    ----------
    estimator:
        Any :class:`~repro.estimator.SelectivityEstimator`.  Unfitted
        estimators compile to the generic fallback (which surfaces the
        usual "must be fitted" error on first use).
    dtype:
        Precision tier of the frozen weights and the forward arithmetic:
        ``np.float64`` (default — bit-equal to graph mode) or
        ``np.float32`` (BLAS sgemm on half the bytes).

    Each tier carries an error budget (see
    :mod:`repro.inference.precision`) that ``repro infer-bench --dtype``
    enforces against the float64 graph forward.
    """
    # Local imports: repro.core imports the registry machinery, which must
    # not depend on the inference layer at module-import time.
    from ..core.partitioned import PartitionedSelNet
    from ..core.selnet import SelNetModel

    model = inner_selnet_model(estimator)
    try:
        if isinstance(model, SelNetModel):
            return CompiledSelNet(model, dtype=dtype)
        if isinstance(model, PartitionedSelNet):
            return CompiledPartitionedSelNet(model, dtype=dtype)
    except KernelCompilationError:
        # An exotic architecture (e.g. a customised Sequential) that the
        # fused extractor cannot freeze still serves through the fallback.
        pass
    return GraphFallbackKernel(
        estimator, dtype=dtype, predict=None if model is None else model.predict
    )
