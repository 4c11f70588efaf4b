"""Pure-NumPy inference kernels for frozen (fitted) estimators.

A *compiled kernel* is the answer-phase counterpart of a trained model: the
weights are extracted once into flat contiguous arrays and the forward pass
is re-expressed as a handful of in-place NumPy calls — no
:class:`~repro.autodiff.Tensor` allocation, no backward closures, no graph
bookkeeping.  The arithmetic replays the graph-mode forward operation for
operation (same operands, same order), so for ``float64`` kernels the
compiled estimates are bit-equal to ``model.predict``; ``float32`` trades
that equality for smaller working sets.  The SelNet family's ``estimate``
*is* the float64 kernel's ``predict``, and the graph-mode ``model.predict``
stays the reference every parity check compares the kernel with.

Three kernel families cover every registered estimator:

* :class:`CompiledSelNet` — SelNet-ct / SelNet-ad-ct (and the model inside
  ``selnet-inc``): fused autoencoder-encoder + control-point head with a
  batched piecewise-linear evaluation of Equation 1.
* :class:`CompiledPartitionedSelNet` — full SelNet: the shared encoder runs
  once per batch (as in graph mode), the K local heads run as one stacked
  forward (:class:`CompiledControlPointHead`; ``predict`` runs the heads
  from the first to the last partition some row activates), their curves
  are evaluated in one batched call over rows × partitions and fused
  through one indicator-weighted sum that skips the partitions no row
  activates.
* :class:`GraphFallbackKernel` — everything else: delegates to
  ``estimator.estimate`` under :func:`repro.autodiff.no_grad`, so even
  non-compilable estimators stop paying for backward closures (a SelNet
  whose network cannot be fused delegates to its graph-mode
  ``model.predict``, since its ``estimate`` is the kernel).

All kernels share the same surface: ``predict(queries, thresholds)`` for
aligned pairs and ``curve_values(queries, grid)`` which evaluates every
query's selectivity curve on a common threshold grid with **one** network
forward per query.  The SelNet kernels run their network once per distinct
query (:func:`repro.index.distinct_rows`), exactly as graph-mode
``predict`` does, so the two see the same BLAS shapes.

The SelNet kernels (:class:`ControlPointKernel`, ``fuses_curves``) also
split ``predict`` in two, which the serving cache uses:
``query_points(queries)`` runs the network once per query and returns its
:class:`ControlPoints`, and ``evaluate(points, thresholds)`` answers rows
from gathered control points with ``predict``'s own piecewise-linear step,
so the same control points give the same bits.  Their ``curve_values`` is
``evaluate`` on every (query, grid point) pair (``sample``).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import no_grad, segment_upper_indices
from ..autodiff.functional import norm_l2_squared  # noqa: F401  (doc cross-ref)
from ..index import distinct_rows, take_rows
from ..nn import Linear, Module, Sequential
from ..nn.layers import ReLU, Sigmoid, Softplus, Tanh
from .precision import resolve_precision

#: epsilon of the Norm_l2 squared-normalisation (matches
#: :func:`repro.autodiff.norm_l2_squared`'s default, which SelNet uses)
_NORM_L2_EPSILON = 1e-6

_ACTIVATIONS = {
    ReLU: "relu",
    Tanh: "tanh",
    Sigmoid: "sigmoid",
    Softplus: "softplus",
}


class KernelCompilationError(TypeError):
    """Raised when a network cannot be frozen into a fused kernel."""


# ---------------------------------------------------------------------- #
# Fused feed-forward stacks
# ---------------------------------------------------------------------- #
def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Equal-shaped arrays on a new leading axis; a lone array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class FusedFeedForward:
    """A ``Sequential`` of Linear / activation layers frozen to flat arrays.

    The forward pass allocates one output array per linear layer and applies
    the bias and activation in place — the same values as the graph-mode
    ``x @ W + b`` / ``relu`` chain, at a third of the allocations and none of
    the tape overhead.  A :meth:`stacked` stack holds K networks of one
    architecture as ``(K, in, out)`` weights and ``(K, 1, out)`` biases, and
    the same forward maps a ``(batch, in)`` input to ``(K, batch, out)``.
    """

    __slots__ = ("layers", "dtype")

    def __init__(
        self,
        layers: List[Tuple[np.ndarray, Optional[np.ndarray], Optional[str]]],
        dtype,
    ) -> None:
        self.layers = layers
        self.dtype = np.dtype(dtype)

    @classmethod
    def from_sequential(cls, network: Sequential, dtype=np.float64) -> "FusedFeedForward":
        """Extract ``(weight, bias, activation)`` triples from a Sequential.

        ``dtype`` is the precision tier's dtype: the frozen weights are
        stored in it and the forward arithmetic runs in it.
        """
        dtype = resolve_precision(dtype).dtype
        layers: List[Tuple[np.ndarray, Optional[np.ndarray], Optional[str]]] = []
        for module in network:
            if isinstance(module, Linear):
                weight = np.ascontiguousarray(module.weight.data, dtype=dtype)
                bias = (
                    None
                    if module.bias is None
                    else np.ascontiguousarray(module.bias.data, dtype=dtype)
                )
                layers.append((weight, bias, None))
            elif type(module) in _ACTIVATIONS:
                if not layers:
                    raise KernelCompilationError(
                        "activation before any linear layer cannot be fused"
                    )
                weight, bias, activation = layers[-1]
                if activation is not None:
                    raise KernelCompilationError("two consecutive activations cannot be fused")
                layers[-1] = (weight, bias, _ACTIVATIONS[type(module)])
            else:
                raise KernelCompilationError(
                    f"cannot freeze module of type {type(module).__name__} into a fused kernel"
                )
        if not layers:
            raise KernelCompilationError("cannot freeze an empty network")
        return cls(layers, dtype)

    @classmethod
    def stacked(cls, networks: Sequence[Sequential], dtype=np.float64) -> "FusedFeedForward":
        """K networks of one architecture, each layer stacked on a leading axis.

        One ``np.matmul`` per layer evaluates all K networks, and it calls
        the 2-D BLAS routine of an unstacked layer on each slice, so slice
        ``k`` of the output has the bits of network ``k``'s own forward.
        """
        frozen = [cls.from_sequential(network, dtype) for network in networks]
        layers = []
        for column in zip(*(network.layers for network in frozen)):
            weights, biases, activations = zip(*column)
            bias = None if biases[0] is None else _stack([bias[None] for bias in biases])
            layers.append((_stack(weights), bias, activations[0]))
        return cls(layers, frozen[0].dtype)

    @property
    def num_parameters(self) -> int:
        return sum(
            weight.size + (0 if bias is None else bias.size) for weight, bias, _ in self.layers
        )

    def __call__(self, x: np.ndarray, heads: Optional[slice] = None) -> np.ndarray:
        """The forward pass; ``heads`` runs a range of a stacked stack's K
        networks through views of their weights."""
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        for weight, bias, activation in self.layers:
            if heads is not None:
                weight = weight[heads]
                bias = None if bias is None else bias[heads]
            x = x @ weight
            if bias is not None:
                np.add(x, bias, out=x)
            if activation == "relu":
                np.maximum(x, 0.0, out=x)
            elif activation == "tanh":
                np.tanh(x, out=x)
            elif activation == "sigmoid":
                np.negative(x, out=x)
                np.exp(x, out=x)
                np.add(x, 1.0, out=x)
                np.reciprocal(x, out=x)
            elif activation == "softplus":
                x = np.logaddexp(0.0, x)
        return x


# ---------------------------------------------------------------------- #
# Batched piecewise-linear evaluation (Equation 1)
# ---------------------------------------------------------------------- #
def piecewise_linear_batch(tau: np.ndarray, p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate per-row piecewise-linear curves at per-row thresholds.

    The non-differentiable twin of :func:`repro.autodiff.piecewise_linear`:
    identical clamping, segment lookup and interpolation arithmetic, but on
    raw arrays with a single batched segment search.
    """
    t_clamped = np.clip(t, tau[:, 0], tau[:, -1])
    upper = segment_upper_indices(tau, t_clamped)
    lower = upper - 1
    rows = np.arange(len(tau))
    tau_lo = tau[rows, lower]
    tau_hi = tau[rows, upper]
    p_lo = p[rows, lower]
    p_hi = p[rows, upper]
    width = np.maximum(tau_hi - tau_lo, 1e-12)
    fraction = (t_clamped - tau_lo) / width
    return p_lo + fraction * (p_hi - p_lo)


class ControlPoints(NamedTuple):
    """Everything Equation 1 needs to answer a query at any threshold.

    ``tau`` / ``p`` hold the ``L + 2`` control points of the single head,
    or ``(K, L + 2)`` for K local models, and ``gates`` the query's least
    activating threshold per partition, ``(K,)``
    (:meth:`~repro.index.Partitioning.partition_gates`; None for a single
    head or an always-active partitioning).  A batch adds a leading query
    axis to every array.
    """

    tau: np.ndarray
    p: np.ndarray
    gates: Optional[np.ndarray] = None

    @property
    def payload_nbytes(self) -> int:
        extra = 0 if self.gates is None else self.gates.nbytes
        return int(self.tau.nbytes + self.p.nbytes + extra)

    def row(self, index: int) -> "ControlPoints":
        """One query of a batch, as arrays of its own (not views of the batch)."""
        return ControlPoints(
            self.tau[index].copy(),
            self.p[index].copy(),
            None if self.gates is None else self.gates[index].copy(),
        )

    def take(self, index: np.ndarray) -> "ControlPoints":
        """The batch whose row ``i`` is row ``index[i]`` of this one."""
        return ControlPoints(
            self.tau[index],
            self.p[index],
            None if self.gates is None else self.gates[index],
        )

    @classmethod
    def stack(cls, entries: Sequence["ControlPoints"]) -> "ControlPoints":
        """One batch of single-query entries, row ``i`` being ``entries[i]``."""
        # np.array stacks equal-shaped rows like np.stack, at less overhead.
        return cls(
            np.array([entry.tau for entry in entries]),
            np.array([entry.p for entry in entries]),
            None
            if entries[0].gates is None
            else np.array([entry.gates for entry in entries]),
        )


# ---------------------------------------------------------------------- #
# SelNet head: control-point generation without the tape
# ---------------------------------------------------------------------- #
class CompiledControlPointHead:
    """Frozen τ- and p-generators of one :class:`~repro.core.SelNetModel`,
    or of a list of K stacked into one forward.

    A lone head (SelNet-ct, SelNet-ad-ct, SelNet-inc) freezes its model's
    own weight arrays.  A list of K heads (full SelNet's local models, which
    share one configuration and ``t_max``) has its weights stacked on a
    leading axis, so one forward runs all of them: one ``np.matmul`` per
    layer and for the decoders, and one pass of each elementwise step.  A
    stacked matmul makes the 2-D BLAS call of an unstacked one on every
    slice, so each head's control points keep the bits of its own
    graph-mode forward.  A list of one stacks by views and copies nothing.
    """

    def __init__(self, models, dtype=np.float64) -> None:
        stacked = isinstance(models, (list, tuple))
        heads = list(models) if stacked else [models]
        tau_generators = [model.head.tau_generator for model in heads]
        p_generators = [model.head.p_generator for model in heads]
        self.dtype = resolve_precision(dtype).dtype
        self.num_heads = len(heads)
        self.t_max = float(tau_generators[0].t_max)
        self.query_dependent_tau = bool(tau_generators[0].query_dependent)
        self.embedding_dim = int(p_generators[0].embedding_dim)
        self.num_outputs = int(p_generators[0].num_outputs)
        # The per-point decoders are the (L+2, emb, 1) / (L+2, 1, 1)
        # operands of the batched matmul below, one pair per head.
        decoder_weights = [
            np.ascontiguousarray(p.decoder_weight.data, dtype=self.dtype) for p in p_generators
        ]
        decoder_biases = [
            np.ascontiguousarray(p.decoder_bias.data, dtype=self.dtype) for p in p_generators
        ]
        if stacked:
            self.tau_network = FusedFeedForward.stacked(
                [tau.network for tau in tau_generators], self.dtype
            )
            self.p_encoder = FusedFeedForward.stacked(
                [p.encoder for p in p_generators], self.dtype
            )
            self.decoder_weights = _stack(decoder_weights)
            self.decoder_biases = _stack(decoder_biases)
        else:
            self.tau_network = FusedFeedForward.from_sequential(
                tau_generators[0].network, self.dtype
            )
            self.p_encoder = FusedFeedForward.from_sequential(p_generators[0].encoder, self.dtype)
            self.decoder_weights = decoder_weights[0]
            self.decoder_biases = decoder_biases[0]

    @property
    def num_parameters(self) -> int:
        return (
            self.tau_network.num_parameters
            + self.p_encoder.num_parameters
            + self.decoder_weights.size
            + self.decoder_biases.size
        )

    def control_points(
        self, augmented: np.ndarray, heads: Optional[slice] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return the ``(tau, p)`` control points, each ``(batch, L+2)`` for
        a lone head and ``(batch, K, L+2)`` for stacked heads.

        ``heads`` runs a range of stacked heads, through views of their
        weights, and returns only their control points.
        """
        batch = len(augmented)
        decoder_weights, decoder_biases = self.decoder_weights, self.decoder_biases
        if heads is not None:
            decoder_weights, decoder_biases = decoder_weights[heads], decoder_biases[heads]
        # ``stack`` is () for a lone head and (K,) for stacked heads, which
        # compute in (*stack, batch, ...) order: each result is written
        # through its ``swapaxes(0, -2)`` view.
        stack = decoder_weights.shape[:-3]
        shape = (batch,) + stack + (self.num_outputs,)

        # --- τ: FFN -> Norm_l2 -> scale -> prefix sum, ends pinned --- #
        tau_input = np.ones_like(augmented) if not self.query_dependent_tau else augmented
        raw = self.tau_network(tau_input, heads)  # (*stack, batch, L+1)
        squared = raw ** 2
        denom = squared.sum(axis=-1, keepdims=True) + _NORM_L2_EPSILON
        numer = squared + _NORM_L2_EPSILON / raw.shape[-1]
        increments = (numer / denom) * self.t_max
        tau = np.empty(shape, dtype=augmented.dtype)
        by_head = tau.swapaxes(0, -2)
        by_head[..., 0] = 0.0
        np.cumsum(increments, axis=-1, out=by_head[..., 1:])
        by_head[..., -1] = self.t_max

        # --- p: encoder -> per-point linear decoders -> ReLU -> prefix sum --- #
        embeddings = self.p_encoder(augmented, heads)  # (*stack, batch, (L+2) * emb)
        # (*stack, L+2, batch, emb) @ (*stack, L+2, emb, 1): one batched
        # matmul evaluates every head's decoders, as in PGenerator.forward;
        # slice (k, i) sees exactly head k's embeddings[:, i*emb:(i+1)*emb].
        per_point = embeddings.reshape(stack + (batch, self.num_outputs, self.embedding_dim))
        value = np.matmul(per_point.swapaxes(-3, -2), decoder_weights)
        np.add(value, decoder_biases, out=value)
        np.maximum(value, 0.0, out=value)
        p = np.empty(shape, dtype=augmented.dtype)
        np.cumsum(value[..., 0].swapaxes(-1, -2), axis=-1, out=p.swapaxes(0, -2))
        return tau, p


# ---------------------------------------------------------------------- #
# Kernel surface
# ---------------------------------------------------------------------- #
class CompiledKernel:
    """Common surface of every compiled inference kernel."""

    #: short identifier used in reports and ``describe()``
    kind: str = "kernel"
    #: True for the SelNet kernels (:class:`ControlPointKernel`): a curve
    #: costs one network forward per query, and the serving cache holds
    #: their control points; False when each grid point is a full estimator
    #: row, and the serving tier answers uncached.
    fuses_curves: bool = False

    #: dtype of the frozen weights and of the forward arithmetic
    dtype: np.dtype = np.dtype(np.float64)
    #: tier name (``float64`` or ``float32``)
    precision: str = "float64"

    def _resolve_precision(self, dtype) -> None:
        spec = resolve_precision(dtype)
        self.dtype = spec.dtype
        self.precision = spec.name

    def predict(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Non-negative selectivity estimates for aligned (query, t) pairs."""
        raise NotImplementedError

    def curve_values(self, queries: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """Each query's selectivity curve on ``grid``, shape ``(n, len(grid))``."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dtype": str(self.dtype),
            "precision": self.precision,
            "fuses_curves": self.fuses_curves,
        }


class ControlPointKernel(CompiledKernel):
    """A SelNet kernel: ``predict`` split at each query's control points.

    ``query_points`` runs the network once for a batch of distinct queries
    and ``evaluate`` answers rows from gathered :class:`ControlPoints` with
    ``predict``'s own arithmetic; curves are ``evaluate`` on a grid.
    """

    fuses_curves = True

    def query_points(self, queries: np.ndarray) -> ControlPoints:
        """Control points of a batch of distinct queries, one row each."""
        raise NotImplementedError

    def evaluate(self, points: ControlPoints, thresholds: np.ndarray) -> np.ndarray:
        """Answers for rows whose control points are known (one row each)."""
        raise NotImplementedError

    def sample(self, points: ControlPoints, index: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """Curves of the queries ``index`` of ``points`` on ``grid``.

        Shape ``(len(index), len(grid))``; every (query, grid point) pair is
        one :meth:`evaluate` row, so each value is ``predict``'s answer.
        """
        grid = np.asarray(grid, dtype=np.float64)
        rows = points.take(np.repeat(index, len(grid)))
        values = self.evaluate(rows, np.tile(grid, len(index)))
        return values.reshape(len(index), len(grid))

    def curve_values(self, queries: np.ndarray, grid: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        first, inverse = distinct_rows(queries)
        return self.sample(self.query_points(take_rows(queries, first)), inverse, grid)


class CompiledSelNet(ControlPointKernel):
    """Fused inference kernel for a single (non-partitioned) SelNet model."""

    kind = "selnet"

    def __init__(self, model, dtype=np.float64) -> None:
        self._resolve_precision(dtype)
        self.input_dim = int(model.input_dim)
        self.encoder = FusedFeedForward.from_sequential(model.autoencoder.encoder, self.dtype)
        self.head = CompiledControlPointHead(model, self.dtype)
        self.t_max = self.head.t_max

    @property
    def num_parameters(self) -> int:
        return self.encoder.num_parameters + self.head.num_parameters

    def _augment(self, queries: np.ndarray) -> np.ndarray:
        queries = np.ascontiguousarray(queries, dtype=self.dtype)
        if queries.ndim != 2:
            raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
        latent = self.encoder(queries)
        return np.concatenate([queries, latent], axis=1)

    def control_points(self, queries: np.ndarray) -> ControlPoints:
        """Per-row control points, computed once per distinct query."""
        queries = np.asarray(queries, dtype=self.dtype)
        first, inverse = distinct_rows(queries)
        points = self.query_points(take_rows(queries, first))
        return ControlPoints(take_rows(points.tau, inverse), take_rows(points.p, inverse))

    def query_points(self, queries: np.ndarray) -> ControlPoints:
        """Control points of a batch of distinct queries: one forward."""
        return ControlPoints(*self.head.control_points(self._augment(queries)))

    def evaluate(self, points: ControlPoints, thresholds: np.ndarray) -> np.ndarray:
        thresholds = np.asarray(thresholds, dtype=self.dtype)
        output = piecewise_linear_batch(points.tau, points.p, thresholds)
        return np.clip(output, 0.0, None)

    def predict(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        return self.evaluate(self.control_points(queries), thresholds)

    def describe(self) -> dict:
        info = super().describe()
        info["num_parameters"] = self.num_parameters
        return info


class CompiledPartitionedSelNet(ControlPointKernel):
    """Fused inference kernel for partitioned SelNet (K local models).

    Like graph mode, the kernel encodes the batch once and feeds the shared
    augmented representation to the K frozen heads, here one stacked
    forward, then combines the per-partition curve evaluations through the
    indicator-weighted sum of Observation 1.
    """

    kind = "selnet-partitioned"

    def __init__(self, model, dtype=np.float64) -> None:
        self._resolve_precision(dtype)
        self.input_dim = int(model.input_dim)
        self.t_max = float(model.t_max)
        self.partitioning = model.partitioning
        self.encoder = FusedFeedForward.from_sequential(model.autoencoder.encoder, self.dtype)
        self.head = CompiledControlPointHead(model.local_models, self.dtype)

    @property
    def num_partitions(self) -> int:
        return self.head.num_heads

    @property
    def num_parameters(self) -> int:
        return self.encoder.num_parameters + self.head.num_parameters

    def _augment(self, queries: np.ndarray) -> np.ndarray:
        queries = np.ascontiguousarray(queries, dtype=self.dtype)
        if queries.ndim != 2:
            raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
        latent = self.encoder(queries)
        return np.concatenate([queries, latent], axis=1)

    def query_points(self, queries: np.ndarray) -> ControlPoints:
        """Control points of a batch of distinct queries: one encode, one
        stacked forward of the K heads.

        ``tau`` / ``p`` are ``(m, K, L+2)``; ``gates`` are the queries'
        :meth:`~repro.index.Partitioning.partition_gates`, on which
        :meth:`evaluate` activates exactly the partitions
        :meth:`~repro.index.Partitioning.indicator_batch` does.
        """
        queries = np.asarray(queries, dtype=np.float64)
        tau, p = self.head.control_points(self._augment(queries))
        return ControlPoints(tau, p, self.partitioning.partition_gates(queries))

    def evaluate(self, points: ControlPoints, thresholds: np.ndarray) -> np.ndarray:
        thresholds = np.asarray(thresholds, dtype=self.dtype)
        indicators = self.partitioning.indicator_at(points.gates, thresholds)
        return self._combine(indicators, self._curves(points.tau, points.p, thresholds))

    def predict(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=self.dtype)
        distinct = distinct_rows(queries)
        first, inverse = distinct
        indicators = self.partitioning.indicator_batch(queries, thresholds, distinct)
        # A partition that no query ball in the batch intersects adds exactly
        # zero: only the heads from the first to the last active partition
        # run, in one stacked forward over views of their weights, and
        # _combine skips the inactive ones among them.  (Row-level filtering
        # would change the BLAS batch shape and with it the low-order bits:
        # every distinct query runs each of those heads.)
        active = np.flatnonzero(indicators.any(axis=0))
        if not len(active):
            return np.zeros(len(thresholds), dtype=self.dtype)
        low, high = int(active[0]), int(active[-1]) + 1
        heads = None if high - low == self.num_partitions else slice(low, high)
        augmented = self._augment(take_rows(queries, first))
        tau, p = self.head.control_points(augmented, heads)
        curves = self._curves(take_rows(tau, inverse), take_rows(p, inverse), thresholds)
        return self._combine(indicators[:, low:high], curves)

    @staticmethod
    def _curves(tau: np.ndarray, p: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Every (row, partition) curve value of ``(rows, parts, L+2)`` points.

        One call for all of them: the step is row-wise, so each value has
        the bits of a per-partition call.
        """
        rows, parts, width = tau.shape
        return piecewise_linear_batch(
            tau.reshape(rows * parts, width),
            p.reshape(rows * parts, width),
            np.repeat(thresholds, parts),
        ).reshape(rows, parts)

    def _combine(self, indicators: np.ndarray, curves: np.ndarray) -> np.ndarray:
        """The indicator-weighted sum of the curves, column by column.

        Accumulating in partition order keeps the summation order — and
        therefore the bits — of the graph-mode indicator-weighted sum, to
        which a partition that no row activates adds exactly zero: such a
        column is skipped.
        """
        output = np.zeros(len(indicators), dtype=self.dtype)
        for k in range(curves.shape[1]):
            if np.any(indicators[:, k]):
                output += curves[:, k] * indicators[:, k]
        return np.clip(output, 0.0, None)

    def describe(self) -> dict:
        info = super().describe()
        info["num_parameters"] = self.num_parameters
        info["num_partitions"] = self.num_partitions
        return info


class GraphFallbackKernel(CompiledKernel):
    """Generic no-grad wrapper for estimators without a fused kernel.

    Delegates to ``estimator.estimate`` inside :func:`repro.autodiff.no_grad`
    so tensor-based estimators stop allocating backward closures; purely
    NumPy estimators (KDE, LSH, GBDT...) pass straight through unchanged.
    A SelNet whose network the extractor refuses passes its graph-mode
    ``model.predict`` as ``predict`` instead, because its ``estimate`` calls
    this kernel.
    """

    kind = "graph-fallback"
    fuses_curves = False

    def __init__(self, estimator, dtype=np.float64, predict=None) -> None:
        # The fallback records the requested tier but always computes at the
        # estimator's own (float64) precision — its deviation is zero.
        self._resolve_precision(dtype)
        self._estimator = estimator
        self._predict = estimator.estimate if predict is None else predict

    def predict(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        with no_grad():
            return np.asarray(self._predict(queries, thresholds), dtype=np.float64)

    def curve_values(self, queries: np.ndarray, grid: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        grid = np.asarray(grid, dtype=np.float64)
        repeated = np.repeat(queries, len(grid), axis=0)
        tiled = np.tile(grid, len(queries))
        return self.predict(repeated, tiled).reshape(len(queries), len(grid))

    def describe(self) -> dict:
        info = super().describe()
        info["wraps"] = type(self._estimator).__name__
        return info
