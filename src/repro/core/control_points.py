"""Query-dependent control-point generators (Section 5.2 of the paper).

Two sub-networks turn the AE-augmented query representation ``[x; z_x]`` into
the parameters of the piece-wise linear estimator:

* :class:`TauGenerator` produces the abscissae ``τ_0 = 0 < τ_1 < … < τ_{L+1}
  = t_max``: a feed-forward network outputs ``L + 1`` raw values which pass
  through the ``Norm_l2`` squared-normalisation (non-negative, summing to 1),
  are scaled by ``t_max`` and prefix-summed.
* :class:`PGenerator` (the paper's model ``M``) produces the ordinates
  ``p_0 ≤ p_1 ≤ … ≤ p_{L+1}``: an encoder FFN emits ``L + 2`` embeddings
  ``h_i``, a per-point linear decoder with ReLU yields non-negative
  increments ``k_i``, and a prefix sum makes the ordinates non-decreasing.

Because the increments are non-negative by construction, monotonicity of the
final estimator (Lemma 1) holds for every parameter setting — no constraint
needs to be enforced during training.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor, affine, concat, cumsum, norm_l2_squared
from ..nn import Module, Sequential, feed_forward
from ..nn.init import he_normal


class TauGenerator(Module):
    """Generates the query-dependent threshold control points τ.

    Parameters
    ----------
    input_dim:
        Dimensionality of the augmented input ``[x; z_x]``.
    num_control_points:
        ``L`` — number of interior control points.
    t_max:
        Maximum supported threshold; ``τ_{L+1} = t_max``.
    hidden_sizes:
        Hidden sizes of the generating FFN ``g^{(τ)}``.
    query_dependent:
        When False the network input is replaced by a constant vector,
        yielding the SelNet-ad-ct ablation: the same τ values are used for
        every query.
    """

    def __init__(
        self,
        input_dim: int,
        num_control_points: int,
        t_max: float,
        hidden_sizes: Sequence[int] = (64, 64),
        query_dependent: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        self.num_control_points = num_control_points
        self.t_max = float(t_max)
        self.query_dependent = query_dependent
        # L + 1 increments cover the L interior points plus the final step to t_max.
        self.network: Sequential = feed_forward(
            input_dim, list(hidden_sizes), num_control_points + 1, rng=rng
        )

    def forward(self, augmented_query: Tensor) -> Tensor:
        """Return τ of shape ``(batch, L + 2)`` with τ[:, 0] = 0, τ[:, -1] = t_max."""
        if not isinstance(augmented_query, Tensor):
            augmented_query = Tensor(augmented_query)
        batch = augmented_query.shape[0]
        if not self.query_dependent:
            # Ablation: feed a constant vector so τ ignores the query.
            constant = np.ones_like(augmented_query.data)
            augmented_query = Tensor(constant)
        raw = self.network(augmented_query)
        increments = norm_l2_squared(raw) * self.t_max  # non-negative, sums to t_max
        interior = cumsum(increments, axis=1)  # (batch, L + 1); last column == t_max
        zeros = Tensor(np.zeros((batch, 1)))
        tau = concat([zeros, interior], axis=1)
        # Pin the final point exactly at t_max (numerically it already is,
        # because Norm_l2 sums to one; the data is overwritten for exactness).
        tau.data[:, -1] = self.t_max
        return tau


class PGenerator(Module):
    """The paper's model ``M``: generates non-decreasing control values p.

    An encoder FFN maps ``[x; z_x]`` to ``L + 2`` embeddings of size
    ``embedding_dim``; each embedding has its own linear decoder
    ``(w_i, b_i)`` whose ReLU output is the non-negative increment ``k_i``;
    the prefix sum of the increments gives ``p``.

    The ``L + 2`` decoders are stored stacked, as one ``(L + 2, E, 1)``
    weight and one ``(L + 2, 1, 1)`` bias, and evaluated by one batched
    matmul: slice ``i`` of the product is exactly ``h_i @ w_i + b_i``.
    """

    def __init__(
        self,
        input_dim: int,
        num_control_points: int,
        embedding_dim: int = 16,
        hidden_sizes: Sequence[int] = (128, 128, 64),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
        self.num_control_points = num_control_points
        self.num_outputs = num_control_points + 2
        self.embedding_dim = embedding_dim
        # Encoder: one large FFN emitting all (L + 2) embeddings at once.
        self.encoder: Sequential = feed_forward(
            input_dim, list(hidden_sizes), self.num_outputs * embedding_dim, rng=rng
        )
        # Decoders: he-normal with fan-in E, drawn one control point after
        # another (the stream a list of Linear(E, 1) layers would draw).
        weights = [he_normal((embedding_dim, 1), rng) for _ in range(self.num_outputs)]
        self.decoder_weight = Tensor(np.stack(weights), requires_grad=True, name="decoder_weight")
        self.decoder_bias = Tensor(
            np.zeros((self.num_outputs, 1, 1)), requires_grad=True, name="decoder_bias"
        )

    def __setstate__(self, state: dict) -> None:
        # Format-1 pickles hold one Linear(E, 1) per control point.
        decoders = state.pop("decoders", None)
        self.__dict__.update(state)
        if decoders is not None:
            self.decoder_weight = Tensor(
                np.stack([decoder.weight.data for decoder in decoders]),
                requires_grad=True,
                name="decoder_weight",
            )
            self.decoder_bias = Tensor(
                np.stack([decoder.bias.data for decoder in decoders]).reshape(-1, 1, 1),
                requires_grad=True,
                name="decoder_bias",
            )

    def forward(self, augmented_query: Tensor) -> Tensor:
        """Return p of shape ``(batch, L + 2)``, non-decreasing along axis 1."""
        if not isinstance(augmented_query, Tensor):
            augmented_query = Tensor(augmented_query)
        batch = augmented_query.shape[0]
        embeddings = self.encoder(augmented_query)  # (batch, (L+2) * embedding_dim)
        # (L+2, batch, E) @ (L+2, E, 1): slice i sees embeddings[:, i*E:(i+1)*E].
        per_point = embeddings.reshape(batch, self.num_outputs, self.embedding_dim)
        per_point = per_point.transpose((1, 0, 2))
        increments = affine(per_point, self.decoder_weight, self.decoder_bias).relu()
        increments = increments.reshape(self.num_outputs, batch).T  # (batch, L + 2)
        return cumsum(increments, axis=1)


_FORMAT1_DECODER_KEY = re.compile(
    r"^(?P<prefix>.*)decoders\.(?P<index>\d+)\.(?P<kind>weight|bias)$"
)


def upgrade_format1_decoders(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Map format-1 per-decoder weight keys onto the stacked parameters.

    ``<prefix>decoders.<i>.weight`` (``(E, 1)``) and ``.bias`` (``(1,)``)
    become ``<prefix>decoder_weight`` (``(L + 2, E, 1)``) and
    ``<prefix>decoder_bias`` (``(L + 2, 1, 1)``); other keys pass through.
    """
    upgraded: Dict[str, np.ndarray] = {}
    decoders: Dict[Tuple[str, str], Dict[int, np.ndarray]] = {}
    for key, array in state.items():
        match = _FORMAT1_DECODER_KEY.match(key)
        if match is None:
            upgraded[key] = array
        else:
            slots = decoders.setdefault((match["prefix"], match["kind"]), {})
            slots[int(match["index"])] = array
    for (prefix, kind), slots in decoders.items():
        stacked = np.stack([slots[index] for index in range(len(slots))])
        upgraded[f"{prefix}decoder_{kind}"] = stacked.reshape(len(slots), -1, 1)
    return upgraded


class ControlPointHead(Module):
    """Convenience wrapper bundling the τ and p generators.

    Produces the full parameter set ``Θ = {(τ_i, p_i)}`` of the piece-wise
    linear estimator from the augmented query representation.
    """

    def __init__(
        self,
        input_dim: int,
        num_control_points: int,
        t_max: float,
        embedding_dim: int = 16,
        tau_hidden_sizes: Sequence[int] = (64, 64),
        p_hidden_sizes: Sequence[int] = (128, 128, 64),
        query_dependent_tau: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.tau_generator = TauGenerator(
            input_dim,
            num_control_points,
            t_max,
            hidden_sizes=tau_hidden_sizes,
            query_dependent=query_dependent_tau,
            rng=rng,
        )
        self.p_generator = PGenerator(
            input_dim,
            num_control_points,
            embedding_dim=embedding_dim,
            hidden_sizes=p_hidden_sizes,
            rng=rng,
        )

    def forward(self, augmented_query: Tensor) -> Tuple[Tensor, Tensor]:
        return self.tau_generator(augmented_query), self.p_generator(augmented_query)
