"""The SelNet model without data partitioning (SelNet-ct in the paper).

Architecture (Figure 1):

1. The query ``x`` is augmented with its autoencoder embedding ``z_x`` to
   form ``[x; z_x]``.
2. Two independent networks turn the augmented query into the parameters of
   a continuous piece-wise linear function: the τ-generator (FFN + Norm_l2 +
   prefix sum) and the p-generator (model M: encoder/decoder + ReLU + prefix
   sum).
3. The threshold ``t`` is pushed through the piece-wise linear function to
   obtain the estimate.

Because p is non-decreasing by construction, the estimate is monotonically
non-decreasing in ``t`` for every query (Lemma 1) — the consistency
guarantee.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autodiff import Tensor, concat, no_grad
from ..index import distinct_rows, take_rows
from ..nn import Autoencoder, Module
from .config import SelNetConfig
from .control_points import ControlPointHead
from .piecewise import PiecewiseLinearCurve, piecewise_linear


class SelNetModel(Module):
    """The neural network at the heart of SelNet (one local model).

    Parameters
    ----------
    input_dim:
        Dimensionality of the query vectors.
    t_max:
        Maximum supported threshold (τ_{L+1}).
    config:
        Architecture and training hyper-parameters.
    autoencoder:
        The (shared) autoencoder providing ``z_x``.  Partitioned SelNet passes
        the same instance to every local model so they share the transformed
        input representation, as in the paper.
    rng:
        Random generator for weight initialisation.
    """

    def __init__(
        self,
        input_dim: int,
        t_max: float,
        config: SelNetConfig,
        autoencoder: Optional[Autoencoder] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(config.seed)
        self.input_dim = input_dim
        self.t_max = float(t_max)
        self.config = config
        if autoencoder is None:
            autoencoder = Autoencoder(
                input_dim, config.latent_dim, hidden_sizes=config.ae_hidden_sizes, rng=rng
            )
        self.autoencoder = autoencoder
        augmented_dim = input_dim + config.latent_dim
        self.head = ControlPointHead(
            augmented_dim,
            config.num_control_points,
            t_max=self.t_max,
            embedding_dim=config.embedding_dim,
            tau_hidden_sizes=config.tau_hidden_sizes,
            p_hidden_sizes=config.p_hidden_sizes,
            query_dependent_tau=config.query_dependent_tau,
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    def augment(self, queries: Tensor) -> Tensor:
        """Concatenate the query with its autoencoder embedding: ``[x; z_x]``."""
        if not isinstance(queries, Tensor):
            queries = Tensor(queries)
        latent = self.autoencoder.encode(queries)
        return concat([queries, latent], axis=1)

    def control_points(self, queries: Tensor) -> Tuple[Tensor, Tensor]:
        """Query-dependent (τ, p) tensors, each of shape ``(batch, L + 2)``."""
        augmented = self.augment(queries)
        return self.head(augmented)

    def forward(self, queries: Tensor, thresholds: np.ndarray) -> Tensor:
        """Estimate selectivities for a batch of (query, threshold) pairs."""
        return self.forward_augmented(self.augment(queries), thresholds)

    def forward_augmented(self, augmented: Tensor, thresholds: np.ndarray) -> Tensor:
        """Estimate from an already augmented batch ``[x; z_x]``."""
        tau, p = self.head(augmented)
        return piecewise_linear(tau, p, thresholds)

    # ------------------------------------------------------------------ #
    # Inference helpers (numpy in, numpy out)
    # ------------------------------------------------------------------ #
    def predict(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Non-negative selectivity estimates as a plain numpy array.

        The encoder and the control-point heads run once per distinct query
        (:func:`~repro.index.distinct_rows`); only the piecewise-linear step
        sees every row.
        """
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        first, inverse = distinct_rows(queries)
        with no_grad():
            augmented = self.augment(Tensor(take_rows(queries, first)))
            output = self.predict_augmented(augmented, thresholds, inverse)
        return np.clip(output.data.reshape(len(queries)), 0.0, None)

    def predict_augmented(
        self, augmented: Tensor, thresholds: np.ndarray, inverse: np.ndarray
    ) -> Tensor:
        """Inference twin of :meth:`forward_augmented` over distinct queries.

        ``augmented`` holds each distinct query's ``[x; z_x]`` once and
        ``inverse`` maps every row to its query: (τ, p) are computed per
        query and gathered per row just before Equation 1, so all of a
        query's thresholds read one curve.
        """
        tau, p = self.head(augmented)
        return piecewise_linear(
            take_rows(tau.data, inverse), take_rows(p.data, inverse), thresholds
        )

    def curve_for_query(self, query: np.ndarray) -> PiecewiseLinearCurve:
        """The learned piece-wise linear curve of a single query.

        Used by the Figure 4 reproduction to inspect where the model places
        its control points.
        """
        query = np.asarray(query, dtype=np.float64)[None, :]
        with no_grad():
            tau, p = self.control_points(Tensor(query))
        return PiecewiseLinearCurve(tau=tau.data[0].copy(), p=p.data[0].copy())

    def reconstruction_loss(self, queries: Tensor) -> Tensor:
        """Autoencoder loss term ``J_AE`` for the training queries."""
        return self.autoencoder.reconstruction_loss(queries)
