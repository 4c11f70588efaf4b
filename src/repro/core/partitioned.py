"""Partitioned SelNet: one local model per database partition (Section 5.3).

The database is split into ``K`` disjoint partitions; each has its own local
model ``f̂^(i)`` and the global estimate is

    f̂*(x, t, D) = Σ_i f_c(x, t)[i] · f̂^(i)(x, t, D_i)

where ``f_c`` activates only the partitions whose ball regions intersect the
query ball.  All local models share the same autoencoder (the transformed
input representation), but each has its own control-point networks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..autodiff import Tensor, no_grad, stack
from ..index import Partitioning, distinct_rows, take_rows
from ..nn import Autoencoder, Module
from .config import SelNetConfig
from .selnet import SelNetModel


class PartitionedSelNet(Module):
    """A set of local SelNet models combined by the partition indicator.

    Parameters
    ----------
    input_dim:
        Query dimensionality.
    t_max:
        Maximum supported threshold (shared by all local models).
    config:
        SelNet hyper-parameters; ``config.num_partitions`` must match
        ``partitioning.num_partitions``.
    partitioning:
        The database partitioning providing the indicator ``f_c`` and the
        per-partition training labels.
    rng:
        Random generator for weight initialisation.
    """

    def __init__(
        self,
        input_dim: int,
        t_max: float,
        config: SelNetConfig,
        partitioning: Partitioning,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(config.seed)
        if partitioning.num_partitions != config.num_partitions:
            raise ValueError(
                "partitioning size does not match config.num_partitions "
                f"({partitioning.num_partitions} != {config.num_partitions})"
            )
        self.input_dim = input_dim
        self.t_max = float(t_max)
        self.config = config
        self.partitioning = partitioning
        # Shared transformed input representation: one autoencoder for all
        # local models (paper, Section 5.3 design choice (ii)).
        self.autoencoder = Autoencoder(
            input_dim, config.latent_dim, hidden_sizes=config.ae_hidden_sizes, rng=rng
        )
        self.local_models: List[SelNetModel] = [
            SelNetModel(input_dim, t_max, config, autoencoder=self.autoencoder, rng=rng)
            for _ in range(config.num_partitions)
        ]

    @property
    def num_partitions(self) -> int:
        return len(self.local_models)

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    def local_outputs(self, queries: Tensor, thresholds: np.ndarray) -> List[Tensor]:
        """Outputs of every local model for the batch, each of shape ``(batch,)``.

        The shared autoencoder encodes the batch once; every local model
        reads the same ``[x; z_x]``.
        """
        augmented = self.local_models[0].augment(queries)
        return [model.forward_augmented(augmented, thresholds) for model in self.local_models]

    def forward(
        self,
        queries: Tensor,
        thresholds: np.ndarray,
        indicators: np.ndarray,
    ) -> Tensor:
        """Global estimate: indicator-weighted sum of local estimates.

        ``indicators`` has shape ``(batch, K)`` and is produced by
        :meth:`repro.index.Partitioning.indicator_batch` (precomputed before
        training, as in the paper).
        """
        locals_ = self.local_outputs(queries, thresholds)  # K tensors of (batch,)
        stacked = stack(locals_, axis=1)  # (batch, K)
        weighted = stacked * Tensor(np.asarray(indicators, dtype=np.float64))
        return weighted.sum(axis=1)

    # ------------------------------------------------------------------ #
    # Inference helpers
    # ------------------------------------------------------------------ #
    def predict(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Non-negative global selectivity estimates for numpy inputs.

        One :func:`~repro.index.distinct_rows` grouping serves the
        indicator and the network: the shared encoder and every local head
        run once per distinct query, and the indicator-weighted sum of
        :meth:`forward` combines the per-row curve values.
        """
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        distinct = distinct_rows(queries)
        first, inverse = distinct
        indicators = self.partitioning.indicator_batch(queries, thresholds, distinct)
        with no_grad():
            augmented = self.local_models[0].augment(Tensor(take_rows(queries, first)))
            locals_ = [
                model.predict_augmented(augmented, thresholds, inverse)
                for model in self.local_models
            ]
            output = (stack(locals_, axis=1) * Tensor(indicators)).sum(axis=1)
        return np.clip(output.data.reshape(len(queries)), 0.0, None)

    def reconstruction_loss(self, queries: Tensor) -> Tensor:
        """Shared autoencoder loss term ``J_AE``."""
        return self.autoencoder.reconstruction_loss(queries)
