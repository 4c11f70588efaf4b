"""Unconstrained Monotonic Neural Network baseline ("UMNN" in the paper).

UMNN (Wehenkel & Louppe, NeurIPS 2019) obtains a monotone function by
integrating a strictly positive learned derivative:

    f̂(x, t) = f̂_0(x) + ∫_0^t ĝ(x, s) ds ,   ĝ > 0

The integral is approximated with Clenshaw–Curtis quadrature (fixed nodes and
non-negative weights), so the estimate is monotone in ``t`` by construction.
Section 6.3 of the paper points out the key limitation relative to SelNet:
the quadrature nodes are the same for every query, whereas SelNet adapts its
control points per query.

The derivative network ĝ is an FFN over ``[x, s]`` whose output passes
through ``ELU + 1`` to stay positive; the offset f̂_0 is a softplus-activated
FFN over ``x`` (selectivity at threshold 0 is small but non-zero because the
query itself is usually a database member).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor, no_grad
from ..data.workload import WorkloadSplit
from ..estimator import SelectivityEstimator
from ..registry import register_estimator
from ..nn import Adam, DataLoader, ELUPlusOne, Module, Sequential, feed_forward, log_huber_loss


def clenshaw_curtis(num_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Clenshaw–Curtis nodes and weights on ``[-1, 1]``.

    Uses the classical cosine-sum formula; all weights are non-negative,
    which is what preserves monotonicity of the integrated estimator.
    """
    if num_points < 2:
        raise ValueError("need at least 2 quadrature points")
    n = num_points - 1
    k = np.arange(num_points)
    nodes = np.cos(np.pi * k / n)

    weights = np.zeros(num_points)
    for index in range(num_points):
        total = 1.0
        for j in range(1, n // 2 + 1):
            b = 1.0 if 2 * j == n else 2.0
            total -= b / (4.0 * j ** 2 - 1.0) * np.cos(2.0 * j * index * np.pi / n)
        c = 1.0 if index in (0, n) else 2.0
        weights[index] = c * total / n
    return nodes, weights


class UMNNModel(Module):
    """Derivative network + offset network + Clenshaw–Curtis integration."""

    def __init__(
        self,
        query_dim: int,
        hidden_sizes: Sequence[int] = (128, 128, 64),
        offset_hidden_sizes: Sequence[int] = (64,),
        num_quadrature_points: int = 16,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
        self.query_dim = query_dim
        self.derivative_net: Sequential = feed_forward(
            query_dim + 1, list(hidden_sizes), 1, rng=rng
        )
        self.derivative_activation = ELUPlusOne()
        self.offset_net: Sequential = feed_forward(
            query_dim, list(offset_hidden_sizes), 1, output_activation="softplus", rng=rng
        )
        nodes, weights = clenshaw_curtis(num_quadrature_points)
        self._nodes = nodes
        self._weights = weights

    def forward(self, queries: np.ndarray, thresholds: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64).reshape(-1)
        batch = len(queries)
        num_points = len(self._nodes)

        # Quadrature sample locations: s_{i,k} = t_i / 2 * (u_k + 1) in [0, t_i].
        sample_points = 0.5 * thresholds[:, None] * (self._nodes[None, :] + 1.0)
        flat_queries = np.repeat(queries, num_points, axis=0)
        flat_points = sample_points.reshape(-1, 1)
        derivative_input = Tensor(np.concatenate([flat_queries, flat_points], axis=1))
        derivative = self.derivative_activation(self.derivative_net(derivative_input))
        derivative = derivative.reshape(batch, num_points)

        # Integral = (t / 2) * sum_k w_k * g(s_k); weights and t are constants.
        weighted = derivative * Tensor(np.broadcast_to(self._weights, (batch, num_points)).copy())
        integral = weighted.sum(axis=1) * Tensor(0.5 * thresholds)
        offset = self.offset_net(Tensor(queries)).reshape(batch)
        return integral + offset


@register_estimator(
    "umnn",
    display_name="UMNN",
    description="Unconstrained monotonic NN via Clenshaw-Curtis quadrature",
    consistent=True,
    scale_params=lambda scale, num_vectors: {"epochs": scale.baseline_epochs},
)
class UMNNEstimator(SelectivityEstimator):
    """Clenshaw–Curtis monotone network estimator (consistency guaranteed)."""

    name = "UMNN"
    guarantees_consistency = True

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (128, 128, 64),
        num_quadrature_points: int = 16,
        epochs: int = 60,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        early_stopping_patience: Optional[int] = 15,
        seed: int = 0,
    ) -> None:
        self.hidden_sizes = tuple(hidden_sizes)
        self.num_quadrature_points = num_quadrature_points
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.early_stopping_patience = early_stopping_patience
        self.seed = seed
        self.model: Optional[UMNNModel] = None

    def fit(self, split: WorkloadSplit) -> "UMNNEstimator":
        rng = np.random.default_rng(self.seed)
        self._input_dim = split.train.queries.shape[1]
        self.model = UMNNModel(
            query_dim=split.train.queries.shape[1],
            hidden_sizes=self.hidden_sizes,
            num_quadrature_points=self.num_quadrature_points,
            rng=rng,
        )
        optimizer = Adam(self.model.parameters(), learning_rate=self.learning_rate, max_grad_norm=5.0)
        loader = DataLoader(
            split.train.queries,
            split.train.thresholds,
            split.train.selectivities,
            batch_size=self.batch_size,
            shuffle=True,
            rng=rng,
        )
        best_state = None
        best_validation = float("inf")
        stall = 0
        for _ in range(self.epochs):
            self.model.train()
            for batch_queries, batch_thresholds, batch_labels in loader:
                optimizer.zero_grad()
                prediction = self.model(batch_queries, batch_thresholds)
                loss = log_huber_loss(prediction, batch_labels)
                loss.backward()
                optimizer.step()
            self.model.eval()
            with no_grad():
                prediction = self.model(split.validation.queries, split.validation.thresholds)
                validation_loss = log_huber_loss(
                    prediction, split.validation.selectivities
                ).item()
            if validation_loss < best_validation - 1e-9:
                best_validation = validation_loss
                best_state = self.model.state_dict()
                stall = 0
            else:
                stall += 1
            if self.early_stopping_patience is not None and stall >= self.early_stopping_patience:
                break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return self

    def estimate(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("estimator must be fitted before calling estimate()")
        with no_grad():
            output = self.model(
                np.asarray(queries, dtype=np.float64), np.asarray(thresholds, dtype=np.float64)
            )
        return np.clip(output.data.reshape(len(queries)), 0.0, None)
