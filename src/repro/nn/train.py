"""Generic supervised-training helpers shared by the deep baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..autodiff import Tensor, no_grad
from .data import DataLoader
from .module import Module
from .optim import Adam


@dataclass
class TrainingConfig:
    """Hyper-parameters for a plain regression training loop."""

    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    max_grad_norm: Optional[float] = 5.0
    early_stopping_patience: Optional[int] = None
    verbose: bool = False


@dataclass
class TrainingHistory:
    """Per-epoch losses recorded by :func:`fit_regressor`."""

    train_loss: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)

    @property
    def best_validation_loss(self) -> float:
        return min(self.validation_loss) if self.validation_loss else float("nan")


def fit_regressor(
    model: Module,
    loss_fn: Callable[[Tensor, np.ndarray], Tensor],
    features: np.ndarray,
    targets: np.ndarray,
    config: TrainingConfig,
    validation: Optional[tuple] = None,
    rng: Optional[np.random.Generator] = None,
    forward: Optional[Callable[[Module, np.ndarray], Tensor]] = None,
) -> TrainingHistory:
    """Train ``model`` to map ``features`` to ``targets`` with mini-batch Adam.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.module.Module` producing a ``(batch, 1)`` or
        ``(batch,)`` output.
    loss_fn:
        Callable of ``(prediction_tensor, target_array)`` returning a scalar
        loss tensor.
    features, targets:
        Training data.
    config:
        Loop hyper-parameters.
    validation:
        Optional ``(features, targets)`` pair used for early stopping and the
        validation-loss history.
    rng:
        Random generator controlling shuffling.
    forward:
        Optional custom forward function ``(model, batch) -> Tensor``;
        defaults to ``model(Tensor(batch))``.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(len(features))
    optimizer = Adam(
        model.parameters(),
        learning_rate=config.learning_rate,
        weight_decay=config.weight_decay,
        max_grad_norm=config.max_grad_norm,
    )
    loader = DataLoader(features, targets, batch_size=config.batch_size, shuffle=True, rng=rng)
    history = TrainingHistory()

    if forward is None:
        def forward(m: Module, batch: np.ndarray) -> Tensor:  # type: ignore[misc]
            return m(Tensor(batch))

    best_state = None
    best_validation = float("inf")
    epochs_without_improvement = 0

    for epoch in range(config.epochs):
        model.train()
        epoch_losses = []
        for batch_features, batch_targets in loader:
            optimizer.zero_grad()
            prediction = forward(model, batch_features)
            loss = loss_fn(prediction, batch_targets)
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        train_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
        history.train_loss.append(train_loss)

        if validation is not None:
            model.eval()
            valid_features, valid_targets = validation
            with no_grad():
                prediction = forward(model, np.asarray(valid_features, dtype=np.float64))
                valid_loss = loss_fn(
                    prediction, np.asarray(valid_targets, dtype=np.float64)
                ).item()
            history.validation_loss.append(valid_loss)
            if valid_loss < best_validation - 1e-9:
                best_validation = valid_loss
                best_state = model.state_dict()
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
            if (
                config.early_stopping_patience is not None
                and epochs_without_improvement >= config.early_stopping_patience
            ):
                break
        if config.verbose:
            message = f"[train] epoch {epoch + 1}/{config.epochs} train={train_loss:.5f}"
            if history.validation_loss:
                message += f" valid={history.validation_loss[-1]:.5f}"
            print(message)

    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    return history
