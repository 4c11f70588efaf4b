"""Training loops for SelNet (single and partitioned) and the estimator API.

The losses follow the paper:

* single model (Equation 4):      ``J = J_est(f̂) + λ J_AE``
* partitioned model (Section 5.3): local pre-training for ``T`` epochs with
  per-partition labels, then joint training with
  ``J_joint = J_est(f̂*) + β Σ_i J_est(f̂^(i)) + λ J_AE``

``J_est`` is the Huber loss on the logarithms of the true and estimated
selectivities (Equation 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..autodiff import Tensor, no_grad, stack
from ..data.workload import Workload, WorkloadSplit
from ..estimator import SelectivityEstimator
from ..index import Partitioning, build_partitioning
from ..nn import Adam, DataLoader, log_huber_loss
from ..registry import register_estimator
from .config import SelNetConfig
from .partitioned import PartitionedSelNet
from .selnet import SelNetModel


@dataclass
class SelNetTrainingHistory:
    """Loss trajectories recorded while fitting SelNet."""

    train_loss: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)
    pretrain_loss: List[float] = field(default_factory=list)

    @property
    def best_validation_loss(self) -> float:
        return min(self.validation_loss) if self.validation_loss else float("nan")


def _estimation_loss(prediction: Tensor, targets: np.ndarray, delta: float) -> Tensor:
    return log_huber_loss(prediction, np.asarray(targets, dtype=np.float64), delta=delta)


# ---------------------------------------------------------------------- #
# Single-model training (SelNet-ct / SelNet-ad-ct)
# ---------------------------------------------------------------------- #
def train_selnet_model(
    model: SelNetModel,
    train: Workload,
    validation: Optional[Workload],
    config: SelNetConfig,
    rng: Optional[np.random.Generator] = None,
) -> SelNetTrainingHistory:
    """Fit a single (non-partitioned) SelNet model on a workload."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    optimizer = Adam(
        model.parameters(), learning_rate=config.learning_rate, max_grad_norm=config.max_grad_norm
    )
    loader = DataLoader(
        train.queries,
        train.thresholds,
        train.selectivities,
        batch_size=config.batch_size,
        shuffle=True,
        rng=rng,
    )
    history = SelNetTrainingHistory()
    best_state = None
    best_validation = float("inf")
    stall = 0

    for epoch in range(config.epochs):
        model.train()
        losses = []
        for queries, thresholds, labels in loader:
            optimizer.zero_grad()
            query_tensor = Tensor(queries)
            prediction = model.forward(query_tensor, thresholds)
            loss = _estimation_loss(prediction, labels, config.huber_delta)
            loss = loss + config.lambda_ae * model.reconstruction_loss(query_tensor)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        history.train_loss.append(float(np.mean(losses)) if losses else 0.0)

        if validation is not None and len(validation) > 0:
            model.eval()
            with no_grad():
                prediction = model.forward(Tensor(validation.queries), validation.thresholds)
                valid_loss = _estimation_loss(
                    prediction, validation.selectivities, config.huber_delta
                ).item()
            history.validation_loss.append(valid_loss)
            if valid_loss < best_validation - 1e-9:
                best_validation = valid_loss
                best_state = model.state_dict()
                stall = 0
            else:
                stall += 1
            if (
                config.early_stopping_patience is not None
                and stall >= config.early_stopping_patience
            ):
                break

    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    return history


# ---------------------------------------------------------------------- #
# Partitioned training (SelNet)
# ---------------------------------------------------------------------- #
def train_partitioned_selnet(
    model: PartitionedSelNet,
    train: Workload,
    validation: Optional[Workload],
    config: SelNetConfig,
    rng: Optional[np.random.Generator] = None,
    precomputed_train_indicators: Optional[np.ndarray] = None,
    precomputed_local_labels: Optional[np.ndarray] = None,
) -> SelNetTrainingHistory:
    """Pre-train local models, then train the global model jointly.

    Pre-computation of the partition indicators and the local labels for all
    training rows mirrors the paper ("f_c of all (x, t) are precomputed
    before training").
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    partitioning = model.partitioning
    history = SelNetTrainingHistory()

    train_indicators = (
        precomputed_train_indicators
        if precomputed_train_indicators is not None
        else partitioning.indicator_batch(train.queries, train.thresholds)
    )
    local_labels = (
        precomputed_local_labels
        if precomputed_local_labels is not None
        else partitioning.local_selectivity_labels(train.queries, train.thresholds)
    )
    validation_indicators = None
    if validation is not None and len(validation) > 0:
        validation_indicators = partitioning.indicator_batch(
            validation.queries, validation.thresholds
        )

    # ---------------- Stage 1: local pre-training ---------------- #
    optimizer = Adam(
        model.parameters(), learning_rate=config.learning_rate, max_grad_norm=config.max_grad_norm
    )
    loader = DataLoader(
        train.queries,
        train.thresholds,
        local_labels,
        batch_size=config.batch_size,
        shuffle=True,
        rng=rng,
    )
    for _ in range(config.pretrain_epochs):
        model.train()
        losses = []
        for queries, thresholds, batch_local_labels in loader:
            optimizer.zero_grad()
            query_tensor = Tensor(queries)
            local_outputs = model.local_outputs(query_tensor, thresholds)
            loss = None
            for k, output in enumerate(local_outputs):
                local_loss = _estimation_loss(
                    output, batch_local_labels[:, k], config.huber_delta
                )
                loss = local_loss if loss is None else loss + local_loss
            loss = loss * (1.0 / max(len(local_outputs), 1))
            loss = loss + config.lambda_ae * model.reconstruction_loss(query_tensor)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        history.pretrain_loss.append(float(np.mean(losses)) if losses else 0.0)

    # ---------------- Stage 2: joint training ---------------- #
    joint_loader = DataLoader(
        train.queries,
        train.thresholds,
        train.selectivities,
        train_indicators,
        local_labels,
        batch_size=config.batch_size,
        shuffle=True,
        rng=rng,
    )
    best_state = None
    best_validation = float("inf")
    stall = 0
    for epoch in range(config.epochs):
        model.train()
        losses = []
        for queries, thresholds, labels, indicators, batch_local_labels in joint_loader:
            optimizer.zero_grad()
            query_tensor = Tensor(queries)
            local_outputs = model.local_outputs(query_tensor, thresholds)
            stacked = stack(local_outputs, axis=1)
            global_output = (stacked * Tensor(indicators)).sum(axis=1)
            loss = _estimation_loss(global_output, labels, config.huber_delta)
            local_term = None
            for k, output in enumerate(local_outputs):
                local_loss = _estimation_loss(
                    output, batch_local_labels[:, k], config.huber_delta
                )
                local_term = local_loss if local_term is None else local_term + local_loss
            if local_term is not None:
                loss = loss + config.beta_local * local_term
            loss = loss + config.lambda_ae * model.reconstruction_loss(query_tensor)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        history.train_loss.append(float(np.mean(losses)) if losses else 0.0)

        if validation is not None and len(validation) > 0:
            model.eval()
            with no_grad():
                prediction = model.forward(
                    Tensor(validation.queries), validation.thresholds, validation_indicators
                )
                valid_loss = _estimation_loss(
                    prediction, validation.selectivities, config.huber_delta
                ).item()
            history.validation_loss.append(valid_loss)
            if valid_loss < best_validation - 1e-9:
                best_validation = valid_loss
                best_state = model.state_dict()
                stall = 0
            else:
                stall += 1
            if (
                config.early_stopping_patience is not None
                and stall >= config.early_stopping_patience
            ):
                break

    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    return history


# ---------------------------------------------------------------------- #
# Estimator front-end
# ---------------------------------------------------------------------- #
class SelNetEstimator(SelectivityEstimator):
    """SelNet exposed through the common :class:`SelectivityEstimator` API.

    The configuration selects the variant:

    * ``num_partitions > 1`` — full SelNet (cover-tree partitioned).
    * ``num_partitions == 1`` — SelNet-ct (no partitioning).
    * ``query_dependent_tau=False`` — SelNet-ad-ct (ablation of Section 7.4).
    """

    guarantees_consistency = True

    def __init__(self, config: Optional[SelNetConfig] = None, name: Optional[str] = None) -> None:
        self.config = config if config is not None else SelNetConfig()
        if name is not None:
            self.name = name
        elif self.config.num_partitions > 1:
            self.name = "SelNet"
        elif self.config.query_dependent_tau:
            self.name = "SelNet-ct"
        else:
            self.name = "SelNet-ad-ct"
        self.model: Optional[object] = None
        self.history: Optional[SelNetTrainingHistory] = None
        self._t_max: Optional[float] = None

    # ------------------------------------------------------------------ #
    def fit(self, split: WorkloadSplit) -> "SelNetEstimator":
        config = self.config
        rng = np.random.default_rng(config.seed)
        data = split.dataset.vectors
        input_dim = data.shape[1]
        self._input_dim = input_dim
        self._t_max = split.t_max

        if config.num_partitions > 1:
            partitioning = build_partitioning(
                config.partition_method,
                data,
                num_partitions=config.num_partitions,
                distance=split.distance,
                seed=config.seed,
            )
            model = PartitionedSelNet(input_dim, split.t_max, config, partitioning, rng=rng)
            model.autoencoder.pretrain(
                data, epochs=config.ae_pretrain_epochs, batch_size=config.batch_size, rng=rng
            )
            self.history = train_partitioned_selnet(
                model, split.train, split.validation, config, rng=rng
            )
        else:
            model = SelNetModel(input_dim, split.t_max, config, rng=rng)
            model.autoencoder.pretrain(
                data, epochs=config.ae_pretrain_epochs, batch_size=config.batch_size, rng=rng
            )
            self.history = train_selnet_model(model, split.train, split.validation, config, rng=rng)
        self.model = model
        self._invalidate_compiled()  # weights changed: next compiled() refreezes
        return self

    def estimate(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Answers of the float64 compiled kernel, the one serving uses.

        They are bit-equal to the graph-mode ``self.model.predict``, which
        stays the reference the kernel is checked against.
        """
        if self.model is None:
            raise RuntimeError("estimator must be fitted before calling estimate()")
        return self.compiled().predict(queries, thresholds)

    def get_params(self):
        """Flat SelNetConfig fields (the registry's parameter convention)."""
        from dataclasses import asdict

        return asdict(self.config)

    # ------------------------------------------------------------------ #
    def curve_for_query(self, query: np.ndarray):
        """Learned piece-wise linear curve for one query (Figure 4 support).

        For the partitioned variant the curves of the local models are summed
        at shared evaluation points.
        """
        if self.model is None:
            raise RuntimeError("estimator must be fitted before inspecting curves")
        if isinstance(self.model, SelNetModel):
            return self.model.curve_for_query(query)
        # Partitioned model: merge local curves on a common grid.
        from .piecewise import PiecewiseLinearCurve

        grid = np.linspace(0.0, self._t_max, 256)
        total = np.zeros_like(grid)
        for local in self.model.local_models:
            curve = local.curve_for_query(query)
            total += curve(grid)
        return PiecewiseLinearCurve(tau=grid, p=total)


# ---------------------------------------------------------------------- #
# Registry entries for the three SelNet variants of the paper
# ---------------------------------------------------------------------- #
_TUPLE_CONFIG_FIELDS = ("tau_hidden_sizes", "p_hidden_sizes", "ae_hidden_sizes")


def coerce_selnet_params(params: dict) -> dict:
    """Normalise flat SelNetConfig kwargs (JSON lists -> tuple-typed fields)."""
    params = dict(params)
    for field_name in _TUPLE_CONFIG_FIELDS:
        if field_name in params and params[field_name] is not None:
            params[field_name] = tuple(params[field_name])
    return params


def _selnet_variant_factory(display_name: str, **forced):
    """Factory building a SelNet variant from flat SelNetConfig fields."""

    def build(**params) -> SelNetEstimator:
        params = dict(params)
        params.update(forced)
        return SelNetEstimator(SelNetConfig(**coerce_selnet_params(params)), name=display_name)

    return build


def _selnet_scale_params(scale, num_vectors):
    from dataclasses import asdict

    return asdict(scale.selnet_config())


register_estimator(
    "selnet",
    factory=_selnet_variant_factory("SelNet"),
    cls=SelNetEstimator,
    display_name="SelNet",
    description="Full SelNet: cover-tree partitioned, query-dependent control points",
    consistent=True,
    default_params={"num_partitions": 3},
    scale_params=_selnet_scale_params,
)
register_estimator(
    "selnet-ct",
    factory=_selnet_variant_factory("SelNet-ct", num_partitions=1),
    cls=SelNetEstimator,
    display_name="SelNet-ct",
    description="SelNet without data partitioning (single global model)",
    consistent=True,
    scale_params=lambda scale, num_vectors: {
        **_selnet_scale_params(scale, num_vectors),
        "num_partitions": 1,
    },
)
register_estimator(
    "selnet-ad-ct",
    factory=_selnet_variant_factory("SelNet-ad-ct", num_partitions=1, query_dependent_tau=False),
    cls=SelNetEstimator,
    display_name="SelNet-ad-ct",
    description="SelNet ablation: no partitioning, query-independent tau",
    consistent=True,
    scale_params=lambda scale, num_vectors: {
        **_selnet_scale_params(scale, num_vectors),
        "num_partitions": 1,
        "query_dependent_tau": False,
    },
)
