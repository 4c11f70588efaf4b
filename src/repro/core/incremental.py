"""Incremental learning under database updates (Section 5.4 of the paper).

When the database receives insertions or deletions:

1. The labels of the validation data are refreshed against the updated
   database and the model's validation MAE is re-measured.  If the MAE drift
   stays within ``δ_U`` the model is kept as is.
2. Otherwise the training labels are refreshed too and the *current* model is
   fine-tuned (never retrained from scratch) on all training data until the
   validation MAE stops improving for 3 consecutive epochs — incremental
   learning over the full training set prevents catastrophic forgetting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..autodiff import Tensor
from ..data.updates import UpdateOperation
from ..data.workload import QueryGrid, Workload, WorkloadSplit, query_grid, relabel_workload
from ..exact import DeltaOracle
from ..distances import DistanceFunction, finite_squared_norms
from ..estimator import SelectivityEstimator
from ..nn import Adam, DataLoader, log_huber_loss
from ..registry import register_estimator
from .config import IncrementalConfig, SelNetConfig
from .selnet import SelNetModel
from .trainer import SelNetEstimator, _selnet_scale_params, coerce_selnet_params


@dataclass
class UpdateStepReport:
    """What happened when one update operation was applied."""

    operation_kind: str
    database_size: int
    validation_mae_before: float
    validation_mae_after: float
    retrained: bool
    fine_tune_epochs: int = 0


class IncrementalSelNet:
    """Wraps a fitted SelNet-ct estimator with update handling.

    Parameters
    ----------
    estimator:
        A fitted :class:`~repro.core.trainer.SelNetEstimator` whose model is a
        single (non-partitioned) :class:`SelNetModel`.  The update procedure
        in the paper is described for this configuration; partitioned models
        would additionally require re-partitioning.
    data:
        Database vectors at the start of the update stream.
    distance:
        Distance function of the workload.
    train, validation:
        The training and validation workloads (labels are refreshed in place
        as the database changes).
    config:
        Incremental-learning hyper-parameters.
    """

    def __init__(
        self,
        estimator: SelNetEstimator,
        data: np.ndarray,
        distance: DistanceFunction,
        train: Workload,
        validation: Workload,
        config: Optional[IncrementalConfig] = None,
    ) -> None:
        if not isinstance(estimator.model, SelNetModel):
            raise TypeError("IncrementalSelNet requires a fitted non-partitioned SelNet estimator")
        self.estimator = estimator
        self.distance = distance
        self.train = train
        self.validation = validation
        self.config = IncrementalConfig() if config is None else config
        self.reports: List[UpdateStepReport] = []
        # One incremental oracle for the whole update stream: base counts per
        # workload are computed once and each relabel only scans the rows
        # changed since that workload was last labeled.
        self._delta = DeltaOracle(np.asarray(data, dtype=np.float64), distance)
        # ``(queries, thresholds, predictions)`` of the current weights on the
        # validation rows; only a fine-tune changes the weights.
        self._predictions: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # The validation rows, grouped by query once (on the first relabel):
        # every relabel then hands the oracle the same read-only arrays,
        # which it finds without hashing them.
        self._validation_grid: Optional[QueryGrid] = None
        self._baseline_mae = self._validation_mae()

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        # A pickle from before the operation log holds the current rows as
        # ``data`` and an oracle of the old layout: restart the oracle from
        # those rows, which is all exact relabeling needs.
        if "data" in state:
            state["_delta"] = DeltaOracle(state.pop("data"), state["distance"])
            state["_predictions"] = None
        # Unpickled arrays are writeable again: regroup on the next relabel.
        state["_validation_grid"] = None
        self.__dict__.update(state)

    @property
    def data(self) -> np.ndarray:
        """The current database, materialised on access."""
        return self._delta.current_data()

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _validation_mae(self) -> float:
        """Validation MAE of the current weights against the current labels.

        A write changes the labels, not the rows: the predictions are reused
        while the validation ``queries`` and ``thresholds`` are the arrays
        they were made for (:func:`relabel_workload` keeps both).
        """
        queries, thresholds = self.validation.queries, self.validation.thresholds
        cached = self._predictions
        if cached is None or cached[0] is not queries or cached[1] is not thresholds:
            cached = (queries, thresholds, self.estimator.estimate(queries, thresholds))
            self._predictions = cached
        return float(np.mean(np.abs(cached[2] - self.validation.selectivities)))

    def _fine_tune(self, initial_mae: float) -> Tuple[int, float]:
        """Fine-tune the current model; return the epochs run and its MAE.

        ``initial_mae`` is the validation MAE of the current weights.  The
        model ends on the best weights seen, and the returned MAE is the one
        measured for them, so callers need not evaluate them again.
        """
        model: SelNetModel = self.estimator.model  # type: ignore[assignment]
        selnet_config: SelNetConfig = self.estimator.config
        optimizer = Adam(model.parameters(), learning_rate=self.config.learning_rate)
        # The shuffle depends on the model's seed and on how many operations
        # the stream has applied, this one included, so one stream always
        # fine-tunes the same way.
        operations_applied = len(self.reports) + 1
        loader = DataLoader(
            self.train.queries,
            self.train.thresholds,
            self.train.selectivities,
            batch_size=self.config.batch_size,
            shuffle=True,
            rng=np.random.default_rng([selnet_config.seed, operations_applied]),
        )
        best_mae = initial_mae
        best_state = model.state_dict()
        best_predictions = self._predictions
        stall = 0
        epochs_run = 0
        for _ in range(self.config.max_epochs):
            model.train()
            for queries, thresholds, labels in loader:
                optimizer.zero_grad()
                query_tensor = Tensor(queries)
                prediction = model.forward(query_tensor, thresholds)
                loss = log_huber_loss(prediction, labels, delta=selnet_config.huber_delta)
                loss = loss + selnet_config.lambda_ae * model.reconstruction_loss(query_tensor)
                loss.backward()
                optimizer.step()
            model.eval()
            epochs_run += 1
            # The epoch changed the weights: measure them, not the ones the
            # estimator's kernel froze.
            self._predictions = None
            self.estimator._invalidate_compiled()
            mae = self._validation_mae()
            if mae < best_mae - 1e-9:
                best_mae = mae
                best_state = model.state_dict()
                best_predictions = self._predictions
                stall = 0
            else:
                stall += 1
            if stall >= self.config.patience:
                break
        model.load_state_dict(best_state)
        model.eval()
        # Evaluation is deterministic, so the restored weights keep the
        # predictions measured for them.
        self._predictions = best_predictions
        return epochs_run, best_mae

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def apply_operation(
        self,
        operation: UpdateOperation,
        validation: Optional[Workload] = None,
        train=None,
    ) -> UpdateStepReport:
        """Apply one insert/delete operation and update the model if needed.

        ``validation`` / ``train`` optionally supply externally relabeled
        workloads reflecting the post-operation database, so several models
        tracking the same update stream share one exact-labeling pass per
        operation instead of relabeling per model (``train`` may be a
        zero-argument callable, invoked only when fine-tuning triggers).
        The labels must equal what :func:`relabel_workload` against this
        instance's oracle would produce — the exact engine guarantees that
        for any oracle over the same data and operation history.
        """
        self._delta.apply(operation)

        # Step 1: refresh validation labels and re-check accuracy.
        if validation is not None:
            self.validation, self._validation_grid = validation, None
        else:
            if self._validation_grid is None:
                self._validation_grid = query_grid(self.validation)
            self.validation = relabel_workload(
                self.validation, self._delta, self._validation_grid
            )
        mae_before = self._validation_mae()
        drift = abs(mae_before - self._baseline_mae)

        # The weights only change on a fine-tune, and evaluation is
        # deterministic, so every MAE below reuses predictions already made.
        retrained = False
        fine_tune_epochs = 0
        mae_after = mae_before
        if drift > self.config.mae_drift_threshold:
            # Step 2: refresh training labels and fine-tune the current model.
            if train is not None:
                self.train = train() if callable(train) else train
            else:
                self.train = relabel_workload(self.train, self._delta)
            fine_tune_epochs, mae_after = self._fine_tune(mae_before)
            # Fine-tuning mutates the model weights in place; any cached
            # compiled inference kernel froze the pre-update weights (store-
            # loaded estimators arrive eagerly compiled) and must be rebuilt.
            self.estimator._invalidate_compiled()
            retrained = True
            self._baseline_mae = mae_after

        report = UpdateStepReport(
            operation_kind=operation.kind,
            database_size=self._delta.num_objects,
            validation_mae_before=mae_before,
            validation_mae_after=mae_after,
            retrained=retrained,
            fine_tune_epochs=fine_tune_epochs,
        )
        self.reports.append(report)
        return report

    def apply_stream(self, operations: List[UpdateOperation]) -> List[UpdateStepReport]:
        """Apply a whole update stream, returning one report per operation."""
        return [self.apply_operation(operation) for operation in operations]

    def update(
        self,
        inserts: Optional[np.ndarray] = None,
        deletes: Optional[np.ndarray] = None,
    ) -> List[UpdateStepReport]:
        """The estimator-API update protocol: one insert and/or delete batch.

        ``inserts`` is a ``(n, dim)`` array of new vectors; ``deletes`` holds
        row indices into the current database.  Deletes are applied first so
        the indices are interpreted against the pre-insert state.  An index
        below ``-size``, or an insert row with a NaN or infinite coordinate or
        a squared norm that overflows float64, raises ``ValueError`` before
        anything changes.
        """
        operations: List[UpdateOperation] = []
        if deletes is not None:
            indices = np.atleast_1d(np.asarray(deletes, dtype=np.int64))
            size = self._delta.num_objects
            if indices.size and indices.min() < -size:
                raise ValueError(
                    f"delete index {int(indices.min())} is out of bounds "
                    f"for a database of {size} rows"
                )
            operations.append(UpdateOperation(kind="delete", indices=np.sort(indices)))
        if inserts is not None:
            vectors = np.atleast_2d(np.asarray(inserts, dtype=np.float64))
            if not finite_squared_norms(vectors):
                raise ValueError(
                    "inserted vectors must be finite (no NaN or infinity, and no row "
                    "whose squared norm overflows float64)"
                )
            operations.append(UpdateOperation(kind="insert", vectors=vectors))
        if not operations:
            raise ValueError("update() needs inserts, deletes or both")
        return self.apply_stream(operations)

    def estimate(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Delegate estimation to the wrapped (possibly fine-tuned) model."""
        return self.estimator.estimate(queries, thresholds)


# ---------------------------------------------------------------------- #
# Registry front-end: SelNet with first-class update support
# ---------------------------------------------------------------------- #
@register_estimator(
    "selnet-inc",
    display_name="SelNet-inc",
    description="SelNet-ct with incremental maintenance under inserts/deletes (Sec. 5.4)",
    consistent=True,
    supports_updates=True,
    scale_params=lambda scale, num_vectors: {
        **_selnet_scale_params(scale, num_vectors),
        "num_partitions": 1,
    },
)
class IncrementalSelNetEstimator(SelectivityEstimator):
    """SelNet-ct wrapped with the Section 5.4 incremental-learning procedure.

    The only registered estimator with ``supports_updates = True``: after
    :meth:`fit`, :meth:`update` applies insert/delete batches, re-checks the
    validation error against the updated database and fine-tunes the current
    model only when accuracy has drifted beyond the configured threshold.

    Constructor parameters are flat :class:`SelNetConfig` fields
    (``num_partitions`` is forced to 1 — the paper describes the update
    procedure for the non-partitioned model) plus incremental-learning knobs
    prefixed with ``update_`` (e.g. ``update_mae_drift_threshold``,
    ``update_max_epochs``) mapping to :class:`IncrementalConfig`.
    """

    name = "SelNet-inc"
    guarantees_consistency = True
    supports_updates = True

    def __init__(self, **params) -> None:
        params = dict(params)
        incremental_kwargs = {
            key[len("update_"):]: params.pop(key)
            for key in list(params)
            if key.startswith("update_")
        }
        params["num_partitions"] = 1
        self.config = SelNetConfig(**coerce_selnet_params(params))
        self.incremental_config = IncrementalConfig(**incremental_kwargs)
        self.state: Optional[IncrementalSelNet] = None

    # ------------------------------------------------------------------ #
    def fit(self, split: WorkloadSplit) -> "IncrementalSelNetEstimator":
        estimator = SelNetEstimator(self.config, name=self.name).fit(split)
        self.state = IncrementalSelNet(
            estimator=estimator,
            data=split.dataset.vectors,
            distance=split.distance,
            train=split.train,
            validation=split.validation,
            config=self.incremental_config,
        )
        self._input_dim = estimator.expected_input_dim
        self._invalidate_compiled()
        return self

    def estimate(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        if self.state is None:
            raise RuntimeError("estimator must be fitted before calling estimate()")
        return self.state.estimate(queries, thresholds)

    def update(
        self,
        inserts: Optional[np.ndarray] = None,
        deletes: Optional[np.ndarray] = None,
    ) -> List[UpdateStepReport]:
        """Apply the batch; fine-tune only if the validation MAE drifted.

        Only a fine-tune changes the weights, so only a report with
        ``retrained`` drops the compiled kernel (and bumps
        :attr:`generation`, which tells a serving cache its curves are
        stale).  A write that fine-tunes nothing keeps both.
        """
        if self.state is None:
            raise RuntimeError("estimator must be fitted before calling update()")
        reports = self.state.update(inserts=inserts, deletes=deletes)
        if any(report.retrained for report in reports):
            # The kernel froze the pre-update weights and must be rebuilt.
            self._invalidate_compiled()
        return reports

    @property
    def reports(self) -> List[UpdateStepReport]:
        """Per-operation reports accumulated across all updates so far."""
        return [] if self.state is None else self.state.reports

    def get_params(self):
        from dataclasses import asdict

        params = asdict(self.config)
        params.update(
            {f"update_{key}": value for key, value in asdict(self.incremental_config).items()}
        )
        return params
