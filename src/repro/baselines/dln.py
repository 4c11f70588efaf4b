"""Deep Lattice Network baseline ("DLN" in the paper).

Lattice regression (Garcia & Gupta; Gupta et al.; You et al. "Deep Lattice
Networks") represents a function as a multilinearly interpolated look-up
table over a hypercube.  Monotonicity along selected inputs is obtained by
constraining the look-up values to be ordered along those lattice axes, and
per-input piece-wise linear *calibrators* map raw features into the unit
cube.

This implementation follows the architecture the paper evaluates, scaled to
its essential pieces:

1. **Calibrators** — one per input dimension, a piece-wise linear map with
   equally spaced keypoints onto ``[0, 1]``.  The calibrator on the threshold
   input is constrained to be monotone (non-negative increments + prefix sum);
   calibrators on the query dimensions are unconstrained.
2. **Ensemble of lattices** — each lattice interpolates over a small random
   subset of calibrated inputs that always contains the threshold dimension.
   Look-up values are parameterised so they are non-decreasing along the
   threshold axis, which — combined with the monotone calibrator and the
   non-negative mixture weights — makes the whole model monotone in ``t``.
3. **Output scaling** — a positive affine map (softplus-parameterised scale)
   back to selectivity range.

Section 6.2 of the paper analyses why this family underfits the selectivity
curve: calibrator keypoints are equally spaced and shared across queries.
Reproducing that inductive bias (rather than the exact TF-Lattice code) is
the goal here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor, concat, cumsum, no_grad, stack
from ..data.workload import WorkloadSplit
from ..estimator import SelectivityEstimator
from ..registry import register_estimator
from ..nn import Adam, DataLoader, Module, log_huber_loss


class Calibrator(Module):
    """Per-dimension piece-wise linear calibration onto ``[0, 1]``.

    Keypoints are fixed and equally spaced over ``[minimum, maximum]`` (the
    limitation Section 6.2 highlights); the outputs at the keypoints are
    learned.  With ``monotone=True`` the outputs are forced to be
    non-decreasing (non-negative increments + prefix sum + normalisation).
    """

    def __init__(
        self,
        minimum: float,
        maximum: float,
        num_keypoints: int = 8,
        monotone: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
        if maximum <= minimum:
            maximum = minimum + 1e-6
        self.keypoints = np.linspace(minimum, maximum, num_keypoints)
        self.monotone = monotone
        initial = rng.normal(0.0, 0.1, size=num_keypoints)
        self.raw_outputs = Tensor(initial, requires_grad=True, name="calibrator_outputs")

    def _outputs(self) -> Tensor:
        if not self.monotone:
            return self.raw_outputs.sigmoid()
        increments = self.raw_outputs.relu() + 1e-6
        total = cumsum(increments.reshape(1, -1), axis=1).reshape(-1)
        return total * (1.0 / float(total.data[-1]))

    def forward(self, values: np.ndarray) -> Tensor:
        """Calibrate a 1-D numpy array of raw feature values.

        The interpolation weights over keypoints depend only on the (fixed)
        keypoints and the input values, so they are constants; gradients flow
        to the learned keypoint outputs.
        """
        values = np.asarray(values, dtype=np.float64)
        clipped = np.clip(values, self.keypoints[0], self.keypoints[-1])
        upper = np.clip(np.searchsorted(self.keypoints, clipped, side="left"), 1, len(self.keypoints) - 1)
        lower = upper - 1
        width = self.keypoints[upper] - self.keypoints[lower]
        fraction = (clipped - self.keypoints[lower]) / np.maximum(width, 1e-12)

        outputs = self._outputs()
        weights = np.zeros((len(values), len(self.keypoints)))
        weights[np.arange(len(values)), lower] = 1.0 - fraction
        weights[np.arange(len(values)), upper] += fraction
        return Tensor(weights) @ outputs.reshape(-1, 1)


class Lattice(Module):
    """Multilinear interpolation over the unit hypercube of a feature subset.

    ``monotone_dim`` is the position (within the subset) of the threshold
    feature; look-up values are parameterised as ``base`` on the ``t = 0``
    face plus a non-negative offset on the ``t = 1`` face.
    """

    def __init__(
        self,
        num_inputs: int,
        monotone_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
        self.num_inputs = num_inputs
        self.monotone_dim = monotone_dim
        num_face_vertices = 2 ** (num_inputs - 1)
        self.base = Tensor(rng.normal(0.0, 0.1, size=num_face_vertices), requires_grad=True, name="lattice_base")
        self.delta = Tensor(rng.normal(0.0, 0.1, size=num_face_vertices), requires_grad=True, name="lattice_delta")

    def _vertex_values(self) -> Tensor:
        """Look-up values for all 2^d vertices, ordered by vertex bitmask."""
        upper = self.base + self.delta.relu()
        values = []
        for vertex in range(2 ** self.num_inputs):
            bit = (vertex >> self.monotone_dim) & 1
            face_index = self._face_index(vertex)
            source = upper if bit == 1 else self.base
            values.append(source[face_index].reshape(1))
        return concat(values, axis=0)

    def _face_index(self, vertex: int) -> int:
        """Index of ``vertex`` within the t-face (dropping the monotone bit)."""
        face_bits = 0
        position = 0
        for dim in range(self.num_inputs):
            if dim == self.monotone_dim:
                continue
            face_bits |= ((vertex >> dim) & 1) << position
            position += 1
        return face_bits

    def forward(self, calibrated: Tensor) -> Tensor:
        """Interpolate; ``calibrated`` has shape ``(batch, num_inputs)`` in [0,1]."""
        vertex_values = self._vertex_values()  # (2^d,)
        outputs = None
        for vertex in range(2 ** self.num_inputs):
            weight = None
            for dim in range(self.num_inputs):
                coordinate = calibrated[:, dim]
                factor = coordinate if (vertex >> dim) & 1 else (1.0 - coordinate)
                weight = factor if weight is None else weight * factor
            contribution = weight * vertex_values[vertex]
            outputs = contribution if outputs is None else outputs + contribution
        return outputs


class DeepLatticeNetwork(Module):
    """Calibrators + ensemble of lattices + positive output scaling."""

    def __init__(
        self,
        query_dim: int,
        t_max: float,
        feature_ranges: Sequence[Tuple[float, float]],
        num_keypoints: int = 8,
        num_lattices: int = 8,
        lattice_rank: int = 3,
        output_scale_init: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
        self.query_dim = query_dim
        self.t_max = float(t_max)
        # Calibrator per query dimension plus one (monotone) for the threshold.
        self.query_calibrators: List[Calibrator] = [
            Calibrator(low, high, num_keypoints=num_keypoints, monotone=False, rng=rng)
            for (low, high) in feature_ranges
        ]
        self.threshold_calibrator = Calibrator(
            0.0, t_max, num_keypoints=num_keypoints, monotone=True, rng=rng
        )
        # Each lattice sees (lattice_rank - 1) random query dims plus the threshold.
        self.lattice_feature_subsets: List[np.ndarray] = []
        self.lattices: List[Lattice] = []
        rank = min(lattice_rank, query_dim + 1)
        for _ in range(num_lattices):
            subset = rng.choice(query_dim, size=max(rank - 1, 1), replace=False)
            self.lattice_feature_subsets.append(np.sort(subset))
            self.lattices.append(Lattice(len(subset) + 1, monotone_dim=len(subset), rng=rng))
        self.log_scale = Tensor(np.asarray([np.log(max(output_scale_init, 1e-6))]), requires_grad=True)
        self.bias = Tensor(np.asarray([0.0]), requires_grad=True)

    def forward(self, queries: np.ndarray, thresholds: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64).reshape(-1)
        calibrated_query = [
            calibrator(queries[:, dim]).reshape(len(queries))
            for dim, calibrator in enumerate(self.query_calibrators)
        ]
        calibrated_threshold = self.threshold_calibrator(thresholds).reshape(len(thresholds))

        lattice_outputs = []
        for subset, lattice in zip(self.lattice_feature_subsets, self.lattices):
            columns = [calibrated_query[int(dim)] for dim in subset]
            columns.append(calibrated_threshold)
            calibrated = stack(columns, axis=1)
            lattice_outputs.append(lattice(calibrated))
        # Non-negative (uniform) mixture preserves monotonicity in t.
        ensemble = stack(lattice_outputs, axis=1).mean(axis=1)
        scale = self.log_scale.exp()
        return ensemble * scale + self.bias


@register_estimator(
    "dln",
    display_name="DLN",
    description="Deep lattice network, monotone in the threshold by construction",
    consistent=True,
    default_params={"num_lattices": 6},
    scale_params=lambda scale, num_vectors: {"epochs": scale.baseline_epochs},
)
class DLNEstimator(SelectivityEstimator):
    """Deep-lattice-network selectivity estimator (consistency guaranteed)."""

    name = "DLN"
    guarantees_consistency = True

    def __init__(
        self,
        num_keypoints: int = 8,
        num_lattices: int = 8,
        lattice_rank: int = 3,
        epochs: int = 60,
        batch_size: int = 128,
        learning_rate: float = 5e-3,
        early_stopping_patience: Optional[int] = 15,
        seed: int = 0,
    ) -> None:
        self.num_keypoints = num_keypoints
        self.num_lattices = num_lattices
        self.lattice_rank = lattice_rank
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.early_stopping_patience = early_stopping_patience
        self.seed = seed
        self.model: Optional[DeepLatticeNetwork] = None

    def fit(self, split: WorkloadSplit) -> "DLNEstimator":
        rng = np.random.default_rng(self.seed)
        queries = split.train.queries
        self._input_dim = queries.shape[1]
        feature_ranges = [
            (float(queries[:, dim].min()), float(queries[:, dim].max()))
            for dim in range(queries.shape[1])
        ]
        scale_init = max(float(split.train.selectivities.max()), 1.0)
        self.model = DeepLatticeNetwork(
            query_dim=queries.shape[1],
            t_max=split.t_max,
            feature_ranges=feature_ranges,
            num_keypoints=self.num_keypoints,
            num_lattices=self.num_lattices,
            lattice_rank=self.lattice_rank,
            output_scale_init=scale_init,
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
