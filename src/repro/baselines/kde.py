"""Kernel density estimation baseline ("KDE" in the paper).

Follows the metric-space approach of Mattig et al. (EDBT 2018): rather than
modelling the d-dimensional data density (which the curse of dimensionality
makes hopeless), model the one-dimensional distribution of *distances* from
the query to a sample of the database.  The selectivity estimate is

    f̂(x, t) = |D| * F̂_x(t)

where ``F̂_x`` is the CDF of a Gaussian kernel density fitted over the
distances from ``x`` to ``m`` sampled database objects.  The estimate is a
scaled CDF, hence monotonically non-decreasing in ``t`` — KDE is one of the
consistency-guaranteeing baselines (marked ``*`` in the paper's tables).

Cosine distance is handled by normalising the data and converting to the
equivalent Euclidean problem, exactly as the paper describes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.workload import WorkloadSplit
from ..distances import DistanceFunction, get_distance
from ..estimator import SelectivityEstimator
from ..index import distinct_rows
from ..registry import register_estimator

#: kernel CDF values one step of :meth:`KDEEstimator.estimate` holds at once
_CDF_CHUNK_VALUES = 1 << 18


def _adaptive_bandwidth(distances: np.ndarray, tail_fraction: float = 0.1) -> float:
    """Adaptive per-query bandwidth from the lower tail of the distance sample.

    Selectivity workloads only ever probe the lower tail of the distance
    distribution (the paper's thresholds cover selectivities up to |D|/100),
    so the kernel scale is derived from Scott's rule applied to the smallest
    ``tail_fraction`` of distances — this is the "adaptive" element of the
    Mattig et al. estimator and prevents mass from far-away objects leaking
    into small-threshold estimates.
    """
    distances = np.sort(np.asarray(distances, dtype=np.float64))
    tail = distances[: max(int(np.ceil(tail_fraction * len(distances))), 2)]
    n = max(len(tail), 2)
    spread = np.std(tail)
    if spread <= 0:
        spread = max(np.abs(tail).max(), 1e-3)
    return float(max(1.06 * spread * n ** (-1.0 / 5.0), 1e-6))


@register_estimator(
    "kde",
    display_name="KDE",
    description="Adaptive kernel density over query-to-sample distances (Mattig et al.)",
    consistent=True,
    scale_params=lambda scale, num_vectors: {"num_samples": scale.sample_budget(num_vectors)},
)
class KDEEstimator(SelectivityEstimator):
    """Adaptive kernel density estimation over query-to-sample distances.

    Parameters
    ----------
    num_samples:
        Number of database objects sampled as kernel centres (the paper uses
        2 000 samples for KDE and LSH to keep estimation cost reasonable).
    bandwidth:
        Optional fixed kernel bandwidth; estimated per query with Scott's
        rule when omitted (this per-query adaptation is the "adaptive" part).
    seed:
        Sampling seed.
    """

    name = "KDE"
    guarantees_consistency = True

    def __init__(
        self,
        num_samples: int = 2000,
        bandwidth: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        self.num_samples = num_samples
        self.bandwidth = bandwidth
        self.seed = seed
        self._sample: Optional[np.ndarray] = None
        self._num_objects: int = 0
        self._distance: Optional[DistanceFunction] = None

    # ------------------------------------------------------------------ #
    def fit(self, split: WorkloadSplit) -> "KDEEstimator":
        data = np.asarray(split.dataset.vectors, dtype=np.float64)
        self._distance = split.distance
        self._num_objects = len(data)
        self._input_dim = data.shape[1]
        rng = np.random.default_rng(self.seed)
        size = min(self.num_samples, len(data))
        index = rng.choice(len(data), size=size, replace=False)
        self._sample = data[index]
        return self

    # ------------------------------------------------------------------ #
    def estimate(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        if self._sample is None or self._distance is None:
            raise RuntimeError("estimator must be fitted before calling estimate()")
        # Imported here, not at module top: registering the baselines (which
        # every SelNet build and model load does) must not load scipy.
        from scipy import special

        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        estimates = np.empty(len(thresholds), dtype=np.float64)
        # The sample distances and the bandwidth depend on the query only:
        # computed once per run of a query's rows, and every row keeps its
        # own CDF arithmetic, so the answers are those of a row at a time.
        first, _ = distinct_rows(queries)
        ends = np.append(first[1:], len(queries))
        chunk = max(1, _CDF_CHUNK_VALUES // max(len(self._sample), 1))
        for run_start, run_end in zip(first.tolist(), ends.tolist()):
            distances = self._distance(queries[run_start], self._sample)
            bandwidth = (
                self.bandwidth if self.bandwidth is not None else _adaptive_bandwidth(distances)
            )
            for start in range(run_start, run_end, chunk):
                rows = slice(start, min(start + chunk, run_end))
                # Gaussian kernel CDF at each row's threshold, averaged over centres.
                z = (thresholds[rows, None] - distances) / bandwidth
                cdf = 0.5 * (1.0 + special.erf(z / np.sqrt(2.0)))
                estimates[rows] = self._num_objects * cdf.mean(axis=1)
        return estimates
