"""LSH importance-sampling baseline ("LSH" in the paper).

Wu, Charikar & Natchu ("Local Density Estimation in High Dimensions",
ICML 2018) use locality-sensitive hashing as an importance-sampling device:
objects likely to fall inside the query ball are sampled with higher
probability, and the inverse-probability (Horvitz–Thompson) correction keeps
the count estimate unbiased while shrinking its variance compared with
uniform sampling.

This implementation uses SimHash (random-hyperplane signatures), so — like the
original — it only supports the cosine distance.  Database objects are
grouped by the Hamming distance between their signature and the query's
signature; strata with small Hamming distance (likely near neighbours) are
sampled at higher rates.  The final estimate sums, over sampled objects that
actually satisfy ``d(x, o) <= t``, the inverse of their stratum's sampling
rate.  Counting indicator functions of a ball is monotone in ``t``, so the
estimator is consistent.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..data.workload import WorkloadSplit
from ..distances import cosine_distance, normalize_rows
from ..estimator import SelectivityEstimator
from ..index import distinct_rows
from ..registry import register_estimator

#: sample-distance comparisons one step of :meth:`LSHEstimator.estimate`
#: holds at once
_HIT_CHUNK_VALUES = 1 << 18


@register_estimator(
    "lsh",
    display_name="LSH",
    description="SimHash-stratified importance sampling (Wu et al.); cosine only",
    consistent=True,
    distances=("cosine",),
    scale_params=lambda scale, num_vectors: {"num_samples": scale.sample_budget(num_vectors)},
)
class LSHEstimator(SelectivityEstimator):
    """SimHash-stratified importance sampling for cosine selectivity.

    Parameters
    ----------
    num_hash_bits:
        Number of random hyperplanes (signature length).
    num_samples:
        Total sampling budget per query (the paper uses 2 000).
    seed:
        Seed controlling both the hyperplanes and the per-stratum sampling.
    """

    name = "LSH"
    guarantees_consistency = True

    def __init__(self, num_hash_bits: int = 16, num_samples: int = 2000, seed: int = 0) -> None:
        self.num_hash_bits = num_hash_bits
        self.num_samples = num_samples
        self.seed = seed
        self._data: Optional[np.ndarray] = None
        self._signatures: Optional[np.ndarray] = None
        self._hyperplanes: Optional[np.ndarray] = None
        self._rng: Optional[np.random.Generator] = None

    # ------------------------------------------------------------------ #
    def fit(self, split: WorkloadSplit) -> "LSHEstimator":
        if split.distance.name != "cosine":
            raise ValueError("the LSH baseline only supports cosine distance (SimHash)")
        data = normalize_rows(split.dataset.vectors)
        rng = np.random.default_rng(self.seed)
        hyperplanes = rng.normal(size=(data.shape[1], self.num_hash_bits))
        signatures = (data @ hyperplanes) > 0.0
        self._data = data
        self._signatures = signatures
        self._hyperplanes = hyperplanes
        self._rng = rng
        self._input_dim = data.shape[1]
        return self

    # ------------------------------------------------------------------ #
    def _sample_strata(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(distances, starts, rates)`` of ``query``'s stratified sample:
        stratum ``i``'s sampled objects' distances to ``query`` start at
        ``distances[starts[i]]`` and were drawn at rate ``rates[i]``."""
        query = query / max(np.linalg.norm(query), 1e-12)
        query_signature = (query @ self._hyperplanes) > 0.0
        hamming = np.count_nonzero(self._signatures != query_signature[None, :], axis=1)

        # Deterministic per-query sampling: the same query must reuse the same
        # sample for every threshold, otherwise sampling noise could make the
        # estimate non-monotone in t.  (Counting ball members over a fixed
        # sample is monotone in the threshold.)
        signature_bits = np.packbits(query_signature).tobytes()
        query_seed = int.from_bytes(signature_bits, "little") % (2 ** 32)
        sampler = np.random.default_rng(self.seed + query_seed)

        # Importance weights: strata with smaller Hamming distance are more
        # likely to contain ball members, so they receive a larger share of
        # the sampling budget.  Weight decays geometrically with distance.
        strata_weights = 0.5 ** np.arange(self.num_hash_bits + 1)
        budget = self.num_samples
        # Allocate the budget proportionally to stratum weight * stratum size.
        stratum_sizes = np.bincount(hamming, minlength=self.num_hash_bits + 1)
        allocation_scores = strata_weights * stratum_sizes
        total_score = allocation_scores.sum()
        if total_score <= 0:
            return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)
        distances: List[np.ndarray] = []
        rates: List[float] = []
        for stratum, size in enumerate(stratum_sizes):
            if size == 0:
                continue
            stratum_budget = int(np.ceil(budget * allocation_scores[stratum] / total_score))
            stratum_budget = min(max(stratum_budget, 1), int(size))
            members = np.where(hamming == stratum)[0]
            sampled = sampler.choice(members, size=stratum_budget, replace=False)
            distances.append(cosine_distance(query, self._data[sampled]))
            rates.append(stratum_budget / size)
        starts = np.cumsum([0] + [len(part) for part in distances[:-1]])
        return np.concatenate(distances), starts, np.asarray(rates)

    def estimate(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        if self._data is None:
            raise RuntimeError("estimator must be fitted before calling estimate()")
        queries = np.asarray(queries, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        estimates = np.zeros(len(thresholds), dtype=np.float64)
        # The signature, strata and sample depend on the query only: drawn
        # once per run of a query's rows.  Each row still adds its strata's
        # inverse-rate hit counts left to right (``cumsum``), so the answers
        # are those of a row at a time.
        first, _ = distinct_rows(queries)
        ends = np.append(first[1:], len(queries))
        for run_start, run_end in zip(first.tolist(), ends.tolist()):
            distances, starts, rates = self._sample_strata(queries[run_start])
            if len(rates) == 0:
                continue
            chunk = max(1, _HIT_CHUNK_VALUES // len(distances))
            for start in range(run_start, run_end, chunk):
                rows = slice(start, min(start + chunk, run_end))
                inside = distances <= thresholds[rows, None]
                hits = np.add.reduceat(inside, starts, axis=1, dtype=np.int64)
                estimates[rows] = np.cumsum(hits / rates, axis=1)[:, -1]
        return estimates
