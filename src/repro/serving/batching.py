"""Micro-batching of (query, threshold) estimation requests.

Estimators are vectorised: one ``estimate`` call over a batch amortises the
per-call overhead (autoencoder forward, partition indicators...).  The
serving layer therefore never evaluates requests one by one — incoming work
is chopped into micro-batches of a bounded size, which caps per-request
latency while keeping the throughput of batched evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass
class MicroBatch:
    """One slice of a request stream, with positions into the original order."""

    queries: np.ndarray
    thresholds: np.ndarray
    positions: np.ndarray

    def __len__(self) -> int:
        return len(self.thresholds)


def iter_microbatches(
    queries: np.ndarray,
    thresholds: np.ndarray,
    max_batch_size: int,
) -> Iterator[MicroBatch]:
    """Split aligned query / threshold arrays into bounded micro-batches.

    An empty request batch (zero queries and zero thresholds — whether the
    queries arrive as ``(0,)`` or ``(0, dim)``) yields no micro-batches
    instead of tripping the shape validation: serving layers route whatever
    a client sends, and an empty request is not an error.
    """
    queries = np.asarray(queries, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be at least 1")
    if queries.size == 0 and thresholds.ndim == 1 and len(thresholds) == 0:
        return
    if queries.ndim != 2:
        raise ValueError(f"queries must be a 2-D array, got shape {queries.shape}")
    if thresholds.ndim != 1 or len(thresholds) != len(queries):
        raise ValueError(
            f"thresholds must be 1-D and aligned with queries "
            f"({len(queries)} queries, thresholds shape {thresholds.shape})"
        )
    for start in range(0, len(queries), max_batch_size):
        stop = min(start + max_batch_size, len(queries))
        yield MicroBatch(
            queries=queries[start:stop],
            thresholds=thresholds[start:stop],
            positions=np.arange(start, stop),
        )

