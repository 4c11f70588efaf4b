"""The benchmark's inputs, generated from the workload seed with NumPy only.

Nothing here calls the program's own generators, so the inputs stay the
same whatever later changes do to them:

* :func:`clustered_unit_vectors` -- the database, shaped like the
  ``face_like`` setting: unit-norm vectors in tight clusters, queried
  under cosine distance;
* :func:`zipf_stream` -- request batches whose rows pick a query by
  zipfian popularity and one of its labeled thresholds uniformly;
* :func:`update_stream` -- the Section 7.6 stream: operations of five
  records, each an insert of perturbed copies of existing vectors or a
  delete of random current rows with equal probability.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

# Sub-stream identifiers: each input draws from its own generator, so
# resizing one input leaves the others unchanged.
_VECTORS, _REQUESTS, _READS, _UPDATES, _PROBES = range(5)

NUM_CLUSTERS = 30
#: per-cluster standard deviation is drawn from [0.5, 1.5] x this
CLUSTER_SPREAD = 0.15
#: Query popularity ~ 1 / rank ** ZIPF_EXPONENT. The value is the skew of the
#: program's ``zipfian`` and ``update-heavy`` traffic scenarios
#: (``repro.workloads.traffic.Scenario.zipf_exponent``), copied here.
ZIPF_EXPONENT = 1.2
#: Read batches between two writes of the update stream: the program's
#: ``update-heavy`` scenario writes once every 4 arrival batches
#: (``Scenario.update_every``), copied here.
READ_BATCHES_PER_WRITE = 4
#: Section 7.6: records per operation and the noise of inserted copies
RECORDS_PER_OPERATION = 5
INSERT_NOISE = 0.05


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def clustered_unit_vectors(seed: int, num_vectors: int, dim: int) -> np.ndarray:
    """Unit-norm vectors in tight clusters of equal expected size.

    Two choices keep the work and the accuracy of the workloads alike from
    seed to seed. ``face_like`` weighs cluster ``k`` by ``1 / k``; its cover
    tree then has a number of regions, which sets the cost of every
    partition-indicator evaluation, that moves by about 23% (quartile spread
    over median) across seeds, against 7% for 30 clusters of equal expected
    size. With 60 clusters some get no training query, and the held-out
    q-error p95 of those seeds doubles.
    """
    rng = _rng(seed, _VECTORS)
    centres = rng.normal(size=(NUM_CLUSTERS, dim))
    assignment = rng.integers(0, NUM_CLUSTERS, size=num_vectors)
    spreads = rng.uniform(0.5 * CLUSTER_SPREAD, 1.5 * CLUSTER_SPREAD, size=NUM_CLUSTERS)
    vectors = centres[assignment] + rng.normal(size=(num_vectors, dim)) * spreads[assignment, None]
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def zipf_stream(
    seed: int,
    reads: bool,
    num_queries: int,
    thresholds_per_query: int,
    num_batches: int,
    batch_rows: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Query and threshold indices of shape ``(num_batches, batch_rows)``.

    Query popularity is zipfian over a seeded permutation of the queries;
    thresholds are uniform per row.
    """
    rng = _rng(seed, _READS if reads else _REQUESTS)
    ranked = rng.permutation(num_queries)
    popularity = 1.0 / np.arange(1, num_queries + 1) ** ZIPF_EXPONENT
    size = (num_batches, batch_rows)
    queries = ranked[rng.choice(num_queries, size=size, p=popularity / popularity.sum())]
    thresholds = rng.integers(0, thresholds_per_query, size=size)
    return queries, thresholds


def update_stream(seed: int, base: np.ndarray, num_operations: int) -> List[Tuple[str, np.ndarray]]:
    """``("insert", vectors)`` / ``("delete", sorted row indices)`` operations.

    Delete indices refer to the database as it stands when the operation
    is applied (surviving rows in order, inserts appended at the end).
    """
    rng = _rng(seed, _UPDATES)
    records = RECORDS_PER_OPERATION
    size = len(base)
    operations: List[Tuple[str, np.ndarray]] = []
    for _ in range(num_operations):
        if rng.random() < 0.5 or size <= records:
            picked = base[rng.integers(0, len(base), size=records)]
            vectors = picked + rng.normal(0.0, INSERT_NOISE, size=picked.shape)
            operations.append(("insert", vectors / np.linalg.norm(vectors, axis=1, keepdims=True)))
            size += records
        else:
            operations.append(("delete", np.sort(rng.choice(size, size=records, replace=False))))
            size -= records
    return operations


def apply_stream(base: np.ndarray, operations: List[Tuple[str, np.ndarray]]) -> np.ndarray:
    """The database after ``operations``, replayed independently of the program."""
    data = np.asarray(base, dtype=np.float64)
    for kind, payload in operations:
        if kind == "insert":
            data = np.concatenate([data, payload], axis=0)
        else:
            keep = np.ones(len(data), dtype=bool)
            keep[payload] = False
            data = data[keep]
    return data


def probe_queries(seed: int, num_rows: int, count: int) -> np.ndarray:
    """Row indices of the queries whose curves the consistency check samples."""
    return np.sort(_rng(seed, _PROBES).choice(num_rows, size=min(count, num_rows), replace=False))
