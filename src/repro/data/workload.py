"""Query workload generation (paper Appendix B.1 and Section 7.9).

A workload is a set of ``(query vector, threshold, exact selectivity)``
triples.  The default generator follows the paper / Mattig et al.: queries
are sampled from the database, and for each query a geometric sequence of
``w`` selectivity values in ``[1, |D| / 100]`` is converted to thresholds via
the query's sorted distance profile.  The alternative generator of
Section 7.9 samples thresholds from a Beta distribution over ``[0, t_max]``.

The resulting triples are split 80/10/10 into train / validation / test **by
query**, so no test query has been seen during training.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..distances import DistanceFunction, get_distance
from .ground_truth import SelectivityOracle
from .synthetic import Dataset

#: progress reporting: ``True`` logs to stderr, a callable receives
#: ``(labelled_queries, total_queries)`` after every engine block
ProgressSpec = Union[bool, Callable[[int, int], None], None]


def _progress_callback(progress: ProgressSpec, label: str) -> Optional[Callable[[int, int], None]]:
    """Resolve a ``progress`` argument into an engine callback (or None)."""
    if progress is None or progress is False:
        return None
    if callable(progress):
        return progress
    start = time.perf_counter()

    def log(done: int, total: int) -> None:
        elapsed = time.perf_counter() - start
        rate = done / elapsed if elapsed > 0 else float("inf")
        print(
            f"[{label}] labelled {done}/{total} queries "
            f"({elapsed:.1f} s, {rate:.1f} queries/s)",
            file=sys.stderr,
            flush=True,
        )

    return log


@dataclass
class Workload:
    """Aligned arrays of queries, thresholds and exact selectivities.

    ``query_ids`` maps every row back to the query vector it came from, which
    the splitter uses to keep all thresholds of one query in the same fold
    and the monotonicity test uses to group rows by query.
    """

    queries: np.ndarray
    thresholds: np.ndarray
    selectivities: np.ndarray
    query_ids: np.ndarray
    t_max: float
    distance_name: str
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.thresholds)

    @property
    def features(self) -> np.ndarray:
        """Concatenation ``[x, t]`` used by the ordinary-regression baselines."""
        return np.concatenate([self.queries, self.thresholds[:, None]], axis=1)

    def subset(self, index: np.ndarray) -> "Workload":
        """Return a new workload restricted to ``index`` rows."""
        return Workload(
            queries=self.queries[index],
            thresholds=self.thresholds[index],
            selectivities=self.selectivities[index],
            query_ids=self.query_ids[index],
            t_max=self.t_max,
            distance_name=self.distance_name,
            metadata=dict(self.metadata),
        )

    def unique_query_count(self) -> int:
        return int(len(np.unique(self.query_ids)))


@dataclass
class WorkloadSplit:
    """Train / validation / test workloads plus the generating context."""

    train: Workload
    validation: Workload
    test: Workload
    oracle: SelectivityOracle
    dataset: Dataset
    distance: DistanceFunction

    @property
    def t_max(self) -> float:
        return self.train.t_max


def geometric_selectivity_targets(
    num_objects: int, num_thresholds: int, max_selectivity_fraction: float = 0.01
) -> np.ndarray:
    """Geometric sequence of ``w`` selectivity values in ``[1, n * fraction]``.

    The paper uses ``fraction = 1/100`` on million-row datasets, which yields
    selectivities spanning four orders of magnitude.  On the laptop-scale
    synthetic datasets of this reproduction the same fraction would cap
    selectivity at a few dozen, flattening the very dynamic range the
    estimators are supposed to cope with — so experiment scales may raise the
    fraction to preserve the multi-order-of-magnitude span (each scale's
    ``max_selectivity_fraction`` is set in :mod:`repro.experiments.scale`).
    """
    upper = max(num_objects * max_selectivity_fraction, 2.0)
    return np.geomspace(1.0, upper, num=num_thresholds)


def generate_workload(
    dataset: Dataset,
    distance,
    num_queries: int = 200,
    thresholds_per_query: int = 40,
    threshold_distribution: str = "geometric",
    beta_params: Tuple[float, float] = (3.0, 2.5),
    max_selectivity_fraction: float = 0.01,
    seed: int = 0,
    num_workers: Optional[int] = None,
    block_bytes: Optional[int] = None,
    progress: ProgressSpec = None,
) -> Tuple[Workload, SelectivityOracle]:
    """Generate a labelled workload for one dataset / distance setting.

    Parameters
    ----------
    dataset:
        The database (a :class:`~repro.data.synthetic.Dataset`).
    distance:
        Distance function or its name.
    num_queries:
        Number of distinct query vectors, sampled from the database
        (the paper samples queries from D).
    thresholds_per_query:
        ``w`` in the paper (default 40).
    threshold_distribution:
        ``"geometric"`` (default, Appendix B.1) derives thresholds from a
        geometric selectivity sequence; ``"beta"`` samples thresholds from
        ``Beta(alpha, beta) * t_max`` (Section 7.9).
    beta_params:
        ``(alpha, beta)`` of the Beta distribution, default ``(3, 2.5)``.
    max_selectivity_fraction:
        Upper end of the geometric selectivity targets as a fraction of |D|
        (see :func:`geometric_selectivity_targets`).
    seed:
        Random seed.
    num_workers:
        Thread-pool width of the labeling engine (``None`` = auto).
    block_bytes:
        Memory budget per distance tile of the labeling engine.
    progress:
        ``True`` logs labeling progress to stderr; a callable receives
        ``(labelled_queries, total_queries)`` after every engine block.
    """
    if threshold_distribution not in ("geometric", "beta"):
        raise ValueError("threshold_distribution must be 'geometric' or 'beta'")
    distance_fn: DistanceFunction = (
        distance if isinstance(distance, DistanceFunction) else get_distance(distance)
    )
    oracle = SelectivityOracle(
        dataset.vectors, distance_fn, block_bytes=block_bytes, num_workers=num_workers
    )
    engine = oracle.engine
    rng = np.random.default_rng(seed)

    num_queries = min(num_queries, dataset.num_vectors)
    query_index = rng.choice(dataset.num_vectors, size=num_queries, replace=False)
    query_vectors = dataset.vectors[query_index]

    # t_max: cover the largest threshold the geometric workload can produce.
    targets = geometric_selectivity_targets(
        dataset.num_vectors, thresholds_per_query, max_selectivity_fraction
    )
    ranks = np.clip(np.round(targets).astype(np.int64), 1, dataset.num_vectors)
    callback = _progress_callback(progress, f"workload {dataset.name}/{distance_fn.name}")

    if threshold_distribution == "geometric":
        # One fused engine sweep: per query block the distance tile is
        # partitioned once at the largest rank (never fully sorted) and the
        # exact counts at the derived thresholds come from the same tile.
        thresholds, selectivities = engine.threshold_profile(
            query_vectors, ranks, progress=callback
        )
        t_max = float(thresholds[:, -1].max() * 1.05)
    else:
        # Beta mode: t_max from the largest geometric rank, then random
        # thresholds labelled by blocked counting.
        per_query_max = engine.kth_distances(query_vectors, [int(ranks[-1]) - 1])
        t_max = float(per_query_max.max() * 1.05)
        alpha, beta = beta_params
        thresholds = rng.beta(alpha, beta, size=(num_queries, thresholds_per_query)) * t_max
        selectivities = engine.selectivities_batch(
            query_vectors, thresholds, progress=callback
        )

    workload = Workload(
        queries=np.repeat(query_vectors, thresholds_per_query, axis=0),
        thresholds=thresholds.reshape(-1).astype(np.float64),
        selectivities=selectivities.reshape(-1).astype(np.float64),
        query_ids=np.repeat(np.arange(num_queries, dtype=np.int64), thresholds_per_query),
        t_max=t_max,
        distance_name=distance_fn.name,
        metadata={
            "dataset": dataset.name,
            "num_queries": num_queries,
            "thresholds_per_query": thresholds_per_query,
            "threshold_distribution": threshold_distribution,
            "max_selectivity_fraction": max_selectivity_fraction,
            "seed": seed,
        },
    )
    return workload, oracle


def split_workload(
    workload: Workload,
    train_fraction: float = 0.8,
    validation_fraction: float = 0.1,
    seed: int = 0,
) -> Tuple[Workload, Workload, Workload]:
    """Split a workload 80/10/10 **by query** (paper Appendix B.1)."""
    if not 0.0 < train_fraction < 1.0 or not 0.0 < validation_fraction < 1.0:
        raise ValueError("fractions must lie in (0, 1)")
    if train_fraction + validation_fraction >= 1.0:
        raise ValueError("train + validation fractions must leave room for test data")
    rng = np.random.default_rng(seed)
    unique_ids = np.unique(workload.query_ids)
    order = rng.permutation(unique_ids)
    num_train = int(round(len(order) * train_fraction))
    num_valid = int(round(len(order) * validation_fraction))
    num_valid = max(num_valid, 1)
    num_train = max(min(num_train, len(order) - num_valid - 1), 1)
    train_ids = set(order[:num_train].tolist())
    valid_ids = set(order[num_train : num_train + num_valid].tolist())

    membership = np.empty(len(workload), dtype=np.int8)
    for row, query_id in enumerate(workload.query_ids):
        if query_id in train_ids:
            membership[row] = 0
        elif query_id in valid_ids:
            membership[row] = 1
        else:
            membership[row] = 2
    train = workload.subset(np.where(membership == 0)[0])
    validation = workload.subset(np.where(membership == 1)[0])
    test = workload.subset(np.where(membership == 2)[0])
    return train, validation, test


def build_workload_split(
    dataset: Dataset,
    distance,
    num_queries: int = 200,
    thresholds_per_query: int = 40,
    threshold_distribution: str = "geometric",
    max_selectivity_fraction: float = 0.01,
    seed: int = 0,
    num_workers: Optional[int] = None,
    block_bytes: Optional[int] = None,
    progress: ProgressSpec = None,
) -> WorkloadSplit:
    """Generate a workload and split it into train / validation / test."""
    distance_fn = distance if isinstance(distance, DistanceFunction) else get_distance(distance)
    workload, oracle = generate_workload(
        dataset,
        distance_fn,
        num_queries=num_queries,
        thresholds_per_query=thresholds_per_query,
        threshold_distribution=threshold_distribution,
        max_selectivity_fraction=max_selectivity_fraction,
        seed=seed,
        num_workers=num_workers,
        block_bytes=block_bytes,
        progress=progress,
    )
    train, validation, test = split_workload(workload, seed=seed)
    return WorkloadSplit(
        train=train,
        validation=validation,
        test=test,
        oracle=oracle,
        dataset=dataset,
        distance=distance_fn,
    )


class QueryGrid(NamedTuple):
    """A workload's rows grouped by query, for relabeling on a threshold grid.

    ``queries`` holds one row per distinct query and ``thresholds`` its
    ``(Q, w)`` grid; ``order`` maps the grid's flattened cells back to
    workload rows.  All three are read-only, so a
    :class:`~repro.exact.DeltaOracle` handed the same arrays again finds its
    cached batch without hashing them.
    """

    order: np.ndarray
    queries: np.ndarray
    thresholds: np.ndarray


def query_grid(workload: Workload) -> Optional[QueryGrid]:
    """Group ``workload``'s rows by ``query_ids``; None when the groups are ragged."""
    if len(workload) == 0:
        return None
    unique_ids, inverse, group_sizes = np.unique(
        workload.query_ids, return_inverse=True, return_counts=True
    )
    width = int(group_sizes[0])
    if len(unique_ids) < 2 or width < 2 or not np.all(group_sizes == width):
        return None
    order = np.argsort(inverse, kind="stable")
    grid = QueryGrid(
        order,
        workload.queries[order[::width]],
        workload.thresholds[order.reshape(len(unique_ids), width)],
    )
    for array in grid:
        array.flags.writeable = False
    return grid


def _relabel_deduplicated(
    workload: Workload, oracle, grid: Optional[QueryGrid]
) -> Optional[np.ndarray]:
    """Relabel via one engine row per *distinct* query, when possible.

    Workload rows repeat each query once per threshold; grouping them by
    ``query_ids`` (:func:`query_grid`) turns ``Q * w`` distance rows into
    ``Q`` rows with a ``(Q, w)`` threshold grid.  Per-element GEMM results
    are invariant under row deduplication, so the labels are identical to
    the flat path.  Returns ``None`` when the oracle lacks a grid API or the
    groups are ragged (callers fall back to the aligned batch).
    """
    grid_fn = getattr(oracle, "selectivities_batch", None)
    if grid_fn is None or len(workload) == 0:
        return None
    grid = query_grid(workload) if grid is None else grid
    if grid is None:
        return None
    grid_labels = grid_fn(grid.queries, grid.thresholds)
    labels = np.empty(len(workload), dtype=np.float64)
    labels[grid.order] = grid_labels.reshape(-1)
    return labels


def relabel_workload(
    workload: Workload, oracle, grid: Optional[QueryGrid] = None
) -> Workload:
    """Recompute exact selectivities against a (possibly updated) oracle.

    Used by the incremental-learning path (Section 5.4): after database
    insertions or deletions, the labels of the training and validation data
    are refreshed before fine-tuning.  ``oracle`` is anything with a
    ``batch_selectivity`` protocol — a :class:`SelectivityOracle` or a
    :class:`repro.exact.DeltaOracle` (whose base-count cache makes repeated
    relabeling after each update operation cost only the changed rows).
    ``grid`` is the workload's :func:`query_grid`, for a caller that
    relabels the same rows after every write and so groups them once.
    """
    new_labels = _relabel_deduplicated(workload, oracle, grid)
    if new_labels is None:
        new_labels = oracle.batch_selectivity(
            workload.queries, workload.thresholds
        ).astype(np.float64)
    return Workload(
        queries=workload.queries,
        thresholds=workload.thresholds,
        selectivities=new_labels,
        query_ids=workload.query_ids,
        t_max=workload.t_max,
        distance_name=workload.distance_name,
        metadata=dict(workload.metadata),
    )
