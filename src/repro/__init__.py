"""SelNet reproduction: consistent and flexible selectivity estimation.

This package reproduces "Consistent and Flexible Selectivity Estimation for
High-dimensional Data" (Wang et al., SIGMOD 2021): the SelNet estimator, all
of its substrates (numpy autodiff, neural-network layers, cover-tree
partitioning, synthetic workloads) and the nine comparison baselines — behind
a unified registry / persistence / serving API.

Quick start::

    from repro import available_estimators, create_estimator
    from repro import make_dataset, build_workload_split

    dataset = make_dataset("face_like", num_vectors=2000)
    split = build_workload_split(dataset, "cosine", num_queries=60)

    print(available_estimators())       # ('selnet', ..., 'kde', 'lsh', ...)
    estimator = create_estimator("selnet", epochs=30).fit(split)
    estimate = estimator.estimate(split.test.queries, split.test.thresholds)

    estimator.save("models/selnet-faces")            # persist the fitted model
    clone = load_estimator("models/selnet-faces")    # bit-exact round-trip

Serving (micro-batching + LRU selectivity-curve cache)::

    from repro.serving import EstimationService

    service = EstimationService("models/")
    service.estimate("selnet-faces", queries, thresholds)
    print(service.stats()["cache"]["hit_rate"])

Sharded serving (consistent-hash routing, scatter–gather, admission
control — see :mod:`repro.cluster`)::

    from repro.cluster import ClusterConfig, EstimationCluster

    with EstimationCluster(ClusterConfig(num_shards=4, model_dir="models/")) as cluster:
        cluster.estimate("selnet-faces", queries, thresholds)
        print(cluster.stats()["per_shard"])
"""

from .core import (
    IncrementalConfig,
    IncrementalSelNet,
    IncrementalSelNetEstimator,
    PartitionedSelNet,
    PiecewiseLinearCurve,
    SelNetConfig,
    SelNetEstimator,
    SelNetModel,
)
from .data import (
    Dataset,
    SelectivityOracle,
    Workload,
    WorkloadSplit,
    build_workload_split,
    generate_workload,
    make_dataset,
)
from .distances import get_distance
from .estimator import SelectivityEstimator, UpdateNotSupportedError
from .exact import BlockedOracle, DeltaOracle, ReferenceOracle
from .persistence import load_estimator, read_metadata, save_estimator
from .registry import (
    EstimatorSpec,
    available_estimators,
    create_estimator,
    get_estimator_spec,
    iter_estimator_specs,
    register_estimator,
)

__version__ = "1.2.0"

__all__ = [
    "SelectivityEstimator",
    "UpdateNotSupportedError",
    "EstimatorSpec",
    "register_estimator",
    "create_estimator",
    "available_estimators",
    "iter_estimator_specs",
    "get_estimator_spec",
    "save_estimator",
    "load_estimator",
    "read_metadata",
    "SelNetConfig",
    "IncrementalConfig",
    "SelNetEstimator",
    "SelNetModel",
    "PartitionedSelNet",
    "IncrementalSelNet",
    "IncrementalSelNetEstimator",
    "PiecewiseLinearCurve",
    "Dataset",
    "make_dataset",
    "Workload",
    "WorkloadSplit",
    "generate_workload",
    "build_workload_split",
    "SelectivityOracle",
    "BlockedOracle",
    "DeltaOracle",
    "ReferenceOracle",
    "get_distance",
    "ArtifactStore",
    "DatasetSpec",
    "WorkloadSpec",
    "TrainSpec",
    "EvalSpec",
    "ExperimentSpec",
    "PipelineRunner",
    "use_store",
    "set_active_store",
    "get_active_store",
    "__version__",
]

#: resolved on first access (PEP 562): the pipeline and the store load only
#: in processes that run experiments, not in every build, load or server
_PIPELINE_EXPORTS = {
    "ArtifactStore",
    "DatasetSpec",
    "WorkloadSpec",
    "TrainSpec",
    "EvalSpec",
    "ExperimentSpec",
    "PipelineRunner",
    "use_store",
    "set_active_store",
    "get_active_store",
}


def __getattr__(name: str):
    if name in _PIPELINE_EXPORTS:
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
