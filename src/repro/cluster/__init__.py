"""Sharded estimation tier: consistent-hash routing over worker shards.

See :class:`EstimationCluster` for the entry point::

    from repro.cluster import ClusterConfig, EstimationCluster

    with EstimationCluster(ClusterConfig(num_shards=4, model_dir="models/",
                                         backend="network")) as cluster:
        cluster.estimate("selnet-faces", queries, thresholds)
        print(cluster.stats()["per_shard"])

Shards run ``inline`` (in the calling process; tests and in-process runs)
or on the ``network`` backend (one worker process per shard behind its
own pipe, :mod:`repro.net`).
"""

from .backends import BACKENDS, InlineShardBackend, ShardFuture
from .cluster import (
    OVERLOAD_POLICIES,
    ClusterClosedError,
    ClusterConfig,
    ClusterEstimateFuture,
    ClusterOverloadedError,
    EstimationCluster,
)
from .router import ShardRouter

__all__ = [
    "EstimationCluster",
    "ClusterConfig",
    "ClusterEstimateFuture",
    "ClusterClosedError",
    "ClusterOverloadedError",
    "OVERLOAD_POLICIES",
    "ShardRouter",
    "ShardFuture",
    "InlineShardBackend",
    "BACKENDS",
]
