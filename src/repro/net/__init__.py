"""The network serving tier: sockets, process shards, saturation sweeps.

This package turns the sharded :class:`~repro.cluster.EstimationCluster`
into a real service:

* :mod:`repro.net.worker` / :mod:`repro.net.backend` — the ``network``
  shard backend: one worker process per shard, every call and its batch
  one pickled message over the shard's pipe, selected with
  ``ClusterConfig(backend="network")``;
* :mod:`repro.net.protocol` / :mod:`repro.net.server` /
  :mod:`repro.net.client` — length-prefixed binary frames and JSON/HTTP
  endpoints (``/estimate``, ``/update``, ``/models``, ``/models/reload``,
  ``/stats``, ``/healthz``) behind ``repro serve``;
* :mod:`repro.net.saturate` — the ``repro saturate`` open-loop saturation
  benchmark (offered-vs-achieved load curves, knee detection).
"""

from .backend import NetworkShardBackend, ShardCrashedError, ShardRequestError
from .client import BinaryClient, HttpClient
from .protocol import ProtocolError, RemoteError
from .saturate import (
    LoadPoint,
    SaturationReport,
    SaturationScenario,
    report_as_dict,
    run_saturation_benchmark,
)
from .server import (
    BinaryEstimationServer,
    HttpEstimationServer,
    NetServer,
    ServeApp,
    build_server,
)

__all__ = [
    "NetworkShardBackend",
    "ShardCrashedError",
    "ShardRequestError",
    "ProtocolError",
    "RemoteError",
    "ServeApp",
    "NetServer",
    "HttpEstimationServer",
    "BinaryEstimationServer",
    "build_server",
    "BinaryClient",
    "HttpClient",
    "SaturationScenario",
    "SaturationReport",
    "LoadPoint",
    "report_as_dict",
    "run_saturation_benchmark",
]
