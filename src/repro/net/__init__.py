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

import importlib

from .client import BinaryClient, HttpClient
from .protocol import ProtocolError, RemoteError

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

#: export -> submodule, resolved on first access (PEP 562): a client loads
#: no server, and a server loads no saturation driver
_LAZY_EXPORTS = {
    "NetworkShardBackend": "backend",
    "ShardCrashedError": "backend",
    "ShardRequestError": "backend",
    "ServeApp": "server",
    "NetServer": "server",
    "HttpEstimationServer": "server",
    "BinaryEstimationServer": "server",
    "build_server": "server",
    "SaturationScenario": "saturate",
    "SaturationReport": "saturate",
    "LoadPoint": "saturate",
    "report_as_dict": "saturate",
    "run_saturation_benchmark": "saturate",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        module = importlib.import_module(f".{_LAZY_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
