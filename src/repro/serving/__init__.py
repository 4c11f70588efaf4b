"""Serving layer: model store facade and control-point cache.

See :class:`EstimationService` for the entry point::

    from repro.serving import EstimationService

    service = EstimationService("models/")
    service.estimate("selnet-faces", queries, thresholds)
"""

from .cache import CurveCache, query_cache_key
from .service import EstimationService, ModelStats

__all__ = [
    "EstimationService",
    "ModelStats",
    "CurveCache",
    "query_cache_key",
]
