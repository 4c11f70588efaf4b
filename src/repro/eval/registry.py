"""Paper-experiment training specs, on top of the public registry.

This module is a thin consumer of :mod:`repro.registry`: it maps the model
names used in the paper's tables (``"SelNet"``, ``"LightGBM-m"``...) to
registry keys and builds every model's :class:`~repro.pipeline.TrainSpec`
with the hyper-parameters its :class:`~repro.registry.EstimatorSpec`
declares for the chosen :class:`~repro.experiments.scale.ExperimentScale`,
so the accuracy, timing and monotonicity experiments all evaluate the same
model zoo.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..experiments.scale import ExperimentScale
from ..pipeline import TrainSpec, WorkloadSpec
from ..registry import get_estimator_spec, iter_estimator_specs

#: every model of Tables 1-4, in the paper's row order
PAPER_MODEL_ORDER = (
    "LSH",
    "KDE",
    "LightGBM",
    "LightGBM-m",
    "DNN",
    "MoE",
    "RMI",
    "DLN",
    "UMNN",
    "SelNet",
)

#: the ablation rows of Table 6
ABLATION_MODEL_ORDER = ("SelNet", "SelNet-ct", "SelNet-ad-ct")


def _display_to_key() -> Dict[str, str]:
    """Map paper display names to registry keys (computed from the specs)."""
    return {spec.display_name: spec.name for spec in iter_estimator_specs()}


#: models whose estimates are consistent by construction (the * in the tables)
CONSISTENT_MODELS = frozenset(
    spec.display_name for spec in iter_estimator_specs() if spec.guarantees_consistency
)


def selnet_train_spec(
    workload: WorkloadSpec,
    scale: ExperimentScale,
    variant: str = "SelNet",
    seed: int = 0,
    display_name: Optional[str] = None,
    **config_overrides,
) -> TrainSpec:
    """Hashable training spec for a SelNet variant (``SelNet`` /
    ``SelNet-ct`` / ``SelNet-ad-ct``); ``config_overrides`` are SelNetConfig
    fields."""
    if variant not in ABLATION_MODEL_ORDER:
        raise KeyError(f"unknown SelNet variant {variant!r}")
    key = _display_to_key()[variant]
    params = get_estimator_spec(key).params_for_scale(scale)
    params["seed"] = seed
    params.update(config_overrides)
    return TrainSpec.create(workload, key, params, display_name=display_name)


def train_specs_for_models(
    scale: ExperimentScale,
    workload: WorkloadSpec,
    include: Optional[Iterable[str]] = None,
    seed: int = 0,
) -> Dict[str, TrainSpec]:
    """Hashable training specs for the model zoo on one workload.

    Parameters
    ----------
    scale:
        Experiment scale controlling epochs / sizes / budgets.
    workload:
        The workload every model trains on; its dataset's size sets the
        KDE / LSH sampling budgets, and a model whose spec does not support
        its distance is omitted (LSH on Euclidean, exactly as in the
        paper's Table 2).
    include:
        Optional subset of display names (paper order when omitted; the
        given order otherwise).  Unknown names are skipped.
    seed:
        Seed forwarded to every estimator.
    """
    display_map = _display_to_key()
    names = list(include) if include is not None else list(PAPER_MODEL_ORDER)
    specs: Dict[str, TrainSpec] = {}
    for display in names:
        key = display_map.get(display)
        if key is None:
            continue
        spec = get_estimator_spec(key)
        if not spec.supports_distance(workload.distance):
            continue
        params = spec.params_for_scale(scale, workload.dataset.num_vectors)
        params["seed"] = seed
        specs[display] = TrainSpec.create(workload, key, params)
    return specs
