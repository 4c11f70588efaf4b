"""Saving and loading fitted estimators across processes.

A saved estimator is a directory:

``estimator.json``
    JSON sidecar: format version, registry key (when the estimator is
    registered), fully-qualified class, constructor parameters, capability
    flags and any caller-supplied metadata (the CLI records the training
    setting / scale / seed here).  Everything a service needs to list and
    route models without unpickling them.

``weights.npz``
    The parameters of every network the estimator owns, saved through
    :mod:`repro.nn.serialization` (one array per parameter, keyed
    ``"<attribute>::<dotted parameter name>"``).  Written only when the
    estimator has network parameters; authoritative on load.

``state.pkl``
    The remaining fitted state (samples, trees, partitionings, workloads...)
    as a pickle of the instance ``__dict__``.

The round-trip is bit-exact: ``load_estimator(save_estimator(e, p))`` makes
identical estimates to ``e`` for every query / threshold.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from .estimator import SelectivityEstimator
from .nn import Module
from .nn.serialization import load_state, save_state

PathLike = Union[str, "os.PathLike[str]"]

FORMAT_NAME = "repro-estimator"
#: Format 2 stores each shared tensor once, and SelNet's per-point decoders
#: as one stacked weight and bias.  Format-1 directories still load.
FORMAT_VERSION = 2

SIDECAR_FILE = "estimator.json"
WEIGHTS_FILE = "weights.npz"
STATE_FILE = "state.pkl"

#: separates the owning attribute from the parameter name in weights.npz keys
_WEIGHT_KEY_SEPARATOR = "::"


def _jsonify(value: Any) -> Any:
    """Best-effort conversion to JSON-able data for the sidecar."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


def estimator_metadata(estimator: SelectivityEstimator) -> Dict[str, Any]:
    """The sidecar dictionary for an estimator (without caller metadata)."""
    from . import __version__
    from .registry import find_registration

    cls = type(estimator)
    return {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "repro_version": __version__,
        "registry_name": find_registration(estimator),
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "name": estimator.name,
        "guarantees_consistency": bool(estimator.guarantees_consistency),
        "supports_updates": bool(estimator.supports_updates),
        "input_dim": estimator.expected_input_dim,
        "params": _jsonify(estimator.get_params()),
    }


def _module_attributes(estimator: SelectivityEstimator) -> Dict[str, Module]:
    return {
        attribute: value
        for attribute, value in vars(estimator).items()
        if isinstance(value, Module)
    }


def save_estimator(
    estimator: SelectivityEstimator,
    path: PathLike,
    extra_metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write ``estimator`` to the directory ``path`` (created if missing)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)

    metadata = estimator_metadata(estimator)
    if extra_metadata:
        metadata["metadata"] = _jsonify(extra_metadata)

    weights: Dict[str, np.ndarray] = {}
    for attribute, module in _module_attributes(estimator).items():
        for parameter_name, array in module.state_dict().items():
            weights[f"{attribute}{_WEIGHT_KEY_SEPARATOR}{parameter_name}"] = array
    if weights:
        save_state(directory / WEIGHTS_FILE, weights)
        metadata["num_weight_arrays"] = len(weights)

    # Without the compiled kernels, at any depth: they are rebuilt on load.
    state = estimator.__getstate__()
    with open(directory / STATE_FILE, "wb") as handle:
        pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
    with open(directory / SIDECAR_FILE, "w") as handle:
        json.dump(metadata, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return directory


def read_metadata(path: PathLike) -> Dict[str, Any]:
    """Read the JSON sidecar of a saved estimator (no unpickling)."""
    sidecar = Path(path) / SIDECAR_FILE
    if not sidecar.is_file():
        raise FileNotFoundError(
            f"{path!r} is not a saved estimator (missing {SIDECAR_FILE})"
        )
    with open(sidecar) as handle:
        metadata = json.load(handle)
    if metadata.get("format") != FORMAT_NAME:
        raise ValueError(f"{sidecar} is not a {FORMAT_NAME} sidecar")
    return metadata


def _resolve_class(dotted: str) -> type:
    module_name, _, qualname = dotted.rpartition(".")
    module = importlib.import_module(module_name)
    target: Any = module
    for part in qualname.split("."):
        target = getattr(target, part)
    if not isinstance(target, type):
        raise TypeError(f"{dotted} is not a class")
    return target


def _upgrade_format1_weights(
    module: Module, state: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Map a format-1 weight dictionary onto ``module``'s current names.

    Format 1 saved a shared tensor once per path to it (every local model of
    a partitioned SelNet repeated the shared autoencoder) and each SelNet
    decoder as its own ``Linear(E, 1)``.  The repeats are dropped and the
    decoders stacked.  Pickled format-1 modules are upgraded on unpickling
    (:meth:`repro.core.control_points.PGenerator.__setstate__`).
    """
    from .core.control_points import upgrade_format1_decoders

    state = upgrade_format1_decoders(state)
    for alias in module.parameter_aliases():
        state.pop(alias, None)
    return state


def load_estimator(path: PathLike, mmap: bool = False) -> SelectivityEstimator:
    """Load an estimator saved by :func:`save_estimator`.

    Restores the pickled fitted state, then overwrites every network
    parameter from ``weights.npz`` (so the ``.npz`` checkpoint — the format
    shared with :func:`repro.nn.serialization.save_module` — is
    authoritative for weights).  ``mmap=True`` maps the checkpoint instead
    of reading it eagerly: weight pages stream in on first touch and are
    shared via the page cache when many processes load one artifact (the
    parameters themselves still end up as private copies inside each
    module — see :meth:`repro.nn.Module.load_state_dict`).
    """
    directory = Path(path)
    metadata = read_metadata(directory)
    version = metadata.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise ValueError(
            f"unsupported estimator format version {version!r} (expected {FORMAT_VERSION})"
        )

    cls = _resolve_class(metadata["class"])
    if not issubclass(cls, SelectivityEstimator):
        raise TypeError(f"{metadata['class']} is not a SelectivityEstimator")

    with open(directory / STATE_FILE, "rb") as handle:
        state: Dict[str, Any] = pickle.load(handle)
    estimator = cls.__new__(cls)
    estimator.__dict__.update(state)

    weights_path = directory / WEIGHTS_FILE
    if weights_path.is_file():
        grouped: Dict[str, Dict[str, np.ndarray]] = {}
        for key, array in load_state(weights_path, mmap=mmap).items():
            attribute, _, parameter_name = key.partition(_WEIGHT_KEY_SEPARATOR)
            grouped.setdefault(attribute, {})[parameter_name] = array
        for attribute, module_state in grouped.items():
            module = getattr(estimator, attribute, None)
            if not isinstance(module, Module):
                raise ValueError(
                    f"checkpoint has weights for attribute {attribute!r} but the "
                    f"restored {cls.__name__} has no such module"
                )
            if version == 1:
                module_state = _upgrade_format1_weights(module, module_state)
            module.load_state_dict(module_state)
    # Recompile the inference kernel from the freshly restored weights so a
    # loaded estimator serves through the compiled path immediately (never
    # fails: estimators without a fused kernel get the generic fallback).
    estimator.compiled(refresh=True)
    return estimator
