"""Canonical, hashable experiment specs — the pipeline's unit of identity.

Every stage of an experiment (synthesize a dataset, label a workload, train
an estimator, evaluate it) is described by a frozen dataclass whose fields
fully determine its output for a fixed seed.  Each spec has a **stable
content hash** — BLAKE2b over its canonical JSON form — which is the key the
:class:`~repro.pipeline.store.ArtifactStore` memoizes the stage's output
under.  Changing any field (a seed, a scale knob, a hyper-parameter) changes
the hash, so stale artifacts can never be served for a new configuration;
re-running the identical spec is a pure cache hit.

The spec graph mirrors the experiment DAG::

    DatasetSpec <- WorkloadSpec <- TrainSpec <- EvalSpec  (<- ExperimentSpec)

``build`` methods contain exactly the computation the seed-era experiment
code performed (same factories, same argument defaults), so a cold pipeline
run is byte-identical to the pre-pipeline path; ``save_artifact`` /
``load_artifact`` round-trip each output losslessly (npz for arrays, the
:mod:`repro.persistence` format for models, JSON for evaluation results).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

import numpy as np

#: canonical-form marker key identifying nested specs
_SPEC_MARKER = "__spec__"


# ---------------------------------------------------------------------- #
# Canonical form and hashing
# ---------------------------------------------------------------------- #
def canonical_value(value: Any) -> Any:
    """Convert ``value`` to a deterministic JSON-able form for hashing."""
    if isinstance(value, Spec):
        payload = {
            _SPEC_MARKER: type(value).__name__,
            **{
                f.name: canonical_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
        return payload
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): canonical_value(item) for key, item in sorted(value.items())}
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for spec hashing: {value!r}"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON rendering used for spec hashes and manifests."""
    return json.dumps(canonical_value(value), sort_keys=True, separators=(",", ":"))


def spec_hash(spec: "Spec") -> str:
    """Stable 16-hex-digit content hash of a spec."""
    digest = hashlib.blake2b(canonical_json(spec).encode("utf-8"), digest_size=8)
    return digest.hexdigest()


def _hashable(value: Any) -> Any:
    """Recursively convert lists/dicts to tuples so frozen specs stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, Mapping):
        return tuple(sorted((str(key), _hashable(item)) for key, item in value.items()))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


class Spec:
    """Base class for pipeline stage specs (frozen dataclasses).

    Subclasses define ``kind`` (the artifact namespace on disk), their
    dependencies, how to build their value from dependency values and how to
    persist / restore it.  ``**options`` on ``build`` carries non-semantic
    tuning (labeling-engine ``num_workers`` / ``block_bytes`` / ``progress``)
    which never enters the hash: the same spec is the same artifact no
    matter how many cores computed it.
    """

    kind: ClassVar[str] = "artifact"

    #: exclusive stages run alone on the runner's pool (no concurrent
    #: stages) so their wall-clock measurements are contention-free
    exclusive: ClassVar[bool] = False

    @property
    def spec_hash(self) -> str:
        return spec_hash(self)

    def canonical(self) -> Dict[str, Any]:
        return canonical_value(self)

    def dependencies(self) -> Tuple["Spec", ...]:
        return ()

    def describe(self) -> str:  # pragma: no cover - overridden everywhere
        return f"{self.kind}:{self.spec_hash}"

    def build(self, store, **options):  # pragma: no cover - abstract
        raise NotImplementedError

    def save_artifact(self, directory, value) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def load_artifact(self, directory, store):  # pragma: no cover - abstract
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# Datasets
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DatasetSpec(Spec):
    """One synthetic dataset: generator name, size, dimensionality, seed."""

    name: str
    num_vectors: int
    dim: int
    seed: int

    kind: ClassVar[str] = "dataset"

    @classmethod
    def for_setting(cls, setting: str, scale, seed_offset: int = 0) -> "DatasetSpec":
        """The dataset of one paper setting at an experiment scale.

        Mirrors :func:`repro.experiments.scale.make_scaled_dataset` exactly
        (same generator arguments, same per-setting base seeds).
        """
        from ..experiments.scale import dataset_args_for_setting

        return cls(**dataset_args_for_setting(setting, scale, seed_offset))

    def describe(self) -> str:
        return f"dataset:{self.name}[n={self.num_vectors},d={self.dim},seed={self.seed}]"

    def build(self, store, **options):
        from ..data.synthetic import make_dataset

        return make_dataset(
            self.name, num_vectors=self.num_vectors, dim=self.dim, seed=self.seed
        )

    def save_artifact(self, directory, value) -> None:
        np.savez(directory / "dataset.npz", vectors=value.vectors)
        payload = {
            "name": value.name,
            "distances": list(value.distances),
            "metadata": value.metadata,
        }
        (directory / "dataset.json").write_text(json.dumps(payload, indent=2) + "\n")

    def load_artifact(self, directory, store):
        from ..data.synthetic import Dataset

        payload = json.loads((directory / "dataset.json").read_text())
        with np.load(directory / "dataset.npz") as archive:
            vectors = archive["vectors"]
        return Dataset(
            name=payload["name"],
            vectors=vectors,
            distances=tuple(payload["distances"]),
            metadata=payload["metadata"],
        )


# ---------------------------------------------------------------------- #
# Labeled workload splits
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """A labeled train/validation/test workload over one dataset."""

    dataset: DatasetSpec
    distance: str
    num_queries: int
    thresholds_per_query: int
    threshold_distribution: str = "geometric"
    max_selectivity_fraction: float = 0.01
    seed: int = 0

    kind: ClassVar[str] = "workload"

    _FOLDS: ClassVar[Tuple[str, ...]] = ("train", "validation", "test")

    @classmethod
    def for_setting(
        cls,
        setting: str,
        scale,
        threshold_distribution: str = "geometric",
        seed: int = 0,
        seed_offset: int = 0,
    ) -> "WorkloadSpec":
        """The workload of one paper setting (mirrors ``build_setting_split``)."""
        from ..experiments.scale import setting_distance

        return cls(
            dataset=DatasetSpec.for_setting(setting, scale, seed_offset),
            distance=setting_distance(setting),
            num_queries=scale.num_queries,
            thresholds_per_query=scale.thresholds_per_query,
            threshold_distribution=threshold_distribution,
            max_selectivity_fraction=scale.max_selectivity_fraction,
            seed=seed,
        )

    def describe(self) -> str:
        return (
            f"workload:{self.dataset.name}/{self.distance}"
            f"[q={self.num_queries},w={self.thresholds_per_query},"
            f"{self.threshold_distribution},seed={self.seed}]"
        )

    def dependencies(self) -> Tuple[Spec, ...]:
        return (self.dataset,)

    def build(self, store, num_workers=None, block_bytes=None, progress=None, **options):
        from ..data.workload import build_workload_split

        dataset = store.get_or_build(
            self.dataset, num_workers=num_workers, block_bytes=block_bytes, progress=progress
        )
        return build_workload_split(
            dataset,
            self.distance,
            num_queries=self.num_queries,
            thresholds_per_query=self.thresholds_per_query,
            threshold_distribution=self.threshold_distribution,
            max_selectivity_fraction=self.max_selectivity_fraction,
            seed=self.seed,
            num_workers=num_workers,
            block_bytes=block_bytes,
            progress=progress,
        )

    def save_artifact(self, directory, value) -> None:
        arrays: Dict[str, np.ndarray] = {}
        for fold_name in self._FOLDS:
            fold = getattr(value, fold_name)
            arrays[f"{fold_name}_queries"] = fold.queries
            arrays[f"{fold_name}_thresholds"] = fold.thresholds
            arrays[f"{fold_name}_selectivities"] = fold.selectivities
            arrays[f"{fold_name}_query_ids"] = fold.query_ids
        np.savez(directory / "workload.npz", **arrays)
        payload = {
            "t_max": float(value.t_max),
            "distance_name": value.train.distance_name,
            "metadata": value.train.metadata,
        }
        (directory / "workload.json").write_text(json.dumps(payload, indent=2) + "\n")

    def load_artifact(self, directory, store):
        from ..data.ground_truth import SelectivityOracle
        from ..data.workload import Workload, WorkloadSplit
        from ..distances import get_distance

        dataset = store.get_or_build(self.dataset)
        distance_fn = get_distance(self.distance)
        payload = json.loads((directory / "workload.json").read_text())
        folds: Dict[str, Workload] = {}
        with np.load(directory / "workload.npz") as archive:
            for fold_name in self._FOLDS:
                folds[fold_name] = Workload(
                    queries=archive[f"{fold_name}_queries"],
                    thresholds=archive[f"{fold_name}_thresholds"],
                    selectivities=archive[f"{fold_name}_selectivities"],
                    query_ids=archive[f"{fold_name}_query_ids"],
                    t_max=payload["t_max"],
                    distance_name=payload["distance_name"],
                    metadata=dict(payload["metadata"]),
                )
        oracle = SelectivityOracle(dataset.vectors, distance_fn)
        return WorkloadSplit(
            train=folds["train"],
            validation=folds["validation"],
            test=folds["test"],
            oracle=oracle,
            dataset=dataset,
            distance=distance_fn,
        )


# ---------------------------------------------------------------------- #
# Trained estimators
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrainedModel:
    """A fitted estimator plus the wall-clock seconds its fit took.

    ``fit_seconds`` is measured while other training branches may run
    concurrently on the runner's pool, so it includes contention and is
    only comparable across runs at ``num_workers=1`` (the paper's timing
    metric — per-query estimation latency — is measured contention-free
    via exclusive eval stages instead; see :class:`EvalSpec`).
    """

    estimator: Any
    fit_seconds: float


@dataclass(frozen=True)
class TrainSpec(Spec):
    """One registered estimator fitted on one workload.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs (values
    with lists converted to tuples) so the spec stays frozen and hashable;
    use :meth:`create` to build one from a plain parameter dict.
    """

    workload: WorkloadSpec
    estimator: str
    params: Tuple[Tuple[str, Any], ...] = ()
    #: optional estimator display-name override (sweep rows like "SelNet(K=3)")
    display_name: Optional[str] = None

    kind: ClassVar[str] = "train"

    @classmethod
    def create(
        cls,
        workload: WorkloadSpec,
        estimator: str,
        params: Optional[Mapping[str, Any]] = None,
        display_name: Optional[str] = None,
    ) -> "TrainSpec":
        for key, value in (params or {}).items():
            # A dict value would be flattened to tuple-of-pairs for hashing
            # and could not be restored for the factory call; no registered
            # estimator takes one, so reject loudly instead of corrupting.
            if isinstance(value, Mapping):
                raise TypeError(
                    f"TrainSpec param {key!r} is a mapping; estimator "
                    "hyper-parameters must be scalars or (nested) sequences"
                )
        pairs = tuple(
            sorted((str(key), _hashable(value)) for key, value in (params or {}).items())
        )
        return cls(
            workload=workload,
            estimator=estimator.lower(),
            params=pairs,
            display_name=display_name,
        )

    @property
    def params_dict(self) -> Dict[str, Any]:
        return {key: value for key, value in self.params}

    def describe(self) -> str:
        label = self.display_name or self.estimator
        return f"train:{label}@{self.workload.dataset.name}/{self.workload.distance}"

    def dependencies(self) -> Tuple[Spec, ...]:
        return (self.workload,)

    def build(self, store, **options):
        import time

        from ..registry import create_estimator

        split = store.get_or_build(self.workload, **options)
        estimator = create_estimator(self.estimator, **self.params_dict)
        if self.display_name is not None:
            estimator.name = self.display_name
        start = time.perf_counter()
        estimator.fit(split)
        fit_seconds = time.perf_counter() - start
        return TrainedModel(estimator=estimator, fit_seconds=fit_seconds)

    def save_artifact(self, directory, value) -> None:
        from ..persistence import save_estimator

        save_estimator(
            value.estimator,
            directory,
            extra_metadata={
                "fit_seconds": value.fit_seconds,
                "pipeline_spec": self.canonical(),
                "workload_hash": self.workload.spec_hash,
            },
        )

    def load_artifact(self, directory, store):
        from ..persistence import load_estimator, read_metadata

        estimator = load_estimator(directory)
        recorded = read_metadata(directory).get("metadata", {})
        return TrainedModel(
            estimator=estimator,
            fit_seconds=float(recorded.get("fit_seconds", 0.0)),
        )


# ---------------------------------------------------------------------- #
# Evaluations
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class EvalSpec(Spec):
    """Accuracy / timing / monotonicity measurement of one trained model."""

    train: TrainSpec
    measure_monotonicity: bool = False
    monotonicity_queries: int = 40
    monotonicity_thresholds: int = 50
    seed: int = 0

    kind: ClassVar[str] = "eval"
    #: evaluations time per-query estimation (Table 7); they must not share
    #: the pool with concurrently training models or the measured latency
    #: would be contention noise frozen into the cached artifact
    exclusive: ClassVar[bool] = True
    #: wall-clock measurement fields of the saved payload — environment, not
    #: output; excluded from cross-executor identity digests (everything
    #: else must be byte-identical between the thread and process backends)
    TIMING_FIELDS: ClassVar[Tuple[str, ...]] = (
        "fit_seconds",
        "estimation_milliseconds",
    )

    @classmethod
    def deterministic_payload(cls, payload: Mapping) -> Dict[str, Any]:
        """``evaluation.json`` content minus the timing measurement fields."""
        return {
            key: value for key, value in payload.items() if key not in cls.TIMING_FIELDS
        }

    def __post_init__(self) -> None:
        # The monotonicity knobs are only read when measuring; normalize them
        # when unused so evaluations of the same trained model hash (and
        # cache) identically across tables with different scale profiles.
        if not self.measure_monotonicity:
            object.__setattr__(self, "monotonicity_queries", 40)
            object.__setattr__(self, "monotonicity_thresholds", 50)

    def describe(self) -> str:
        label = self.train.display_name or self.train.estimator
        suffix = "+mono" if self.measure_monotonicity else ""
        return f"eval:{label}@{self.train.workload.dataset.name}{suffix}"

    def dependencies(self) -> Tuple[Spec, ...]:
        return (self.train,)

    def build(self, store, **options):
        from ..eval.harness import evaluate_fitted

        trained = store.get_or_build(self.train, **options)
        split = store.get_or_build(self.train.workload, **options)
        return evaluate_fitted(
            trained.estimator,
            split,
            fit_seconds=trained.fit_seconds,
            measure_monotonicity=self.measure_monotonicity,
            monotonicity_queries=self.monotonicity_queries,
            monotonicity_thresholds=self.monotonicity_thresholds,
            seed=self.seed,
        )

    def save_artifact(self, directory, value) -> None:
        payload = {
            "model_name": value.model_name,
            "guarantees_consistency": bool(value.guarantees_consistency),
            "validation_metrics": value.validation_metrics.as_dict(),
            "test_metrics": value.test_metrics.as_dict(),
            "fit_seconds": value.fit_seconds,
            "estimation_milliseconds": value.estimation_milliseconds,
            "monotonicity_percent": value.monotonicity_percent,
        }
        (directory / "evaluation.json").write_text(json.dumps(payload, indent=2) + "\n")

    def load_artifact(self, directory, store):
        from ..eval.harness import EvaluationResult
        from ..eval.metrics import ErrorMetrics

        payload = json.loads((directory / "evaluation.json").read_text())
        return EvaluationResult(
            model_name=payload["model_name"],
            guarantees_consistency=payload["guarantees_consistency"],
            validation_metrics=ErrorMetrics(**payload["validation_metrics"]),
            test_metrics=ErrorMetrics(**payload["test_metrics"]),
            fit_seconds=payload["fit_seconds"],
            estimation_milliseconds=payload["estimation_milliseconds"],
            monotonicity_percent=payload["monotonicity_percent"],
        )


# ---------------------------------------------------------------------- #
# Canonical-form round trip
# ---------------------------------------------------------------------- #
def spec_from_canonical(payload: Any) -> Any:
    """Rebuild a spec from its :func:`canonical_value` form.

    The canonical dict marks every nested spec with ``__spec__: ClassName``
    and a trained artifact's sidecar records its full ``TrainSpec`` this way
    (``pipeline_spec`` in the metadata) — so a saved model is enough to
    reconstruct the exact :class:`WorkloadSpec` it was fitted on and
    regenerate (or cache-hit) its workload, which is what
    ``repro saturate --from-store`` does.
    Lists become tuples (specs are frozen/hashable); non-spec values pass
    through unchanged.
    """
    if isinstance(payload, Mapping):
        if _SPEC_MARKER in payload:
            cls = _SPEC_CLASSES.get(payload[_SPEC_MARKER])
            if cls is None:
                raise ValueError(f"unknown spec class {payload[_SPEC_MARKER]!r}")
            kwargs = {
                key: spec_from_canonical(value)
                for key, value in payload.items()
                if key != _SPEC_MARKER
            }
            return cls(**kwargs)
        return {key: spec_from_canonical(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return tuple(spec_from_canonical(item) for item in payload)
    return payload


# ---------------------------------------------------------------------- #
# Experiments (runner input, not a stored artifact)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentSpec(Spec):
    """A named collection of evaluations executed as one DAG."""

    name: str
    evals: Tuple[EvalSpec, ...] = ()
    description: str = ""
    #: extra terminal stages (e.g. bare TrainSpecs for figures that analyse
    #: fitted models directly instead of through an EvalSpec)
    extra_stages: Tuple[Spec, ...] = field(default_factory=tuple)

    kind: ClassVar[str] = "experiment"

    def describe(self) -> str:
        return f"experiment:{self.name}[{len(self.evals) + len(self.extra_stages)} stages]"

    def dependencies(self) -> Tuple[Spec, ...]:
        return tuple(self.evals) + tuple(self.extra_stages)


#: classes `spec_from_canonical` can restore by their `__spec__` marker
_SPEC_CLASSES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (DatasetSpec, WorkloadSpec, TrainSpec, EvalSpec, ExperimentSpec)
}


__all__ = [
    "Spec",
    "DatasetSpec",
    "WorkloadSpec",
    "TrainSpec",
    "TrainedModel",
    "EvalSpec",
    "ExperimentSpec",
    "canonical_value",
    "canonical_json",
    "spec_from_canonical",
    "spec_hash",
]
