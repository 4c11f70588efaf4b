"""Experiment scaling profiles.

The paper's experiments run on 0.35M–2M vectors with 0.25M training queries
and 1500 training epochs on a GPU-class server.  The reproduction runs on
pure numpy, so every experiment accepts an :class:`ExperimentScale` that
shrinks the dataset, the workload and the training budget while keeping the
workload *shape* (geometric selectivity targets up to |D|/100, 80/10/10
query split, same model families) intact.

Three profiles are provided:

* ``tiny``  — seconds per experiment; used by the integration tests.
* ``small`` — the default for the benchmark suite; a full table reproduces
  in a few minutes.
* ``medium`` — closer model capacity and training budget; for overnight runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..core import SelNetConfig


@dataclass(frozen=True)
class ExperimentScale:
    """Sizes and budgets shared by all experiments at one scale."""

    name: str
    num_vectors: int
    dim_fasttext: int
    dim_face: int
    dim_youtube: int
    num_queries: int
    thresholds_per_query: int
    #: upper end of the geometric selectivity targets as a fraction of |D|;
    #: larger than the paper's 1/100 so the small synthetic datasets keep a
    #: multi-order-of-magnitude selectivity range (see
    #: :func:`repro.data.workload.geometric_selectivity_targets`)
    max_selectivity_fraction: float
    selnet_epochs: int
    selnet_pretrain_epochs: int
    baseline_epochs: int
    num_control_points: int
    num_partitions: int
    gbdt_trees: int
    sample_fraction: float  # KDE / LSH sampling budget as a fraction of |D|
    monotonicity_queries: int
    monotonicity_thresholds: int

    def selnet_config(self, **overrides) -> SelNetConfig:
        """SelNet configuration matching this scale (overridable per test)."""
        base = SelNetConfig(
            num_control_points=self.num_control_points,
            epochs=self.selnet_epochs,
            pretrain_epochs=self.selnet_pretrain_epochs,
            ae_pretrain_epochs=max(self.selnet_pretrain_epochs // 2, 3),
            num_partitions=self.num_partitions,
        )
        return replace(base, **overrides) if overrides else base

    def sample_budget(self, num_vectors: int) -> int:
        """KDE / LSH sampling budget for a dataset of ``num_vectors`` rows."""
        return max(int(self.sample_fraction * num_vectors), 64)


TINY = ExperimentScale(
    name="tiny",
    num_vectors=900,
    dim_fasttext=16,
    dim_face=12,
    dim_youtube=20,
    num_queries=36,
    thresholds_per_query=12,
    max_selectivity_fraction=0.2,
    selnet_epochs=12,
    selnet_pretrain_epochs=4,
    baseline_epochs=10,
    num_control_points=8,
    num_partitions=3,
    gbdt_trees=25,
    sample_fraction=0.08,
    monotonicity_queries=10,
    monotonicity_thresholds=25,
)

SMALL = ExperimentScale(
    name="small",
    num_vectors=2500,
    dim_fasttext=32,
    dim_face=20,
    dim_youtube=40,
    num_queries=400,
    thresholds_per_query=24,
    max_selectivity_fraction=0.25,
    selnet_epochs=60,
    selnet_pretrain_epochs=10,
    baseline_epochs=50,
    num_control_points=16,
    num_partitions=3,
    gbdt_trees=60,
    sample_fraction=0.05,
    monotonicity_queries=40,
    monotonicity_thresholds=50,
)

MEDIUM = ExperimentScale(
    name="medium",
    num_vectors=6000,
    dim_fasttext=50,
    dim_face=32,
    dim_youtube=64,
    num_queries=800,
    thresholds_per_query=32,
    max_selectivity_fraction=0.25,
    selnet_epochs=120,
    selnet_pretrain_epochs=20,
    baseline_epochs=100,
    num_control_points=24,
    num_partitions=3,
    gbdt_trees=100,
    sample_fraction=0.03,
    monotonicity_queries=100,
    monotonicity_thresholds=100,
)

_SCALES: Dict[str, ExperimentScale] = {"tiny": TINY, "small": SMALL, "medium": MEDIUM}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale profile by name (``tiny`` / ``small`` / ``medium``)."""
    key = name.lower()
    if key not in _SCALES:
        raise KeyError(f"unknown scale {name!r}; choose from {sorted(_SCALES)}")
    return _SCALES[key]


def dataset_args_for_setting(setting: str, scale: ExperimentScale, seed_offset: int = 0) -> Dict:
    """Generator arguments of one paper setting's dataset at a scale
    (read by :meth:`repro.pipeline.DatasetSpec.for_setting`)."""
    key = setting.lower()
    if key.startswith("fasttext"):
        return dict(
            name="fasttext_like",
            num_vectors=scale.num_vectors,
            dim=scale.dim_fasttext,
            seed=7 + seed_offset,
        )
    if key.startswith("face"):
        return dict(
            name="face_like",
            num_vectors=scale.num_vectors,
            dim=scale.dim_face,
            seed=11 + seed_offset,
        )
    if key.startswith("youtube"):
        return dict(
            name="youtube_like",
            num_vectors=max(scale.num_vectors * 3 // 4, 500),
            dim=scale.dim_youtube,
            seed=13 + seed_offset,
        )
    raise KeyError(f"unknown setting {setting!r}")


def setting_distance(setting: str) -> str:
    """Distance name used by one paper setting."""
    return "euclidean" if setting.lower().endswith("l2") else "cosine"


#: the four dataset / distance settings of Tables 1-4
PAPER_SETTINGS = ("fasttext-cos", "fasttext-l2", "face-cos", "youtube-cos")
