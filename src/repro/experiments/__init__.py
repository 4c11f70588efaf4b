"""Per-table / per-figure experiment reproductions.

The table / figure drivers depend on :mod:`repro.eval`, which itself uses the
scale profiles defined here; to keep the import graph acyclic the drivers are
loaded lazily via module ``__getattr__`` (PEP 562) while the scale profiles
are imported eagerly.
"""

from .scale import (
    MEDIUM,
    PAPER_SETTINGS,
    SMALL,
    TINY,
    ExperimentScale,
    get_scale,
    setting_distance,
)

__all__ = [
    "ExperimentScale",
    "TINY",
    "SMALL",
    "MEDIUM",
    "get_scale",
    "setting_distance",
    "PAPER_SETTINGS",
    "TableResult",
    "run_accuracy_table",
    "run_monotonicity_table",
    "run_ablation_table",
    "run_timing_table",
    "run_control_point_sweep",
    "run_partition_size_sweep",
    "run_partition_method_table",
    "FigureResult",
    "figure3_dln_vs_selnet",
    "figure4_control_points",
    "figure5_updates",
    "SweepResult",
    "run_scale_sweep",
    "run_seed_variance",
    "scaled_replica",
]

_TABLE_EXPORTS = {
    "TableResult",
    "run_accuracy_table",
    "run_monotonicity_table",
    "run_ablation_table",
    "run_timing_table",
    "run_control_point_sweep",
    "run_partition_size_sweep",
    "run_partition_method_table",
}
_FIGURE_EXPORTS = {
    "FigureResult",
    "figure3_dln_vs_selnet",
    "figure4_control_points",
    "figure5_updates",
}
_SWEEP_EXPORTS = {
    "SweepResult",
    "run_scale_sweep",
    "run_seed_variance",
    "scaled_replica",
}


def __getattr__(name: str):
    if name in _TABLE_EXPORTS:
        from . import tables

        return getattr(tables, name)
    if name in _FIGURE_EXPORTS:
        from . import figures

        return getattr(figures, name)
    if name in _SWEEP_EXPORTS:
        from . import sweeps

        return getattr(sweeps, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
