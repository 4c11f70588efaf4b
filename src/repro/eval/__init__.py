"""Evaluation harness: metrics, model registry, experiment runner, reporting."""

from .harness import (
    EvaluationResult,
    SettingEvaluation,
    build_setting_split,
    evaluate_fitted,
    run_setting,
)
from .metrics import (
    ErrorMetrics,
    compute_error_metrics,
    empirical_monotonicity,
    mean_absolute_error,
    mean_absolute_percentage_error,
    mean_squared_error,
)
from .registry import (
    ABLATION_MODEL_ORDER,
    CONSISTENT_MODELS,
    PAPER_MODEL_ORDER,
    selnet_train_spec,
    train_specs_for_models,
)
from .reporting import (
    format_accuracy_table,
    format_monotonicity_table,
    format_sweep_table,
    format_timing_table,
    results_to_csv,
)

__all__ = [
    "ErrorMetrics",
    "mean_squared_error",
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "compute_error_metrics",
    "empirical_monotonicity",
    "EvaluationResult",
    "SettingEvaluation",
    "evaluate_fitted",
    "build_setting_split",
    "run_setting",
    "selnet_train_spec",
    "train_specs_for_models",
    "PAPER_MODEL_ORDER",
    "ABLATION_MODEL_ORDER",
    "CONSISTENT_MODELS",
    "format_accuracy_table",
    "format_timing_table",
    "format_monotonicity_table",
    "format_sweep_table",
    "results_to_csv",
]
