"""seqgate: anytime-valid sequential accept/reject monitoring for
step-scored agent trajectories.

Per-step verifier scores from any black-box source are turned into a
streaming decision rule whose false alarm rate (the chance of ever
rejecting a genuinely successful trajectory) is controlled at a
user-specified level, either universally via the 1/alpha threshold or with
a calibrated high-probability quantile threshold.

Every name below is imported from its module on first access (PEP 562), so
``import seqgate`` loads no submodule and a program pays only for the
modules it uses.
"""

import importlib

_EXPORTS = {
    "errors": (
        "DegenerateSplit", "DimensionMismatch", "EmptyPrefix",
        "InsufficientCalibration", "InvalidTrajectory", "LengthMismatch",
        "MissingTokens", "MonitorClosed", "NoNullTrajectories", "NoOverlap",
        "OutOfRange", "ParseError", "SeqgateError", "SingleClassData",
    ),
    "harness": (
        "AblationResult", "CurvePoint", "ExperimentConfig", "TokenCurvePoint",
        "calibration_ablation", "evaluate_split", "run_experiment", "token_study",
    ),
    "kernels": (
        "FitConfig", "IsotonicModel", "LogisticModel", "apply_isotonic", "binomial_sf",
        "fit_isotonic", "fit_logistic", "predict_proba",
    ),
    "monitor": (
        "DecisionRule", "MonitorState", "Status", "calibrated_score_rule",
        "pooled_isotonic", "ratio_rule", "raw_score_rule",
    ),
    "ratio": (
        "RatioModel", "compute_tmax", "estimate_prior", "eval_process", "eval_ratio",
        "fit_ratio_model", "ratio_statistic",
    ),
    "synthetic": (
        "SyntheticSpec", "sample_dataset", "sample_trajectory", "toy_marginal_example",
        "true_ratio_process", "true_ratio_rule",
    ),
    "thresholds": (
        "ThresholdSpec", "bonferroni_threshold", "min_null_samples", "null_maxima",
        "pac_index", "pac_threshold", "ville_threshold",
    ),
    "trajectories": (
        "CalibrationSet", "LabeledTrajectory", "SplitConfig", "split_calibration",
        "validate",
    ),
    "dataio": (
        "centipawn_to_prob", "chess_to_dataset", "load_calibration", "read_chess_games",
        "read_dataset", "save_calibration", "write_dataset",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
