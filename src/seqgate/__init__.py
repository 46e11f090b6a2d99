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
    "artifact": (
        "FitConfig", "LogisticModel", "RatioModel", "ThresholdSpec", "bonferroni_threshold",
        "load_calibration", "min_null_samples", "pac_index", "pac_threshold",
        "ratio_statistic", "save_calibration", "ville_threshold",
    ),
    "errors": (
        "DegenerateSplit", "DimensionMismatch", "EmptyPrefix",
        "InsufficientCalibration", "InvalidTrajectory", "LengthMismatch",
        "MissingTokens", "MonitorClosed", "NoNullTrajectories", "OutOfRange",
        "ParseError", "SeqgateError", "SingleClassData",
    ),
    "harness": (
        "AblationResult", "CurvePoint", "ExperimentConfig", "TokenCurvePoint",
        "calibration_ablation", "evaluate_split", "pooled_isotonic", "run_experiment",
        "token_study",
    ),
    "kernels": ("IsotonicModel", "apply_isotonic", "fit_isotonic", "fit_logistic"),
    "monitor": ("DecisionRule", "MonitorState", "Status", "ratio_rule", "raw_score_rule"),
    "ratio": ("Calibration", "eval_process", "fit_ratio_model", "null_maxima"),
    "synthetic": ("SyntheticSpec", "sample_dataset"),
    "trajectories": ("LabeledTrajectory", "split_calibration"),
    "dataio": ("centipawn_to_prob", "read_chess", "read_dataset", "write_dataset"),
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
