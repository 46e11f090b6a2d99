"""seqgate: anytime-valid sequential accept/reject monitoring for
step-scored agent trajectories.

Per-step verifier scores from any black-box source are turned into a
streaming decision rule whose false alarm rate (the chance of ever
rejecting a genuinely successful trajectory) is controlled at a
user-specified level, either universally via the 1/alpha threshold or with
a calibrated high-probability quantile threshold.
"""

from .errors import (
    DegenerateSplit,
    DimensionMismatch,
    EmptyPrefix,
    InsufficientCalibration,
    InvalidTrajectory,
    LengthMismatch,
    MissingTokens,
    MonitorClosed,
    NoNullTrajectories,
    NoOverlap,
    OutOfRange,
    ParseError,
    SeqgateError,
    SingleClassData,
)
from .harness import (
    AblationResult,
    CurvePoint,
    ExperimentConfig,
    TokenCurvePoint,
    calibration_ablation,
    evaluate_split,
    run_experiment,
    token_study,
)
from .kernels import (
    FitConfig,
    IsotonicModel,
    LogisticModel,
    apply_isotonic,
    binomial_sf,
    fit_isotonic,
    fit_logistic,
    predict_proba,
)
from .monitor import (
    DecisionRule,
    MonitorState,
    Status,
    calibrated_score_rule,
    make_calibrated_rule,
    pooled_isotonic,
    ratio_rule,
    raw_score_rule,
    run_offline,
)
from .ratio import (
    RatioModel,
    compute_tmax,
    estimate_prior,
    eval_process,
    eval_ratio,
    fit_ratio_model,
)
from .synthetic import (
    SyntheticSpec,
    sample_dataset,
    sample_trajectory,
    toy_marginal_example,
    true_ratio_process,
    true_ratio_rule,
)
from .thresholds import (
    ThresholdSpec,
    bonferroni_threshold,
    min_null_samples,
    null_maxima,
    pac_index,
    pac_threshold,
    ville_threshold,
)
from .trajectories import (
    CalibrationSet,
    LabeledTrajectory,
    SplitConfig,
    split_calibration,
    validate,
)
from .dataio import (
    centipawn_to_prob,
    chess_to_dataset,
    load_calibration,
    read_chess_games,
    read_dataset,
    save_calibration,
    write_dataset,
)

__version__ = "0.1.0"
