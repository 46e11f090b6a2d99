"""Every constructor and threshold function fails closed on bad input.

Each field gets one of three checks: a probability strictly in (0, 1), a
finite number that is not a bool, or a count (an int that is not a bool, at
least 1). Whatever the check, a bad value raises ``OutOfRange`` with a
message that starts with the field's name, and on the command line it ends
in one ``ERROR <CODE>`` line and a documented exit code.
"""

import math
import re

import numpy as np
import pytest

from seqgate.artifact import (
    MAX_NULL_SAMPLES,
    FitConfig,
    LogisticModel,
    RatioModel,
    bonferroni_threshold,
    pac_index,
    ville_threshold,
)
from seqgate.cli import cli_dispatch
from seqgate.dataio import write_dataset
from seqgate.errors import InvalidTrajectory, OutOfRange
from seqgate.harness import ExperimentConfig
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.trajectories import LabeledTrajectory, split_calibration

# the last value of each list is in type but out of range
PROBABILITY = [math.nan, math.inf, True, "0.5", 1.5]
NUMBER = [math.nan, math.inf, -math.inf, True, "1"]
COUNT = [5.5, True, "3", 0]
SEED = [2.5, True, "3", -1]


def _ratio_model(prior_1=0.5, t_max=1, step_models=None):
    if step_models is None:
        step_models = (LogisticModel((0.0,), 0.0),) if t_max != 0 else ()
    return RatioModel(step_models, prior_1, t_max, FitConfig())


def _experiment(field, value):
    kwargs = {"alpha_grid": (0.1,), field: value}
    if field == "alpha_grid":
        kwargs["alpha_grid"] = (0.1, value)
    return ExperimentConfig(**kwargs)


def _logistic_model(field, value):
    return LogisticModel(**{"weights": (0.0,), "intercept": 0.0, field: value})


def _split(field, value):
    cal = [LabeledTrajectory(f"t{i}", [0.5], label) for i, label in enumerate([1, 1, 0, 0])]
    return split_calibration(cal, **{"fraction": 0.5, "seed": 0, field: value})


def _two_step_model(second):
    return RatioModel((LogisticModel((0.5,), 0.0), second), 0.5, 2, FitConfig())


CALLS = {
    "FitConfig": lambda f, v: FitConfig(**{f: v}),
    "LogisticModel": _logistic_model,
    "RatioModel": lambda f, v: _ratio_model(**{f: v}),
    "TwoStepRatioModel": lambda f, v: _two_step_model(v),
    "ExperimentConfig": _experiment,
    "split_calibration": _split,
    "SyntheticSpec": lambda f, v: SyntheticSpec(**{f: v}),
    "ville_threshold": lambda f, v: ville_threshold(v),
    "bonferroni_threshold": lambda f, v: bonferroni_threshold(
        **{"alpha": 0.1, "t_cal_max": 5, f: v}
    ),
    "pac_index": lambda f, v: pac_index(**{"n": 100, "alpha": 0.1, "delta": 0.05, f: v}),
}

FIELDS = [
    ("FitConfig", "l2_lambda", NUMBER + [-1.0]),
    ("FitConfig", "max_iters", COUNT),
    ("FitConfig", "tolerance", NUMBER + [0.0]),
    ("FitConfig", "prob_clamp", NUMBER + [0.5]),
    ("LogisticModel", "weights", [(math.nan,), (0.0, math.inf), (True,), ("1",), 5]),
    ("LogisticModel", "intercept", NUMBER),
    ("RatioModel", "prior_1", PROBABILITY),
    ("RatioModel", "t_max", COUNT),
    ("RatioModel", "step_models", [5]),
    # step t must be a LogisticModel with exactly t weights
    ("TwoStepRatioModel", "step_models", [
        LogisticModel((1.0,), 0.0), LogisticModel((1.0, 2.0, 3.0), 0.0),
        ((1.0, 2.0), 0.0), None,
    ]),
    ("ExperimentConfig", "alpha_grid", PROBABILITY),
    ("ExperimentConfig", "n_splits", COUNT),
    ("ExperimentConfig", "cal_fraction", PROBABILITY),
    ("ExperimentConfig", "delta", PROBABILITY),
    ("ExperimentConfig", "dre_fraction", PROBABILITY),
    ("ExperimentConfig", "seed", SEED),
    ("split_calibration", "fraction", PROBABILITY),
    ("split_calibration", "seed", SEED),
    ("SyntheticSpec", "mu_null", NUMBER + [0.3]),
    ("SyntheticSpec", "mu_alt", NUMBER),
    ("SyntheticSpec", "sigma", NUMBER + [0.0]),
    ("SyntheticSpec", "stop_prob", NUMBER + [0.0]),
    ("SyntheticSpec", "prior_1", PROBABILITY),
    ("ville_threshold", "alpha", PROBABILITY),
    ("bonferroni_threshold", "alpha", PROBABILITY),
    ("bonferroni_threshold", "t_cal_max", COUNT),
    ("pac_index", "n", COUNT + [MAX_NULL_SAMPLES + 1]),
    ("pac_index", "alpha", PROBABILITY),
    ("pac_index", "delta", PROBABILITY),
]

CASES = [
    pytest.param(call, field, value, id=f"{call}-{field}={value!r}")
    for call, field, values in FIELDS
    for value in values
]


@pytest.mark.parametrize("call, field, value", CASES)
def test_bad_input_raises_out_of_range_naming_the_field(call, field, value):
    with pytest.raises(OutOfRange) as exc:
        CALLS[call](field, value)
    assert re.match(rf"{field}\b", str(exc.value)), str(exc.value)


def test_a_truncated_step_model_is_refused_at_construction():
    # with one weight at step 2, the statistic would zip away the second
    # score: [0.1, 5.0] and [0.1, -5.0] would give the same value
    steps = (LogisticModel((1.0,), 0.0), LogisticModel((0.5,), 0.0))
    with pytest.raises(OutOfRange, match=r"step_models\[1\] .* 2 weights"):
        RatioModel(steps, 0.5, 2, FitConfig())


# (field, value, the trajectory's other fields): each is refused when built
TRAJECTORY_CASES = [
    ("label", 2, {"scores": [0.5]}),
    ("scores", [], {"label": 1}),
    ("scores", [0.5, math.nan], {"label": 1}),
    ("scores", [math.inf], {"label": 0}),
    ("tokens", [3, 2], {"scores": [0.5, 0.4], "label": 1}),
    ("tokens", 5, {"scores": [0.5], "label": 1}),
    # bool is a type of its own: True is no label and no score
    ("label", True, {"scores": [0.5]}),
    ("label", 1.0, {"scores": [0.5]}),
    ("label", "1", {"scores": [0.5]}),
    ("scores", None, {"label": 1}),
    ("scores", ["x"], {"label": 1}),
    ("scores", ["0.5"], {"label": 1}),
    ("scores", [0.5, True], {"label": 1}),
    ("scores", [10**400], {"label": 1}),
    # numpy compares a float32 with the float range as float32 infinities
    ("scores", [0.5, np.float32("inf")], {"label": 1}),
    # a string or a mapping iterates as characters or keys: no sequence
    ("scores", "x", {"label": 1}),
    ("scores", "", {"label": 1}),
    ("scores", b"\x01", {"label": 1}),
    ("scores", {"0.5": 1}, {"label": 1}),
    ("tokens", "7", {"scores": [0.5], "label": 1}),
    ("tokens", {"7": 1}, {"scores": [0.5], "label": 1}),
]


@pytest.mark.parametrize(
    "field, value, rest", TRAJECTORY_CASES,
    ids=[f"{field}={value!r}" for field, value, _ in TRAJECTORY_CASES],
)
def test_bad_trajectory_is_refused_at_construction(field, value, rest):
    with pytest.raises(InvalidTrajectory) as exc:
        LabeledTrajectory(id="t", **{field: value}, **rest)
    assert (exc.value.trajectory_id, exc.value.field) == ("t", field)


@pytest.mark.parametrize(
    "scores, message",
    [
        ([math.inf, "x"], "non-finite score inf"),
        (["x", math.inf], "score must be a real number, got 'x'"),
        ([0.5, 10**400, math.nan], "non-finite score inf"),
        ([0.5, -10**400, "x"], "non-finite score -inf"),
    ],
    ids=["inf, 'x'", "'x', inf", "0.5, 10**400, nan", "0.5, -10**400, 'x'"],
)
def test_the_first_refused_score_is_named(scores, message):
    with pytest.raises(InvalidTrajectory) as exc:
        LabeledTrajectory("t", scores, 1)
    assert exc.value.args[0] == message


@pytest.mark.parametrize("alpha", [1e-320, 1e-310])
def test_experiment_refuses_an_alpha_whose_ville_threshold_overflows(alpha):
    # bonferroni's t_cal_max/alpha is at least 1/alpha
    for method in ("evaluator_ville", "bonferroni"):
        with pytest.raises(OutOfRange, match="1 / alpha must be a finite float"):
            ExperimentConfig((alpha, 0.2), methods=(method, "raw"))
    config = ExperimentConfig((alpha, 0.2), methods=("raw", "calibrated", "evaluator_pac"))
    assert config.alpha_grid == (alpha, 0.2)


def test_out_of_range_is_a_value_error():
    # callers that catch ValueError, such as synth's --spec parser, keep working
    assert issubclass(OutOfRange, ValueError)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("checks") / "data.jsonl"
    write_dataset(sample_dataset(SyntheticSpec(), 300, seed=7), path)
    return path


DATA = object()
MISSING = object()  # a data file that does not exist: only checks before the read win
EVALUATE = ["evaluate", "--data", DATA, "--alphas", "0.1,0.3", "--splits", "2"]
CALIBRATE = ["calibrate", "--data", DATA, "--alpha", "0.2"]
SYNTH = ["synth", "--n", "5", "--spec"]

# (argv, exit code, the code of the one ERROR line, or None for a usage error)
CLI_CASES = [
    (CALIBRATE[:-1] + ["nan", "--threshold", "ville"], 1, "OUT_OF_RANGE"),
    (CALIBRATE[:-1] + ["1", "--threshold", "bonferroni"], 1, "OUT_OF_RANGE"),
    (CALIBRATE[:-1] + ["0"], 1, "OUT_OF_RANGE"),
    (CALIBRATE[:-1] + ["inf"], 1, "OUT_OF_RANGE"),
    (CALIBRATE[:-1] + ["abc"], 2, None),
    (CALIBRATE + ["--delta", "0"], 1, "OUT_OF_RANGE"),
    (CALIBRATE + ["--delta", "inf", "--threshold", "ville"], 1, "OUT_OF_RANGE"),
    (CALIBRATE + ["--dre-fraction", "1.5"], 1, "OUT_OF_RANGE"),
    (CALIBRATE + ["--dre-fraction", "nan"], 1, "OUT_OF_RANGE"),
    (EVALUATE[:4] + ["0.1,1.5"], 1, "OUT_OF_RANGE"),
    (EVALUATE[:4] + ["nan"], 1, "OUT_OF_RANGE"),
    (EVALUATE[:4] + ["0.3,0.1"], 1, "OUT_OF_RANGE"),
    (EVALUATE[:4] + [","], 1, "OUT_OF_RANGE"),
    # 1 / alpha overflows to a ville threshold that never rejects
    (EVALUATE[:4] + ["1e-310,0.1", "--methods", "evaluator_ville"], 1, "OUT_OF_RANGE"),
    (EVALUATE[:4] + ["abc"], 2, None),
    (["tokens", "--data", DATA, "--alphas", "1.5"], 1, "OUT_OF_RANGE"),
    (EVALUATE + ["--delta", "0"], 1, "OUT_OF_RANGE"),
    (EVALUATE + ["--delta", "1"], 1, "OUT_OF_RANGE"),
    (EVALUATE + ["--delta", "nan"], 1, "OUT_OF_RANGE"),
    (EVALUATE[:-1] + ["0"], 1, "OUT_OF_RANGE"),
    (EVALUATE[:-1] + ["-3"], 1, "OUT_OF_RANGE"),
    (EVALUATE[:-1] + ["2.5"], 2, None),
    (EVALUATE + ["--cal-fraction", "1.5"], 1, "OUT_OF_RANGE"),
    (EVALUATE + ["--cal-fraction", "0"], 1, "OUT_OF_RANGE"),
    (EVALUATE + ["--cal-fraction", "nan"], 1, "OUT_OF_RANGE"),
    (EVALUATE + ["--dre-fraction", "0"], 1, "OUT_OF_RANGE"),
    (EVALUATE + ["--dre-fraction", "inf"], 1, "OUT_OF_RANGE"),
    (["ablate"] + EVALUATE[1:] + ["--fractions", "0.2,1.5"], 1, "OUT_OF_RANGE"),
    (["evaluate", "--data", MISSING, "--alphas", "1.5"], 1, "OUT_OF_RANGE"),
    (["tokens", "--data", MISSING, "--alphas", "0.1", "--methods", "nope"], 1, "OUT_OF_RANGE"),
    (["ablate", "--data", MISSING, "--alphas", "0.1", "--fractions", "0.2", "--splits", "0"],
     1, "OUT_OF_RANGE"),
    (["ablate", "--data", MISSING, "--alphas", "0.1", "--fractions", "1.5"], 1, "OUT_OF_RANGE"),
    (["ablate", "--data", MISSING, "--alphas", "0.1", "--fractions", ","], 1, "OUT_OF_RANGE"),
    (SYNTH + ['{"prior_1": 1.0}'], 1, "PARSE_ERROR"),
    (SYNTH + ['{"prior_1": NaN}'], 1, "PARSE_ERROR"),
    (SYNTH + ['{"prior_1": true}'], 1, "PARSE_ERROR"),
    (SYNTH + ['{"sigma": 0}'], 1, "PARSE_ERROR"),
    (SYNTH + ['{"sigma": "0.2"}'], 1, "PARSE_ERROR"),
    (SYNTH + ['{"sigma": Infinity}'], 1, "PARSE_ERROR"),
    (SYNTH + ['{"stop_prob": 0}'], 1, "PARSE_ERROR"),
]


@pytest.mark.parametrize(
    "argv, exit_code, error", CLI_CASES,
    ids=[" ".join(a for a in argv if isinstance(a, str)) for argv, _, _ in CLI_CASES],
)
def test_bad_flag_values_fail_closed(tmp_path, data_file, capsys, argv, exit_code, error):
    out = tmp_path / "out"
    files = {DATA: str(data_file), MISSING: str(tmp_path / "missing.jsonl")}
    argv = [files.get(a, a) for a in argv] + ["--out", str(out)]
    assert cli_dispatch(argv) == exit_code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    codes = [line.split(":")[0] for line in err.splitlines() if line.startswith("ERROR ")]
    assert codes == ([f"ERROR {error}"] if error else [])
    assert not out.exists()
