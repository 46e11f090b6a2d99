"""Streaming and batch evaluation of the ratio rule agree exactly.

A `>=` tie against a PAC order-statistic threshold is decided the same way
online and offline only if both paths compute bit-identical statistic
values, so every comparison here uses `==`, never an approximation.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from seqgate import harness
from seqgate.harness import ExperimentConfig, _first_steps, _SplitArtifacts
from seqgate.errors import InsufficientCalibration
from seqgate.kernels import FitConfig, LogisticModel
from seqgate.monitor import (
    DecisionRule,
    MonitorState,
    make_calibrated_rule,
    ratio_rule,
    raw_score_rule,
    run_offline,
)
from seqgate.ratio import RatioModel, eval_process, replay
from seqgate.thresholds import pac_threshold, ville_threshold
from seqgate.trajectories import CalibrationSet, LabeledTrajectory, offsets

EXACT = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# |weight * score| reaches 200, far past the logit of any prob_clamp, so the
# clamp is hit as well as the interior of the sigmoid
weights = st.floats(-40.0, 40.0, allow_nan=False)
scores = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def ratio_models(draw):
    t_max = draw(st.integers(1, 12))
    steps = tuple(
        LogisticModel(
            weights=tuple(draw(st.lists(weights, min_size=t, max_size=t))),
            intercept=draw(weights),
        )
        for t in range(1, t_max + 1)
    )
    return RatioModel(
        step_models=steps,
        prior_1=draw(st.floats(0.01, 0.99)),
        t_max=t_max,
        fit_config=FitConfig(prob_clamp=draw(st.sampled_from([1e-6, 1e-3, 0.2]))),
    )


@st.composite
def model_and_trajectories(draw, min_n=1, max_n=8):
    model = draw(ratio_models())
    trajectory = st.lists(scores, min_size=1, max_size=2 * model.t_max)
    return model, draw(st.lists(trajectory, min_size=min_n, max_size=max_n))


def streamed_values(model, trajectory):
    """Statistic values MonitorState computes, one per observed score."""
    rule = ratio_rule(model, math.inf)
    seen = []
    state = MonitorState(
        DecisionRule(lambda prefix: seen.append(rule.value(prefix)) or seen[-1], math.inf)
    )
    for score in trajectory:
        state.observe(score)
    return seen


@EXACT
@given(model_and_trajectories())
def test_streaming_values_equal_batch_values(drawn):
    model, trajectories = drawn
    streamed = [streamed_values(model, t) for t in trajectories]
    assert streamed == [eval_process(model, t) for t in trajectories]
    assert replay(model, trajectories).tolist() == sum(streamed, [])


@EXACT
@given(model_and_trajectories())
def test_threshold_at_a_batch_value_rejects_at_that_step(drawn):
    model, trajectories = drawn
    for trajectory in trajectories:
        process = eval_process(model, trajectory)
        step = process.index(max(process)) + 1
        rule = ratio_rule(model, process[step - 1])
        _, offline = run_offline(rule, LabeledTrajectory("x", trajectory, 1))
        batch = _first_steps(rule.fires(replay(model, [trajectory])), offsets([trajectory]))
        assert offline == step and batch == [step]


@EXACT
@given(model_and_trajectories(min_n=16, max_n=30))
def test_harness_first_crossing_equals_run_offline(drawn):
    model, trajectories = drawn
    data = CalibrationSet(
        [LabeledTrajectory(f"x{i}", t, i % 2) for i, t in enumerate(trajectories)]
    )
    cfg = ExperimentConfig(
        alpha_grid=(0.3, 0.5), n_splits=1, cal_fraction=0.5, delta=0.5
    )
    with mock.patch.object(harness, "fit_ratio_model", lambda dre, fit_config: model):
        arts = _SplitArtifacts(data, cfg, split_seed=3)
    for alpha in cfg.alpha_grid:
        rules = {
            "evaluator_ville": ratio_rule(model, ville_threshold(alpha).value),
            "bonferroni": ratio_rule(model, arts.t_cal_max / alpha),
            "raw": raw_score_rule(alpha),
            "calibrated": make_calibrated_rule(arts.cal, alpha),
        }
        try:
            pac = pac_threshold(arts.null_maxima, alpha, cfg.delta, arts.pac_seed)
            rules["evaluator_pac"] = ratio_rule(model, pac.value)
        except InsufficientCalibration:
            pass
        for method, rule in rules.items():
            expected = [run_offline(rule, item)[1] for item in arts.test]
            assert arts.decide(method, alpha, cfg.delta) == expected, method
