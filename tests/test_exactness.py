"""Streaming and batch evaluation of the ratio rule agree exactly.

A `>=` tie against a PAC order-statistic threshold is decided the same way
online and offline only if both paths compute bit-identical statistic
values, so every comparison here uses `==`, never an approximation. The
kernels beneath them are held to the same standard: the single-input form
of `predict_proba` equals the element of the array form.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqgate import harness
from seqgate.harness import ExperimentConfig, _first_steps, _SplitArtifacts
from seqgate.errors import InsufficientCalibration
from seqgate.kernels import (
    FitConfig,
    LogisticModel,
    fit_isotonic,
    fit_logistic,
    predict_proba,
)
from seqgate.monitor import (
    DecisionRule,
    MonitorState,
    calibrated_score_rule,
    ratio_rule,
    raw_score_rule,
    run_offline,
)
from seqgate.ratio import RatioModel, eval_process, padded_scores, replay
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
        assert offline == step and batch.tolist() == [step]


def pooled_reference(cal):
    """pooled_isotonic with its inputs gathered score by score."""
    xs = [s for item in cal for s in item.scores]
    ys = [item.label for item in cal for _ in item.scores]
    return fit_isotonic(xs, ys)


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
        cells = harness.evaluate_split(data, cfg, split_seed=3)
    assert arts.iso_model == pooled_reference(arts.cal)
    for alpha in cfg.alpha_grid:
        rules = {
            "evaluator_ville": ratio_rule(model, ville_threshold(alpha).value),
            "bonferroni": ratio_rule(model, arts.t_cal_max / alpha),
            "raw": raw_score_rule(alpha),
            "calibrated": calibrated_score_rule(pooled_reference(arts.cal), alpha),
        }
        try:
            pac = pac_threshold(arts.null_maxima, alpha, cfg.delta, arts.pac_seed)
            rules["evaluator_pac"] = ratio_rule(model, pac.value)
        except InsufficientCalibration:
            far, power = cells[("evaluator_pac", alpha)]
            assert math.isnan(far) and math.isnan(power)
        for method, rule in rules.items():
            expected = [run_offline(rule, item)[1] for item in arts.test]
            # the harness writes a trajectory that is never rejected as 0
            steps = arts.decide(method, alpha, cfg.delta)
            assert steps.tolist() == [r or 0 for r in expected], method
            flags = {1: [], 0: []}
            for r, item in zip(expected, arts.test):
                flags[item.label].append(r is not None)
            far = sum(flags[1]) / len(flags[1])
            power = sum(flags[0]) / len(flags[0])
            assert cells[(method, alpha)] == (far, power), method


def padded_reference(trajectories, width):
    """padded_scores built column by column, one trajectory at a time."""
    columns = np.zeros((width, len(trajectories)))
    for i, trajectory in enumerate(trajectories):
        head = trajectory[:width]
        columns[: len(head), i] = head
    return columns, np.array([len(t) for t in trajectories], dtype=int)


@EXACT
@given(
    st.lists(st.lists(st.floats(allow_nan=False), max_size=12), max_size=10),
    st.integers(1, 8),
)
@example([[0.5, -0.0, 2.0], [], [1.0]], 1)
@example([[1.0, 2.0, 3.0, 4.0], [5.0], [6.0, 7.0]], 2)
def test_padded_scores_equals_per_column_reference(trajectories, width):
    # ragged lengths, empty trajectories, lengths above width and width 1
    columns, lengths = padded_scores([tuple(t) for t in trajectories], width)
    expected_columns, expected_lengths = padded_reference(trajectories, width)
    assert columns.shape == (width, len(trajectories))
    assert columns.flags.c_contiguous
    assert columns.tobytes() == expected_columns.tobytes()
    assert lengths.tolist() == expected_lengths.tolist()


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_single_inputs_equal_batch(model, inputs, prob_clamp):
    """predict_proba on each input of floats is a float equal to its element
    of predict_proba on the whole batch, one array per feature."""
    columns = [np.array(column) for column in zip(*inputs)]
    batch = predict_proba(model, columns, prob_clamp)
    for x, expected in zip(inputs, batch.tolist()):
        one = predict_proba(model, x, prob_clamp)
        assert type(one) is float
        assert same(one, expected), (x, one, expected)


@st.composite
def models_and_inputs(draw):
    d = draw(st.integers(1, 6))
    model = LogisticModel(
        weights=tuple(draw(st.lists(weights, min_size=d, max_size=d))),
        intercept=draw(weights),
    )
    inputs = draw(
        st.lists(st.lists(scores, min_size=d, max_size=d), min_size=1, max_size=20)
    )
    return model, inputs, draw(st.sampled_from([1e-6, 1e-3, 0.2]))


@EXACT
@given(models_and_inputs())
def test_predict_proba_single_input_equals_batch_element(drawn):
    assert_single_inputs_equal_batch(*drawn)


def test_predict_proba_single_input_edge_logits():
    # the logit sum starts at +0.0, which absorbs a -0.0 term or intercept
    zero = [(0.0,), (-0.0,)]
    for intercept in (0.0, -0.0):
        assert_single_inputs_equal_batch(LogisticModel((1.0,), intercept), zero, 1e-6)
    # negative and positive logits inside the clamp, at it, and with |z| > 746,
    # where exp(-|z|) underflows to 0
    logits = [(-3.0,), (2.5,), (-20.0,), (20.0,), (-800.0,), (800.0,), (-1e308,)]
    for prob_clamp in (1e-6, 0.2):
        assert_single_inputs_equal_batch(LogisticModel((1.0,), 0.0), logits, prob_clamp)
    # inf + -inf: a nan logit stays nan on both paths, as np.clip keeps it
    with np.errstate(over="ignore", invalid="ignore"):
        assert_single_inputs_equal_batch(
            LogisticModel((1e308, -1e308), 0.0), [(10.0, 10.0), (1.0, 1.0)], 1e-6
        )
    assert math.isnan(predict_proba(LogisticModel((1e308, -1e308), 0.0), (10.0, 10.0)))


def test_fit_logistic_weights_are_python_floats():
    features = [(0.1, 0.9), (0.4, 0.2), (0.8, 0.7), (0.3, 0.5), (0.9, 0.1)]
    model = fit_logistic(features, [1, 0, 1, 0, 1])
    assert all(type(w) is float for w in model.weights)
    assert type(model.intercept) is float
