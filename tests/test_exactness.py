"""Streaming and batch evaluation of the ratio rule agree exactly.

A `>=` tie against a PAC order-statistic threshold is decided the same way
online and offline only if both paths compute bit-identical statistic
values, so every comparison here uses `==`, never an approximation. The
oracle `predict_proba` is held to the same standard: its single-input form
equals the element of its array form.
"""

import copy
import io
import json
import math
import pickle
from contextlib import redirect_stderr
from dataclasses import asdict
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import eval_ratio, isotonic_fraction_oracle, predict_proba, run_offline
from oracles import prefixes_oracle

from seqgate import harness
from seqgate.artifact import THRESHOLD_KINDS, FitConfig, LogisticModel, RatioModel
from seqgate.artifact import ThresholdSpec
from seqgate.artifact import load_calibration, pac_index, pac_threshold, ratio_statistic
from seqgate.artifact import ville_threshold
from seqgate.cli import cli_dispatch
from seqgate.harness import NEVER_TERMINATE, ExperimentConfig, TokenCurvePoint
from seqgate.harness import _first_steps, _SplitArtifacts, pooled_isotonic
from seqgate.dataio import read_dataset, save_calibration, write_dataset
from seqgate.errors import (
    EmptyPrefix,
    InsufficientCalibration,
    InvalidTrajectory,
    MonitorClosed,
    SeqgateError,
)
from seqgate.kernels import fit_isotonic, fit_logistic
from seqgate.monitor import (
    ACTIVE,
    DecisionRule,
    MonitorState,
    calibrated_score_rule,
    ratio_rule,
    raw_score_rule,
)
from seqgate.ratio import eval_process, flatten, prefixes, replay
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.trajectories import LabeledTrajectory, derive_seed

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
    assert replay(model, *flatten(trajectories)).tolist() == sum(streamed, [])


@EXACT
@given(model_and_trajectories())
def test_threshold_at_a_batch_value_rejects_at_that_step(drawn):
    model, trajectories = drawn
    for trajectory in trajectories:
        process = eval_process(model, trajectory)
        step = process.index(max(process)) + 1
        rule = ratio_rule(model, process[step - 1])
        _, offline = run_offline(rule, LabeledTrajectory("x", trajectory, 1))
        fired = rule.fires(replay(model, *flatten([trajectory])))
        batch = _first_steps(fired, flatten([trajectory])[1])
        assert offline == step and batch.tolist() == [step]


def last_score_model(t_max, scale, prob_clamp=1e-6):
    """Step t's logit is scale * (t-th score): earlier terms are 0 * score."""
    steps = tuple(
        LogisticModel((0.0,) * (t - 1) + (scale,), 0.0) for t in range(1, t_max + 1)
    )
    return RatioModel(
        step_models=steps,
        prior_1=0.3,
        t_max=t_max,
        fit_config=FitConfig(prob_clamp=prob_clamp),
    )


def test_streaming_equals_batch_at_the_logit_clamp():
    # logits exactly +-L, one ulp inside and outside it, and +-inf, in ragged
    # trajectories given shortest first, so that the longest-first order of
    # replay's running slice differs from the input order
    for prob_clamp in (1e-6, 0.2):
        unit = last_score_model(3, 1.0, prob_clamp)
        bound = unit.logit_bound
        inside, outside = math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)
        clamped = [
            [bound],
            [-outside, outside],
            [inside, -bound, -inside],
            [0.0, bound, -bound, inside, outside],
        ]
        huge = last_score_model(3, 1e308, prob_clamp)
        infinite = [[10.0], [-10.0, 10.0, 1.0], [1.0, 1.0, -10.0, 10.0]]
        for model, trajectories in ((unit, clamped), (huge, infinite)):
            streamed = [streamed_values(model, t) for t in trajectories]
            assert replay(model, *flatten(trajectories)).tolist() == sum(streamed, [])
        top = unit.prior_odds * math.exp(bound)
        bottom = unit.prior_odds * math.exp(-bound)
        assert streamed_values(unit, [-bound, -outside, bound, outside]) == [
            top, top, bottom, bottom
        ]
        assert streamed_values(huge, [-10.0, 10.0]) == [top, bottom]


def assert_rule_value_equals_eval_ratio_and_replay(model, trajectories):
    """The rule's statistic, eval_ratio and replay agree on every prefix."""
    value = ratio_rule(model, math.inf).value
    batch = replay(model, *flatten(trajectories)).tolist()
    prefixes = [t[:j] for t in trajectories for j in range(1, len(t) + 1)]
    assert [value(p) for p in prefixes] == [eval_ratio(model, p) for p in prefixes]
    assert [value(p) for p in prefixes] == batch


@EXACT
@given(model_and_trajectories())
def test_rule_value_equals_eval_ratio_and_replay(drawn):
    # trajectories run to twice t_max, so the frozen prefixes are covered
    assert_rule_value_equals_eval_ratio_and_replay(*drawn)


def test_rule_value_equals_eval_ratio_and_replay_at_the_logit_clamp():
    for prob_clamp in (1e-6, 0.2):
        model = last_score_model(3, 1.0, prob_clamp)
        bound = model.logit_bound
        outside = math.nextafter(bound, math.inf)
        trajectories = [[bound, -bound, outside, -outside, 0.0], [-outside], [0.0, bound]]
        assert_rule_value_equals_eval_ratio_and_replay(model, trajectories)
        value = ratio_rule(model, math.inf).value
        # past t_max the third score decides, and one ulp past L clamps to L
        assert value(trajectories[0]) == model.prior_odds * math.exp(-bound)


def test_rule_value_of_an_empty_prefix_raises():
    model = last_score_model(2, 1.0)
    with pytest.raises(EmptyPrefix):
        ratio_rule(model, 1.0).value([])
    with pytest.raises(EmptyPrefix):
        eval_ratio(model, [])


def test_streamed_model_pickles_with_unchanged_fields_and_artifact(tmp_path):
    # whatever the statistic reads once is cached as plain data, so a used
    # model still pickles, and neither asdict nor the artifact sees it
    model = last_score_model(3, 1.0)
    spec = ville_threshold(0.1)
    fields = asdict(model)
    save_calibration(tmp_path / "before.json", model, spec, {"seed": 0})
    state = MonitorState(ratio_rule(model, math.inf))
    for score in (0.5, -0.5, 0.25, 1.0):
        state.observe(score)
    assert eval_ratio(model, [0.5]) == state.rule.value([0.5])
    twin = pickle.loads(pickle.dumps(model))
    assert twin == model and asdict(twin) == asdict(model) == fields
    assert eval_ratio(twin, state.observed) == state.rule.value(state.observed)
    save_calibration(tmp_path / "after.json", model, spec, {"seed": 0})
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


def test_observe_after_a_terminal_status_raises_monitor_closed():
    model = last_score_model(2, 1.0)
    rejected = MonitorState(ratio_rule(model, 0.0))
    assert rejected.observe(0.5).decision == "rejected"
    accepted = MonitorState(ratio_rule(model, math.inf))
    accepted.observe(0.5)
    assert accepted.finalize().decision == "accepted"
    for state in (rejected, accepted):
        with pytest.raises(MonitorClosed):
            state.observe(0.5)
    # a copied live state holds an equal active status, not the same one,
    # and keeps observing as the original does
    live = MonitorState(ratio_rule(model, math.inf))
    live.observe(0.5)
    twin = copy.deepcopy(live)
    assert twin.status == ACTIVE and twin.status is not ACTIVE
    assert twin.observe(0.25) == live.observe(0.25) == ACTIVE
    assert twin.observed == live.observed


def test_nan_statistic_fails_closed_on_both_paths():
    # step 2's logit on 1e308, 1e308 is 2e308 - 2e308 = inf - inf = nan
    steps = (LogisticModel((1.0,), 0.0), LogisticModel((2.0, -2.0), 0.0))
    model = RatioModel(step_models=steps, prior_1=0.5, t_max=2, fit_config=FitConfig())
    for trajectories in ([[1e308, 1e308]], [[0.5], [0.5, 0.5, 0.5], [1e308, 1e308, 0.5]]):
        for trajectory in trajectories[:-1]:
            assert streamed_values(model, trajectory) == eval_process(model, trajectory)
        state = MonitorState(ratio_rule(model, math.inf))
        assert state.observe(1e308).decision == "active"
        with pytest.raises(InvalidTrajectory):
            state.observe(1e308)
        with pytest.raises(InvalidTrajectory):
            replay(model, *flatten(trajectories))


# a non-finite score, or two huge ones whose logit terms can overflow to
# opposite infinities and sum to a nan statistic
SPECIAL_SCORES = ([], [math.nan], [math.inf], [-math.inf], [1e308, 1e308], [1e308, -1e308])
OVERFLOW_MODEL = RatioModel(
    step_models=(LogisticModel((1.0,), 0.0), LogisticModel((2.0, -2.0), 0.0)),
    prior_1=0.5,
    t_max=2,
    fit_config=FitConfig(),
)


@st.composite
def monitor_sessions(draw):
    """(model, threshold, score stream); the threshold is, half the time, the
    statistic at a drawn step, so that ties are met."""
    model = draw(ratio_models())
    stream = draw(st.lists(scores, max_size=2 * model.t_max))
    at = draw(st.integers(0, len(stream)))
    stream[at:at] = draw(st.sampled_from(SPECIAL_SCORES))
    threshold = draw(st.floats(0.01, 100.0))
    if stream and draw(st.booleans()):
        value = ratio_statistic(model)(stream[: draw(st.integers(1, len(stream)))])
        threshold = value if math.isfinite(value) else threshold
    return model, threshold, stream


def cli_outcome(model_path, stream):
    """(verdict, step) or ("ERROR", code, step) of a `seqgate monitor` run."""
    stdin = io.StringIO("".join(f"{score!r}\n" for score in stream))
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stderr(stderr):
        code = cli_dispatch(["monitor", "--model", str(model_path)], stdin, stdout)
    lines = stdout.getvalue().splitlines()
    if code == 1:
        assert lines == ["CONTINUE"] * len(lines)
        return "ERROR", stderr.getvalue().split()[1].rstrip(":"), len(lines) + 1
    verdict, step = lines[-1].split(" t=")
    assert lines[:-1] == ["CONTINUE"] * (len(lines) - 1)
    assert code == {"ACCEPT": 0, "REJECT": 3}[verdict]
    return verdict, int(step)


def library_outcome(model, threshold, stream):
    state = MonitorState(ratio_rule(model, threshold))
    for t, score in enumerate(stream, start=1):
        try:
            status = state.observe(score)
        except SeqgateError as exc:
            return "ERROR", exc.code, t
        if status.decision == "rejected":
            return "REJECT", status.step
    return "ACCEPT", state.finalize().step


def replay_outcome(model, threshold, stream):
    """The batch path on each prefix in turn: built as a LabeledTrajectory,
    as read_dataset builds one, replayed, and rejected at the first value >=
    the threshold."""
    for t in range(1, len(stream) + 1):
        try:
            prefix = LabeledTrajectory("x", stream[:t], 1).scores
            value = replay(model, *flatten([prefix]))[-1]
        except SeqgateError as exc:
            return "ERROR", exc.code, t
        if value >= threshold:
            return "REJECT", t
    return "ACCEPT", len(stream)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "model.json"


@EXACT
@given(monitor_sessions())
@example((OVERFLOW_MODEL, 1.0, [0.5, 1e308, 1e308]))
@example((OVERFLOW_MODEL, 1.0, [0.5, math.nan]))
def test_monitor_cli_library_and_replay_agree(model_path, drawn):
    # the artifact round trip, then the same first crossing or the same
    # error at the same step on all three paths
    model, threshold, stream = drawn
    header = dict(delta=0.05, n_null=100, k_index=pac_index(100, 0.1, 0.05))
    save_calibration(model_path, model, ThresholdSpec("pac", 0.1, threshold, **header))
    loaded, spec, _ = load_calibration(model_path)
    assert loaded == model and spec.value == threshold
    expected = library_outcome(loaded, threshold, stream)
    assert cli_outcome(model_path, stream) == expected
    assert replay_outcome(loaded, threshold, stream) == expected


def monitored_first_step(rule, trajectory):
    """First rejection step of one MonitorState session, 0 if it accepts."""
    state = MonitorState(rule)
    for score in trajectory:
        if state.observe(score).terminal:
            return state.status.step
    return 0


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("kind", THRESHOLD_KINDS)
def test_harness_and_monitor_agree_on_a_dataset_file(tmp_path, kind, seed):
    # the harness path of the differential property on a whole JSONL file and
    # an artifact that calibrate fitted from it; the longest trajectories run
    # past t_max, and a pac threshold is the float just above a statistic
    # value of the file, so that value ties with it on neither path
    path, model_path = tmp_path / "data.jsonl", tmp_path / "model.json"
    write_dataset(sample_dataset(SyntheticSpec(stop_prob=0.1), 300, seed), path)
    argv = ["calibrate", "--data", str(path), "--alpha", "0.2", "--threshold", kind]
    assert cli_dispatch(argv + ["--out", str(model_path)], stdout=io.StringIO()) == 0
    model, spec, _ = load_calibration(model_path)
    rule = ratio_rule(model, spec.value)
    scores = [item.scores for item in read_dataset(path)]
    assert max(map(len, scores)) > model.t_max
    layout = flatten(scores)
    values = replay(model, *layout)
    if kind == "pac":
        assert (np.nextafter(values, np.inf) == spec.value).any()
    steps = _first_steps(rule.fires(values), layout[1]).tolist()
    assert steps == [monitored_first_step(rule, t) for t in scores]
    assert 0 < steps.count(0) < len(steps)


@pytest.mark.parametrize(
    "scores", [[0.5, math.nan], [1e308, 1e308]], ids=["non-finite score", "nan statistic"]
)
def test_harness_and_monitor_fail_closed_alike_on_error_cases(tmp_path, scores):
    # the error half of the differential property on a JSONL file: a score
    # that is not finite, or two whose logit terms overflow to opposite
    # infinities; the CLI monitor, MonitorState and the harness path
    # (read_dataset, then replay) each end in INVALID_TRAJECTORY
    path, model_path = tmp_path / "data.jsonl", tmp_path / "model.json"
    # json writes nan as NaN, which read_dataset parses as a float
    path.write_text(json.dumps({"id": "x", "scores": scores, "label": 1}) + "\n")
    save_calibration(model_path, OVERFLOW_MODEL, ville_threshold(0.1))
    expected = ("ERROR", "INVALID_TRAJECTORY", 2)
    assert library_outcome(OVERFLOW_MODEL, 10.0, scores) == expected
    assert cli_outcome(model_path, scores) == expected
    with pytest.raises(InvalidTrajectory):
        replay(OVERFLOW_MODEL, *flatten([item.scores for item in read_dataset(path)]))


def pooled_reference(cal):
    """pooled_isotonic with its inputs gathered score by score."""
    xs = [s for item in cal for s in item.scores]
    ys = [item.label for item in cal for _ in item.scores]
    return fit_isotonic(xs, ys)


# a small pool, so that most draws tie; both zeros pool into one group
tied_xs = st.sampled_from([-1.5, -0.0, 0.0, 0.1, 0.3, 1.0 / 3.0, 0.7, 2.0])


@EXACT
@given(st.lists(st.tuples(tied_xs, st.integers(0, 1)), min_size=1, max_size=80))
@example([(0.5, 0)] * 8 + [(0.5, 1)] * 2)
@example([(0.1, 1), (0.1, 0), (0.1, 0), (0.3, 0), (0.3, 0), (0.7, 1)] * 7)
def test_fit_isotonic_equals_fraction_pav(points):
    xs, ys = zip(*points)
    model = fit_isotonic(list(xs), list(ys))
    assert (model.breakpoints, model.values) == isotonic_fraction_oracle(xs, ys)


@pytest.mark.parametrize("seed", range(30))
def test_pooled_isotonic_equals_fraction_pav(seed):
    cal = sample_dataset(SyntheticSpec(), 400, seed)
    model = pooled_isotonic(cal)
    xs = [s for item in cal for s in item.scores]
    ys = [item.label for item in cal for _ in item.scores]
    assert (model.breakpoints, model.values) == isotonic_fraction_oracle(xs, ys)


@EXACT
@given(model_and_trajectories(min_n=16, max_n=30))
def test_harness_first_crossing_equals_run_offline(drawn):
    model, trajectories = drawn
    data = [LabeledTrajectory(f"x{i}", t, i % 2) for i, t in enumerate(trajectories)]
    cfg = ExperimentConfig(
        alpha_grid=(0.3, 0.5), n_splits=1, cal_fraction=0.5, delta=0.5
    )
    with mock.patch.object(harness, "fit_ratio_model", lambda dre: model):
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
            pac = pac_threshold(arts.null_maxima, alpha, cfg.delta)
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


@EXACT
@given(model_and_trajectories(min_n=16, max_n=30), st.data())
def test_token_study_equals_run_offline(drawn, draws):
    model, trajectories = drawn
    items = []
    for i, t in enumerate(trajectories):
        spent = draws.draw(st.lists(st.integers(0, 99), min_size=len(t), max_size=len(t)))
        # scores of at least 0.05 are never strictly below raw's alpha 0.05
        scores = [abs(s) + 0.05 for s in t]
        items.append(LabeledTrajectory(f"x{i}", scores, i % 2, list(accumulate(spent))))
    cfg = ExperimentConfig(
        alpha_grid=(0.05, 0.5), n_splits=1, cal_fraction=0.5, delta=0.5
    )
    with mock.patch.object(harness, "fit_ratio_model", lambda dre: model):
        arts = _SplitArtifacts(items, cfg, derive_seed(cfg.seed, 0))
        points = harness.token_study(items, cfg)
    test = arts.test
    n_test = len(test)
    cells, never = {}, 0
    for alpha in cfg.alpha_grid:
        rules = {
            "evaluator_ville": ratio_rule(model, ville_threshold(alpha).value),
            "bonferroni": ratio_rule(model, arts.t_cal_max / alpha),
            "raw": raw_score_rule(alpha),
            "calibrated": calibrated_score_rule(pooled_reference(arts.cal), alpha),
        }
        try:
            pac = pac_threshold(arts.null_maxima, alpha, cfg.delta)
            rules["evaluator_pac"] = ratio_rule(model, pac.value)
        except InsufficientCalibration:
            pass  # the study skips the cell
        for method, rule in rules.items():
            stops = [run_offline(rule, item)[1] for item in test]
            never += stops.count(None)
            used = sum(item.tokens[(r or len(item)) - 1] for r, item in zip(stops, test))
            kept = sum(r is None and item.label == 1 for r, item in zip(stops, test))
            cells[(method, alpha)] = TokenCurvePoint(method, alpha, used, kept / n_test)
    # at most 4 nulls reach the threshold side: alpha 0.05 needs 14 at delta 0.5
    assert ("evaluator_pac", 0.05) not in cells
    assert never >= n_test  # raw at alpha 0.05 rejects no trajectory
    baseline = TokenCurvePoint(
        NEVER_TERMINATE, 0.0, sum(item.tokens[-1] for item in test),
        sum(item.label for item in test) / n_test,
    )
    assert points == [baseline] + [
        cells[(m, a)] for m in cfg.methods for a in cfg.alpha_grid if (m, a) in cells
    ]


@EXACT
@given(
    st.lists(st.lists(st.floats(allow_nan=False), max_size=12), max_size=10),
    st.integers(1, 8),
)
@example([[0.5, -0.0, 2.0], [], [1.0]], 1)
@example([[1.0, 2.0, 3.0, 4.0], [5.0], [6.0, 7.0]], 2)
@example([[-0.0, 2.0], [], [1.0, -0.0]], 4)
def test_flatten_and_prefixes_equal_per_score_reference(sequences, width):
    # ragged lengths, empty sequences, lengths above width, width 1 and
    # steps past every length, which hold no sequence
    values, first, lengths = flatten([tuple(s) for s in sequences])
    expected_steps = prefixes_oracle(sequences, width)
    assert values.dtype == float
    assert values.tobytes() == np.array([v for s in sequences for v in s], float).tobytes()
    assert first.tolist() == list(accumulate(map(len, sequences), initial=0))[:-1]
    assert lengths.tolist() == [len(s) for s in sequences]
    steps = list(prefixes(values, first, lengths, width))
    assert len(steps) == width
    for t, ((live, columns), (expected_live, expected_rows)) in enumerate(
        zip(steps, expected_steps), start=1
    ):
        assert live.tolist() == expected_live
        assert columns.dtype == float and columns.shape == (t, len(expected_live))
        expected = np.array(expected_rows, dtype=float).reshape(t, len(expected_live))
        assert columns.tobytes() == expected.tobytes()


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_single_inputs_equal_batch(model, inputs, prob_clamp):
    """predict_proba on each input of floats equals its element of
    predict_proba on the whole batch, one array per feature."""
    columns = [np.array(column) for column in zip(*inputs)]
    batch = predict_proba(model, columns, prob_clamp)
    for x, expected in zip(inputs, batch.tolist()):
        one = float(predict_proba(model, x, prob_clamp))
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
