import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from oracles import calibrated_score_rule, run_offline, true_ratio_rule

from seqgate.errors import InvalidTrajectory, MonitorClosed, OutOfRange, SingleClassData
from seqgate.artifact import FitConfig, LogisticModel, RatioModel
from seqgate.harness import pooled_isotonic
from seqgate.kernels import IsotonicModel
from seqgate.monitor import DecisionRule, MonitorState, ratio_rule, raw_score_rule
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.trajectories import LabeledTrajectory


def score_echo_model(t_max):
    """Step-t ratio equals exp(-score_t), so scores choose the process."""
    models = []
    for t in range(1, t_max + 1):
        weights = [0.0] * t
        weights[t - 1] = 1.0
        models.append(LogisticModel(weights=tuple(weights), intercept=0.0))
    return RatioModel(
        step_models=tuple(models), prior_1=0.5, t_max=t_max, fit_config=FitConfig()
    )


def echo_scores(ratios):
    return [-math.log(r) for r in ratios]


def test_ratio_rule_inclusive_boundary():
    rule = ratio_rule(score_echo_model(2), threshold=2.0)
    state = MonitorState(rule)
    assert state.observe(echo_scores([1.5])[0]).decision == "active"
    status = state.observe(echo_scores([1.5, 2.0])[1])
    assert status.decision == "rejected"
    assert status.step == 2


def test_raw_rule_strict_boundary():
    rule = raw_score_rule(0.1)
    state = MonitorState(rule)
    assert state.observe(0.9).decision == "active"
    status = state.observe(0.05)
    assert status == state.status
    assert status.decision == "rejected" and status.step == 2

    state = MonitorState(rule)
    assert state.observe(0.1).decision == "active"  # strict <
    assert state.finalize().decision == "accepted"


def test_observe_after_terminal_raises():
    state = MonitorState(raw_score_rule(0.5))
    state.observe(0.1)
    assert state.status.decision == "rejected"
    with pytest.raises(MonitorClosed):
        state.observe(0.9)
    state = MonitorState(raw_score_rule(0.5))
    state.finalize()
    with pytest.raises(MonitorClosed):
        state.observe(0.9)


def overflow_model():
    """Two steps whose step-2 logit is 2*1e308 - 2*1e308 = inf - inf = nan
    for the finite scores (1e308, 1e308)."""
    steps = (LogisticModel((1.0,), 0.0), LogisticModel((2.0, -2.0), 0.0))
    return RatioModel(step_models=steps, prior_1=0.5, t_max=2, fit_config=FitConfig())


def test_nan_statistic_fails_closed():
    state = MonitorState(ratio_rule(overflow_model(), threshold=10.0))
    assert state.observe(1e308).decision == "active"
    with pytest.raises(InvalidTrajectory):
        state.observe(1e308)
    # the failed step is not recorded, and the stream is not accepted
    assert state.step == 1 and state.observed == [1e308]
    assert state.status.decision == "active"


@pytest.mark.parametrize(
    "score", ["0.5", b"0.5", True, "\u0663", None, 1j, Decimal("0.5")], ids=repr
)
def test_observe_refuses_what_a_trajectory_refuses(score):
    # float() reads each string, bool and Decimal; "\u0663" (Arabic-Indic
    # three) as 3.0
    with pytest.raises(InvalidTrajectory, match="must be a real number") as caught:
        LabeledTrajectory("t", [score], 1)
    state = MonitorState(raw_score_rule(0.5))
    state.observe(0.9)
    with pytest.raises(InvalidTrajectory, match="score must be a real number") as exc:
        state.observe(score)
    assert exc.value.field == caught.value.field == "scores"
    assert state.observed == [0.9] and state.status.decision == "active"


@pytest.mark.parametrize(
    "score", [0.25, 1, np.float32(0.25), np.int64(1), Fraction(1, 4)], ids=repr
)
def test_observe_reads_any_real_number_as_its_float(score):
    state = MonitorState(raw_score_rule(0.5))
    status = state.observe(score)
    assert state.observed == [float(score)] and type(state.observed[0]) is float
    assert status.decision == ("rejected" if score < 0.5 else "active")


@pytest.mark.parametrize(
    "threshold", ["0.5", None, b"1", [1.0], True, False, 1j, Decimal("0.5")], ids=repr
)
def test_rule_refuses_a_threshold_that_is_not_a_real_number(threshold):
    # each would raise a bare TypeError at the first step; a bool would be
    # read as 1 or 0 and decide in silence
    for build in (
        lambda t: ratio_rule(score_echo_model(1), t),
        raw_score_rule,
        lambda t: DecisionRule(len, t),
    ):
        with pytest.raises(OutOfRange, match="threshold must be a real number"):
            build(threshold)


@pytest.mark.parametrize(
    "threshold", [0.5, 1, np.float64(0.5), np.int64(1), Fraction(1, 2), math.inf], ids=repr
)
def test_rule_keeps_any_real_threshold(threshold):
    state = MonitorState(raw_score_rule(threshold))
    assert state.observe(0.7).decision == ("rejected" if 0.7 < threshold else "active")
    assert state.rule.threshold is threshold


def test_rule_refuses_a_nan_threshold():
    # no statistic crosses nan, so every trajectory would be accepted
    for build in (
        lambda t: ratio_rule(score_echo_model(1), t),
        raw_score_rule,
        lambda t: DecisionRule(len, t),
    ):
        with pytest.raises(OutOfRange, match="threshold must not be nan"):
            build(math.nan)
    # an infinite threshold stays allowed: the ratio rule then never rejects
    state = MonitorState(ratio_rule(score_echo_model(1), math.inf))
    assert state.observe(-700.0).decision == "active"


def test_finalize():
    state = MonitorState(raw_score_rule(0.1))
    for s in (0.5, 0.6, 0.7):
        state.observe(s)
    assert state.finalize() == state.status
    assert state.status.decision == "accepted" and state.status.step == 3

    state = MonitorState(raw_score_rule(0.5))
    state.observe(0.9)
    state.observe(0.2)
    rejected = state.finalize()
    assert rejected.decision == "rejected" and rejected.step == 2
    assert state.finalize() == rejected  # idempotent

    state = MonitorState(raw_score_rule(0.1))
    empty = state.finalize()
    assert empty.decision == "accepted" and empty.step == 0


def test_direction_pairing_enforced():
    # each constructor pairs its statistic with its direction: ratio
    # statistics reject at >= threshold, score statistics strictly below it
    ratio_rules = [
        ratio_rule(score_echo_model(1), 2.0),
        true_ratio_rule(SyntheticSpec(), 2.0),
    ]
    score_rules = [
        raw_score_rule(2.0),
        calibrated_score_rule(IsotonicModel(breakpoints=(0.0,), values=(0.5,)), 2.0),
    ]
    values = np.array([1.5, 2.0, 2.5, np.nan])
    for rule in ratio_rules:
        assert not rule.reject_below
        assert rule.fires(values).tolist() == [False, True, True, False]
    for rule in score_rules:
        assert rule.reject_below
        assert rule.fires(values).tolist() == [True, False, False, False]


def test_run_offline_accepts_below_threshold():
    model = score_echo_model(3)
    traj = LabeledTrajectory(id="a", scores=echo_scores([4.0, 5.0, 3.0]), label=1)
    status, step = run_offline(ratio_rule(model, 20.0), traj)
    assert status.decision == "accepted" and step is None


def test_run_offline_rejects_at_first_crossing():
    model = score_echo_model(3)
    traj = LabeledTrajectory(id="a", scores=echo_scores([25.0, 1.0, 1.0]), label=0)
    status, step = run_offline(ratio_rule(model, 20.0), traj)
    assert status.decision == "rejected" and step == 1


def test_streaming_equals_offline_random():
    spec = SyntheticSpec()
    data = sample_dataset(spec, 100, seed=6)
    from seqgate.ratio import fit_ratio_model

    model = fit_ratio_model(sample_dataset(spec, 150, seed=60))
    rules = [ratio_rule(model, 5.0), raw_score_rule(0.35)]
    for rule in rules:
        for item in data:
            offline_status, offline_step = run_offline(rule, item)
            state = MonitorState(rule)
            for s in item.scores:
                if state.observe(s).terminal:
                    break
            streaming = state.finalize()
            assert streaming == offline_status


def test_make_calibrated_rule_separated_scores():
    items = [
        LabeledTrajectory(id=f"n{i}", scores=[0.9, 0.92], label=1) for i in range(10)
    ] + [
        LabeledTrajectory(id=f"a{i}", scores=[0.1, 0.12], label=0) for i in range(10)
    ]
    rule = calibrated_score_rule(pooled_isotonic(items), 0.2)
    assert rule.value([0.1]) == pytest.approx(0.0, abs=1e-12)
    assert rule.value([0.9]) == pytest.approx(1.0, abs=1e-12)
    for item in items:
        status, _ = run_offline(rule, item)
        expected = "accepted" if item.label == 1 else "rejected"
        assert status.decision == expected


def test_make_calibrated_rule_alpha_zero_never_rejects():
    items = [
        LabeledTrajectory(id="n", scores=[0.9], label=1),
        LabeledTrajectory(id="a", scores=[0.1], label=0),
    ]
    rule = calibrated_score_rule(pooled_isotonic(items), 0.0)
    for item in items:
        status, _ = run_offline(rule, item)
        assert status.decision == "accepted"


def test_make_calibrated_rule_constant_scores_hit_base_rate():
    items = [
        LabeledTrajectory(id=f"x{i}", scores=[0.5, 0.5], label=i % 2) for i in range(8)
    ]
    rule = calibrated_score_rule(pooled_isotonic(items), 0.1)
    assert rule.value([0.02]) == pytest.approx(0.5)
    assert rule.value([0.97]) == pytest.approx(0.5)


def test_calibrated_rule_keeps_an_exact_block_mean_at_alpha():
    # the pooled block is 2 positives of 10: its value is 1/5 rounded once,
    # so a rule at alpha 0.2 does not reject (a float running mean gave
    # 0.19999999999999998, which did)
    items = [LabeledTrajectory(f"x{i}", [0.5], int(i >= 8)) for i in range(10)]
    model = pooled_isotonic(items)
    assert model.values == (0.2,)
    rule = calibrated_score_rule(model, 0.2)
    assert not rule.fires(rule.value([0.5]))


def test_make_calibrated_rule_single_class():
    items = [LabeledTrajectory(id="n", scores=[0.9], label=1)]
    with pytest.raises(SingleClassData):
        calibrated_score_rule(pooled_isotonic(items), 0.1)


def test_single_shot_rejection():
    rule = raw_score_rule(0.5)
    state = MonitorState(rule)
    state.observe(0.2)
    first = state.status
    assert first.decision == "rejected" and first.step == 1
    assert state.finalize() == first


def test_threshold_monotonicity():
    spec = SyntheticSpec()
    data = sample_dataset(spec, 60, seed=44)
    from seqgate.ratio import fit_ratio_model

    model = fit_ratio_model(sample_dataset(spec, 100, seed=43))
    for item in data:
        rejected_low, _ = run_offline(ratio_rule(model, 2.0), item)
        rejected_high, _ = run_offline(ratio_rule(model, 8.0), item)
        if rejected_high.decision == "rejected":
            assert rejected_low.decision == "rejected"
        low_raw, _ = run_offline(raw_score_rule(0.2), item)
        high_raw, _ = run_offline(raw_score_rule(0.5), item)
        if low_raw.decision == "rejected":
            assert high_raw.decision == "rejected"


def test_alpha_monotonicity_of_decisions():
    spec = SyntheticSpec()
    test = sample_dataset(spec, 80, seed=52)
    cal = sample_dataset(spec, 200, seed=51)
    from seqgate.ratio import fit_ratio_model, null_maxima
    from seqgate.artifact import pac_threshold, ville_threshold
    from seqgate.trajectories import split_calibration

    dre, thr = split_calibration(cal, 0.5, 1)
    model = fit_ratio_model(dre)
    maxima = null_maxima(model, thr)

    def rejected_ids(rule):
        return {
            item.id
            for item in test
            if run_offline(rule, item)[0].decision == "rejected"
        }

    alphas = (0.2, 0.35, 0.5)
    families = {
        "ville": lambda a: ratio_rule(model, ville_threshold(a).value),
        "pac": lambda a: ratio_rule(model, pac_threshold(maxima, a, 0.05).value),
        "raw": lambda a: raw_score_rule(a),
        "calibrated": lambda a: calibrated_score_rule(pooled_isotonic(cal), a),
    }
    for name, build in families.items():
        sets = [rejected_ids(build(a)) for a in alphas]
        for smaller, larger in zip(sets, sets[1:]):
            assert smaller <= larger, name


def test_observed_length_tracks_step():
    state, scores = MonitorState(raw_score_rule(0.01)), (0.5, 0.6, 0.7)
    for i, s in enumerate(scores, start=1):
        state.observe(s)
        assert state.step == i
        assert state.observed == list(scores[:i])
