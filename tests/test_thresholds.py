import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import pac_index_oracle

from seqgate.errors import (
    InsufficientCalibration,
    InvalidTrajectory,
    NoNullTrajectories,
    OutOfRange,
)
from seqgate.artifact import (
    MAX_NULL_SAMPLES,
    FitConfig,
    LogisticModel,
    RatioModel,
    ThresholdSpec,
    bonferroni_threshold,
    min_null_samples,
    pac_index,
    pac_threshold,
    ville_threshold,
)
from seqgate.monitor import MonitorState, ratio_rule
from seqgate.ratio import Calibration, eval_process, fit_ratio_model, flatten, null_maxima
from seqgate.ratio import replay
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.trajectories import LabeledTrajectory, split_calibration


def test_ville_threshold_values():
    assert ville_threshold(0.05).value == 20.0
    assert ville_threshold(0.5).value == 2.0
    assert ville_threshold(0.05).kind == "ville"


def test_ville_threshold_out_of_range():
    with pytest.raises(OutOfRange):
        ville_threshold(1.5)
    with pytest.raises(OutOfRange):
        ville_threshold(0.0)
    # 1 / alpha overflows below about 5.6e-309: a threshold that never rejects
    with pytest.raises(OutOfRange, match="1 / alpha must be a finite float"):
        ville_threshold(1e-310)
    assert ville_threshold(6e-309).value == 1.0 / 6e-309


@pytest.mark.parametrize(
    "kind, t_cal_max, message",
    [("ville", None, "1 / alpha"), ("bonferroni", 5, "t_cal_max / alpha")],
)
def test_a_spec_built_by_hand_checks_the_quotient_as_its_builder(kind, t_cal_max, message):
    with pytest.raises(OutOfRange, match=f"^{message} must be a finite float, alpha=1e-310"):
        ThresholdSpec(kind, 1e-310, 1.0, t_cal_max=t_cal_max)


def _score_echo_model(t_max):
    """Step models chosen so the step-t ratio equals exp(-score_t)."""
    models = []
    for t in range(1, t_max + 1):
        weights = [0.0] * t
        weights[t - 1] = 1.0
        models.append(LogisticModel(weights=tuple(weights), intercept=0.0))
    return RatioModel(
        step_models=tuple(models), prior_1=0.5, t_max=t_max, fit_config=FitConfig()
    )


def test_null_maxima_takes_trajectory_max():
    model = _score_echo_model(3)
    # scores -log(r) give ratio process [0.5, 2.0, 1.0]
    traj = LabeledTrajectory(
        id="n", scores=[-math.log(0.5), -math.log(2.0), -math.log(1.0)], label=1
    )
    maxima = null_maxima(model, [traj])
    assert maxima == pytest.approx([2.0], rel=1e-12)


def test_null_maxima_ignores_alternatives():
    model = _score_echo_model(3)
    nulls = [
        LabeledTrajectory(id="a", scores=[0.0, 0.0, 0.0], label=1),
        LabeledTrajectory(id="b", scores=[-math.log(3.0)], label=0),
        LabeledTrajectory(id="c", scores=[-math.log(3.0)], label=1),
    ]
    maxima = null_maxima(model, nulls)
    assert maxima == pytest.approx([1.0, 3.0], rel=1e-12)


def test_null_maxima_of_a_null_longer_than_t_max():
    # past t_max the process repeats its step-2 value 4.0, so a start taken
    # from the first t_max scores would give the next null's maximum as 4.0
    model = _score_echo_model(2)
    nulls = [
        LabeledTrajectory(id="a", scores=[-math.log(0.5), -math.log(4.0), 5.0, 5.0], label=1),
        LabeledTrajectory(id="b", scores=[-math.log(1.5)], label=1),
    ]
    maxima = null_maxima(model, nulls)
    assert maxima == [max(eval_process(model, item.scores)) for item in nulls]
    assert maxima == pytest.approx([4.0, 1.5], rel=1e-12)


def test_null_maxima_nan_statistic_fails_closed():
    # step 2's logit on 1e308, 1e308 is inf - inf; a nan maximum has no
    # place in pac_threshold's sort
    steps = (LogisticModel((1.0,), 0.0), LogisticModel((2.0, -2.0), 0.0))
    model = RatioModel(step_models=steps, prior_1=0.5, t_max=2, fit_config=FitConfig())
    nulls = [
        LabeledTrajectory(id="a", scores=[0.5, 0.5], label=1),
        LabeledTrajectory(id="b", scores=[1e308, 1e308], label=1),
    ]
    with pytest.raises(InvalidTrajectory):
        null_maxima(model, nulls)


def test_null_maxima_requires_nulls():
    model = _score_echo_model(1)
    with pytest.raises(NoNullTrajectories):
        null_maxima(model, [LabeledTrajectory(id="x", scores=[0.5], label=0)])


def test_pac_index_examples():
    # Pr[Bin(5,0.5) >= 5] = 0.03125 <= 0.05 while Pr[>= 4] = 0.1875 > 0.05
    assert pac_index(5, 0.5, 0.05) == 5
    # frozen from the exact-rational oracle
    assert pac_index(100, 0.1, 0.05) == 96


def test_pac_index_insufficient():
    with pytest.raises(InsufficientCalibration) as err:
        pac_index(5, 0.5, 0.01)
    assert err.value.min_n == 7
    assert "need at least n=7" in str(err.value)


def test_pac_index_caps_n_at_max_null_samples():
    with pytest.raises(OutOfRange, match="n must be"):
        pac_index(MAX_NULL_SAMPLES + 1, 0.5, 0.05)
    with pytest.raises(OutOfRange, match="n must be"):
        pac_index(10**18, 0.1, 0.05)


def test_calibration_is_split_fit_and_null_maxima():
    data = sample_dataset(SyntheticSpec(), 200, seed=12)
    cal = Calibration(data, 0.4, 5)
    fit_set, thresh_set = split_calibration(data, 0.4, 5)
    assert (cal.fit_set, cal.thresh_set) == (fit_set, thresh_set)
    assert cal.model == fit_ratio_model(fit_set)
    assert cal.maxima == null_maxima(cal.model, thresh_set)
    assert cal.t_cal_max == max(len(item) for item in data)
    assert cal.threshold("ville", 0.1, 0.05) == ville_threshold(0.1)
    assert cal.threshold("bonferroni", 0.1, 0.05) == bonferroni_threshold(0.1, cal.t_cal_max)
    assert cal.threshold("pac", 0.1, 0.05) == pac_threshold(cal.maxima, 0.1, 0.05)
    # a method name is not a threshold kind
    with pytest.raises(OutOfRange, match="threshold kind 'evaluator_pac'"):
        cal.threshold("evaluator_pac", 0.1, 0.05)


def test_min_null_samples():
    assert min_null_samples(0.5, 0.01) == 7
    assert min_null_samples(0.05, 0.05) == 59
    # exact up to the cap
    assert min_null_samples(3e-6, 0.05) == 998_576 <= MAX_NULL_SAMPLES


@pytest.mark.parametrize("alpha", [1e-7, 1e-300, 1e-320, 5e-324])
def test_min_null_samples_past_the_cap_is_the_cap_plus_one(alpha):
    # at 1e-300 the n has 301 digits; below about 1.7e-308 it overflows a float
    assert min_null_samples(alpha, 0.05) == MAX_NULL_SAMPLES + 1
    with pytest.raises(InsufficientCalibration) as err:
        pac_index(50, alpha, 0.05)
    assert err.value.min_n == MAX_NULL_SAMPLES + 1
    assert str(err.value).endswith("need at least n=1000001")


def test_pac_index_matches_oracle_small_grid():
    alphas = [0.1, 0.3, 0.5, 0.75]
    deltas = [0.01, 0.05, 0.2]
    for n in range(1, 21):
        for a in alphas:
            for d in deltas:
                expected = pac_index_oracle(n, Fraction(a), Fraction(d))
                if expected is None:
                    with pytest.raises(InsufficientCalibration):
                        pac_index(n, a, d)
                else:
                    assert pac_index(n, a, d) == expected


def test_pac_index_monotone():
    n = 60
    ks = [pac_index(n, a, 0.05) for a in (0.1, 0.2, 0.3, 0.5, 0.7)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    ks = [pac_index(n, 0.3, d) for d in (0.3, 0.1, 0.05, 0.01)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_pac_threshold_examples():
    # the float just above M_(k), so that >= against it is > against M_(k)
    spec = pac_threshold([1.0, 2.0, 3.0, 4.0, 5.0], alpha=0.5, delta=0.05)
    assert spec.value == math.nextafter(5.0, math.inf)
    assert spec.n_null == 5 and spec.k_index == 5
    assert spec.kind == "pac"


def test_pac_threshold_ties_are_harmless():
    # five maxima tied at M_(k) = 2.0: none of them reaches the threshold
    spec = pac_threshold([2.0] * 5, alpha=0.5, delta=0.05)
    assert spec.value == math.nextafter(2.0, math.inf)
    assert not any(m >= spec.value for m in [2.0] * 5)


def shared_opening(n, seed):
    """Every trajectory opens with the score 0.0, then 1-16 scores from
    N(+1.5, 1) for label 1 or N(-1.5, 1) for label 0."""
    rng = random.Random(seed)
    items = []
    for i in range(n):
        label = i % 2
        tail = [rng.gauss(1.5 if label else -1.5, 1.0) for _ in range(rng.randint(1, 16))]
        items.append(LabeledTrajectory(f"s{i}", [0.0] + tail, label))
    return tuple(items)


def test_pac_threshold_on_a_shared_opening_keeps_its_level():
    # most null maxima tie at the shared step-1 statistic; a threshold equal
    # to it would reject every trajectory at t = 1
    dre, thresh_set = split_calibration(shared_opening(600, 0), 0.5, 0)
    model = fit_ratio_model(dre)
    maxima = null_maxima(model, thresh_set)
    spec = pac_threshold(maxima, alpha=0.2, delta=0.05)
    opening = replay(model, *flatten([(0.0,)]))[0]
    assert sorted(maxima)[spec.k_index - 1] == opening
    assert spec.value > opening
    rule = ratio_rule(model, spec.value)
    state = MonitorState(rule)
    assert [state.observe(9.0).decision for _ in range(3)] == ["active"] * 3
    assert state.finalize().decision == "accepted"
    # held-out successful trajectories cross the threshold at most alpha of the time
    nulls = [item.scores for item in shared_opening(2000, 1) if item.label == 1]
    layout = flatten(nulls)
    crossed = np.maximum.reduceat(replay(model, *layout), layout[1]) >= spec.value
    assert crossed.mean() <= 0.2


def binary_scores(n, seed, label=None):
    """1-7 scores, each 1.0 with probability 0.7 for label 1 or 0.4 for
    label 0, else 0.0; labels alternate unless ``label`` is given."""
    rng = random.Random(seed)
    items = []
    for i in range(n):
        lab = i % 2 if label is None else label
        p = 0.7 if lab else 0.4
        scores = [float(rng.random() < p) for _ in range(rng.randint(1, 7))]
        items.append(LabeledTrajectory(f"b{i}", scores, lab))
    return tuple(items)


def test_pac_coverage_on_discrete_scores():
    # the statistic takes a few dozen values, so null maxima tie at M_(k);
    # shaped like acceptance criterion 02, with one fitted model: the
    # conditional FAR of each calibration draw is read off a pooled null set
    model = fit_ratio_model(binary_scores(2000, 0))
    pool = np.array(null_maxima(model, binary_scores(20_000, 1, label=1)))
    delta, reps, n_cal = 0.05, 500, 200
    draws = null_maxima(model, binary_scores(reps * n_cal, 2, label=1))
    bound = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / reps)
    for alpha in (0.1, 0.2, 0.5):
        violations = 0
        for c in range(reps):
            thr = pac_threshold(draws[c * n_cal:(c + 1) * n_cal], alpha, delta).value
            conditional_far = float(np.mean(pool >= thr))
            violations += conditional_far > alpha
        assert violations / reps <= bound, (alpha, violations / reps)


@pytest.mark.parametrize("position", [0, 2, 4])
def test_pac_threshold_rejects_a_nan_maximum(position):
    # sorted orders a list holding nan arbitrarily, so M_(k) would be wrong
    # in silence
    maxima = [1.0, 2.0, 3.0, 4.0, 5.0]
    maxima[position] = math.nan
    with pytest.raises(OutOfRange, match="nan"):
        pac_threshold(maxima, alpha=0.5, delta=0.05)


def test_pac_threshold_of_no_maxima_is_out_of_range():
    with pytest.raises(OutOfRange, match="^n must be"):
        pac_threshold([], alpha=0.5, delta=0.05)


def test_pac_threshold_insufficient():
    with pytest.raises(InsufficientCalibration):
        pac_threshold([1.0, 2.0, 3.0], alpha=0.1, delta=0.05)


def test_pac_threshold_nonincreasing_in_alpha():
    rng = np.random.default_rng(3)
    maxima = rng.exponential(size=200).tolist()
    values = [
        pac_threshold(maxima, alpha, 0.05).value
        for alpha in (0.05, 0.1, 0.2, 0.4, 0.6)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_bonferroni_threshold_values():
    assert bonferroni_threshold(0.1, 5).value == 50.0
    assert bonferroni_threshold(0.5, 1).value == 2.0
    assert bonferroni_threshold(0.5, 4).value == 8.0


def test_bonferroni_threshold_takes_only_a_positive_int():
    for t_cal_max in (2.5, True, 0, -3, None, "5"):
        with pytest.raises(OutOfRange):
            bonferroni_threshold(0.1, t_cal_max)
    spec = bonferroni_threshold(0.1, np.int64(5))
    assert spec.value == 50.0 and type(spec.t_cal_max) is int


@pytest.mark.parametrize("t_cal_max", [10**308, 10**400], ids=["1e308", "1e400"])
def test_bonferroni_threshold_must_be_a_finite_float(t_cal_max):
    # t / alpha is inf at 10**308, and 10**400 overflows on its way to a float
    with pytest.raises(OutOfRange, match="finite"):
        bonferroni_threshold(0.2, t_cal_max)


def test_bonferroni_at_least_ville():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = float(rng.uniform(0.01, 0.99))
        t = int(rng.integers(1, 40))
        assert bonferroni_threshold(alpha, t).value >= ville_threshold(alpha).value


def test_pac_coverage_statistical():
    # maxima drawn from U(0,1): the true (1-alpha) quantile is 1-alpha, and
    # the fraction of calibrations whose M_(k) lands below it must stay
    # within the delta guarantee
    alpha, delta, n, reps = 0.1, 0.05, 200, 500
    rng = np.random.default_rng(2718)
    below = 0
    for _ in range(reps):
        maxima = rng.random(n).tolist()
        spec = pac_threshold(maxima, alpha, delta)
        below += spec.value < 1.0 - alpha
    frac = below / reps
    assert frac <= delta + 3 * math.sqrt(delta * (1 - delta) / reps)
