import math
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from oracles import eval_ratio, predict_proba, true_ratio_process

from seqgate.errors import EmptyPrefix, InvalidTrajectory, SingleClassData
from seqgate.artifact import FitConfig, LogisticModel, RatioModel, ratio_statistic
from seqgate.kernels import fit_logistic
from seqgate.ratio import eval_process, fit_ratio_model, flatten, replay
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.trajectories import LabeledTrajectory


def make_set(entries):
    return tuple(
        LabeledTrajectory(id=f"t{i}", scores=[0.5] * length, label=y)
        for i, (length, y) in enumerate(entries)
    )


def constant_model(per_step_ratios, prior_1=0.5):
    """RatioModel whose step t outputs a fixed ratio regardless of scores."""
    models = []
    for t, ratio in enumerate(per_step_ratios, start=1):
        f = 1.0 / (1.0 + ratio * prior_1 / (1 - prior_1))
        b = math.log(f / (1.0 - f))
        models.append(LogisticModel(weights=(0.0,) * t, intercept=b))
    return RatioModel(
        step_models=tuple(models),
        prior_1=prior_1,
        t_max=len(models),
        fit_config=FitConfig(),
    )


def test_fit_ratio_model_prior_is_the_label_1_share():
    assert fit_ratio_model(make_set([(1, 1), (1, 0), (1, 1), (1, 1)])).prior_1 == 0.75
    assert fit_ratio_model(make_set([(1, 1), (1, 0)])).prior_1 == 0.5


def test_fit_ratio_model_single_class():
    with pytest.raises(SingleClassData):
        fit_ratio_model(make_set([(1, 1), (1, 1)]))


def test_fit_ratio_model_t_max_limited_by_shorter_label():
    assert fit_ratio_model(make_set([(3, 1), (5, 0)])).t_max == 3
    assert fit_ratio_model(make_set([(2, 1), (2, 0)])).t_max == 2


def test_fit_ratio_model_needs_both_labels():
    for data in (make_set([(4, 1)]), ()):
        with pytest.raises(SingleClassData, match="needs both labels present"):
            fit_ratio_model(data)


def test_fit_ratio_model_shapes():
    data = make_set([(3, 1), (3, 0), (2, 1), (1, 0)])
    model = fit_ratio_model(data)
    assert model.t_max == 3
    assert [len(m.weights) for m in model.step_models] == [1, 2, 3]
    assert model.prior_1 == 0.5


def test_fit_ratio_model_separates_first_step():
    rng = np.random.default_rng(2)
    items = []
    for i in range(40):
        items.append(
            LabeledTrajectory(
                id=f"n{i}", scores=[0.9 + 0.01 * rng.normal()], label=1
            )
        )
        items.append(
            LabeledTrajectory(
                id=f"a{i}", scores=[0.1 + 0.01 * rng.normal()], label=0
            )
        )
    model = fit_ratio_model(items)
    assert predict_proba(model.step_models[0], [0.9]) > 0.5
    assert predict_proba(model.step_models[0], [0.1]) < 0.5


def test_fit_ratio_model_steps_equal_list_feature_fits():
    # the position-major layout fits each step on exactly the
    # list-of-prefixes data, each step started from the previous step's model
    data = sample_dataset(SyntheticSpec(stop_prob=0.05), 200, seed=6)
    model = fit_ratio_model(data)
    assert model.t_max > 20
    start = None
    for t, step_model in enumerate(model.step_models, start=1):
        rows = [item for item in data if len(item) >= t]
        feats = [item.scores[:t] for item in rows]
        labels = [item.label for item in rows]
        assert step_model == fit_logistic(feats, labels, model.fit_config, start)
        start = step_model.weights + (0.0, step_model.intercept)


@lru_cache(maxsize=None)
def cold_and_warm_fits(seed):
    """(cold step models, cold Newton steps, warm model, warm Newton steps)
    on long trajectories; a Newton step is one np.linalg.solve call."""
    data = sample_dataset(SyntheticSpec(stop_prob=0.05), 400, seed)
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solves:
        warm = fit_ratio_model(data)
        warm_steps = solves.call_count
        solves.reset_mock()
        cold = []
        for t in range(1, warm.t_max + 1):
            rows = [item for item in data if len(item) >= t]
            feats = [item.scores[:t] for item in rows]
            labels = [item.label for item in rows]
            cold.append(fit_logistic(feats, labels, warm.fit_config))
        cold_steps = solves.call_count
    return cold, cold_steps, warm, warm_steps


@pytest.mark.parametrize("seed", range(3))
def test_warm_started_steps_are_close_to_cold_fits(seed):
    # one strictly convex objective per step: both starts reach its optimum
    cold, _, warm, _ = cold_and_warm_fits(seed)
    assert len(warm.step_models) == len(cold) > 50
    for w, c in zip(warm.step_models, cold):
        got = np.array(w.weights + (w.intercept,))
        want = np.array(c.weights + (c.intercept,))
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("seed", range(3))
def test_warm_start_takes_fewer_newton_steps(seed):
    _, cold_steps, _, warm_steps = cold_and_warm_fits(seed)
    assert warm_steps <= 0.6 * cold_steps


def test_fit_ratio_model_deterministic():
    data = sample_dataset(SyntheticSpec(), 60, seed=4)
    m1 = fit_ratio_model(data)
    m2 = fit_ratio_model(data)
    assert m1 == m2


def test_eval_ratio_plugin_identity():
    # f = 0.5, prior 0.5 -> uninformative classifier, balanced prior
    model = constant_model([1.0], prior_1=0.5)
    assert eval_ratio(model, [0.3]) == pytest.approx(1.0, rel=1e-12)
    # f = 0.5 with prior 0.75 -> prior odds alone: 3.0
    m = RatioModel(
        step_models=(LogisticModel(weights=(0.0,), intercept=0.0),),
        prior_1=0.75,
        t_max=1,
        fit_config=FitConfig(),
    )
    assert eval_ratio(m, [0.3]) == pytest.approx(3.0, rel=1e-12)


def test_eval_ratio_clamped_confident_classifier():
    clamp = FitConfig().prob_clamp
    m = RatioModel(
        step_models=(LogisticModel(weights=(0.0,), intercept=50.0),),
        prior_1=0.5,
        t_max=1,
        fit_config=FitConfig(),
    )
    assert eval_ratio(m, [0.0]) == pytest.approx(clamp / (1 - clamp), rel=1e-12)


def one_step_model(intercept, prior_1):
    return RatioModel(
        step_models=(LogisticModel(weights=(0.0,), intercept=intercept),),
        prior_1=prior_1,
        t_max=1,
        fit_config=FitConfig(),
    )


def test_plugin_identity_random():
    # eval_ratio is odds * exp(-z) with the logit z clamped to
    # +-log((1 - c)/c), bit for bit, and the plug-in form (1 - f)/f * odds
    # with f = predict_proba up to rounding; 1 - f cancels as f nears 1,
    # losing about log10(1/(1 - f)) digits of the old form
    rng = np.random.default_rng(8)
    c = FitConfig().prob_clamp
    bound = math.log((1.0 - c) / c)
    for _ in range(100):
        z = float(rng.normal(scale=5.0))
        model = one_step_model(z, float(rng.uniform(1e-6, 1 - 1e-6)))
        p1 = model.prior_1
        value = eval_ratio(model, [0.0])
        assert value == p1 / (1.0 - p1) * math.exp(-min(max(z, -bound), bound))
        f = float(predict_proba(model.step_models[0], [0.0]))
        plug_in = (1.0 - f) / f * (p1 / (1.0 - p1))
        assert value == pytest.approx(plug_in, rel=1e-13 / (1.0 - f))


def test_monotone_response_in_f_and_prior():
    intercepts = np.linspace(-3.0, 3.0, 19)  # f increases with the intercept
    vals = [eval_ratio(one_step_model(float(b), 0.4), [0.0]) for b in intercepts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    priors = np.linspace(0.05, 0.95, 19)
    vals = [eval_ratio(one_step_model(-0.85, float(p)), [0.0]) for p in priors]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_eval_ratio_empty_prefix():
    model = constant_model([1.0])
    with pytest.raises(EmptyPrefix):
        eval_ratio(model, [])


def test_eval_process_singleton():
    model = constant_model([2.5])
    assert eval_process(model, [0.7]) == [eval_ratio(model, [0.7])]


def test_eval_process_freezes_after_tmax():
    spec = SyntheticSpec()
    data = sample_dataset(spec, 80, seed=12)
    model = fit_ratio_model(data)
    scores = [0.5, 0.6] * (model.t_max + 3)
    proc = eval_process(model, scores)
    frozen = proc[model.t_max :]
    assert len(frozen) >= 2
    assert all(v == frozen[0] for v in frozen)
    # the frozen value sees the FIRST t_max scores
    assert frozen[0] == eval_ratio(model, scores[: model.t_max])


def test_eval_process_tracks_true_ratio():
    # pooled mean |log Mhat - log M| over steps t <= 3 at n_cal = 2000
    spec = SyntheticSpec()
    dre = sample_dataset(spec, 2000, seed=11)
    model = fit_ratio_model(dre)
    eval_set = sample_dataset(spec, 2000, seed=999)
    errs = []
    for item in eval_set:
        est = eval_process(model, item.scores)
        tru = true_ratio_process(spec, item.scores)
        for t in (1, 2, 3):
            if len(item) >= t:
                errs.append(abs(math.log(est[t - 1]) - math.log(tru[t - 1])))
    assert float(np.mean(errs)) <= 0.25


def test_estimation_error_shrinks_with_calibration_size():
    spec = SyntheticSpec()
    eval_set = sample_dataset(spec, 1500, seed=321)
    true_procs = {
        item.id: true_ratio_process(spec, item.scores) for item in eval_set
    }
    per_size = {}
    for n in (250, 1000, 4000):
        model = fit_ratio_model(sample_dataset(spec, n, seed=77))
        errs = {1: [], 2: [], 3: []}
        for item in eval_set:
            est = eval_process(model, item.scores)
            for t in (1, 2, 3):
                if len(item) >= t:
                    errs[t].append(
                        abs(math.log(est[t - 1]) - math.log(true_procs[item.id][t - 1]))
                    )
        per_size[n] = {t: float(np.mean(errs[t])) for t in (1, 2, 3)}
    for t in (1, 2, 3):
        # non-increasing within Monte-Carlo noise
        assert per_size[1000][t] <= per_size[250][t] + 0.05
        assert per_size[4000][t] <= per_size[1000][t] + 0.05


def test_ratio_model_serialization_roundtrip(tmp_path):
    from seqgate.dataio import load_calibration, save_calibration
    from seqgate.artifact import ville_threshold

    data = sample_dataset(SyntheticSpec(), 120, seed=9)
    model = fit_ratio_model(data)
    save_calibration(tmp_path / "model.json", model, ville_threshold(0.1))
    clone, _, _ = load_calibration(tmp_path / "model.json")
    assert clone == model


def test_eval_ratio_truncates_long_prefixes_to_first_tmax_scores():
    data = sample_dataset(SyntheticSpec(), 80, seed=12)
    model = fit_ratio_model(data)
    long_prefix = [0.4, 0.9] * (model.t_max + 2)
    assert eval_ratio(model, long_prefix) == eval_ratio(
        model, long_prefix[: model.t_max]
    )


def test_eval_ratio_always_finite_and_positive():
    data = sample_dataset(SyntheticSpec(), 80, seed=12)
    model = fit_ratio_model(data)
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = int(rng.integers(1, model.t_max + 4))
        prefix = (rng.normal(scale=50.0, size=t)).tolist()
        value = eval_ratio(model, prefix)
        assert math.isfinite(value) and value > 0.0


def overflow_model():
    """Step 2's logit on the finite scores 1e308, 1e308 is
    2e308 - 2e308 = inf - inf = nan."""
    steps = (LogisticModel((1.0,), 0.0), LogisticModel((2.0, -2.0), 0.0))
    return RatioModel(step_models=steps, prior_1=0.5, t_max=2, fit_config=FitConfig())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_replay_nan_statistic_fails_closed():
    # a nan value never crosses a threshold, so it would accept in silence;
    # numpy's overflow and invalid warnings stay off stderr
    model = overflow_model()
    assert replay(model, *flatten([[1e308]])).tolist() == [eval_ratio(model, [1e308])]
    for trajectories in ([[1e308, 1e308]], [[0.5, 0.5, 0.5], [1e308, 1e308], [0.5]]):
        with pytest.raises(InvalidTrajectory):
            replay(model, *flatten(trajectories))


def test_replay_of_no_trajectories_is_empty():
    values = replay(overflow_model(), *flatten([]))
    assert values.dtype == float and values.shape == (0,)


def test_replay_raises_on_an_empty_prefix():
    model = constant_model([2.0])
    with pytest.raises(EmptyPrefix):
        replay(model, *flatten([[0.5], []]))
    with pytest.raises(EmptyPrefix):
        eval_process(model, [])


def test_replay_past_t_max_equals_the_statistic_bit_for_bit():
    # a 4-step model and trajectories of 1 to 13 scores, not sorted by
    # length: every value past t_max repeats the step-t_max one, as the
    # streaming statistic freezes it
    rng = np.random.default_rng(8)
    steps = [LogisticModel(rng.normal(size=t).tolist(), rng.normal()) for t in range(1, 5)]
    model = RatioModel(steps, 0.6, 4, FitConfig())
    trajectories = [rng.normal(size=n).tolist() for n in (3, 13, 1, 4, 9, 5, 13, 2)]
    value = ratio_statistic(model)
    expected = [value(s[:t]) for s in trajectories for t in range(1, len(s) + 1)]
    assert replay(model, *flatten(trajectories)).tolist() == expected


def test_replay_holds_no_padded_buffer_and_repeats_the_step_value_past_t_max():
    # 2,000 three-score trajectories and one of 20,000 under a 7-step model:
    # a buffer as wide as the longest trajectory would take 320 MB
    model = constant_model([0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    trajectories = [[0.5] * 3] * 2000 + [[0.5] * 20_000]
    tracemalloc.start()
    try:
        values = replay(model, *flatten(trajectories))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert values.size == 26_000
    head = values[6_000:6_007].tolist()
    assert values[6_000:].tolist() == head + head[-1:] * 19_993


def traced_peak(fn):
    """(fn's result, tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replay_holds_one_float_per_kept_score():
    # 2,000 three-score trajectories and one of 80 under an 80-step model:
    # a padded (n, t_max) buffer would take 2.8 MB
    model = constant_model([1.0 + t / 80 for t in range(80)])
    trajectories = [[0.5] * 3] * 2000 + [[0.5] * 80]
    values, peak = traced_peak(lambda: replay(model, *flatten(trajectories)))
    assert peak < 2**20, peak
    value = ratio_statistic(model)
    assert values[:3].tolist() == [value([0.5] * t) for t in (1, 2, 3)]
    assert values[6000:].tolist() == [value([0.5] * t) for t in range(1, 81)]


def test_replay_of_a_dense_batch_holds_two_prefix_matrices_beside_its_scores():
    # 2,000 trajectories of 80 scores under an 80-step model: the kept
    # scores, the output and steps 79 and 80's prefix matrices are each
    # about one kept-score array, plus each step's logit temporaries
    model = constant_model([1.0 + t / 80 for t in range(80)])
    trajectories = [[0.5] * 80] * 2000
    values, peak = traced_peak(lambda: replay(model, *flatten(trajectories)))
    assert peak < 4.5 * values.nbytes, peak / values.nbytes
    value = ratio_statistic(model)
    assert values[:80].tolist() == [value([0.5] * t) for t in range(1, 81)]


def test_fit_ratio_model_holds_one_float_per_kept_score():
    # 2,000 two-score trajectories and one of 200 scores of each label:
    # a padded (t_max, n) matrix would take 4.4 MB
    rng = np.random.default_rng(4)
    data = [
        LabeledTrajectory(f"s{i}", rng.normal(i % 2, 1.0, 2).tolist(), i % 2)
        for i in range(2000)
    ] + [LabeledTrajectory(f"l{y}", rng.normal(y, 1.0, 200).tolist(), y) for y in (0, 1)]
    model, peak = traced_peak(lambda: fit_ratio_model(data))
    assert model.t_max == 200
    assert peak < 2 * 2**20, peak
    start = None
    for t, step_model in enumerate(model.step_models[:4], start=1):
        rows = [item for item in data if len(item) >= t]
        feats = [item.scores[:t] for item in rows]
        labels = [item.label for item in rows]
        assert step_model == fit_logistic(feats, labels, model.fit_config, start)
        start = step_model.weights + (0.0, step_model.intercept)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_ratio_model_names_the_step_whose_fit_overflows():
    # step 1 fits on first scores alone, which are ordinary; step 2's
    # Hessian sums 1e308 squared
    entries = [[0.2, 0.3], [0.7, 0.6], [0.4, 0.5], [0.6, 1e308]]
    dre = [LabeledTrajectory(f"t{i}", s, i % 2) for i, s in enumerate(entries)]
    with pytest.raises(InvalidTrajectory, match="^step 2: .*Hessian") as exc:
        fit_ratio_model(dre)
    assert exc.value.field == "scores"


def test_eval_process_nan_statistic_fails_closed():
    with pytest.raises(InvalidTrajectory):
        eval_process(overflow_model(), [1e308, 1e308, 0.5])
