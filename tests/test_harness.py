import io
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from oracles import run_offline

import seqgate
from seqgate import harness
from seqgate.dataio import write_csv
from seqgate.errors import MissingTokens, OutOfRange
from seqgate.harness import (
    CurvePoint,
    ExperimentConfig,
    calibration_ablation,
    evaluate_split,
    pooled_isotonic,
    run_experiment,
    token_study,
    NEVER_TERMINATE,
    TokenCurvePoint,
    _percentile,
)
from seqgate.monitor import raw_score_rule
from seqgate.ratio import fit_ratio_model
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.trajectories import LabeledTrajectory, derive_seed


def tokenized(items):
    out = []
    for item in items:
        tokens = [100 * (t + 1) for t in range(len(item))]
        out.append(
            LabeledTrajectory(
                id=item.id, scores=list(item.scores), label=item.label, tokens=tokens
            )
        )
    return tuple(out)


@pytest.fixture(scope="module")
def synth_data():
    return sample_dataset(SyntheticSpec(), 400, seed=7)


def test_config_validation():
    with pytest.raises(OutOfRange):
        ExperimentConfig(alpha_grid=(0.5, 0.2))
    with pytest.raises(OutOfRange):
        ExperimentConfig(alpha_grid=(0.0, 0.2))
    with pytest.raises(OutOfRange):
        ExperimentConfig(alpha_grid=(0.2,), methods=("nope",))
    with pytest.raises(OutOfRange):
        ExperimentConfig(alpha_grid=(0.2,), n_splits=0)


@pytest.mark.parametrize("dre_fraction", [0.0, 1.0, 1.5, math.nan])
def test_config_rejects_dre_fraction_outside_unit_interval(dre_fraction):
    # checked even when no requested method splits off a ratio-fitting side
    with pytest.raises(OutOfRange, match="dre_fraction"):
        ExperimentConfig(alpha_grid=(0.2,), methods=("raw",), dre_fraction=dre_fraction)


@pytest.mark.parametrize(
    "methods", [(), ("raw", "raw"), ("raw", "calibrated", "raw")],
    ids=["empty", "repeated", "repeated-apart"],
)
def test_config_rejects_empty_or_repeated_methods(methods):
    # a repeated method would be one (method, alpha) cell written twice
    with pytest.raises(OutOfRange, match="methods"):
        ExperimentConfig(alpha_grid=(0.2,), methods=methods)


def test_never_rejecting_method_scores_zero():
    # all scores sit well above alpha, so the raw rule can never fire
    items = [
        LabeledTrajectory(id=f"x{i}", scores=[0.8, 0.9], label=i % 2)
        for i in range(40)
    ]
    cfg = ExperimentConfig(
        alpha_grid=(0.2,), n_splits=1, cal_fraction=0.5, seed=3, methods=("raw",)
    )
    far, power = evaluate_split(items, cfg, derive_seed(3, 0))[("raw", 0.2)]
    assert far == 0.0 and power == 0.0


def test_always_rejecting_method_scores_one():
    items = [
        LabeledTrajectory(id=f"x{i}", scores=[0.001, 0.002], label=i % 2)
        for i in range(40)
    ]
    cfg = ExperimentConfig(
        alpha_grid=(0.2,), n_splits=1, cal_fraction=0.5, seed=3, methods=("raw",)
    )
    far, power = evaluate_split(items, cfg, derive_seed(3, 0))[("raw", 0.2)]
    assert far == 1.0 and power == 1.0


def test_evaluate_split_matches_run_offline(synth_data):
    # the harness fast path must agree with literal rule replay
    from seqgate.monitor import calibrated_score_rule, ratio_rule
    from seqgate.artifact import ville_threshold
    from seqgate.trajectories import split_calibration

    cfg = ExperimentConfig(
        alpha_grid=(0.3,),
        n_splits=1,
        cal_fraction=0.4,
        seed=11,
        methods=("evaluator_ville", "raw", "calibrated"),
    )
    split_seed = derive_seed(cfg.seed, 0)
    result = evaluate_split(synth_data, cfg, split_seed)

    cal, test = split_calibration(synth_data, cfg.cal_fraction, derive_seed(split_seed, 0))
    dre, _ = split_calibration(cal, cfg.dre_fraction, derive_seed(split_seed, 1))
    model = fit_ratio_model(dre)
    rules = {
        "evaluator_ville": ratio_rule(model, ville_threshold(0.3).value),
        "raw": raw_score_rule(0.3),
        "calibrated": calibrated_score_rule(pooled_isotonic(cal), 0.3),
    }
    for method, rule in rules.items():
        nulls = [item for item in test if item.label == 1]
        alts = [item for item in test if item.label == 0]
        far = sum(
            run_offline(rule, item)[0].decision == "rejected" for item in nulls
        ) / len(nulls)
        power = sum(
            run_offline(rule, item)[0].decision == "rejected" for item in alts
        ) / len(alts)
        assert result[(method, 0.3)] == (far, power)


def test_stages_take_a_plain_list_of_trajectories(synth_data):
    data = list(synth_data)
    assert fit_ratio_model(data) == fit_ratio_model(synth_data)
    cfg = ExperimentConfig(alpha_grid=(0.3,), n_splits=2, seed=4)
    assert run_experiment(data, cfg) == run_experiment(synth_data, cfg)


def test_single_split_collapses_interval(synth_data):
    cfg = ExperimentConfig(
        alpha_grid=(0.3,), n_splits=1, cal_fraction=0.3, seed=5, methods=("raw",)
    )
    (point,) = run_experiment(synth_data, cfg)
    assert point.far_lo == point.far_mean == point.far_hi
    assert point.power_lo == point.power_mean == point.power_hi


@pytest.mark.parametrize("kind", ["uniform", "ties", "scaled normal"])
def test_percentile_equals_numpy(kind):
    rng = np.random.default_rng(11)
    for n in range(1, 80):
        x = {
            "uniform": lambda: rng.random(n),
            "ties": lambda: rng.integers(0, 5, n) / 5.0,
            "scaled normal": lambda: rng.normal(size=n) * 10.0 ** int(rng.integers(-5, 5)),
        }[kind]()
        ordered = sorted(x.tolist())
        for p in (0.0, 2.5, 33.3, 50.0, 97.5, 100.0):
            assert _percentile(ordered, p) == float(np.percentile(x, p)), (n, p)


def test_run_experiment_leaves_numpy_ma_unimported():
    # np.percentile imports numpy.ma, about 15 ms per process
    script = (
        "import sys\n"
        "from seqgate.harness import ExperimentConfig, run_experiment\n"
        "from seqgate.synthetic import SyntheticSpec, sample_dataset\n"
        "data = sample_dataset(SyntheticSpec(), 200, seed=3)\n"
        "run_experiment(data, ExperimentConfig(alpha_grid=(0.1, 0.3), n_splits=3))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(seqgate.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_indexed_seed_derivation_is_prefix_stable(synth_data):
    cfg = ExperimentConfig(
        alpha_grid=(0.3,), n_splits=2, cal_fraction=0.3, seed=5, methods=("raw",)
    )
    first = [evaluate_split(synth_data, cfg, derive_seed(cfg.seed, i)) for i in range(2)]
    again = [evaluate_split(synth_data, cfg, derive_seed(cfg.seed, i)) for i in range(2)]
    assert first == again
    # run_experiment(n_splits=2) aggregates exactly these two cells
    (point,) = run_experiment(synth_data, cfg)
    fars = [first[i][("raw", 0.3)][0] for i in range(2)]
    assert point.far_mean == pytest.approx(float(np.mean(fars)), abs=1e-15)


def test_far_and_power_nondecreasing_in_alpha(synth_data):
    cfg = ExperimentConfig(
        alpha_grid=(0.1, 0.2, 0.35, 0.5),
        n_splits=1,
        cal_fraction=0.4,
        seed=2,
        methods=("evaluator_ville", "bonferroni", "raw", "calibrated"),
    )
    result = evaluate_split(synth_data, cfg, derive_seed(2, 0))
    for method in cfg.methods:
        fars = [result[(method, a)][0] for a in cfg.alpha_grid]
        powers = [result[(method, a)][1] for a in cfg.alpha_grid]
        assert all(x <= y + 1e-12 for x, y in zip(fars, fars[1:])), method
        assert all(x <= y + 1e-12 for x, y in zip(powers, powers[1:])), method


def test_bonferroni_never_beats_ville(synth_data):
    cfg = ExperimentConfig(
        alpha_grid=(0.1, 0.3, 0.5),
        n_splits=4,
        cal_fraction=0.4,
        seed=13,
        methods=("evaluator_ville", "bonferroni"),
    )
    for i in range(cfg.n_splits):
        result = evaluate_split(synth_data, cfg, derive_seed(cfg.seed, i))
        for a in cfg.alpha_grid:
            assert (
                result[("bonferroni", a)][1] <= result[("evaluator_ville", a)][1]
            )


def test_run_experiment_deterministic_csv(synth_data):
    cfg = ExperimentConfig(
        alpha_grid=(0.2, 0.4),
        n_splits=3,
        cal_fraction=0.3,
        seed=21,
        methods=("evaluator_ville", "raw"),
    )
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(buf, CurvePoint, run_experiment(synth_data, cfg))
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    header = outs[0].splitlines()[0]
    assert header == "method,alpha,far_mean,far_lo,far_hi,power_mean,power_lo,power_hi"


def test_pac_infeasible_cells_are_nan():
    # tiny calibration side: nulls can never certify alpha=0.05 at delta=0.05
    data = sample_dataset(SyntheticSpec(), 80, seed=31)
    cfg = ExperimentConfig(
        alpha_grid=(0.05, 0.5),
        n_splits=2,
        cal_fraction=0.3,
        seed=31,
        methods=("evaluator_pac", "evaluator_ville"),
    )
    points = run_experiment(data, cfg)
    by_key = {(p.method, p.alpha): p for p in points}
    assert math.isnan(by_key[("evaluator_pac", 0.05)].far_mean)
    assert not math.isnan(by_key[("evaluator_pac", 0.5)].far_mean)
    assert not math.isnan(by_key[("evaluator_ville", 0.05)].far_mean)


def test_token_study_requires_tokens(synth_data):
    cfg = ExperimentConfig(alpha_grid=(0.3,), n_splits=1, seed=1, methods=("raw",))
    with pytest.raises(MissingTokens):
        token_study(synth_data, cfg)


def test_token_study_definitional_two_trajectories():
    # hand-built: scores force the raw rule to reject the alternative at
    # step 2 (charging tokens[1]) and keep the null to completion
    items = [
        LabeledTrajectory(
            id="n", scores=[0.9, 0.9, 0.9], label=1, tokens=[10, 20, 30]
        ),
        LabeledTrajectory(
            id="a", scores=[0.9, 0.01, 0.9], label=0, tokens=[5, 7, 50]
        ),
    ] * 4
    data = [
        LabeledTrajectory(
            id=f"{item.id}{i}",
            scores=list(item.scores),
            label=item.label,
            tokens=list(item.tokens),
        )
        for i, item in enumerate(items)
    ]
    cfg = ExperimentConfig(
        alpha_grid=(0.1,), n_splits=1, cal_fraction=0.5, seed=9, methods=("raw",)
    )
    points = token_study(data, cfg)
    baseline = points[0]
    assert baseline.method == NEVER_TERMINATE and baseline.alpha == 0.0
    (raw_point,) = [p for p in points if p.method == "raw"]
    # every test alternative is cut at step 2: pays 7 instead of 50
    arts_test_n = baseline.accuracy * 4  # label-1 count in the 4-item test side
    expected_full = baseline.tokens_used
    n_alt = 4 - int(arts_test_n)
    assert raw_point.tokens_used == expected_full - n_alt * (50 - 7)
    assert raw_point.accuracy == baseline.accuracy  # no null was cut


def test_token_study_zero_rejections_keeps_budget(synth_data):
    # clip scores away from the threshold so the raw rule can never fire
    clipped = [
        LabeledTrajectory(
            id=item.id,
            scores=[max(s, 0.05) for s in item.scores],
            label=item.label,
            tokens=[100 * (t + 1) for t in range(len(item))],
        )
        for item in synth_data[:200]
    ]
    cfg = ExperimentConfig(
        alpha_grid=(0.001,), n_splits=1, cal_fraction=0.4, seed=17, methods=("raw",)
    )
    points = token_study(clipped, cfg)
    baseline, raw_point = points[0], points[1]
    assert raw_point.tokens_used == baseline.tokens_used
    assert raw_point.accuracy == baseline.accuracy


def test_token_csv_shape(synth_data):
    data = tokenized(synth_data[:200])
    cfg = ExperimentConfig(
        alpha_grid=(0.2,), n_splits=1, cal_fraction=0.4, seed=17, methods=("raw",)
    )
    buf = io.StringIO()
    write_csv(buf, TokenCurvePoint, token_study(data, cfg))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "method,alpha,tokens_used,accuracy"
    assert len(lines) == 3  # header + baseline + one method/alpha cell


def test_ablation_matches_run_experiment(synth_data):
    cfg = ExperimentConfig(
        alpha_grid=(0.3,), n_splits=2, cal_fraction=0.2, seed=4, methods=("raw",)
    )
    results = calibration_ablation(synth_data, cfg, [0.2])
    assert len(results) == 1
    assert results[0].error is None
    assert list(results[0].curves) == run_experiment(synth_data, cfg)


def test_ablation_reports_failures_without_aborting(synth_data):
    cfg = ExperimentConfig(
        alpha_grid=(0.3,), n_splits=2, cal_fraction=0.2, seed=4, methods=("raw",)
    )
    results = calibration_ablation(synth_data, cfg, [0.003, 0.3])
    assert results[0].error is not None and results[0].curves == ()
    assert results[1].error is None and len(results[1].curves) == 1


def test_ablation_checks_every_fraction_before_running_any(synth_data):
    cfg = ExperimentConfig(alpha_grid=(0.3,), n_splits=1, methods=("raw",))
    with mock.patch.object(harness, "run_experiment") as run:
        with pytest.raises(OutOfRange, match="cal_fraction"):
            calibration_ablation(synth_data, cfg, (0.2, 1.5))
    assert run.call_count == 0


def test_ablation_without_fractions_is_out_of_range(synth_data):
    cfg = ExperimentConfig(alpha_grid=(0.3,), n_splits=1, methods=("raw",))
    with pytest.raises(OutOfRange, match="fractions"):
        calibration_ablation(synth_data, cfg, [])


def test_ablation_without_fractions_from_an_iterator_is_out_of_range(synth_data):
    cfg = ExperimentConfig(alpha_grid=(0.3,), n_splits=1, methods=("raw",))
    with pytest.raises(OutOfRange, match="fractions"):
        calibration_ablation(synth_data, cfg, iter(()))


def test_ablation_with_a_repeated_fraction_is_out_of_range(synth_data):
    # the same fraction twice would write its rows twice
    cfg = ExperimentConfig(alpha_grid=(0.3,), n_splits=1, methods=("raw",))
    with pytest.raises(OutOfRange, match="distinct"):
        calibration_ablation(synth_data, cfg, [0.2, 0.3, 0.2])


def test_ablation_takes_a_numpy_array_of_fractions(synth_data):
    cfg = ExperimentConfig(alpha_grid=(0.3,), n_splits=1, methods=("raw",))
    results = calibration_ablation(synth_data, cfg, np.array([0.2, 0.3]))
    expected = calibration_ablation(synth_data, cfg, [0.2, 0.3])
    assert [r.cal_fraction for r in results] == [0.2, 0.3]
    assert results == expected


def test_true_ratio_rule_controls_far_through_monitor():
    # the exact ratio process with the 1/alpha threshold, replayed through
    # the monitor over a split's test side, keeps FAR within binomial noise
    spec = SyntheticSpec()
    from seqgate.synthetic import true_ratio_rule
    from seqgate.trajectories import split_calibration

    data = sample_dataset(spec, 2500, seed=29)
    _, test = split_calibration(data, 0.2, 1)
    nulls = [item for item in test if item.label == 1]
    for alpha in (0.1, 0.3, 0.5):
        rule = true_ratio_rule(spec, 1.0 / alpha)
        far = sum(
            run_offline(rule, item)[0].decision == "rejected" for item in nulls
        ) / len(nulls)
        assert far <= alpha + 3.0 * math.sqrt(alpha * (1 - alpha) / len(nulls))


def test_run_experiment_pac_far_mean_bounded():
    data = sample_dataset(SyntheticSpec(), 700, seed=37)
    cfg = ExperimentConfig(
        alpha_grid=(0.2, 0.5),
        n_splits=8,
        cal_fraction=0.4,
        seed=37,
        methods=("evaluator_pac",),
    )
    points = run_experiment(data, cfg)
    # roughly 250 nulls per test side; no averaging credit taken for splits
    # sharing the same underlying data
    for p in points:
        slack = 3.0 * math.sqrt(p.alpha * (1 - p.alpha) / 250)
        assert p.far_mean <= p.alpha + slack, (p.alpha, p.far_mean)


def test_ablation_far_stays_controlled_at_scale():
    data = sample_dataset(SyntheticSpec(), 5000, seed=17)
    cfg = ExperimentConfig(
        alpha_grid=(0.2, 0.5),
        n_splits=3,
        cal_fraction=0.2,
        seed=17,
        methods=("evaluator_pac", "evaluator_ville"),
    )
    results = calibration_ablation(data, cfg, [0.1, 0.2, 0.4])
    for res in results:
        assert res.error is None
        for p in res.curves:
            n_null_test = (1 - res.cal_fraction) * 5000 * 0.6
            slack = 3.0 * math.sqrt(p.alpha * (1 - p.alpha) / n_null_test)
            assert p.far_mean <= p.alpha + slack, (res.cal_fraction, p.alpha)


def test_token_study_oracle_rule_hits_upper_envelope():
    # alternatives open at a hopeless score: the raw rule cuts each one on
    # step 1 (paying tokens[0]) while every null survives, so accuracy stays
    # at the base rate with the minimal achievable token spend
    items = []
    for i in range(6):
        items.append(
            LabeledTrajectory(
                id=f"n{i}", scores=[0.9, 0.9], label=1, tokens=[100, 200]
            )
        )
        items.append(
            LabeledTrajectory(
                id=f"a{i}", scores=[0.01, 0.9], label=0, tokens=[80, 300]
            )
        )
    cfg = ExperimentConfig(
        alpha_grid=(0.1,), n_splits=1, cal_fraction=0.5, seed=5, methods=("raw",)
    )
    baseline, raw_point = token_study(items, cfg)
    n_alt = round((1 - baseline.accuracy) * 6)
    assert raw_point.accuracy == baseline.accuracy
    assert raw_point.tokens_used == baseline.tokens_used - n_alt * (300 - 80)
    # nothing cheaper exists without sacrificing a successful trajectory
    minimal = round(baseline.accuracy * 6) * 200 + n_alt * 80
    assert raw_point.tokens_used == minimal
