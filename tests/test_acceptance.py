"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Statistical criteria run at fixed seeds with the slack stated in their
contracts; oracle criteria compare against exact independent computations.
"""

import io
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    calibrated_score_rule,
    central_diff_gradient,
    exact_binomial_tails,
    isotonic_bruteforce,
    logistic_gradient,
    pac_index_oracle,
    run_offline,
    toy_marginal_example,
    true_ratio_process,
)

from seqgate.artifact import _log_tails, pac_index, pac_threshold
from seqgate.cli import cli_dispatch
from seqgate.dataio import centipawn_to_prob, write_dataset
from seqgate.errors import InsufficientCalibration
from seqgate.harness import ExperimentConfig, evaluate_split, pooled_isotonic
from seqgate.kernels import (
    fit_isotonic,
    apply_isotonic,
    logistic_objective,
)
from seqgate.monitor import MonitorState, ratio_rule, raw_score_rule
from seqgate.ratio import fit_ratio_model
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.trajectories import derive_seed, split_calibration


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def null_max_ratios(spec, n, seed):
    data = sample_dataset(spec, n, seed=seed, label=1)
    return np.array(
        [max(true_ratio_process(spec, item.scores)) for item in data]
    )


def test_criterion_01_ville_guarantee():
    with criterion(1, "Ville guarantee with true ratios"):
        start = time.monotonic()
        spec = SyntheticSpec()
        maxima = null_max_ratios(spec, 10_000, seed=2024)
        for alpha in (0.05, 0.1, 0.2, 0.5):
            far = float(np.mean(maxima >= 1.0 / alpha))
            slack = 3.0 * math.sqrt(alpha * (1.0 - alpha) / 10_000)
            assert far <= alpha + slack, (alpha, far)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_pac_guarantee():
    with criterion(2, "PAC threshold coverage"):
        start = time.monotonic()
        spec = SyntheticSpec()
        pool = null_max_ratios(spec, 20_000, seed=777)
        delta, reps, n_cal = 0.05, 500, 500
        bound = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / reps)
        for alpha in (0.1, 0.5):
            violations = 0
            for c in range(reps):
                maxima = null_max_ratios(spec, n_cal, seed=10_000 + c)
                thr = pac_threshold(maxima.tolist(), alpha, delta).value
                conditional_far = float(np.mean(pool >= thr))
                violations += conditional_far > alpha
            assert violations / reps <= bound, (alpha, violations / reps)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_03_pac_index_exact():
    with criterion(3, "pac_index matches exact-rational oracle"):
        alphas = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75)
        deltas = (0.01, 0.05, 0.1, 0.2, 0.3)
        for n in range(1, 41):
            for alpha in alphas:
                for delta in deltas:
                    expected = pac_index_oracle(n, Fraction(alpha), Fraction(delta))
                    if expected is None:
                        with pytest.raises(InsufficientCalibration):
                            pac_index(n, alpha, delta)
                    else:
                        assert pac_index(n, alpha, delta) == expected, (n, alpha, delta)


def test_criterion_04_martingale_unit_mean():
    with criterion(4, "martingale unit mean under the null"):
        spec = SyntheticSpec()
        data = sample_dataset(spec, 50_000, seed=31, label=1)
        for t in (1, 2, 3):
            vals = np.array(
                [
                    true_ratio_process(spec, item.scores)[t - 1]
                    for item in data
                    if len(item) >= t
                ]
            )
            se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
            assert abs(float(vals.mean()) - 1.0) <= 4.0 * se, (t, vals.mean(), se)


def test_criterion_05_log_optimality_surrogate():
    with criterion(5, "log-optimality over a mismatched e-process"):
        spec = SyntheticSpec()
        mismatched = SyntheticSpec(mu_null=spec.mu_null, mu_alt=0.1, sigma=spec.sigma)
        data = sample_dataset(spec, 10_000, seed=57, label=0)
        diffs = []
        for item in data:
            true_log = math.log(true_ratio_process(spec, item.scores)[-1])
            wrong_log = math.log(true_ratio_process(mismatched, item.scores)[-1])
            diffs.append(true_log - wrong_log)
        diffs = np.array(diffs)
        se = float(diffs.std(ddof=1)) / math.sqrt(len(diffs))
        assert float(diffs.mean()) > 3.0 * se


def test_criterion_06_kernel_oracles():
    with criterion(6, "kernel oracles (PAVA, gradient, binomial)"):
        # PAVA vs brute-force monotone least squares, 1000 instances
        rng = np.random.default_rng(23)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            xs = rng.normal(size=n)
            while len(set(xs.tolist())) < n:
                xs = rng.normal(size=n)
            ys = (rng.random(n) < 0.5).astype(float)
            model = fit_isotonic(xs.tolist(), ys.tolist())
            order = np.argsort(xs)
            expected = isotonic_bruteforce([ys[i] for i in order])
            got = [apply_isotonic(model, x) for x in sorted(xs.tolist())]
            assert np.max(np.abs(np.array(got) - np.array(expected))) <= 1e-9

        # analytic gradient vs central finite differences
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            Z = np.hstack([X, np.ones((n, 1))])
            lam = float(rng.uniform(0.0, 2.0))
            theta = rng.normal(scale=0.8, size=d + 1)
            grad = logistic_gradient(theta, Z, y, lam)
            num = central_diff_gradient(
                lambda th: logistic_objective(th, Z, y, lam), theta
            )
            denom = max(1.0, float(np.max(np.abs(num))))
            assert float(np.max(np.abs(grad - num))) / denom <= 1e-5

        # the binomial upper tails pac_index walks, k = n down to 1, vs exact
        # rational arithmetic, all n <= 60
        for n in range(1, 61):
            for p in (0.05, 0.17, 0.3, 0.5, 0.73, 0.9, 0.99):
                tails = exact_binomial_tails(n, Fraction(p))
                for k, log_tail in zip(range(n, 0, -1), _log_tails(n, p)):
                    exact = float(tails[k])
                    rel = abs(math.exp(log_tail) - exact) / exact
                    assert rel <= 1e-10, (n, p, k)


def test_criterion_07_toy_marginal_example():
    with criterion(7, "marginal calibration toy example"):
        result = toy_marginal_example()
        assert result.base_rate == 0.00995
        assert abs(result.far - 0.49748743718592964) <= 1e-6
        assert result.alpha == 0.01


def test_criterion_08_power_and_conservativeness_ordering():
    with criterion(8, "power ordering and FAR control, estimated ratios"):
        spec = SyntheticSpec()
        data = sample_dataset(spec, 4000, seed=7)
        methods = ("evaluator_pac", "evaluator_ville", "bonferroni")
        cfg = ExperimentConfig(
            alpha_grid=(0.05, 0.1, 0.2, 0.3, 0.5),
            n_splits=1,
            cal_fraction=0.5,
            delta=0.05,
            seed=7,
            methods=methods,
        )
        result = evaluate_split(data, cfg, derive_seed(cfg.seed, 0))
        split_seed = derive_seed(derive_seed(cfg.seed, 0), 0)
        _, test = split_calibration(data, cfg.cal_fraction, split_seed)
        n_null = sum(item.label == 1 for item in test)
        n_alt = len(test) - n_null

        def se(p, n):
            return math.sqrt(max(p * (1.0 - p), 1e-12) / n)

        for alpha in cfg.alpha_grid:
            far = {m: result[(m, alpha)][0] for m in methods}
            power = {m: result[(m, alpha)][1] for m in methods}
            for m in methods:
                assert far[m] <= alpha + 2.0 * se(alpha, n_null), (m, alpha, far[m])
            pairs = [
                ("evaluator_pac", "evaluator_ville"),
                ("evaluator_ville", "bonferroni"),
            ]
            for hi, lo in pairs:
                slack = 2.0 * max(se(power[hi], n_alt), se(power[lo], n_alt))
                assert power[hi] >= power[lo] - slack, (hi, lo, alpha)


def test_criterion_09_chess_formula():
    with criterion(9, "centipawn conversion formula"):
        assert centipawn_to_prob(0.0) == 0.5
        for s in (1.0, 37.0, 250.0, 1800.0):
            assert abs(centipawn_to_prob(-s) - (1.0 - centipawn_to_prob(s))) <= 1e-15
        mp.mp.dps = 40
        oracle = float(1 / (1 + mp.e ** (mp.mpf("-0.00368208") * 100)))
        assert abs(centipawn_to_prob(100.0) - oracle) <= 1e-9


def test_criterion_10_determinism_and_replay(tmp_path):
    with criterion(10, "deterministic evaluate CSV and streaming replay"):
        spec = SyntheticSpec()
        data_path = tmp_path / "data.jsonl"
        write_dataset(sample_dataset(spec, 400, seed=19), data_path)
        args = [
            "evaluate", "--data", str(data_path), "--alphas", "0.1,0.3,0.5",
            "--splits", "10", "--cal-fraction", "0.3",
            "--methods", "evaluator_pac,evaluator_ville,raw,calibrated",
            "--seed", "19",
        ]
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli_dispatch(args + ["--out", str(out1)]) == 0
        assert cli_dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        # streaming == offline replay on 1000 random trajectories
        replay = sample_dataset(spec, 1000, seed=91)
        cal = sample_dataset(spec, 400, seed=92)
        model = fit_ratio_model(sample_dataset(spec, 300, seed=93))
        rules = [
            ratio_rule(model, 10.0),
            raw_score_rule(0.3),
            calibrated_score_rule(pooled_isotonic(cal), 0.3),
        ]
        mismatches = 0
        for rule in rules:
            for item in replay:
                offline_status, _ = run_offline(rule, item)
                state = MonitorState(rule)
                for score in item.scores:
                    if state.observe(score).terminal:
                        break
                mismatches += state.finalize() != offline_status
        assert mismatches == 0


def test_criterion_11_paper_protocol_hook(tmp_path):
    with criterion(11, "paper-protocol hook on user-style data (not gated)"):
        # any user-supplied JSONL runs the reported protocol end to end:
        # 20% calibration, 50 random splits, 95% percentile intervals
        data_path = tmp_path / "scores.jsonl"
        write_dataset(sample_dataset(SyntheticSpec(), 500, seed=123), data_path)
        out = tmp_path / "curves.csv"
        code = cli_dispatch(
            [
                "evaluate", "--data", str(data_path), "--alphas", "0.2,0.35,0.5",
                "--splits", "50", "--cal-fraction", "0.2",
                "--methods", "evaluator_pac,evaluator_ville,raw,calibrated",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "method,alpha,far_mean,far_lo,far_hi,power_mean,power_lo,power_hi"
        )
        assert len(lines) == 1 + 4 * 3

        # token-curve protocol on token-bearing data
        items = sample_dataset(SyntheticSpec(), 300, seed=321)
        from seqgate.trajectories import LabeledTrajectory

        with_tokens = [
            LabeledTrajectory(
                id=item.id,
                scores=list(item.scores),
                label=item.label,
                tokens=[120 * (t + 1) for t in range(len(item))],
            )
            for item in items
        ]
        tok_path = tmp_path / "tokens.jsonl"
        write_dataset(with_tokens, tok_path)
        tok_out = tmp_path / "tokens.csv"
        code = cli_dispatch(
            [
                "tokens", "--data", str(tok_path), "--alphas", "0.2,0.5",
                "--methods", "evaluator_pac,raw", "--seed", "1",
                "--out", str(tok_out),
            ]
        )
        assert code == 0
        assert tok_out.read_text().splitlines()[0] == "method,alpha,tokens_used,accuracy"

        # the reference numbers from the original experiments are recorded in
        # the README as context and marked non-reproducible without the
        # original score files
        import pathlib

        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        for needle in ("0.84", "0.81", "0.48", "0.61", "333,283", "not reproducible"):
            assert needle in text, f"README missing reference marker {needle!r}"
