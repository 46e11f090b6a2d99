import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from oracles import (
    central_diff_gradient,
    exact_binomial_sf,
    isotonic_bruteforce,
    logistic_gradient,
    predict_proba,
)
from fractions import Fraction

from seqgate import kernels
from seqgate.errors import (
    DimensionMismatch,
    InvalidTrajectory,
    LengthMismatch,
    OutOfRange,
    SingleClassData,
)
from seqgate.artifact import FitConfig, _log_tails
from seqgate.kernels import (
    IsotonicModel,
    apply_isotonic,
    fit_isotonic,
    fit_logistic,
    logistic_objective,
)
from seqgate.synthetic import SyntheticSpec, sample_dataset


# ---------------------------------------------------------------- logistic

def test_fit_logistic_single_class():
    with pytest.raises(SingleClassData):
        fit_logistic([[0.1], [0.2]], [1, 1])


def test_fit_logistic_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fit_logistic([[0.1], [0.2, 0.3]], [0, 1])
    with pytest.raises(DimensionMismatch):
        fit_logistic([(0.1,), np.array([0.2, 0.3])], [0, 1])
    with pytest.raises(DimensionMismatch):
        fit_logistic(np.array([0.1, 0.2]), [0, 1])
    with pytest.raises(DimensionMismatch, match="3 feature vectors vs 2 labels"):
        fit_logistic([[0.1], [0.2], [0.3]], [0, 1])


def test_fit_logistic_label_validation():
    with pytest.raises(OutOfRange, match="labels must be binary 0/1"):
        fit_logistic([[0.1], [0.2]], [0, 2])
    with pytest.raises(OutOfRange, match="labels must be binary 0/1"):
        fit_logistic([[0.1], [0.2]], [0.5, 1])
    with pytest.raises(SingleClassData, match="need at least one example of each label"):
        fit_logistic([[0.1], [0.2]], np.zeros(2))
    with pytest.raises(SingleClassData):
        fit_logistic([], [])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "features, labels, what",
    [
        # inf * 0 makes the first logit nan
        ([[math.inf], [0.0]], [0, 1], "objective"),
        # four residuals of 0.5 times 1e308 sum past the largest float
        ([[1e308]] * 4 + [[0.0]], [0, 0, 0, 0, 1], "gradient"),
        # the gradient is 1e308 * (0.5 + 0.5 - 0.5), finite; w * 1e308^2 is not
        ([[1e308], [-1e308], [1e308], [0.0]], [0, 1, 1, 0], "Hessian"),
    ],
)
def test_fit_logistic_non_finite_fit_fails_closed(features, labels, what):
    with pytest.raises(InvalidTrajectory, match=f"the {what} of the logistic fit"):
        fit_logistic(features, labels)


def test_fit_logistic_zero_features_balanced():
    feats = [[0.0, 0.0]] * 10
    labels = [1] * 5 + [0] * 5
    model = fit_logistic(feats, labels, FitConfig(l2_lambda=0.7))
    assert np.allclose(model.weights, 0.0, atol=1e-12)
    assert abs(model.intercept) < 1e-12


def test_fit_logistic_separable_symmetric():
    # 1-D separable two-point data; by symmetry the midpoint stays at 0.5
    feats = [[-1.0]] * 50 + [[1.0]] * 50
    labels = [0] * 50 + [1] * 50
    cfg = FitConfig(l2_lambda=1.0)
    model = fit_logistic(feats, labels, cfg)
    assert predict_proba(model, [0.0], cfg.prob_clamp) == pytest.approx(0.5, abs=1e-9)

    # cross-check against a generic convex optimizer on the same objective
    Z = np.hstack([np.asarray(feats), np.ones((100, 1))])
    y = np.asarray(labels, dtype=float)
    res = optimize.minimize(
        logistic_objective,
        np.zeros(2),
        args=(Z, y, cfg.l2_lambda),
        jac=logistic_gradient,
        method="BFGS",
        options={"gtol": 1e-10},
    )
    assert np.allclose([model.weights[0], model.intercept], res.x, atol=1e-6)
    oracle_p_at_zero = 1.0 / (1.0 + math.exp(-res.x[1]))
    assert oracle_p_at_zero == pytest.approx(0.5, abs=1e-9)


def test_fit_logistic_matches_generic_optimizer():
    # independent route: scipy BFGS on the identical penalized objective
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 2))
    y = (X[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(int)
    cfg = FitConfig(l2_lambda=1.0)
    model = fit_logistic(X.tolist(), y.tolist(), cfg)
    Z = np.hstack([X, np.ones((60, 1))])
    res = optimize.minimize(
        logistic_objective,
        np.zeros(3),
        args=(Z, y.astype(float), cfg.l2_lambda),
        jac=logistic_gradient,
        method="BFGS",
        options={"gtol": 1e-10},
    )
    ours = np.array(list(model.weights) + [model.intercept])
    mine = logistic_objective(ours, Z, y.astype(float), cfg.l2_lambda)
    assert mine <= res.fun + 1e-8
    assert np.allclose(ours, res.x, atol=1e-5)


def test_fit_logistic_gradient_at_optimum():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(20, 80))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(int)
        if len(set(y.tolist())) < 2:
            continue
        cfg = FitConfig(l2_lambda=float(rng.uniform(0.01, 2.0)))
        model = fit_logistic(X.tolist(), y.tolist(), cfg)
        Z = np.hstack([X, np.ones((n, 1))])
        theta = np.array(list(model.weights) + [model.intercept])
        grad = logistic_gradient(theta, Z, y.astype(float), cfg.l2_lambda)
        assert np.max(np.abs(grad)) <= cfg.tolerance


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        Z = np.hstack([X, np.ones((n, 1))])
        lam = float(rng.uniform(0.0, 2.0))
        theta = rng.normal(scale=0.8, size=d + 1)
        grad = logistic_gradient(theta, Z, y, lam)
        num = central_diff_gradient(lambda th: logistic_objective(th, Z, y, lam), theta)
        denom = max(1.0, float(np.max(np.abs(num))))
        assert np.max(np.abs(grad - num)) / denom <= 1e-5


def newton_without_fixed_point_stop(features, labels, cfg, start=None):
    """Reference Newton loop from ``start`` (zeros if None) that runs until
    the gradient is small, step halving runs out or cfg.max_iters steps are
    taken; returns theta and the number of accepted steps."""
    y = np.asarray(labels, dtype=float)
    X = np.asarray(features, dtype=float)
    n, d = X.shape
    Z = np.hstack([X, np.ones((n, 1))])
    theta = np.zeros(d + 1) if start is None else np.array(start, dtype=float)
    obj = kernels.logistic_objective(theta, Z, y, cfg.l2_lambda)
    accepted = 0
    for _ in range(cfg.max_iters):
        mu = kernels._sigmoid(Z @ theta)
        grad = Z.T @ (mu - y)
        grad[:-1] += 2.0 * cfg.l2_lambda * theta[:-1]
        if float(np.max(np.abs(grad))) <= cfg.tolerance:
            break
        w = np.maximum(mu * (1.0 - mu), 1e-12)
        hess = Z.T @ (w[:, None] * Z)
        hess[np.arange(d), np.arange(d)] += 2.0 * cfg.l2_lambda
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        scale = 1.0
        while scale > 2.0 ** -40:
            cand = theta - scale * step
            cand_obj = kernels.logistic_objective(cand, Z, y, cfg.l2_lambda)
            if cand_obj <= obj:
                theta, obj = cand, cand_obj
                break
            scale *= 0.5
        else:
            break
        accepted += 1
    return theta, accepted


def assert_fit_matches_reference(features, labels, cfg, start=None):
    """fit_logistic == the reference loop; returns both objective-call counts."""
    with mock.patch.object(
        kernels, "logistic_objective", wraps=kernels.logistic_objective
    ) as calls:
        theta, accepted = newton_without_fixed_point_stop(features, labels, cfg, start)
        reference_calls = calls.call_count
        calls.reset_mock()
        model = fit_logistic(features, labels, cfg, start)
        fit_calls = calls.call_count
    assert model.weights == tuple(theta[:-1])
    assert model.intercept == float(theta[-1])
    return accepted, reference_calls, fit_calls


@st.composite
def logistic_problems(draw):
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))
    value = st.floats(-5.0, 5.0, allow_nan=False)
    features = [draw(st.lists(value, min_size=d, max_size=d)) for _ in range(n)]
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    labels[:2] = [0, 1]
    cfg = FitConfig(
        l2_lambda=draw(st.sampled_from([0.0, 0.02, 1.0])),
        max_iters=draw(st.integers(1, 100)),
    )
    start = draw(st.none() | st.lists(value, min_size=d + 1, max_size=d + 1))
    return features, labels, cfg, start


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(logistic_problems())
def test_fixed_point_stop_returns_the_full_loop_result(problem):
    assert_fit_matches_reference(*problem)


def stalled_long_trajectory_step(cfg):
    """Features and labels of a long-trajectory step on which the reference
    takes every Newton step, or None.

    The gradient's rounding floor can stay above cfg.tolerance. Where that
    floor lies depends on the BLAS build, so the step is searched for.
    """
    for seed in range(2, 8):
        data = sample_dataset(SyntheticSpec(stop_prob=0.05), 100, seed=seed)
        for t in range(1, 4):
            rows = [item for item in data if len(item) >= t]
            features = [item.scores[:t] for item in rows]
            labels = [item.label for item in rows]
            if len(set(labels)) < 2:
                continue
            _, accepted = newton_without_fixed_point_stop(features, labels, cfg)
            if accepted == cfg.max_iters:
                return features, labels
    return None


def test_fixed_point_stop_on_a_stalled_long_trajectory_step():
    cfg = FitConfig()
    stalled = stalled_long_trajectory_step(cfg)
    if stalled is None:
        pytest.skip("no candidate step stalls under this BLAS build")
    features, labels = stalled
    accepted, reference_calls, fit_calls = assert_fit_matches_reference(
        features, labels, cfg
    )
    assert accepted == cfg.max_iters
    assert fit_calls <= reference_calls / 4


def test_fit_logistic_keeps_its_start_when_no_step_lowers_the_objective():
    # every candidate, at step sizes 1 down to 2**-39, scores above the start,
    # so step halving runs out and the fit stops after its first Newton step
    start = np.array([0.5, -0.25])

    def objective(theta, Z, y, l2_lambda):
        return 0.0 if np.array_equal(theta, start) else 1.0

    with mock.patch.object(kernels, "logistic_objective", side_effect=objective) as calls:
        model = fit_logistic([[0.1], [0.9], [0.4]], [0, 1, 1], FitConfig(), start)
    assert calls.call_count == 1 + 40
    assert (model.weights, model.intercept) == ((0.5,), -0.25)


def test_fit_logistic_zero_start_is_the_default():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    y = (X[:, 1] + rng.normal(size=40) > 0).astype(int)
    assert fit_logistic(X, y, FitConfig(), (0.0, 0.0, 0.0)) == fit_logistic(X, y)


@pytest.mark.parametrize(
    "start", [(), (0.0, 0.0), (0.0, 0.0, 0.0, 0.0), [[0.0, 0.0, 0.0]]]
)
def test_fit_logistic_start_of_the_wrong_length(start):
    with pytest.raises(DimensionMismatch, match="start must hold 2 weights"):
        fit_logistic([[0.1, 0.2], [0.3, 0.4]], [0, 1], FitConfig(), start)


def test_fit_logistic_array_and_list_features_agree():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] + rng.normal(size=50) > 0).astype(int)
    from_list = fit_logistic([tuple(row) for row in X.tolist()], y.tolist())
    assert fit_logistic(X, y) == from_list
    assert fit_logistic(np.asfortranarray(X), y) == from_list


def test_predict_proba_neutral_model():
    from seqgate.artifact import LogisticModel

    model = LogisticModel(weights=(0.0,), intercept=0.0)
    assert predict_proba(model, [3.7]) == 0.5


def test_predict_proba_clamps():
    from seqgate.artifact import LogisticModel

    model = LogisticModel(weights=(0.0,), intercept=50.0)
    assert predict_proba(model, [0.0]) == 1.0 - 1e-6
    model = LogisticModel(weights=(0.0,), intercept=-50.0)
    assert predict_proba(model, [0.0]) == 1e-6


def test_predict_proba_unit_weight_at_zero():
    from seqgate.artifact import LogisticModel

    model = LogisticModel(weights=(1.0,), intercept=0.0)
    assert predict_proba(model, [0.0]) == 0.5


def test_predict_proba_dimension_mismatch():
    from seqgate.artifact import LogisticModel

    with pytest.raises(DimensionMismatch):
        predict_proba(LogisticModel(weights=(1.0, 2.0), intercept=0.0), [1.0])


# ---------------------------------------------------------------- isotonic

def test_fit_isotonic_already_monotone():
    model = fit_isotonic([1, 2, 3], [0, 1, 1])
    assert model.breakpoints == (1.0, 2.0)
    assert model.values == (0.0, 1.0)


def test_fit_isotonic_pools_violation():
    # frozen from the partition-enumeration oracle
    assert isotonic_bruteforce([1, 0, 1]) == [0.5, 0.5, 1.0]
    model = fit_isotonic([1, 2, 3], [1, 0, 1])
    assert model.breakpoints == (1.0, 3.0)
    assert model.values == (0.5, 1.0)


def test_fit_isotonic_two_point_violation():
    assert isotonic_bruteforce([1, 0]) == [0.5, 0.5]
    model = fit_isotonic([1, 2], [1, 0])
    assert model.breakpoints == (1.0,)
    assert model.values == (0.5,)


def test_fit_isotonic_length_mismatch():
    with pytest.raises(LengthMismatch):
        fit_isotonic([1, 2], [0])
    with pytest.raises(LengthMismatch):
        fit_isotonic([], [])


def test_fit_isotonic_ties_pool_first():
    model = fit_isotonic([1, 1, 2], [0, 1, 1])
    assert model.breakpoints == (1.0, 2.0)
    assert model.values == (0.5, 1.0)


def _expand(model, xs):
    return [apply_isotonic(model, x) for x in xs]


def test_fit_isotonic_matches_bruteforce_random():
    rng = np.random.default_rng(23)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        xs = rng.normal(size=n)
        while len(set(xs.tolist())) < n:
            xs = rng.normal(size=n)
        ys = (rng.random(n) < 0.5).astype(float)
        model = fit_isotonic(xs.tolist(), ys.tolist())
        order = np.argsort(xs)
        expected = isotonic_bruteforce([ys[i] for i in order])
        got = _expand(model, sorted(xs.tolist()))
        assert np.allclose(got, expected, atol=1e-9)


def test_apply_isotonic_step_semantics():
    model = IsotonicModel(breakpoints=(0.2, 0.8), values=(0.1, 0.9))
    assert apply_isotonic(model, 0.5) == 0.1
    assert apply_isotonic(model, 0.9) == 0.9
    assert apply_isotonic(model, 0.0) == 0.1
    assert apply_isotonic(model, 0.2) == 0.1
    assert apply_isotonic(model, 0.8) == 0.9
    assert type(apply_isotonic(model, 0.5)) is float
    # an array gives the scalar result per element: below the first
    # breakpoint, on each breakpoint, between them and above the last
    model = IsotonicModel(breakpoints=(0.25, 0.5, 0.75), values=(0.1, 0.4, 0.9))
    grid = np.array([[0.0, 0.25, 0.3], [0.5, 0.6, 0.75], [0.8, 1.0, -1.0]])
    got = apply_isotonic(model, grid)
    assert got.shape == grid.shape
    assert got.tolist() == [
        [apply_isotonic(model, s) for s in row] for row in grid.tolist()
    ]
    assert got.tolist() == [[0.1, 0.1, 0.1], [0.4, 0.4, 0.9], [0.9, 0.9, 0.1]]


def test_apply_isotonic_nondecreasing():
    rng = np.random.default_rng(31)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        xs = rng.normal(size=n).tolist()
        ys = (rng.random(n) < 0.5).astype(float).tolist()
        model = fit_isotonic(xs, ys)
        grid = np.linspace(min(xs) - 1, max(xs) + 1, 50)
        vals = _expand(model, grid)
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- binomial

def binomial_sf(n, p, k):
    """Pr[Bin(n, p) >= k] for 1 <= k <= n and 0 < p < 1, from the running
    log tails that pac_index walks."""
    return math.exp(list(_log_tails(n, p))[n - k])


def test_binomial_sf_examples():
    assert binomial_sf(2, 0.5, 1) == pytest.approx(0.75, abs=1e-12)
    assert binomial_sf(10, 0.9, 10) == pytest.approx(0.9**10, rel=1e-12)


def test_binomial_sf_monotone_in_k_and_p():
    for n in (3, 11, 25):
        for p in (0.1, 0.5, 0.93):
            vals = [binomial_sf(n, p, k) for k in range(1, n + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
        for k in (1, n // 2, n):
            vals = [binomial_sf(n, p, k) for p in (0.05, 0.3, 0.6, 0.95)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_binomial_sf_complements_lower_tail():
    # lower tail from the same exact-rational oracle, independence preserved
    for n in (5, 17, 40):
        for p in (0.2, 0.5, 0.8):
            for k in (1, n // 2, n):
                upper = binomial_sf(n, p, k)
                lower = float(1 - exact_binomial_sf(n, Fraction(p), k))
                assert upper + lower == pytest.approx(1.0, abs=1e-12)


def test_binomial_sf_against_exact_rational_spot():
    rng = np.random.default_rng(41)
    for trial in range(60):
        n = int(rng.integers(1, 61))
        p = float(rng.random())
        k = int(rng.integers(1, n + 1))
        exact = exact_binomial_sf(n, Fraction(p), k)
        got = binomial_sf(n, p, k)
        assert abs(got - float(exact)) / float(exact) <= 1e-10
