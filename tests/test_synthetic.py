import math

import numpy as np
import pytest

from seqgate.synthetic import (
    SyntheticSpec,
    sample_dataset,
    sample_trajectory,
    toy_marginal_example,
    true_ratio_process,
    true_ratio_rule,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(mu_null=0.5, mu_alt=0.5)
    with pytest.raises(ValueError):
        SyntheticSpec(sigma=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(stop_prob=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(prior_1=1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sigma", math.inf),
        ("mu_null", math.nan),
        ("mu_alt", [1, 2]),
        ("sigma", True),
        ("stop_prob", "0.5"),
        ("sigma", 10**400),
    ],
    ids=["inf", "nan", "list", "bool", "str", "int too large for a float"],
)
def test_spec_fields_must_be_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        SyntheticSpec(**{field: value})


def test_stop_prob_one_gives_single_step():
    spec = SyntheticSpec(stop_prob=1.0)
    for seed in range(20):
        assert len(sample_trajectory(spec, 1, seed)) == 1


def test_sampling_deterministic():
    spec = SyntheticSpec()
    t1 = sample_trajectory(spec, 0, seed=123)
    t2 = sample_trajectory(spec, 0, seed=123)
    assert t1 == t2
    d1 = sample_dataset(spec, 25, seed=5)
    d2 = sample_dataset(spec, 25, seed=5)
    assert d1 == d2


def test_dataset_prefix_stability():
    spec = SyntheticSpec()
    d_small = sample_dataset(spec, 10, seed=5)
    d_big = sample_dataset(spec, 20, seed=5)
    assert d_big.items[:10] == d_small.items


def test_first_step_mean_matches_label():
    spec = SyntheticSpec()
    data = sample_dataset(spec, 10000, seed=88, label=1)
    first = np.array([item.scores[0] for item in data])
    assert abs(first.mean() - spec.mu_null) <= 4 * spec.sigma / 100


def test_true_ratio_midpoint_is_one():
    spec = SyntheticSpec()
    mid = (spec.mu_null + spec.mu_alt) / 2
    proc = true_ratio_process(spec, [mid, mid, mid])
    assert proc == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_true_ratio_single_score_closed_form():
    spec = SyntheticSpec(mu_null=0.0, mu_alt=1.0, sigma=1.0)
    # frozen: ratio of the two Gaussian densities at x = 1
    assert true_ratio_process(spec, [1.0])[0] == pytest.approx(
        1.6487212707001282, rel=1e-12
    )


def test_true_ratio_swap_inverts():
    spec = SyntheticSpec()
    swapped = SyntheticSpec(mu_null=spec.mu_alt, mu_alt=spec.mu_null, sigma=spec.sigma)
    scores = [0.55, 0.3, 0.81, 0.4]
    forward = true_ratio_process(spec, scores)
    backward = true_ratio_process(swapped, scores)
    for f, b in zip(forward, backward):
        assert f * b == pytest.approx(1.0, abs=1e-12)


def test_true_ratio_rule_matches_process():
    spec = SyntheticSpec()
    traj = sample_trajectory(spec, 1, seed=77)
    rule = true_ratio_rule(spec, threshold=10.0)
    proc = true_ratio_process(spec, traj.scores)
    for t in range(1, len(traj) + 1):
        assert rule.value(traj.scores[:t]) == pytest.approx(
            proc[t - 1], rel=1e-12
        )


def test_toy_marginal_example_exact():
    result = toy_marginal_example()
    assert result.base_rate == 0.00995
    assert result.alpha == 0.01
    assert result.far == pytest.approx(0.49748743718592964, abs=1e-9)
    assert result.far / result.alpha == pytest.approx(49.748743718592964, rel=1e-9)
