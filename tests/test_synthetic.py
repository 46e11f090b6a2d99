import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sample_dataset_oracle
from seqgate.cli import cli_dispatch
from seqgate.dataio import write_dataset
from seqgate.errors import OutOfRange
from seqgate.synthetic import (
    SyntheticSpec,
    item_states,
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


# 2**96 + 12345 has four entropy words, so i is a fifth word past the pool
SEEDS = [0, 1, 2, 5, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**96 + 12345]


@pytest.mark.parametrize("seed", SEEDS)
def test_item_states_equal_numpy_seed_sequence(seed):
    states = item_states(seed, 3000)
    assert states.shape == (3000, 4) and states.dtype == np.uint64
    for i in range(0, 3000, 7):
        expected = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
        assert states[i].tolist() == expected.tolist(), i


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 37])
@pytest.mark.parametrize("label", [None, 0, 1])
def test_sample_dataset_equals_per_item_seed_sequence(seed, n, label):
    spec = SyntheticSpec(stop_prob=0.1)
    assert sample_dataset(spec, n, seed, label) == sample_dataset_oracle(spec, n, seed, label)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**130 - 1), st.integers(0, 50))
def test_sample_dataset_equals_oracle_property(seed, n):
    spec = SyntheticSpec()
    assert sample_dataset(spec, n, seed) == sample_dataset_oracle(spec, n, seed)


def test_synth_file_equals_oracle_file(tmp_path):
    out, expected = tmp_path / "synth.jsonl", tmp_path / "oracle.jsonl"
    argv = ["synth", "--n", "200", "--seed", str(2**64 + 3), "--out", str(out)]
    assert cli_dispatch(argv) == 0
    write_dataset(sample_dataset_oracle(SyntheticSpec(), 200, 2**64 + 3), expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("seed", [-1, 2.5, "7", True])
def test_sample_dataset_rejects_a_seed_that_is_no_non_negative_int(seed):
    # True would otherwise be seed 1, with items named synth-True-000000
    with pytest.raises(OutOfRange, match="^seed must be an integer >= 0"):
        sample_dataset(SyntheticSpec(), 3, seed)
    with pytest.raises(OutOfRange, match="^seed must be an integer >= 0"):
        item_states(seed, 3)


def test_item_states_refuses_n_past_one_entropy_word():
    with pytest.raises(OutOfRange, match="^n must be an integer in"):
        item_states(0, 2**32)


def test_a_length_numpy_cannot_hold_fails_closed(tmp_path, capsys):
    # numpy refuses an array of 2**63 - 1 scores before allocating any
    spec = SyntheticSpec(stop_prob=1e-300)
    with pytest.raises(OutOfRange, match="stop_prob=1e-300 drew a trajectory"):
        sample_dataset(spec, 3, seed=0)
    out = tmp_path / "x.jsonl"
    argv = ["synth", "--n", "3", "--spec", '{"stop_prob": 1e-300}', "--out", str(out)]
    assert cli_dispatch(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR OUT_OF_RANGE: stop_prob=1e-300")
    assert not out.exists()


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
