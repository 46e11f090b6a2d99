import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import derive_seed_oracle, permutations_oracle, split_calibration_oracle
from seqgate.errors import DegenerateSplit, InvalidTrajectory, OutOfRange
from seqgate.trajectories import (
    CalibrationSet,
    LabeledTrajectory,
    SplitConfig,
    SplitStream,
    _per_label_take,
    derive_seed,
    split_calibration,
)


def make_set(labels, length=3):
    return CalibrationSet(
        [
            LabeledTrajectory(id=f"t{i}", scores=[0.5] * length, label=y)
            for i, y in enumerate(labels)
        ]
    )


def test_validate_accepts_well_formed():
    traj = LabeledTrajectory(id="a", scores=[0.9, 0.8], label=1, tokens=[3, 3])
    assert (traj.id, traj.scores, traj.label, traj.tokens) == ("a", (0.9, 0.8), 1, (3, 3))


def test_validate_rejects_empty_scores():
    with pytest.raises(InvalidTrajectory) as err:
        LabeledTrajectory(id="a", scores=[], label=0)
    assert err.value.field == "scores"
    assert err.value.trajectory_id == "a"


def test_validate_rejects_token_length_mismatch():
    with pytest.raises(InvalidTrajectory) as err:
        LabeledTrajectory(id="b", scores=[0.5], label=0, tokens=[10, 20])
    assert err.value.field == "tokens"


def test_validate_rejects_nonfinite_scores():
    with pytest.raises(InvalidTrajectory):
        LabeledTrajectory(id="c", scores=[0.5, float("nan")], label=1)
    with pytest.raises(InvalidTrajectory):
        LabeledTrajectory(id="c", scores=[float("inf")], label=1)


def test_validate_rejects_bad_label():
    with pytest.raises(InvalidTrajectory) as err:
        LabeledTrajectory(id="d", scores=[0.5], label=2)
    assert err.value.field == "label"


def test_validate_rejects_decreasing_tokens():
    with pytest.raises(InvalidTrajectory):
        LabeledTrajectory(id="e", scores=[0.5, 0.4], label=1, tokens=[20, 10])


def test_validate_rejects_negative_tokens():
    with pytest.raises(InvalidTrajectory):
        LabeledTrajectory(id="f", scores=[0.5], label=1, tokens=[-1])


def test_split_sizes_and_partition():
    cal = make_set([1] * 5 + [0] * 5)
    first, second = split_calibration(cal, SplitConfig(0.5, seed=7))
    assert len(first) == 5 and len(second) == 5
    ids_first = {item.id for item in first}
    ids_second = {item.id for item in second}
    assert ids_first.isdisjoint(ids_second)
    assert ids_first | ids_second == {item.id for item in cal}


def test_split_stratifies_small_sets():
    cal = make_set([1, 1, 0, 0])
    first, second = split_calibration(cal, SplitConfig(0.5, seed=3))
    assert sorted(item.label for item in first) == [0, 1]
    assert sorted(item.label for item in second) == [0, 1]


def test_split_deterministic():
    cal = make_set([1, 0] * 8)
    a1, b1 = split_calibration(cal, SplitConfig(0.3, seed=11))
    a2, b2 = split_calibration(cal, SplitConfig(0.3, seed=11))
    assert [i.id for i in a1] == [i.id for i in a2]
    assert [i.id for i in b1] == [i.id for i in b2]


def test_split_different_seeds_differ():
    cal = make_set([1, 0] * 20)
    a1, _ = split_calibration(cal, SplitConfig(0.5, seed=1))
    a2, _ = split_calibration(cal, SplitConfig(0.5, seed=2))
    assert {i.id for i in a1} != {i.id for i in a2}


def test_split_degenerate_single_label():
    with pytest.raises(DegenerateSplit):
        split_calibration(make_set([1, 1, 1, 1]), SplitConfig(0.5, seed=0))


def test_split_degenerate_one_item_of_a_label():
    with pytest.raises(DegenerateSplit):
        split_calibration(make_set([1, 1, 1, 0]), SplitConfig(0.5, seed=0))


def test_split_degenerate_empty():
    with pytest.raises(DegenerateSplit):
        split_calibration(CalibrationSet([]), SplitConfig(0.5, seed=0))


def test_per_label_take_keeps_both_labels_on_both_sides():
    # every (n1, n0, k) on a small grid: either DegenerateSplit from the
    # guard, or quotas that leave at least one item of each label per side
    for n1 in range(31):
        for n0 in range(31):
            for k in range(n1 + n0 + 1):
                feasible = n1 >= 2 and n0 >= 2 and 2 <= k <= n1 + n0 - 2
                try:
                    take = _per_label_take({1: n1, 0: n0}, k)
                except DegenerateSplit:
                    assert not feasible, (n1, n0, k)
                    continue
                assert feasible, (n1, n0, k)
                assert take[1] + take[0] == k
                assert 1 <= take[1] <= n1 - 1 and 1 <= take[0] <= n0 - 1, (n1, n0, k)


def test_split_partition_property_random():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n1 = int(rng.integers(2, 20))
        n0 = int(rng.integers(2, 20))
        labels = [1] * n1 + [0] * n0
        rng.shuffle(labels)
        cal = make_set(labels)
        frac = float(rng.uniform(0.15, 0.85))
        k = int(np.floor(frac * len(cal) + 0.5))
        if not (2 <= k <= len(cal) - 2):
            continue
        try:
            first, second = split_calibration(cal, SplitConfig(frac, seed=trial))
        except DegenerateSplit:
            continue
        assert len(first) == k
        assert len(first) + len(second) == len(cal)
        assert {i.id for i in first}.isdisjoint({i.id for i in second})
        for side in (first, second):
            assert {item.label for item in side} == {0, 1}
        assert (first, second) == split_calibration_oracle(cal, SplitConfig(frac, seed=trial))


def test_split_config_validates_fraction():
    with pytest.raises(OutOfRange):
        SplitConfig(0.0, seed=1)
    with pytest.raises(OutOfRange):
        SplitConfig(1.0, seed=1)


# seeds of one to seven 32-bit words; past four, the words overflow the pool
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 5, 2**128 - 1, 2**200 + 9]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**128 - 1), st.integers(0, 3000))
def test_split_stream_equals_default_rng_property(seed, n):
    assert SplitStream(seed).permutation(range(n)) == permutations_oracle(seed, [n])[0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**128 - 1), st.lists(st.integers(0, 2**64), max_size=3))
def test_derive_seed_equals_seed_sequence_property(master, key):
    assert derive_seed(master, *key) == derive_seed_oracle(master, *key)


@pytest.mark.parametrize("seed", SEEDS)
def test_successive_permutations_share_one_stream(seed):
    # odd draw counts leave a half-word that the next permutation starts on
    sizes = [3, 5, 0, 1, 2, 17, 2, 400, 9]
    stream, orders, kept = SplitStream(seed), [], []
    for n in sizes:
        orders.append(stream.permutation(range(n)))
        kept.append(stream.half is not None)
    assert orders == permutations_oracle(seed, sizes)
    assert any(kept[:-1])


@pytest.mark.parametrize("seed", SEEDS)
def test_derive_seed_equals_seed_sequence(seed):
    # keys of several words each: the entropy runs past the four-word pool
    for key in [(), (0,), (1,), (3, 2**40), (2**96 + 1, 5, 2**70)]:
        assert derive_seed(seed, *key) == derive_seed_oracle(seed, *key), key


@pytest.mark.parametrize("n, expected", [(0, []), (1, [0]), (2, [1, 0])])
def test_short_permutations_are_pinned(n, expected):
    # 0 and 1 items draw nothing, so the next permutation is the first one's
    stream = SplitStream(3)
    assert stream.permutation(range(n)) == expected == permutations_oracle(3, [n])[0]
    assert stream.permutation(range(5)) == permutations_oracle(3, [n, 5])[1]


def test_permutation_shuffles_the_values_given():
    stream, again = SplitStream(11), SplitStream(11)
    order = again.permutation(range(6))
    assert stream.permutation("abcdef") == ["abcdef"[i] for i in order]


@pytest.mark.parametrize("seed", SEEDS)
def test_split_equals_numpy_oracle(seed):
    cal = make_set([1, 0, 0, 1, 1] * 40)
    for frac in (0.2, 0.5, 0.73):
        cfg = SplitConfig(frac, seed=seed)
        assert split_calibration(cal, cfg) == split_calibration_oracle(cal, cfg)


@pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
def test_derived_and_split_seeds_are_counts(seed):
    with pytest.raises(OutOfRange, match="^seed must be an integer >= 0"):
        derive_seed(seed, 0)
    with pytest.raises(OutOfRange, match="^seed must be an integer >= 0"):
        SplitStream(seed)
