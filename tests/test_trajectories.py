import numpy as np
import pytest

from seqgate.errors import DegenerateSplit, InvalidTrajectory, OutOfRange
from seqgate.trajectories import (
    CalibrationSet,
    LabeledTrajectory,
    SplitConfig,
    _per_label_take,
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


def reference_split(cal, cfg):
    """split_calibration written item by item: the same permutation calls in
    the same order, each side in input order."""
    k = int(np.floor(cfg.dre_fraction * len(cal) + 0.5))
    take = _per_label_take({y: cal.labels().count(y) for y in (1, 0)}, k)
    rng = np.random.default_rng(cfg.seed)
    chosen = set()
    for label in (1, 0):
        idx = [i for i, item in enumerate(cal.items) if item.label == label]
        order = rng.permutation(len(idx))
        chosen.update(idx[j] for j in order[: take[label]])
    first = [item for i, item in enumerate(cal.items) if i in chosen]
    second = [item for i, item in enumerate(cal.items) if i not in chosen]
    return CalibrationSet(first), CalibrationSet(second)


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
        assert (first, second) == reference_split(cal, SplitConfig(frac, seed=trial))


def test_split_config_validates_fraction():
    with pytest.raises(OutOfRange):
        SplitConfig(0.0, seed=1)
    with pytest.raises(OutOfRange):
        SplitConfig(1.0, seed=1)
