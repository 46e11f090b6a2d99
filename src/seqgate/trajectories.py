"""Core data types: labeled score trajectories, calibration sets,
and the seeded stratified splits every downstream stage consumes.

Label convention: 1 marks a successful trajectory (the null hypothesis of
monitoring), 0 an unsuccessful one (the alternative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .artifact import DEFAULT_DRE_FRACTION, probability
from .errors import DegenerateSplit, InvalidTrajectory


@dataclass(frozen=True)
class LabeledTrajectory:
    """Ordered per-step verifier scores plus the trajectory-level outcome label.

    ``tokens``, when present, holds cumulative token counts after each step
    (same length as scores, non-decreasing).
    """

    id: str
    scores: tuple
    label: int
    tokens: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "scores", tuple(map(float, self.scores)))
        if self.tokens is not None:
            object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class CalibrationSet:
    """An ordered collection of labeled trajectories."""

    items: tuple

    def __init__(self, items: Sequence[LabeledTrajectory]):
        object.__setattr__(self, "items", tuple(items))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def labels(self) -> list:
        return [item.label for item in self.items]


@dataclass(frozen=True)
class SplitConfig:
    """Fraction of items routed to the first (ratio-fitting) side, a
    ``probability``, plus seed."""

    dre_fraction: float = DEFAULT_DRE_FRACTION
    seed: int = 0

    def __post_init__(self):
        probability(self.dre_fraction, "dre_fraction")


def validate(raw: LabeledTrajectory, line: Optional[int] = None) -> LabeledTrajectory:
    """Check all trajectory invariants, returning the input unchanged.

    Raises InvalidTrajectory naming the offending trajectory and field.
    """
    scores = raw.scores
    if len(scores) == 0:
        raise InvalidTrajectory(
            "empty score sequence", trajectory_id=raw.id, field="scores", line=line
        )
    if not all(map(math.isfinite, scores)):
        s = next(s for s in scores if not math.isfinite(s))
        raise InvalidTrajectory(
            f"non-finite score {s!r}", trajectory_id=raw.id, field="scores", line=line
        )
    if raw.label not in (0, 1):
        raise InvalidTrajectory(
            f"label must be 0 or 1, got {raw.label!r}",
            trajectory_id=raw.id, field="label", line=line,
        )
    if raw.tokens is not None:
        if len(raw.tokens) != len(scores):
            raise InvalidTrajectory(
                f"tokens length {len(raw.tokens)} != scores length {len(scores)}",
                trajectory_id=raw.id, field="tokens", line=line,
            )
        prev = 0
        for tok in raw.tokens:
            if not isinstance(tok, int) or isinstance(tok, bool) or tok < 0:
                raise InvalidTrajectory(
                    f"token counts must be non-negative integers, got {tok!r}",
                    trajectory_id=raw.id, field="tokens", line=line,
                )
            if tok < prev:
                raise InvalidTrajectory(
                    "token counts must be non-decreasing",
                    trajectory_id=raw.id, field="tokens", line=line,
                )
            prev = tok
    return raw


def derive_seed(master: int, *key) -> int:
    """Stable indexed sub-seed derivation."""
    return int(np.random.SeedSequence((master,) + tuple(key)).generate_state(1)[0])


def offsets(sequences) -> np.ndarray:
    """Start index of each sequence in the concatenation of all of them."""
    lengths = np.fromiter(map(len, sequences), int, count=len(sequences))
    return np.cumsum(lengths) - lengths


def _per_label_take(counts: dict, k: int) -> dict:
    """Allocate the first-side quota across labels, keeping at least one item
    of each label on both sides (required by every downstream fitting stage)."""
    n1, n0 = counts.get(1, 0), counts.get(0, 0)
    n = n1 + n0
    if n1 < 2 or n0 < 2 or k < 2 or k > n - 2:
        raise DegenerateSplit(
            f"cannot place both labels on both sides: n1={n1}, n0={n0}, "
            f"first-side size {k} of {n}"
        )
    frac = k / n
    k1 = min(max(int(math.floor(frac * n1 + 0.5)), 1), n1 - 1)
    k0 = min(max(k - k1, 1), n0 - 1)
    k1 = k - k0
    if not (1 <= k1 <= n1 - 1):
        raise DegenerateSplit(
            f"cannot place both labels on both sides: n1={n1}, n0={n0}, "
            f"first-side size {k} of {n}"
        )
    return {1: k1, 0: k0}


def split_calibration(cal: CalibrationSet, cfg: SplitConfig):
    """Seeded stratified partition of ``cal`` into two disjoint sets.

    The first side holds round(dre_fraction * n) items; both sides keep at
    least one trajectory of each label, else DegenerateSplit is raised.
    """
    n = len(cal)
    if n == 0:
        raise DegenerateSplit("cannot split an empty calibration set")
    k = int(math.floor(cfg.dre_fraction * n + 0.5))
    labels = cal.labels()
    counts = {1: labels.count(1), 0: labels.count(0)}
    if counts[1] + counts[0] != n:
        item = next(item for item in cal if item.label not in counts)
        raise InvalidTrajectory(
            f"label must be 0 or 1, got {item.label!r}",
            trajectory_id=item.id, field="label",
        )
    take = _per_label_take(counts, k)

    rng = np.random.default_rng(cfg.seed)
    is_one = np.array(labels) == 1
    first = np.zeros(n, dtype=bool)
    for label, members in ((1, is_one), (0, ~is_one)):
        idx = np.flatnonzero(members)
        order = rng.permutation(len(idx))
        first[idx[order[: take[label]]]] = True
    pick = cal.items.__getitem__
    return (
        CalibrationSet(map(pick, np.flatnonzero(first).tolist())),
        CalibrationSet(map(pick, np.flatnonzero(~first).tolist())),
    )
