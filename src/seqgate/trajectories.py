"""Core data types: labeled score trajectories, valid by construction
because each checks its own invariants when built, calibration sets, and
the seeded stratified splits every downstream stage consumes.

Label convention: 1 marks a successful trajectory (the null hypothesis of
monitoring), 0 an unsuccessful one (the alternative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .artifact import DEFAULT_DRE_FRACTION, count, probability
from .errors import DegenerateSplit, InvalidTrajectory


@dataclass(frozen=True)
class LabeledTrajectory:
    """Ordered per-step verifier scores plus the trajectory-level outcome label.

    ``scores`` holds at least one finite float and ``label`` is 0 or 1.
    ``tokens``, when present, holds cumulative token counts after each step
    (non-negative ints, as many as scores, non-decreasing). Anything else
    raises InvalidTrajectory naming the id and field.
    """

    id: str
    scores: tuple
    label: int
    tokens: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "scores", tuple(map(float, self.scores)))
        scores = self.scores
        if not scores:
            raise self._invalid("empty score sequence", "scores")
        if not all(map(math.isfinite, scores)):
            s = next(s for s in scores if not math.isfinite(s))
            raise self._invalid(f"non-finite score {s!r}", "scores")
        if self.label not in (0, 1):
            raise self._invalid(f"label must be 0 or 1, got {self.label!r}", "label")
        if self.tokens is None:
            return
        object.__setattr__(self, "tokens", tuple(self.tokens))
        tokens = self.tokens
        if len(tokens) != len(scores):
            raise self._invalid(
                f"tokens length {len(tokens)} != scores length {len(scores)}", "tokens"
            )
        prev = 0
        for tok in tokens:
            if not isinstance(tok, int) or isinstance(tok, bool) or tok < 0:
                raise self._invalid(
                    f"token counts must be non-negative integers, got {tok!r}", "tokens"
                )
            if tok < prev:
                raise self._invalid("token counts must be non-decreasing", "tokens")
            prev = tok

    def _invalid(self, message: str, field: str) -> InvalidTrajectory:
        return InvalidTrajectory(message, trajectory_id=self.id, field=field)

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
    ``probability``, plus a seed, a ``count`` from 0."""

    dre_fraction: float = DEFAULT_DRE_FRACTION
    seed: int = 0

    def __post_init__(self):
        probability(self.dre_fraction, "dre_fraction")
        count(self.seed, "seed", lower=0)


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
    return {1: k - k0, 0: k0}


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
    take = _per_label_take({1: labels.count(1), 0: labels.count(0)}, k)

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
