"""Streaming accept/reject decisions over one trajectory.

A DecisionRule holds a per-prefix statistic, a threshold and a direction,
and writes the first-crossing comparison once, in ``fires``. MonitorState
applies it to one prefix per observed score; the experiment harness applies
the same ``fires`` to whole replayed processes at once, so streaming and
batch decisions agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .errors import InvalidTrajectory, MonitorClosed, SingleClassData
from .kernels import IsotonicModel, apply_isotonic, fit_isotonic
from .ratio import RatioModel, eval_ratio
from .trajectories import CalibrationSet, LabeledTrajectory


@dataclass(frozen=True)
class DecisionRule:
    """Reject at the first prefix whose statistic crosses the threshold.

    ``value`` maps the observed prefix of scores to the statistic. Ratio
    statistics cross when they reach the threshold (inclusive >=); score
    statistics, with ``reject_below`` set, when they drop strictly below it.
    The rule constructors below pair each statistic with its direction.
    """

    value: Callable[[list], float]
    threshold: float
    reject_below: bool = False

    def fires(self, stat):
        """Whether the statistic crosses; elementwise on an array of values."""
        if self.reject_below:
            return stat < self.threshold
        return stat >= self.threshold


# The rules the experiment harness compares: the ratio statistic under the
# PAC, Ville and Bonferroni thresholds, and the raw and calibrated scores.
KNOWN_METHODS = ("evaluator_pac", "evaluator_ville", "bonferroni", "raw", "calibrated")


def ratio_rule(model: RatioModel, threshold: float) -> DecisionRule:
    return DecisionRule(lambda prefix: eval_ratio(model, prefix), threshold)


def raw_score_rule(alpha: float) -> DecisionRule:
    return DecisionRule(itemgetter(-1), alpha, reject_below=True)


def calibrated_score_rule(model: IsotonicModel, alpha: float) -> DecisionRule:
    return DecisionRule(
        lambda prefix: apply_isotonic(model, prefix[-1]), alpha, reject_below=True
    )


def pooled_isotonic(cal: CalibrationSet) -> IsotonicModel:
    """Isotonic recalibration map fit on the pooled (score, label) pairs of
    every step of every trajectory."""
    scores = [item.scores for item in cal]
    lengths = np.fromiter(map(len, scores), int, count=len(scores))
    xs = np.fromiter(chain.from_iterable(scores), float, count=int(lengths.sum()))
    labels = np.array(cal.labels())
    if len(set(labels[lengths > 0].tolist())) < 2:
        raise SingleClassData("calibrated rule needs both labels present")
    return fit_isotonic(xs, np.repeat(labels, lengths))


@dataclass(frozen=True)
class Status:
    decision: str  # "active" | "rejected" | "accepted"
    step: Optional[int] = None

    @property
    def terminal(self) -> bool:
        return self.decision != "active"


ACTIVE = Status("active")


class MonitorState:
    """Single-owner mutable state for one monitored trajectory."""

    def __init__(self, rule: DecisionRule):
        self.rule = rule
        self.step = 0
        self.observed: list = []
        self.status = ACTIVE

    def observe(self, score: float) -> Status:
        if self.status.terminal:
            raise MonitorClosed(f"monitor already {self.status.decision}")
        score = float(score)
        if not math.isfinite(score):
            raise InvalidTrajectory(f"non-finite score {score!r}", field="scores")
        self.observed.append(score)
        stat = self.rule.value(self.observed)
        if stat != stat:
            # a nan statistic never crosses, which would accept in silence
            self.observed.pop()
            raise InvalidTrajectory(
                f"statistic is nan after score {score!r}", field="scores"
            )
        self.step += 1
        if self.rule.fires(stat):
            self.status = Status("rejected", self.step)
        return self.status

    def finalize(self) -> Status:
        if not self.status.terminal:
            self.status = Status("accepted", self.step)
        return self.status


def run_offline(rule: DecisionRule, traj: LabeledTrajectory):
    """Batch replay: observe every score in order, then finalize.

    Returns (terminal status, first rejection step or None).
    """
    state = MonitorState(rule)
    for score in traj.scores:
        if state.observe(score).terminal:
            break
    status = state.finalize()
    return status, status.step if status.decision == "rejected" else None
