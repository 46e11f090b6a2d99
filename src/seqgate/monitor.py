"""Streaming accept/reject decisions over one trajectory.

A DecisionRule holds a per-prefix statistic, a threshold and a direction,
and writes the first-crossing comparison once, in ``fires``. MonitorState
applies it to one prefix per observed score; the experiment harness applies
the same ``fires`` to whole replayed processes at once, so streaming and
batch decisions agree exactly. The ratio rule's statistic is
``ratio.ratio_statistic``, which reads the model once when the rule is built,
so a streamed step pays only for its own prefix.
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
from .ratio import RatioModel, ratio_statistic
from .trajectories import CalibrationSet


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
    return DecisionRule(ratio_statistic(model), threshold)


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
        status = self.status
        # ACTIVE is the only live status this class sets; a copied state
        # holds an equal one, which the property still reads as live
        if status is not ACTIVE and status.terminal:
            raise MonitorClosed(f"monitor already {status.decision}")
        score = float(score)
        if not math.isfinite(score):
            raise InvalidTrajectory(f"non-finite score {score!r}", field="scores")
        observed, rule = self.observed, self.rule
        observed.append(score)
        stat = rule.value(observed)
        if stat != stat:
            # a nan statistic never crosses, which would accept in silence
            observed.pop()
            raise InvalidTrajectory(
                f"statistic is nan after score {score!r}", field="scores"
            )
        self.step += 1
        if rule.fires(stat):
            status = self.status = Status("rejected", self.step)
        return status

    def finalize(self) -> Status:
        if not self.status.terminal:
            self.status = Status("accepted", self.step)
        return self.status

