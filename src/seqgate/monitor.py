"""Streaming accept/reject decisions over one trajectory.

A DecisionRule holds a per-prefix statistic, a threshold and a direction,
and writes the first-crossing comparison once, in ``fires``. MonitorState
applies it to one prefix per observed score; the experiment harness applies
the same ``fires`` to whole replayed processes at once, so streaming and
batch decisions agree exactly. The ratio rule's statistic is
``artifact.ratio_statistic``, which reads the model once when the rule is
built, so a streamed step pays only for its own prefix. ``kernels`` and
numpy load only in ``calibrated_score_rule``; the experiment's batch isotonic
fit, ``pooled_isotonic``, lives in ``harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional

from .artifact import RatioModel, ratio_statistic
from .errors import InvalidTrajectory, MonitorClosed, OutOfRange

if TYPE_CHECKING:
    from .kernels import IsotonicModel


@dataclass(frozen=True)
class DecisionRule:
    """Reject at the first prefix whose statistic crosses the threshold.

    ``value`` maps the observed prefix of scores to the statistic. Ratio
    statistics cross when they reach the threshold (inclusive >=); score
    statistics, with ``reject_below`` set, when they drop strictly below it.
    The rule constructors below pair each statistic with its direction. A
    nan threshold, which no statistic crosses, raises OutOfRange.
    """

    value: Callable[[list], float]
    threshold: float
    reject_below: bool = False

    def __post_init__(self):
        if self.threshold != self.threshold:
            raise OutOfRange(f"threshold must not be nan, got {self.threshold!r}")

    def fires(self, stat):
        """Whether the statistic crosses; elementwise on an array of values."""
        if self.reject_below:
            return stat < self.threshold
        return stat >= self.threshold


def ratio_rule(model: RatioModel, threshold: float) -> DecisionRule:
    return DecisionRule(ratio_statistic(model), threshold)


def raw_score_rule(alpha: float) -> DecisionRule:
    return DecisionRule(itemgetter(-1), alpha, reject_below=True)


def calibrated_score_rule(model: IsotonicModel, alpha: float) -> DecisionRule:
    from .kernels import apply_isotonic

    return DecisionRule(
        lambda prefix: apply_isotonic(model, prefix[-1]), alpha, reject_below=True
    )


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
        self.observed: list = []
        self.status = ACTIVE

    @property
    def step(self) -> int:
        """The number of scores observed."""
        return len(self.observed)

    def observe(self, score: float) -> Status:
        status = self.status
        # ACTIVE is the only live status this class sets; a copied state
        # holds an equal one, which the property still reads as live
        if status is not ACTIVE and status.terminal:
            raise MonitorClosed(f"monitor already {status.decision}")
        # float first: the CLI's scores need no further check and no import
        if type(score) is not float:
            from numbers import Real

            if not isinstance(score, Real) or isinstance(score, bool):
                raise InvalidTrajectory(
                    f"score must be a real number, got {score!r}", field="scores"
                )
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
        if rule.fires(stat):
            status = self.status = Status("rejected", self.step)
        return status

    def finalize(self) -> Status:
        if not self.status.terminal:
            self.status = Status("accepted", self.step)
        return self.status

