"""The two data-driven threshold steps: the null maxima of the estimated
ratio process, and their PAC order statistic. The formulas of every
threshold kind (``ville_threshold``, ``bonferroni_threshold``, ``pac_index``
and the binomial tail under it) live in ``artifact``, so that a monitor can
re-derive the threshold it loads without numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .artifact import RatioModel, ThresholdSpec, pac_index
from .errors import NoNullTrajectories, OutOfRange
from .ratio import replay
from .trajectories import CalibrationSet, offsets


def null_maxima(model: RatioModel, thresh_set: CalibrationSet) -> list:
    """Trajectory-wise maximum of the estimated ratio process, nulls only."""
    nulls = [item.scores for item in thresh_set if item.label == 1]
    if not nulls:
        raise NoNullTrajectories("threshold calibration needs label-1 trajectories")
    return np.maximum.reduceat(replay(model, nulls), offsets(nulls)).tolist()


def pac_threshold(maxima, alpha: float, delta: float) -> ThresholdSpec:
    """Order-statistic threshold M_(k), k = pac_index(n, alpha, delta)."""
    n = len(maxima)
    # sorted orders a list holding nan arbitrarily
    if any(map(math.isnan, maxima)):
        raise OutOfRange("maxima must not be nan")
    k = pac_index(n, alpha, delta)
    return ThresholdSpec(
        kind="pac",
        alpha=alpha,
        value=float(sorted(maxima)[k - 1]),
        delta=delta,
        n_null=n,
        k_index=k,
    )
