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
from .ratio import flatten, replay


def null_maxima(model: RatioModel, thresh_set) -> list:
    """Trajectory-wise maximum of the estimated ratio process, nulls only."""
    nulls = [item.scores for item in thresh_set if item.label == 1]
    if not nulls:
        raise NoNullTrajectories("threshold calibration needs label-1 trajectories")
    return np.maximum.reduceat(replay(model, nulls), flatten(nulls)[1]).tolist()


def pac_threshold(maxima, alpha: float, delta: float) -> ThresholdSpec:
    """The float just above the order statistic M_(k), k = pac_index(n, alpha,
    delta): the bound covers Pr[M > M_(k)], and rules reject at >=, so null
    maxima tied at M_(k) must not reject."""
    n = len(maxima)
    # sorted orders a list holding nan arbitrarily
    if any(map(math.isnan, maxima)):
        raise OutOfRange("maxima must not be nan")
    k = pac_index(n, alpha, delta)
    return ThresholdSpec(
        kind="pac",
        alpha=alpha,
        value=math.nextafter(sorted(maxima)[k - 1], math.inf),
        delta=delta,
        n_null=n,
        k_index=k,
    )
