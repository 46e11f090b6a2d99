"""Decision thresholds for the monitored statistic.

Three kinds: the universal 1/alpha threshold valid for any e-process, a
calibrated order-statistic threshold with a PAC-style guarantee, and the
Bonferroni baseline T/alpha. ``ThresholdSpec``, ``THRESHOLD_KINDS`` and
``DEFAULT_DELTA`` live in ``artifact``.
"""

from __future__ import annotations

import math

import numpy as np

from .artifact import RatioModel, ThresholdSpec
from .errors import InsufficientCalibration, NoNullTrajectories, OutOfRange
from .kernels import binomial_sf
from .ratio import replay
from .trajectories import CalibrationSet, offsets


def _check_alpha(alpha: float):
    if not (0.0 < alpha < 1.0):
        raise OutOfRange(f"alpha must lie strictly in (0, 1), got {alpha}")


def ville_threshold(alpha: float) -> ThresholdSpec:
    """Universal threshold 1/alpha."""
    _check_alpha(alpha)
    return ThresholdSpec(kind="ville", alpha=alpha, value=1.0 / alpha)


def bonferroni_threshold(alpha: float, t_cal_max: int) -> ThresholdSpec:
    """Per-step rejection at level alpha/T, i.e. statistic threshold T/alpha."""
    _check_alpha(alpha)
    if t_cal_max < 1:
        raise OutOfRange(f"t_cal_max must be a positive integer, got {t_cal_max}")
    return ThresholdSpec(
        kind="bonferroni", alpha=alpha, value=t_cal_max / alpha, t_cal_max=t_cal_max
    )


def null_maxima(model: RatioModel, thresh_set: CalibrationSet) -> list:
    """Trajectory-wise maximum of the estimated ratio process, nulls only."""
    nulls = [item.scores for item in thresh_set if item.label == 1]
    if not nulls:
        raise NoNullTrajectories("threshold calibration needs label-1 trajectories")
    return np.maximum.reduceat(replay(model, nulls), offsets(nulls)).tolist()


def min_null_samples(alpha: float, delta: float) -> int:
    """Smallest n for which Pr[Bin(n, 1-alpha) >= n] <= delta is satisfiable."""
    return math.ceil(math.log(delta) / math.log1p(-alpha))


def pac_index(n: int, alpha: float, delta: float) -> int:
    """Smallest i in 1..n with Pr[Bin(n, 1-alpha) >= i] <= delta."""
    _check_alpha(alpha)
    if not (0.0 < delta < 1.0):
        raise OutOfRange(f"delta must lie strictly in (0, 1), got {delta}")
    if n < 1:
        raise OutOfRange(f"n must be a positive integer, got {n}")
    p = 1.0 - alpha
    if binomial_sf(n, p, n) > delta:
        raise InsufficientCalibration(n, alpha, delta, min_null_samples(alpha, delta))
    # binomial_sf is non-increasing in k, so binary-search the crossing
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if binomial_sf(n, p, mid) <= delta:
            hi = mid
        else:
            lo = mid + 1
    return lo


def pac_threshold(maxima, alpha: float, delta: float, seed: int = 0) -> ThresholdSpec:
    """Order-statistic threshold M_(k); ties are ordered by a seeded fair coin."""
    if len(maxima) == 0:
        raise OutOfRange("maxima must be non-empty")
    n = len(maxima)
    k = pac_index(n, alpha, delta)
    values = np.asarray(maxima, dtype=float)
    coin = np.random.default_rng(seed).random(n)
    order = np.lexsort((coin, values))
    return ThresholdSpec(
        kind="pac",
        alpha=alpha,
        value=float(values[order[k - 1]]),
        delta=delta,
        n_null=n,
        k_index=k,
    )
