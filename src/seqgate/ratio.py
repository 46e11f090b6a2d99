"""Classifier-based estimation of the score density ratio process.

One logistic classifier is fit per step t on raw score prefixes of length t,
up to the largest step at which both labels still have data. Beyond that
step the statistic is frozen: evaluation always sees the earliest scores, so
the monitored value is literally constant from then on. Each step's Newton
fit starts from the previous step's model; a positive L2 penalty makes the
objective strictly convex, so the start moves the fit only within the
gradient tolerance.

Every batch dataset is flattened once (``flatten``): each trajectory's
scores back to back in one float array, with each one's start and length,
and every stage reads that layout. Fit and replay walk the same step-t
prefix matrices of it (``prefixes``): step t is fit, and evaluated, on the
first t scores of the trajectories at least t long. ``replay`` writes the
statistic at every position of the layout, so its output lines up with the
scores it was given.

The plug-in ratio (1 - f)/f * prior_1/(1 - prior_1) with f = sigmoid(z) is
odds * exp(-z), and clamping f to [c, 1 - c] is clamping the logit z to
[-L, L] with L = log((1 - c)/c); both constants are computed once per model.

Two paths share one arithmetic. ``artifact.ratio_statistic`` turns a model
into its per-prefix statistic, for the streaming monitor: it reads the step
models and the constants once, so each call is one length, one index and the
logit loop. ``replay`` evaluates whole processes of many trajectories, for
the harness and for ``Calibration``'s ``null_maxima``. Both sum the logit
left to right, clamp it and take ``math.exp`` of its negation, so they
return bit-identical values on any platform: the statistic in plain float
arithmetic, ``replay`` with numpy arrays for the sums and the clamp.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .artifact import THRESHOLD_KINDS, FitConfig, RatioModel, ThresholdSpec
from .artifact import bonferroni_threshold, pac_threshold, ville_threshold
from .errors import EmptyPrefix, InvalidTrajectory, NoNullTrajectories, OutOfRange
from .errors import SingleClassData
from .kernels import fit_logistic
from .trajectories import split_calibration


def flatten(sequences):
    """Every sequence's values back to back in one float array, each
    sequence's start in it, and each length."""
    lengths = np.fromiter(map(len, sequences), int, count=len(sequences))
    values = np.fromiter(chain.from_iterable(sequences), float, count=int(lengths.sum()))
    return values, np.cumsum(lengths) - lengths, lengths


def prefixes(values, first, lengths, width: int):
    """For t = 1..width, the indices of the sequences at least t long and
    the (t, n_t) matrix of their first t values, from ``flatten``'s layout.

    Step t's matrix is step t-1's columns of the sequences still running
    plus one gather of their t-th values, so each step copies its matrix
    once and no step holds more than two of them.
    """
    live = np.arange(lengths.size)
    columns = np.empty((0, lengths.size))
    for t in range(1, width + 1):
        keep = np.flatnonzero(lengths >= t)
        live, lengths, first, previous = live[keep], lengths[keep], first[keep], columns
        columns = np.empty((t, live.size))
        # "clip" lets take write straight into the slice, unbuffered
        np.take(previous, keep, axis=1, out=columns[:-1], mode="clip")
        np.take(values, first + (t - 1), out=columns[-1], mode="clip")
        yield live, columns


def fit_ratio_model(dre, cfg: FitConfig = FitConfig()) -> RatioModel:
    """Fit one prefix classifier per step t = 1..t_max.

    Step t is fit on ``prefixes``' step-t matrix, one row per trajectory
    still running, in the order given. Its Newton fit starts from step t-1's
    model, with weight 0 on the new score: that is the previous fit's logit
    on every row, and adjacent steps' optima lie close, so it takes fewer
    steps than a start from zeros.
    """
    labels = np.array([item.label for item in dre], int)
    n_1 = int(np.count_nonzero(labels))
    if n_1 in (0, labels.size):
        raise SingleClassData("prior estimation needs both labels present")
    # the int count over the int size, the division of sum(labels) / len(labels)
    prior_1 = n_1 / labels.size
    values, first, lengths = flatten([item.scores for item in dre])
    # the largest t at which both labels still have a trajectory running
    t_max = int(min(lengths[labels == 0].max(), lengths[labels == 1].max()))
    step_models = []
    start = None
    for t, (live, columns) in enumerate(prefixes(values, first, lengths, t_max), 1):
        try:
            step = fit_logistic(columns.T, labels[live], cfg, start)
        except InvalidTrajectory as exc:
            raise InvalidTrajectory(f"step {t}: {exc}", field="scores") from None
        step_models.append(step)
        start = step.weights + (0.0, step.intercept)
    return RatioModel(step_models, prior_1, t_max, cfg)


def replay(model: RatioModel, values, first, lengths) -> np.ndarray:
    """Ratio process of every trajectory in ``flatten``'s layout: the
    statistic at every position of ``values``.

    Step t sums the logits of every trajectory at least t long at once, over
    the rows of ``prefixes``' step-t matrix, so every value equals
    ratio_statistic on that prefix exactly, and goes straight to its place
    in the output. A position past t_max reads its trajectory's step-t_max
    value, as the statistic freezes there. No trajectories give an empty
    array. A nan value, which never crosses a threshold and so would accept
    in silence, raises InvalidTrajectory.
    """
    if not lengths.size:
        return np.empty(0)
    if lengths.min() == 0:
        raise EmptyPrefix("cannot evaluate the ratio on an empty prefix")
    longest = int(lengths.max())
    k = min(longest, model.t_max)
    out = np.empty(values.size)
    bound, odds = model.logit_bound, model.prior_odds
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (live, columns) in enumerate(prefixes(values, first, lengths, k), 1):
            step = model.step_models[t - 1]
            z = 0.0
            for w, v in zip(step.weights, columns):
                z = z + w * v
            z = -np.clip(z + step.intercept, -bound, bound)
            out[first[live] + (t - 1)] = odds * np.fromiter(
                map(math.exp, z.tolist()), float, count=live.size
            )
    if longest > k:
        # a position past t_max reads its trajectory's step-t_max position,
        # which a running maximum over the increasing starts carries along
        source = np.zeros(out.size, int)
        source[first] = first + (k - 1)
        np.maximum.accumulate(source, out=source)
        out = out[np.minimum(np.arange(out.size), source, out=source)]
    if np.isnan(out).any():
        raise InvalidTrajectory("ratio statistic is nan", field="scores")
    return out


def null_maxima(model: RatioModel, thresh_set) -> list:
    """Trajectory-wise maximum of the estimated ratio process, nulls only."""
    nulls = [item.scores for item in thresh_set if item.label == 1]
    if not nulls:
        raise NoNullTrajectories("threshold calibration needs label-1 trajectories")
    values, first, lengths = flatten(nulls)
    return np.maximum.reduceat(replay(model, values, first, lengths), first).tolist()


class Calibration:
    """The calibration step of ``seqgate calibrate`` and the harness: ``cal``
    split into ``fit_set``, which ``model`` is fit on, and ``thresh_set``, whose
    null maxima are ``maxima``; ``t_cal_max`` is the longest trajectory."""

    def __init__(self, cal, dre_fraction: float, seed: int):
        self.fit_set, self.thresh_set = split_calibration(cal, dre_fraction, seed)
        self.model = fit_ratio_model(self.fit_set)
        self.maxima = null_maxima(self.model, self.thresh_set)
        self.t_cal_max = max(map(len, cal))

    def threshold(self, kind: str, alpha: float, delta: float) -> ThresholdSpec:
        """The one dispatch from a threshold kind to its formula."""
        if kind == "ville":
            return ville_threshold(alpha)
        if kind == "bonferroni":
            return bonferroni_threshold(alpha, self.t_cal_max)
        if kind == "pac":
            return pac_threshold(self.maxima, alpha, delta)
        raise OutOfRange(f"threshold kind {kind!r} is not one of {THRESHOLD_KINDS}")


def eval_process(model: RatioModel, scores) -> list:
    """Estimated ratio at every step of one score sequence."""
    return replay(model, *flatten([scores])).tolist()
