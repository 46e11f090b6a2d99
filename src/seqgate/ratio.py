"""Classifier-based estimation of the score density ratio process.

One logistic classifier is fit per step t on raw score prefixes of length t,
up to the largest step at which both labels still have data. Beyond that
step the statistic is frozen: evaluation always sees the earliest scores, so
the monitored value is literally constant from then on. Each step's Newton
fit starts from the previous step's model; a positive L2 penalty makes the
objective strictly convex, so the start moves the fit only within the
gradient tolerance.

Fitting and batch evaluation read trajectories through one padded score
matrix (``padded_scores``): column i holds the first scores of trajectory i,
zero past its end, beside a vector of lengths. Step t is fit on the first t
rows of the columns of trajectories at least t long.

The plug-in ratio (1 - f)/f * prior_1/(1 - prior_1) with f = sigmoid(z) is
odds * exp(-z), and clamping f to [c, 1 - c] is clamping the logit z to
[-L, L] with L = log((1 - c)/c); both constants are computed once per model.

Two paths share one arithmetic. ``artifact.ratio_statistic`` turns a model
into its per-prefix statistic, for the streaming monitor: it reads the step
models and the constants once, so each call is one length, one index and the
logit loop. ``replay`` evaluates whole processes of many trajectories, for
thresholds and the experiment harness. Both sum the logit left to right,
clamp it and take ``math.exp`` of its negation, so they return
bit-identical values on any platform: the statistic in plain float
arithmetic, ``replay`` with numpy arrays for the sums and the clamp.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter

import numpy as np

from .artifact import FitConfig, RatioModel
from .errors import EmptyPrefix, InvalidTrajectory, NoOverlap, SingleClassData
from .kernels import fit_logistic


def estimate_prior(dre) -> float:
    """Empirical frequency of label-1 trajectories."""
    labels = [item.label for item in dre]
    if len(set(labels)) < 2:
        raise SingleClassData("prior estimation needs both labels present")
    return sum(labels) / len(labels)


def compute_tmax(dre) -> int:
    """Largest t whose prefix set {trajectories with length >= t} still
    contains both labels."""
    max_len = {0: 0, 1: 0}
    for item in dre:
        max_len[item.label] = max(max_len[item.label], len(item))
    t_max = min(max_len[0], max_len[1])
    if t_max < 1:
        raise NoOverlap("need score sequences of both labels")
    return t_max


def padded_scores(trajectories, width: int):
    """(width, n) matrix whose column i holds the first ``width`` scores of
    trajectory i, zero past its end, and the (n,) vector of full lengths.

    Row j is then the j-th score of every trajectory, one contiguous
    feature; the transpose is a fit's feature matrix.
    The heads are read in one pass and written in one masked assignment to
    the transpose, whose row-major order is trajectory by trajectory.
    """
    n = len(trajectories)
    lengths = np.fromiter(map(len, trajectories), int, count=n)
    heads = np.minimum(lengths, width)
    values = np.fromiter(
        chain.from_iterable(map(itemgetter(slice(width)), trajectories)),
        float,
        count=int(heads.sum()),
    )
    columns = np.zeros((width, n))
    columns.T[np.arange(width) < heads[:, None]] = values
    return columns, lengths


def fit_ratio_model(dre, cfg: FitConfig = FitConfig()) -> RatioModel:
    """Fit one prefix classifier per step t = 1..t_max.

    Step t's Newton fit starts from step t-1's model, with weight 0 on the
    new score: that is the previous fit's logit on every row, and adjacent
    steps' optima lie close, so it takes fewer steps than a start from zeros.
    """
    prior_1 = estimate_prior(dre)
    t_max = compute_tmax(dre)
    columns, lengths = padded_scores([item.scores for item in dre], t_max)
    labels = np.array([item.label for item in dre])
    step_models = []
    start = None
    for t in range(1, t_max + 1):
        keep = lengths >= t
        try:
            step = fit_logistic(columns[:t, keep].T, labels[keep], cfg, start)
        except InvalidTrajectory as exc:
            raise InvalidTrajectory(f"step {t}: {exc}", field="scores") from None
        step_models.append(step)
        start = step.weights + (0.0, step.intercept)
    return RatioModel(step_models, prior_1, t_max, cfg)


def offsets(sequences) -> np.ndarray:
    """Start index of each sequence in the concatenation of all of them, the
    layout ``replay`` returns."""
    lengths = np.fromiter(map(len, sequences), int, count=len(sequences))
    return np.cumsum(lengths) - lengths


def replay(model: RatioModel, trajectories) -> np.ndarray:
    """Ratio process of every trajectory, concatenated in input order.

    Step t sums the logits of every trajectory at least t long at once, the
    j-th term from the row of j-th scores, so every value equals
    ratio_statistic on that prefix exactly. Columns are padded longest
    first, so the ones still running at step t are a leading slice. Past
    t_max each process repeats its step-t_max value, so the buffer holds at
    most t_max values per trajectory. No trajectories give an empty array.
    A nan value, which never crosses a threshold and so would accept in
    silence, raises InvalidTrajectory.
    """
    lengths = np.fromiter(map(len, trajectories), int, count=len(trajectories))
    if not lengths.size:
        return np.empty(0)
    if lengths.min() == 0:
        raise EmptyPrefix("cannot evaluate the ratio on an empty prefix")
    longest = int(lengths.max())
    k = min(longest, model.t_max)
    order = np.argsort(-lengths, kind="stable")
    columns, _ = padded_scores([trajectories[i] for i in order.tolist()], k)
    running = lengths.size - np.searchsorted(np.sort(lengths), np.arange(1, k + 1))
    bound, odds = model.logit_bound, model.prior_odds
    values = np.empty((lengths.size, k))
    with np.errstate(over="ignore", invalid="ignore"):
        for t, live in enumerate(running.tolist(), start=1):
            step = model.step_models[t - 1]
            z = 0.0
            for w, v in zip(step.weights, columns[:t, :live]):
                z = z + w * v
            z = -np.clip(z + step.intercept, -bound, bound)
            values[order[:live], t - 1] = odds * np.fromiter(
                map(math.exp, z.tolist()), float, count=live
            )
    out = values[np.arange(k) < lengths[:, None]]
    if np.isnan(out).any():
        raise InvalidTrajectory("ratio statistic is nan", field="scores")
    if longest > k:
        # the step-t_max value once, plus once per step past t_max
        heads = np.minimum(lengths, k)
        repeats = np.ones(out.size, int)
        repeats[np.cumsum(heads) - 1] += lengths - heads
        out = np.repeat(out, repeats)
    return out


def eval_process(model: RatioModel, scores) -> list:
    """Estimated ratio at every step of one score sequence."""
    return replay(model, [scores]).tolist()
