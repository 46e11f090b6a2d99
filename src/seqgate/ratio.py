"""Classifier-based estimation of the score density ratio process.

One logistic classifier is fit per step t on raw score prefixes of length t,
up to the largest step at which both labels still have data. Beyond that
step the statistic is frozen: evaluation always sees the earliest scores, so
the monitored value is literally constant from then on. Each step's Newton
fit starts from the previous step's model; a positive L2 penalty makes the
objective strictly convex, so the start moves the fit only within the
gradient tolerance.

Batch fit and replay hold one float per kept score (``score_rows``): row j
holds the (j+1)-th score of every trajectory longer than j, in the order
given, and all rows are views of one flat array. Step t is fit on rows
0..t-1 of the trajectories at least t long.

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


def score_rows(trajectories, width: int):
    """Row j = 0..width-1 holds the (j+1)-th score of every trajectory
    longer than j, in the order given, and the (n,) vector of full lengths.

    The rows are consecutive views of one flat float array: the heads read
    in one pass, reordered by one stable argsort of each score's position.
    """
    lengths = np.fromiter(map(len, trajectories), int, count=len(trajectories))
    heads = np.minimum(lengths, width)
    values = np.fromiter(
        chain.from_iterable(map(itemgetter(slice(width)), trajectories)),
        float,
        count=int(heads.sum()),
    )
    position = np.arange(values.size)
    position -= np.repeat(np.cumsum(heads) - heads, heads)
    order = np.argsort(position, kind="stable")
    # row j ends after the scores at positions 0..j
    ends = np.cumsum(np.bincount(position, minlength=width))
    del position  # before the gather, so the peak holds three arrays, not four
    return np.split(values[order], ends[:-1]), lengths


def fit_ratio_model(dre, cfg: FitConfig = FitConfig()) -> RatioModel:
    """Fit one prefix classifier per step t = 1..t_max.

    Step t's features are step t-1's of the trajectories still running plus
    row t-1. Its Newton fit starts from step t-1's model, with weight 0 on the
    new score: that is the previous fit's logit on every row, and adjacent
    steps' optima lie close, so it takes fewer steps than a start from zeros.
    """
    prior_1 = estimate_prior(dre)
    t_max = compute_tmax(dre)
    rows, lengths = score_rows([item.scores for item in dre], t_max)
    labels = np.array([item.label for item in dre])
    columns = np.empty((0, lengths.size))
    step_models = []
    start = None
    for t, row in enumerate(rows, start=1):
        live = np.flatnonzero(lengths >= t)
        lengths, labels, previous = lengths[live], labels[live], columns
        columns = np.empty((t, live.size))
        # "clip" lets take write straight into the slice, unbuffered
        np.take(previous, live, axis=1, out=columns[:-1], mode="clip")
        columns[-1] = row
        try:
            step = fit_logistic(columns.T, labels, cfg, start)
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
    ratio_statistic on that prefix exactly. Rows are laid out longest
    first, so the ones still running at step t are a leading slice, and
    each value goes straight to its place in the output. Past t_max each
    process repeats its step-t_max value, so the layout holds at most t_max
    values per trajectory. No trajectories give an empty array. A nan
    value, which never crosses a threshold and so would accept in silence,
    raises InvalidTrajectory.
    """
    lengths = np.fromiter(map(len, trajectories), int, count=len(trajectories))
    if not lengths.size:
        return np.empty(0)
    if lengths.min() == 0:
        raise EmptyPrefix("cannot evaluate the ratio on an empty prefix")
    longest = int(lengths.max())
    k = min(longest, model.t_max)
    order = np.argsort(-lengths, kind="stable")
    rows, _ = score_rows([trajectories[i] for i in order.tolist()], k)
    heads = np.minimum(lengths, k)
    ends = np.cumsum(heads)
    out = np.empty(int(ends[-1]))
    firsts = (ends - heads)[order]  # where each row entry's step 1 goes
    bound, odds = model.logit_bound, model.prior_odds
    with np.errstate(over="ignore", invalid="ignore"):
        for t, row in enumerate(rows, start=1):
            live = row.size
            step = model.step_models[t - 1]
            z = 0.0
            for w, v in zip(step.weights, rows[:t]):
                z = z + w * v[:live]
            z = -np.clip(z + step.intercept, -bound, bound)
            out[firsts[:live] + (t - 1)] = odds * np.fromiter(
                map(math.exp, z.tolist()), float, count=live
            )
    if np.isnan(out).any():
        raise InvalidTrajectory("ratio statistic is nan", field="scores")
    if longest > k:
        # the step-t_max value once, plus once per step past t_max
        repeats = np.ones(out.size, int)
        repeats[ends - 1] += lengths - heads
        out = np.repeat(out, repeats)
    return out


def eval_process(model: RatioModel, scores) -> list:
    """Estimated ratio at every step of one score sequence."""
    return replay(model, [scores]).tolist()
