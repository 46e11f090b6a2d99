"""Classifier-based estimation of the score density ratio process.

One logistic classifier is fit per step t on raw score prefixes of length t,
up to the largest step at which both labels still have data. Beyond that
step the statistic is frozen: evaluation always sees the earliest scores, so
the monitored value is literally constant from then on.

Fitting and batch evaluation read trajectories through one padded score
matrix (``padded_scores``): column i holds the first scores of trajectory i,
zero past its end, beside a vector of lengths. Step t is fit on the first t
rows of the columns of trajectories at least t long.

The plug-in ratio (1 - f)/f * prior_1/(1 - prior_1) with f = sigmoid(z) is
odds * exp(-z), and clamping f to [c, 1 - c] is clamping the logit z to
[-L, L] with L = log((1 - c)/c); both constants are computed once per model.

Two entry points share one arithmetic. ``ratio_statistic`` turns a model
into its per-prefix statistic, for the streaming monitor: it reads the step
table and the constants once, so each call is one length, one index and the
logit loop; ``eval_ratio`` applies it to one prefix. ``replay`` evaluates
whole processes of many trajectories, for thresholds and the experiment
harness. Both sum the logit left to right, clamp it and take ``math.exp`` of
its negation, so they return bit-identical values on any platform: the
statistic in plain float arithmetic, ``replay`` with numpy arrays for the
sums and the clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import EmptyPrefix, InvalidTrajectory, NoOverlap, SingleClassData
from .kernels import FitConfig, fit_logistic
from .trajectories import CalibrationSet


@dataclass(frozen=True)
class RatioModel:
    """Per-step classifiers plus the class-prior estimate they plug into."""

    step_models: tuple
    prior_1: float
    t_max: int
    fit_config: FitConfig

    def __post_init__(self):
        if len(self.step_models) != self.t_max:
            raise ValueError(
                f"expected {self.t_max} step models, got {len(self.step_models)}"
            )
        if not (0.0 < self.prior_1 < 1.0):
            raise ValueError(f"prior_1 must lie strictly in (0, 1), got {self.prior_1}")

    # cached beside the fields: asdict, == and the artifact bytes ignore them
    @cached_property
    def prior_odds(self) -> float:
        """prior_1 / (1 - prior_1), the factor every ratio value carries."""
        return self.prior_1 / (1.0 - self.prior_1)

    @cached_property
    def logit_bound(self) -> float:
        """L = log((1 - c)/c): f = sigmoid(z) in [c, 1 - c] is z in [-L, L]."""
        c = self.fit_config.prob_clamp
        return math.log((1.0 - c) / c)

    @cached_property
    def step_table(self) -> tuple:
        """(weights, intercept) of each step model, as plain tuples."""
        return tuple((step.weights, step.intercept) for step in self.step_models)


def estimate_prior(dre: CalibrationSet) -> float:
    """Empirical frequency of label-1 trajectories."""
    labels = dre.labels()
    if len(set(labels)) < 2:
        raise SingleClassData("prior estimation needs both labels present")
    return sum(labels) / len(labels)


def compute_tmax(dre: CalibrationSet) -> int:
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

    Row j is then the j-th score of every trajectory, one contiguous feature
    for a batched predict_proba; the transpose is a fit's feature matrix.
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


def fit_ratio_model(dre: CalibrationSet, cfg: FitConfig = FitConfig()) -> RatioModel:
    """Fit one prefix classifier per step t = 1..t_max."""
    prior_1 = estimate_prior(dre)
    t_max = compute_tmax(dre)
    columns, lengths = padded_scores([item.scores for item in dre], t_max)
    labels = np.array(dre.labels())
    step_models = []
    for t in range(1, t_max + 1):
        keep = lengths >= t
        try:
            step_models.append(fit_logistic(columns[:t, keep].T, labels[keep], cfg))
        except InvalidTrajectory as exc:
            raise InvalidTrajectory(f"step {t}: {exc}", field="scores") from None
    return RatioModel(
        step_models=tuple(step_models), prior_1=prior_1, t_max=t_max, fit_config=cfg
    )


def ratio_statistic(model: RatioModel):
    """The plug-in density ratio at the end of a prefix, as a function of the
    prefix alone.

    The step table, t_max, the logit bound and the prior odds are read once,
    here. Prefixes longer than t_max are truncated to their first t_max
    scores, freezing the statistic. The arithmetic is replay's, one prefix at
    a time.
    """
    steps, t_max = model.step_table, model.t_max
    bound, odds, exp = model.logit_bound, model.prior_odds, math.exp

    def value(prefix) -> float:
        t = len(prefix)
        if t > t_max:
            t = t_max
        elif not t:
            raise EmptyPrefix("cannot evaluate the ratio on an empty prefix")
        weights, intercept = steps[t - 1]
        z = 0.0
        for w, v in zip(weights, prefix):
            z = z + w * v
        z = z + intercept
        # two comparisons, as np.clip: a nan logit stays nan
        if z > bound:
            z = bound
        elif z < -bound:
            z = -bound
        return odds * exp(-z)

    return value


def eval_ratio(model: RatioModel, prefix) -> float:
    """Plug-in density ratio at the end of one prefix of scores."""
    return ratio_statistic(model)(prefix)


def replay(model: RatioModel, trajectories) -> np.ndarray:
    """Ratio process of every trajectory, concatenated in input order.

    Step t sums the logits of every trajectory at least t long at once, the
    j-th term from the row of j-th scores, so every value equals eval_ratio
    on that prefix exactly. Columns are padded longest first, so the ones
    still running at step t are a leading slice. Past t_max each process
    repeats its step-t_max value. No trajectories give an empty array. A nan
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
    columns, _ = padded_scores([trajectories[i] for i in order.tolist()], k)
    running = lengths.size - np.searchsorted(np.sort(lengths), np.arange(1, k + 1))
    bound, odds = model.logit_bound, model.prior_odds
    values = np.empty((lengths.size, longest))
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
    values[:, k:] = values[:, k - 1 : k]
    out = values[np.arange(longest) < lengths[:, None]]
    if np.isnan(out).any():
        raise InvalidTrajectory("ratio statistic is nan", field="scores")
    return out


def eval_process(model: RatioModel, scores) -> list:
    """Estimated ratio at every step of one score sequence."""
    return replay(model, [scores]).tolist()
