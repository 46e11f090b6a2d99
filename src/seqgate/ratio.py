"""Classifier-based estimation of the score density ratio process.

One logistic classifier is fit per step t on raw score prefixes of length t,
up to the largest step at which both labels still have data. Beyond that
step the statistic is frozen: evaluation always sees the earliest scores, so
the monitored value is literally constant from then on.

Fitting and batch evaluation read trajectories through one padded score
matrix (``padded_scores``): column i holds the first scores of trajectory i,
zero past its end, beside a vector of lengths. Step t is fit on the first t
rows of the columns of trajectories at least t long.

Two entry points share one arithmetic. ``eval_ratio`` evaluates one prefix,
for the streaming monitor; ``replay`` evaluates whole processes of many
trajectories, for thresholds and the experiment harness. Both sum the logit
left to right and map it to the ratio with the same IEEE operations, so they
return bit-identical values: ``eval_ratio`` in plain float arithmetic with
one numpy ``exp`` (see ``predict_proba``), ``replay`` with numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import EmptyPrefix, NoOverlap, SingleClassData
from .kernels import FitConfig, fit_logistic, predict_proba
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
        step_models.append(fit_logistic(columns[:t, keep].T, labels[keep], cfg))
    return RatioModel(
        step_models=tuple(step_models), prior_1=prior_1, t_max=t_max, fit_config=cfg
    )


def _plug_in(model: RatioModel, f):
    """((1-f)/f) * (prior_1/(1-prior_1)), elementwise on a float or an array."""
    return (1.0 - f) / f * (model.prior_1 / (1.0 - model.prior_1))


def eval_ratio(model: RatioModel, prefix) -> float:
    """Plug-in density ratio at the end of one prefix of scores.

    Prefixes longer than t_max are truncated to their first t_max scores,
    freezing the statistic. The arithmetic is replay's, one prefix at a time.
    """
    t = len(prefix)
    if t == 0:
        raise EmptyPrefix("cannot evaluate the ratio on an empty prefix")
    if t > model.t_max:
        t, prefix = model.t_max, prefix[: model.t_max]
    f = predict_proba(model.step_models[t - 1], prefix, model.fit_config.prob_clamp)
    return float(_plug_in(model, f))


def replay(model: RatioModel, trajectories) -> np.ndarray:
    """Ratio process of every trajectory, concatenated in input order.

    Step t of all trajectories is one batched predict_proba call whose j-th
    feature is the column of j-th scores, so every value equals eval_ratio on
    that prefix exactly. Past t_max each process repeats its step-t_max value.
    """
    k = min(max(map(len, trajectories)), model.t_max)
    columns, lengths = padded_scores(trajectories, k)
    if lengths.min() == 0:
        raise EmptyPrefix("cannot evaluate the ratio on an empty prefix")
    longest = int(lengths.max())
    values = np.empty((lengths.size, longest))
    for t in range(1, k + 1):
        f = predict_proba(
            model.step_models[t - 1], columns[:t], model.fit_config.prob_clamp
        )
        values[:, t - 1] = _plug_in(model, f)
    values[:, k:] = values[:, k - 1 : k]
    return values[np.arange(longest) < lengths[:, None]]


def eval_process(model: RatioModel, scores) -> list:
    """Estimated ratio at every step of one score sequence."""
    return replay(model, [scores]).tolist()
