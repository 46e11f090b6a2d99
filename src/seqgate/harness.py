"""Experiment harness: false-alarm/power curves over an alpha grid with
percentile confidence intervals across repeated random splits, a
calibration-size ablation, and the token-budget study.

All five methods share the same split per seed, so curves are paired
comparisons; the ratio methods share the ``ratio.Calibration`` that
``seqgate calibrate`` runs. Split seeds are derived by index from the master
seed, which makes every output a pure function of the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .artifact import DEFAULT_CAL_FRACTION, DEFAULT_DELTA, DEFAULT_DRE_FRACTION
from .artifact import DEFAULT_SPLITS, KNOWN_METHODS, count, probability
from .errors import DegenerateSplit, InsufficientCalibration, MissingTokens, OutOfRange
from .errors import SingleClassData
from .kernels import IsotonicModel, apply_isotonic, fit_isotonic
from .monitor import ratio_rule, raw_score_rule
from .ratio import Calibration, flatten, replay
from .trajectories import derive_seed, split_calibration

_RATIO_METHODS = dict(evaluator_pac="pac", evaluator_ville="ville", bonferroni="bonferroni")
NEVER_TERMINATE = "never_terminate"


@dataclass(frozen=True)
class ExperimentConfig:
    """alpha_grid (non-empty, increasing), cal_fraction, delta and dre_fraction
    hold ``probability`` values, n_splits is a ``count`` and seed a ``count``
    from 0."""

    alpha_grid: tuple
    n_splits: int = DEFAULT_SPLITS
    cal_fraction: float = DEFAULT_CAL_FRACTION
    delta: float = DEFAULT_DELTA
    seed: int = 0
    methods: tuple = KNOWN_METHODS
    dre_fraction: float = DEFAULT_DRE_FRACTION

    def __post_init__(self):
        object.__setattr__(self, "alpha_grid", tuple(self.alpha_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        grid = self.alpha_grid
        for alpha in grid:
            probability(alpha, "alpha_grid")
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise OutOfRange("alpha_grid must be non-empty and strictly increasing")
        count(self.n_splits, "n_splits")
        count(self.seed, "seed", lower=0)
        probability(self.cal_fraction, "cal_fraction")
        probability(self.delta, "delta")
        probability(self.dre_fraction, "dre_fraction")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise OutOfRange(f"unknown methods {unknown}; choose from {KNOWN_METHODS}")
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise OutOfRange(f"methods must be distinct and non-empty: {self.methods}")


@dataclass(frozen=True)
class CurvePoint:
    method: str
    alpha: float
    far_mean: float
    far_lo: float
    far_hi: float
    power_mean: float
    power_lo: float
    power_hi: float


@dataclass(frozen=True)
class TokenCurvePoint:
    method: str
    alpha: float
    tokens_used: int
    accuracy: float


@dataclass(frozen=True)
class AblationResult:
    cal_fraction: float
    curves: tuple
    error: Optional[str] = None


def pooled_isotonic(cal) -> IsotonicModel:
    """Isotonic recalibration map fit on the pooled (score, label) pairs of
    every step of every trajectory."""
    xs, _, lengths = flatten([item.scores for item in cal])
    labels = [item.label for item in cal]
    if len(set(labels)) < 2:
        raise SingleClassData("calibrated rule needs both labels present")
    return fit_isotonic(xs, np.repeat(labels, lengths))


def _first_steps(fired, starts) -> np.ndarray:
    """First 1-based step at which each trajectory's rule fired, 0 if it
    never did; ``fired`` concatenates the per-step flags of all trajectories
    and ``starts`` holds where each one begins."""
    never = fired.size
    first = np.minimum.reduceat(np.where(fired, np.arange(fired.size), never), starts)
    return np.where(first == never, 0, first - starts + 1)


class _SplitArtifacts:
    """Everything fitted once per split and shared by all methods."""

    def __init__(self, data, cfg: ExperimentConfig, split_seed: int):
        cal, test = split_calibration(data, cfg.cal_fraction, derive_seed(split_seed, 0))
        self.cal, self.test = cal, test
        self.null = np.array([item.label for item in test]) == 1

        # per-step statistic values of every test trajectory, concatenated
        self.raw, self.starts, lengths = flatten([item.scores for item in test])

        if any(m in _RATIO_METHODS for m in cfg.methods):
            self.calibration = Calibration(cal, cfg.dre_fraction, derive_seed(split_seed, 1))
            self.ratio = replay(self.calibration.model, self.raw, self.starts, lengths)

        if "calibrated" in cfg.methods:
            self.iso_model = pooled_isotonic(cal)
            self.calibrated = apply_isotonic(self.iso_model, self.raw)

    def decide(self, method: str, alpha: float, delta: float):
        """Per-test-trajectory first rejection step (0 = accepted)."""
        if method in _RATIO_METHODS:
            spec = self.calibration.threshold(_RATIO_METHODS[method], alpha, delta)
            rule, process = ratio_rule(self.calibration.model, spec.value), self.ratio
        else:  # the calibrated rule is the raw one on the recalibrated scores
            rule = raw_score_rule(alpha)
            process = self.calibrated if method == "calibrated" else self.raw
        return _first_steps(rule.fires(process), self.starts)

    def cells(self, cfg: ExperimentConfig):
        """(method, alpha, first rejection steps) for each requested cell in
        order; the steps are None where the PAC threshold is infeasible."""
        for method in cfg.methods:
            for alpha in cfg.alpha_grid:
                try:
                    steps = self.decide(method, alpha, cfg.delta)
                except InsufficientCalibration:
                    steps = None
                yield method, alpha, steps


def _far_power(null, rejections):
    """Rejected shares of the null and the alternative trajectories, each an
    int over an int, the division of ``sum(flags) / len(flags)``; (nan, nan)
    for an infeasible cell."""
    if rejections is None:
        return math.nan, math.nan
    rejected = rejections > 0
    n_null = int(np.count_nonzero(null))
    n_alt = null.size - n_null
    far = int(np.count_nonzero(rejected & null)) / n_null
    return far, int(np.count_nonzero(rejected & ~null)) / n_alt


def evaluate_split(data, cfg: ExperimentConfig, split_seed: int) -> dict:
    """Calibrate every requested method on one split and replay the test side.

    Returns {(method, alpha): (far, power)}; cells where the PAC threshold is
    infeasible for the available nulls come back as (nan, nan).
    """
    arts = _SplitArtifacts(data, cfg, split_seed)
    return {(m, a): _far_power(arts.null, steps) for m, a, steps in arts.cells(cfg)}


def _percentile(ordered, p):
    """np.percentile(ordered, p) of sorted floats without numpy.ma's import:
    the linear rule, interpolated from the upper value at weights >= 0.5."""
    index = (len(ordered) - 1) * (p / 100)
    if index >= len(ordered) - 1:
        return ordered[-1]
    i = math.floor(index)
    a, b, g = ordered[i], ordered[i + 1], index - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def _summary(values):
    arr = np.asarray(values, dtype=float)
    valid = arr[~np.isnan(arr)]
    if valid.size == 0:
        return math.nan, math.nan, math.nan
    mean = float(np.mean(valid))
    ordered = sorted(valid.tolist())
    lo, hi = _percentile(ordered, 2.5), _percentile(ordered, 97.5)
    # percentile intervals of very skewed samples can exclude the mean;
    # widen so the typed invariant lo <= mean <= hi always holds
    return mean, min(lo, mean), max(hi, mean)


def run_experiment(data, cfg: ExperimentConfig) -> list:
    """Mean and 95% percentile interval of FAR and power across splits."""
    cells = {}
    for i in range(cfg.n_splits):
        result = evaluate_split(data, cfg, derive_seed(cfg.seed, i))
        for key, pair in result.items():
            cells.setdefault(key, []).append(pair)
    points = []
    for (method, alpha), pairs in cells.items():
        fars, powers = zip(*pairs)
        points.append(CurvePoint(method, alpha, *_summary(fars), *_summary(powers)))
    return points


def token_study(data, cfg: ExperimentConfig) -> list:
    """Tokens spent vs accuracy retained when rejection terminates the
    trajectory at its rejection step.

    Uses the first derived split of the experiment protocol. Accuracy counts
    a terminated successful trajectory as wrong. The never-terminate
    baseline point is emitted first; infeasible PAC cells are skipped.
    """
    for item in data:
        if item.tokens is None:
            raise MissingTokens(f"trajectory {item.id!r} carries no token counts")

    arts = _SplitArtifacts(data, cfg, derive_seed(cfg.seed, 0))
    # cumulative counts: rejected at step r spends t[r - 1], and a trajectory
    # never rejected (r = 0) spends its last count t[-1]
    tokens = [item.tokens for item in arts.test]
    n_test = len(arts.test)
    points = [
        TokenCurvePoint(
            NEVER_TERMINATE, 0.0, sum(t[-1] for t in tokens),
            int(np.count_nonzero(arts.null)) / n_test,
        )
    ]
    for method, alpha, steps in arts.cells(cfg):
        if steps is None:
            continue
        used = sum(t[r - 1] for t, r in zip(tokens, steps.tolist()))
        kept = int(np.count_nonzero(arts.null & (steps == 0)))
        points.append(TokenCurvePoint(method, alpha, used, kept / n_test))
    return points


def ablation_configs(cfg: ExperimentConfig, fractions) -> list:
    """cfg at each calibration fraction; fractions that are empty, repeated
    or not each a valid cal_fraction raise OutOfRange."""
    fractions = tuple(fractions)
    if not fractions or len(set(fractions)) < len(fractions):
        raise OutOfRange(f"fractions must be distinct and non-empty: {fractions}")
    return [replace(cfg, cal_fraction=fraction) for fraction in fractions]


def calibration_ablation(data, cfg: ExperimentConfig, fractions) -> list:
    """run_experiment at each calibration fraction; a fraction whose splits
    degenerate is reported as failed without aborting the others."""
    # every fraction is checked before any runs
    results = []
    for sub in ablation_configs(cfg, fractions):
        try:
            curves = tuple(run_experiment(data, sub))
            results.append(AblationResult(cal_fraction=sub.cal_fraction, curves=curves))
        except DegenerateSplit as exc:
            results.append(
                AblationResult(cal_fraction=sub.cal_fraction, curves=(), error=str(exc))
            )
    return results
