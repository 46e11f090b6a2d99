"""Experiment harness: false-alarm/power curves over an alpha grid with
percentile confidence intervals across repeated random splits, a
calibration-size ablation, and the token-budget study.

All five methods share the same split per seed, so curves are paired
comparisons. Split seeds are derived by index from the master seed, which
makes every output a pure function of the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Optional

import numpy as np

from .errors import DegenerateSplit, InsufficientCalibration, MissingTokens, OutOfRange
from .kernels import FitConfig, apply_isotonic
from .monitor import KNOWN_METHODS, calibrated_score_rule, pooled_isotonic
from .monitor import ratio_rule, raw_score_rule
from .ratio import fit_ratio_model, replay
from .thresholds import null_maxima, pac_threshold, ville_threshold
from .trajectories import CalibrationSet, SplitConfig, offsets, split_calibration

_RATIO_METHODS = {"evaluator_pac", "evaluator_ville", "bonferroni"}
NEVER_TERMINATE = "never_terminate"


@dataclass(frozen=True)
class ExperimentConfig:
    alpha_grid: tuple
    n_splits: int = 50
    cal_fraction: float = 0.2
    delta: float = 0.05
    seed: int = 0
    methods: tuple = KNOWN_METHODS
    dre_fraction: float = 0.5
    fit_config: FitConfig = FitConfig()

    def __post_init__(self):
        object.__setattr__(self, "alpha_grid", tuple(self.alpha_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        grid = self.alpha_grid
        if not grid or any(not (0.0 < a < 1.0) for a in grid):
            raise OutOfRange("alpha_grid entries must lie strictly in (0, 1)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise OutOfRange("alpha_grid must be strictly increasing")
        if self.n_splits < 1:
            raise OutOfRange(f"n_splits must be >= 1, got {self.n_splits}")
        if not (0.0 < self.cal_fraction < 1.0):
            raise OutOfRange(f"cal_fraction must lie in (0, 1), got {self.cal_fraction}")
        if not (0.0 < self.delta < 1.0):
            raise OutOfRange(f"delta must lie in (0, 1), got {self.delta}")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise OutOfRange(f"unknown methods {unknown}; choose from {KNOWN_METHODS}")


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


def derive_seed(master: int, *key) -> int:
    """Stable indexed sub-seed derivation."""
    return int(np.random.SeedSequence((master,) + tuple(key)).generate_state(1)[0])


def _first_steps(fired, starts) -> np.ndarray:
    """First 1-based step at which each trajectory's rule fired, 0 if it
    never did; ``fired`` concatenates the per-step flags of all trajectories
    and ``starts`` holds where each one begins."""
    never = fired.size
    first = np.minimum.reduceat(np.where(fired, np.arange(fired.size), never), starts)
    return np.where(first == never, 0, first - starts + 1)


class _SplitArtifacts:
    """Everything fitted once per split and shared by all methods."""

    def __init__(self, data: CalibrationSet, cfg: ExperimentConfig, split_seed: int):
        cal, test = split_calibration(
            data, SplitConfig(cfg.cal_fraction, derive_seed(split_seed, 0))
        )
        self.cal = cal
        self.test = test
        self.pac_seed = derive_seed(split_seed, 2)
        self.t_cal_max = max(map(len, cal))
        self.null = np.array(test.labels()) == 1

        # per-step statistic values of every test trajectory, concatenated
        scores = [item.scores for item in test]
        self.starts = offsets(scores)
        self.raw = np.fromiter(chain.from_iterable(scores), float)

        if any(m in _RATIO_METHODS for m in cfg.methods):
            dre, thresh = split_calibration(
                cal, SplitConfig(cfg.dre_fraction, derive_seed(split_seed, 1))
            )
            self.ratio_model = fit_ratio_model(dre, cfg.fit_config)
            self.null_maxima = null_maxima(self.ratio_model, thresh)
            self.ratio = replay(self.ratio_model, scores)

        if "calibrated" in cfg.methods:
            self.iso_model = pooled_isotonic(cal)
            self.calibrated = apply_isotonic(self.iso_model, self.raw)

    def decide(self, method: str, alpha: float, delta: float):
        """Per-test-trajectory first rejection step (0 = accepted)."""
        if method == "raw":
            rule, process = raw_score_rule(alpha), self.raw
        elif method == "calibrated":
            rule = calibrated_score_rule(self.iso_model, alpha)
            process = self.calibrated
        else:
            if method == "evaluator_ville":
                thr = ville_threshold(alpha).value
            elif method == "bonferroni":
                thr = self.t_cal_max / alpha
            else:
                thr = pac_threshold(self.null_maxima, alpha, delta, self.pac_seed).value
            rule, process = ratio_rule(self.ratio_model, thr), self.ratio
        return _first_steps(rule.fires(process), self.starts)


def _far_power(null, rejections):
    """Rejected shares of the null and the alternative trajectories, each an
    int over an int, the division of ``sum(flags) / len(flags)``."""
    rejected = rejections > 0
    n_null = int(np.count_nonzero(null))
    n_alt = null.size - n_null
    far = int(np.count_nonzero(rejected & null)) / n_null
    return far, int(np.count_nonzero(rejected & ~null)) / n_alt


def evaluate_split(data: CalibrationSet, cfg: ExperimentConfig, split_seed: int) -> dict:
    """Calibrate every requested method on one split and replay the test side.

    Returns {(method, alpha): (far, power)}; cells where the PAC threshold is
    infeasible for the available nulls come back as (nan, nan).
    """
    arts = _SplitArtifacts(data, cfg, split_seed)
    out = {}
    for method in cfg.methods:
        for alpha in cfg.alpha_grid:
            try:
                rejections = arts.decide(method, alpha, cfg.delta)
            except InsufficientCalibration:
                out[(method, alpha)] = (math.nan, math.nan)
                continue
            out[(method, alpha)] = _far_power(arts.null, rejections)
    return out


def _summary(values):
    arr = np.asarray(values, dtype=float)
    valid = arr[~np.isnan(arr)]
    if valid.size == 0:
        return math.nan, math.nan, math.nan
    mean = float(np.mean(valid))
    lo = float(np.percentile(valid, 2.5))
    hi = float(np.percentile(valid, 97.5))
    # percentile intervals of very skewed samples can exclude the mean;
    # widen so the typed invariant lo <= mean <= hi always holds
    return mean, min(lo, mean), max(hi, mean)


def run_experiment(data: CalibrationSet, cfg: ExperimentConfig) -> list:
    """Mean and 95% percentile interval of FAR and power across splits."""
    cells = {
        (m, a): {"far": [], "power": []}
        for m in cfg.methods
        for a in cfg.alpha_grid
    }
    for i in range(cfg.n_splits):
        result = evaluate_split(data, cfg, derive_seed(cfg.seed, i))
        for key, (far, power) in result.items():
            cells[key]["far"].append(far)
            cells[key]["power"].append(power)

    points = []
    for method in cfg.methods:
        for alpha in cfg.alpha_grid:
            far_mean, far_lo, far_hi = _summary(cells[(method, alpha)]["far"])
            pow_mean, pow_lo, pow_hi = _summary(cells[(method, alpha)]["power"])
            points.append(
                CurvePoint(
                    method=method,
                    alpha=alpha,
                    far_mean=far_mean,
                    far_lo=far_lo,
                    far_hi=far_hi,
                    power_mean=pow_mean,
                    power_lo=pow_lo,
                    power_hi=pow_hi,
                )
            )
    return points


def token_study(data: CalibrationSet, cfg: ExperimentConfig) -> list:
    """Tokens spent vs accuracy retained when rejection terminates the
    trajectory at its rejection step.

    Uses the first derived split of the experiment protocol. Accuracy counts
    a terminated successful trajectory as wrong. The never-terminate
    baseline point is emitted first.
    """
    for item in data:
        if item.tokens is None:
            raise MissingTokens(f"trajectory {item.id!r} carries no token counts")

    arts = _SplitArtifacts(data, cfg, derive_seed(cfg.seed, 0))
    tokens = [item.tokens for item in arts.test]
    # token counts stay Python ints, picked by index from one flat list
    flat = list(chain.from_iterable(tokens))
    starts = offsets(tokens)
    last = starts + np.fromiter(map(len, tokens), int, count=len(tokens)) - 1
    n_test = len(arts.test)
    full_tokens = sum(map(flat.__getitem__, last.tolist()))
    base_accuracy = int(np.count_nonzero(arts.null)) / n_test

    points = [
        TokenCurvePoint(
            method=NEVER_TERMINATE,
            alpha=0.0,
            tokens_used=int(full_tokens),
            accuracy=base_accuracy,
        )
    ]
    for method in cfg.methods:
        for alpha in cfg.alpha_grid:
            try:
                rejections = arts.decide(method, alpha, cfg.delta)
            except InsufficientCalibration:
                continue
            spent = np.where(rejections > 0, starts + rejections - 1, last)
            used = sum(map(flat.__getitem__, spent.tolist()))
            kept = int(np.count_nonzero(arts.null & (rejections == 0)))
            points.append(
                TokenCurvePoint(
                    method=method,
                    alpha=alpha,
                    tokens_used=int(used),
                    accuracy=kept / n_test,
                )
            )
    return points


def calibration_ablation(data: CalibrationSet, cfg: ExperimentConfig, fractions) -> list:
    """run_experiment at each calibration fraction; a fraction whose splits
    degenerate is reported as failed without aborting the others."""
    results = []
    for fraction in fractions:
        sub = replace(cfg, cal_fraction=fraction)
        try:
            curves = tuple(run_experiment(data, sub))
            results.append(AblationResult(cal_fraction=fraction, curves=curves))
        except DegenerateSplit as exc:
            results.append(
                AblationResult(cal_fraction=fraction, curves=(), error=str(exc))
            )
    return results


CURVE_HEADER = "method,alpha,far_mean,far_lo,far_hi,power_mean,power_lo,power_hi"
TOKEN_HEADER = "method,alpha,tokens_used,accuracy"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_curves_csv(points, fh, prefix_column=None) -> None:
    """Curve points as CSV. With ``prefix_column``, ``points`` holds
    (value, point) pairs and each value leads its row under that column."""
    header = CURVE_HEADER if prefix_column is None else f"{prefix_column},{CURVE_HEADER}"
    fh.write(header + "\n")
    for item in points:
        lead, p = ([], item) if prefix_column is None else ([_fmt(item[0])], item[1])
        values = [_fmt(getattr(p, name)) for name in CURVE_HEADER.split(",")[1:]]
        fh.write(",".join(lead + [p.method] + values) + "\n")


def write_tokens_csv(points, fh) -> None:
    fh.write(TOKEN_HEADER + "\n")
    for p in points:
        fh.write(
            ",".join([p.method, _fmt(p.alpha), str(p.tokens_used), _fmt(p.accuracy)])
            + "\n"
        )
