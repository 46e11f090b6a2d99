"""Ground-truth generators with analytically known densities.

Scores are i.i.d. Gaussian per step given the label, and trajectory length
is geometric independently of the label, so the exact joint density ratio
factorizes into the per-step Gaussian likelihood ratio. This makes every
monitoring guarantee checkable against closed-form truth.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .monitor import DecisionRule
from .trajectories import CalibrationSet, LabeledTrajectory


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian per-step scores with a shared geometric length distribution.

    Defaults resemble probability-like verifier scores and the short
    trajectory lengths typical of tool-calling agents.
    """

    mu_null: float = 0.7
    mu_alt: float = 0.3
    sigma: float = 0.2
    stop_prob: float = 0.25
    prior_1: float = 0.6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            # False for nan, the infinities and an int too large for a float
            if not (number and abs(value) <= sys.float_info.max):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.mu_null == self.mu_alt:
            raise ValueError("mu_null and mu_alt must differ")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (0.0 < self.stop_prob <= 1.0):
            raise ValueError(f"stop_prob must lie in (0, 1], got {self.stop_prob}")
        if not (0.0 < self.prior_1 < 1.0):
            raise ValueError(f"prior_1 must lie strictly in (0, 1), got {self.prior_1}")


def _draw(spec: SyntheticSpec, label: int, rng: np.random.Generator, ident: str):
    length = int(rng.geometric(spec.stop_prob))
    mu = spec.mu_null if label == 1 else spec.mu_alt
    scores = rng.normal(mu, spec.sigma, size=length)
    return LabeledTrajectory(id=ident, scores=scores.tolist(), label=label)


def sample_trajectory(spec: SyntheticSpec, label: int, seed: int) -> LabeledTrajectory:
    """One trajectory with the given label; deterministic in the seed."""
    rng = np.random.default_rng(seed)
    return _draw(spec, label, rng, f"synth-{label}-{seed}")


def sample_dataset(
    spec: SyntheticSpec, n: int, seed: int, label: Optional[int] = None
) -> CalibrationSet:
    """n trajectories with labels drawn from prior_1 (or forced to ``label``).

    Each item uses its own indexed sub-seed, so any prefix of the dataset is
    reproducible independently of n.
    """
    items = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        y = label if label is not None else int(rng.random() < spec.prior_1)
        items.append(_draw(spec, y, rng, f"synth-{seed}-{i:06d}"))
    return CalibrationSet(items)


def log_ratio_increments(spec: SyntheticSpec, scores) -> np.ndarray:
    theta = (spec.mu_alt - spec.mu_null) / spec.sigma**2
    mid = (spec.mu_alt + spec.mu_null) / 2.0
    return theta * (np.asarray(scores, dtype=float) - mid)


def true_ratio_process(spec: SyntheticSpec, scores) -> list:
    """Exact density ratio at every step: the cumulative Gaussian
    likelihood ratio (the shared length density cancels)."""
    return np.exp(np.cumsum(log_ratio_increments(spec, scores))).tolist()


def true_ratio_rule(spec: SyntheticSpec, threshold: float) -> DecisionRule:
    """Ratio rule on the exact process, for injecting ground truth."""
    return DecisionRule(
        lambda prefix: true_ratio_process(spec, prefix)[-1], threshold
    )


class ToyMarginalResult(NamedTuple):
    far: float
    alpha: float
    base_rate: float


def toy_marginal_example() -> ToyMarginalResult:
    """Two-point marginally calibrated verifier whose naive score-threshold
    rule massively overshoots the requested false alarm rate.

    The score takes value 0.005 with probability 0.99 and 0.5 with
    probability 0.01, and equals p(Y=1 | S) exactly. Rejecting at S <= 0.01
    is a false alarm about half the time even though alpha = 0.01.
    """
    p_low, p_high = Fraction(99, 100), Fraction(1, 100)
    s_low, s_high = Fraction(5, 1000), Fraction(1, 2)
    base_rate = s_low * p_low + s_high * p_high
    far = (s_low * p_low) / base_rate
    return ToyMarginalResult(far=float(far), alpha=0.01, base_rate=float(base_rate))
