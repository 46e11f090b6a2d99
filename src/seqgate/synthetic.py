"""Ground-truth generators with analytically known densities.

Scores are i.i.d. Gaussian per step given the label, and trajectory length
is geometric independently of the label, so the exact joint density ratio
factorizes into the per-step Gaussian likelihood ratio. This makes every
monitoring guarantee checkable against closed-form truth.

This is the one module that draws through ``numpy.random``: each item's
seed words come from ``trajectories.seed_state``, and its label, length and
scores from numpy's own Generator and PCG64.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .artifact import count, number, probability
from .errors import OutOfRange
from .monitor import DecisionRule
from .trajectories import CalibrationSet, LabeledTrajectory, seed_state, seed_words


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian per-step scores with a shared geometric length distribution.

    Defaults resemble probability-like verifier scores and the short
    trajectory lengths typical of tool-calling agents. Every field is a
    finite ``number``: the means differ, sigma > 0, stop_prob lies in
    (0, 1] and prior_1 is a ``probability``.
    """

    mu_null: float = 0.7
    mu_alt: float = 0.3
    sigma: float = 0.2
    stop_prob: float = 0.25
    prior_1: float = 0.6

    def __post_init__(self):
        for f in fields(self):
            number(getattr(self, f.name), f.name)
        if self.mu_null == self.mu_alt:
            raise OutOfRange("mu_null and mu_alt must differ")
        if self.sigma <= 0:
            raise OutOfRange(f"sigma must be > 0, got {self.sigma}")
        if not (0.0 < self.stop_prob <= 1.0):
            raise OutOfRange(f"stop_prob must lie in (0, 1], got {self.stop_prob}")
        probability(self.prior_1, "prior_1")


def _draw(spec: SyntheticSpec, label: int, rng: np.random.Generator, ident: str):
    length = int(rng.geometric(spec.stop_prob))
    mu = spec.mu_null if label == 1 else spec.mu_alt
    try:
        scores = rng.normal(mu, spec.sigma, size=length)
    except (ValueError, MemoryError):  # numpy refuses an array this long
        raise OutOfRange(
            f"stop_prob={spec.stop_prob!r} drew a trajectory of {length} scores,"
            " too many to hold"
        ) from None
    return LabeledTrajectory(id=ident, scores=scores.tolist(), label=label)


def sample_trajectory(spec: SyntheticSpec, label: int, seed: int) -> LabeledTrajectory:
    """One trajectory with the given label; deterministic in the seed."""
    rng = np.random.default_rng(seed)
    return _draw(spec, label, rng, f"synth-{label}-{seed}")


def item_states(seed: int, n: int) -> np.ndarray:
    """Row i is ``SeedSequence((seed, i)).generate_state(4, np.uint64)``, for
    every i in range(n), computed in one pass over the items.

    ``seed`` is a ``count`` from 0 and n one below 2**32 (one entropy word).
    The entropy words are seed's 32-bit words, low first, then i:
    ``trajectories.seed_state`` hashes i as one uint32 lane of all items.
    """
    index = np.arange(count(n, "n", upper=2**32 - 1, lower=0), dtype=np.uint32)
    # every word mixes in the index lane, so each is a uint32 array
    state = np.column_stack(seed_state(seed_words(seed) + [index], 8))
    # pairs of words, low first, read as uint64 whatever the host's byte order
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _ItemSeed(ISeedSequence):
    """One row of ``item_states``, which PCG64 reads as its four seed words
    in place of a SeedSequence's ``generate_state(4, np.uint64)``."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def sample_dataset(
    spec: SyntheticSpec, n: int, seed: int, label: Optional[int] = None
) -> CalibrationSet:
    """n trajectories with labels drawn from prior_1 (or forced to ``label``).

    ``seed`` is a ``count`` from 0. Item i draws from
    ``default_rng(SeedSequence((seed, i)))``, so any prefix of the dataset is
    reproducible independently of n; ``item_states`` derives every item's
    seed words at once.
    """
    seed = count(seed, "seed", lower=0)
    items = []
    for i, state in enumerate(item_states(seed, n)):
        rng = np.random.Generator(np.random.PCG64(_ItemSeed(state)))
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
    from fractions import Fraction

    p_low, p_high = Fraction(99, 100), Fraction(1, 100)
    s_low, s_high = Fraction(5, 1000), Fraction(1, 2)
    base_rate = s_low * p_low + s_high * p_high
    far = (s_low * p_low) / base_rate
    return ToyMarginalResult(far=float(far), alpha=0.01, base_rate=float(base_rate))
