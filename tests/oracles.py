"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the code paths they check: binomial tails use
exact rational arithmetic, isotonic fits enumerate all block partitions
or pool adjacent violators in Fractions,
the position-major score layout is built score by score in lists,
gradients come from central finite differences, and first crossings come
from streaming one score at a time through a MonitorState. Step-model
probabilities come from the clamped sigmoid of the logit, which the
package itself never computes: it takes the ratio straight from the logit.
Synthetic datasets come from numpy's own SeedSequence, one item at a time,
and derived seeds, permutations and splits from numpy's SeedSequence and
``default_rng``, which the package ports instead of calling.

The ground truth the package is checked against lives here too, not in the
library: the closed-form Gaussian ratio of a ``SyntheticSpec``
(``true_ratio_process`` and ``true_ratio_rule``), the paper's two-point
toy example (``toy_marginal_example``), and ``calibrated_score_rule``, the
streaming form of the isotonic baseline that the harness decides in batch.
"""

from fractions import Fraction
from itertools import product
from math import comb, floor
from typing import NamedTuple

import numpy as np

from seqgate.errors import DimensionMismatch
from seqgate.artifact import DEFAULT_PROB_CLAMP, ratio_statistic
from seqgate.kernels import IsotonicModel, apply_isotonic
from seqgate.monitor import DecisionRule, MonitorState
from seqgate.synthetic import SyntheticSpec
from seqgate.trajectories import LabeledTrajectory, _per_label_take


def exact_binomial_pmf(n: int, p: Fraction) -> list:
    q = 1 - p
    return [Fraction(comb(n, i)) * p**i * q ** (n - i) for i in range(n + 1)]


def exact_binomial_sf(n: int, p: Fraction, k: int) -> Fraction:
    """Pr[Bin(n, p) >= k] by exact rational tail summation."""
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    pmf = exact_binomial_pmf(n, p)
    return sum(pmf[k:], Fraction(0))


def exact_binomial_tails(n: int, p: Fraction) -> list:
    """All upper tails Pr[Bin >= k] for k = 0..n+1, exactly."""
    pmf = exact_binomial_pmf(n, p)
    tails = [Fraction(0)] * (n + 2)
    for k in range(n, -1, -1):
        tails[k] = tails[k + 1] + pmf[k]
    return tails


def pac_index_oracle(n: int, alpha: Fraction, delta: Fraction):
    """Smallest i in 1..n with Pr[Bin(n, 1-alpha) >= i] <= delta, or None."""
    tails = exact_binomial_tails(n, 1 - alpha)
    for i in range(1, n + 1):
        if tails[i] <= delta:
            return i
    return None


def isotonic_fraction_oracle(xs, ys):
    """(breakpoints, values) of the exact PAV fit of ys against xs.

    Ties in x (compared with ==, so -0.0 pools with 0.0) are pooled into
    one Fraction mean; adjacent blocks merge while the earlier mean exceeds
    the later one, and blocks of equal mean are joined at the end. Each
    value is the block mean rounded once, by float(Fraction).
    """
    pairs = sorted(zip(xs, ys), key=lambda p: p[0])
    groups = []  # [first x, sum, count]
    for x, y in pairs:
        if groups and x == groups[-1][0]:
            groups[-1][1] += Fraction(y)
            groups[-1][2] += 1
        else:
            groups.append([x, Fraction(y), 1])
    blocks = []  # [first x, mean, count]
    for x, total, count in groups:
        blocks.append([x, total / count, count])
        while len(blocks) > 1 and blocks[-2][1] > blocks[-1][1]:
            (x1, m1, c1), (_, m2, c2) = blocks[-2:]
            blocks[-2:] = [[x1, (m1 * c1 + m2 * c2) / (c1 + c2), c1 + c2]]
    joined = [b for i, b in enumerate(blocks) if i == 0 or b[1] != blocks[i - 1][1]]
    return tuple(float(x) for x, _, _ in joined), tuple(float(m) for _, m, _ in joined)


def isotonic_bruteforce(ys):
    """Monotone least-squares fit by enumerating every consecutive-block
    partition and keeping the feasible one with minimal squared error."""
    n = len(ys)
    best_fit, best_sse = None, None
    for cuts in product([0, 1], repeat=n - 1):
        blocks, start = [], 0
        for i, cut in enumerate(cuts):
            if cut:
                blocks.append((start, i + 1))
                start = i + 1
        blocks.append((start, n))
        means = [sum(ys[a:b]) / (b - a) for a, b in blocks]
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        fit = []
        for (a, b), m in zip(blocks, means):
            fit.extend([m] * (b - a))
        sse = sum((f - y) ** 2 for f, y in zip(fit, ys))
        if best_sse is None or sse < best_sse:
            best_fit, best_sse = fit, sse
    return best_fit


def central_diff_gradient(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        hi = np.zeros_like(x)
        hi[i] = h
        grad[i] = (fn(x + hi) - fn(x - hi)) / (2 * h)
    return grad


def logistic_gradient(theta, Z, y, l2_lambda):
    """Gradient of kernels.logistic_objective: Z^T (sigmoid(Z theta) - y),
    plus 2 * l2_lambda * theta on the weights; the intercept, last, is free.
    The sigmoid is exp(-log(1 + exp(-z))), which never overflows."""
    mu = np.exp(-np.logaddexp(0.0, -(Z @ theta)))
    grad = Z.T @ (mu - y)
    grad[:-1] += 2.0 * l2_lambda * theta[:-1]
    return grad


def predict_proba(model, x, prob_clamp=DEFAULT_PROB_CLAMP):
    """Clamped sigmoid(weights . x + intercept) of a LogisticModel; never
    returns 0 or 1.

    ``x`` holds one entry per weight: a float each for one input, or an
    equal-length array each for a batch, which gives one probability per
    array element. The dot product is summed left to right and then the
    intercept is added, so a batch element equals the single-input result
    bit for bit.
    """
    if len(x) != len(model.weights):
        raise DimensionMismatch(
            f"input dimension {len(x)} != model dimension {len(model.weights)}"
        )
    z = 0.0
    for w, v in zip(model.weights, x):
        z = z + w * v
    z = z + model.intercept
    # exp(-|z|) never overflows; each branch is the exact form for its sign
    e = np.exp(-np.abs(z))
    p = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.clip(p, prob_clamp, 1.0 - prob_clamp)


def eval_ratio(model, prefix) -> float:
    """The package's own plug-in ratio at the end of one prefix: a shorthand
    for ratio_statistic, not an independent oracle."""
    return ratio_statistic(model)(prefix)


def prefixes_oracle(sequences, width):
    """ratio.prefixes as plain lists built score by score: for each step
    t = 1..width the indices of the sequences at least t long with one row
    per position j < t of their (j+1)-th scores, in input order."""
    steps = []
    for t in range(1, width + 1):
        live = [i for i, sequence in enumerate(sequences) if len(sequence) >= t]
        steps.append((live, [[sequences[i][j] for i in live] for j in range(t)]))
    return steps


def run_offline(rule, traj):
    """Observe every score of a trajectory in order, then finalize.

    Returns (terminal status, first rejection step or None).
    """
    state = MonitorState(rule)
    for score in traj.scores:
        if state.observe(score).terminal:
            break
    status = state.finalize()
    return status, status.step if status.decision == "rejected" else None


def sample_dataset_oracle(spec, n, seed, label=None):
    """synthetic.sample_dataset as a per-item loop: item i draws from
    ``default_rng(SeedSequence((seed, i)))``, built by numpy."""
    items = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        y = label if label is not None else int(rng.random() < spec.prior_1)
        length = int(rng.geometric(spec.stop_prob))
        mu = spec.mu_null if y == 1 else spec.mu_alt
        scores = rng.normal(mu, spec.sigma, size=length).tolist()
        items.append(LabeledTrajectory(id=f"synth-{seed}-{i:06d}", scores=scores, label=y))
    return tuple(items)


def derive_seed_oracle(master, *key):
    """trajectories.derive_seed, by numpy's own SeedSequence."""
    return int(np.random.SeedSequence((master,) + key).generate_state(1)[0])


def permutations_oracle(seed, sizes):
    """``permutation(n)`` for each n in turn, all from one
    ``default_rng(seed)``, as lists."""
    rng = np.random.default_rng(seed)
    return [rng.permutation(n).tolist() for n in sizes]


def split_calibration_oracle(cal, fraction, seed):
    """trajectories.split_calibration written item by item on numpy's
    ``default_rng(seed)``: the same permutation calls in the same order,
    each side in input order."""
    k = int(floor(fraction * len(cal) + 0.5))
    labels = [item.label for item in cal]
    take = _per_label_take({y: labels.count(y) for y in (1, 0)}, k)
    rng = np.random.default_rng(seed)
    chosen = set()
    for label in (1, 0):
        idx = [i for i, item in enumerate(cal) if item.label == label]
        order = rng.permutation(len(idx))
        chosen.update(idx[j] for j in order[: take[label]])
    first = tuple(item for i, item in enumerate(cal) if i in chosen)
    second = tuple(item for i, item in enumerate(cal) if i not in chosen)
    return first, second


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


def calibrated_score_rule(model: IsotonicModel, alpha: float) -> DecisionRule:
    return DecisionRule(
        lambda prefix: apply_isotonic(model, prefix[-1]), alpha, reject_below=True
    )
