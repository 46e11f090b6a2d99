"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the code paths they check: binomial tails use
exact rational arithmetic, isotonic fits enumerate all block partitions,
gradients come from central finite differences, and first crossings come
from streaming one score at a time through a MonitorState.
"""

from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from seqgate.monitor import MonitorState


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
