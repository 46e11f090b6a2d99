"""Self-contained numerical primitives.

Three kernels back the rest of the pipeline: L2-regularized logistic
regression (damped Newton with step halving), pool-adjacent-violators
isotonic regression, and exact binomial upper tails in log space. No
external solver is used; tests verify each kernel against an independent
brute-force oracle.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidTrajectory,
    LengthMismatch,
    OutOfRange,
    SingleClassData,
)

DEFAULT_PROB_CLAMP = 1e-6


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for the logistic kernel.

    l2_lambda penalizes squared weight norm (the intercept is never
    penalized); prob_clamp bounds predicted probabilities away from 0 and 1
    so downstream ratios stay finite. The default penalty is a light floor:
    informative verifiers induce large true weights, and heavy shrinkage
    biases the estimated ratio process downward at every step.
    """

    l2_lambda: float = 0.02
    max_iters: int = 100
    tolerance: float = 1e-8
    prob_clamp: float = DEFAULT_PROB_CLAMP

    def __post_init__(self):
        if self.l2_lambda < 0:
            raise OutOfRange(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.max_iters < 1:
            raise OutOfRange(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tolerance <= 0:
            raise OutOfRange(f"tolerance must be > 0, got {self.tolerance}")
        # the ratio takes math.exp of logits up to log((1 - c)/c), which
        # raises OverflowError unless (1 - c)/c is a finite float
        if not (sys.float_info.min <= self.prob_clamp < 0.5):
            raise OutOfRange(
                f"prob_clamp must lie in [{sys.float_info.min!r}, 0.5), "
                f"got {self.prob_clamp}"
            )


@dataclass(frozen=True)
class LogisticModel:
    weights: tuple
    intercept: float


@dataclass(frozen=True)
class IsotonicModel:
    """Right-continuous step function: value of the greatest breakpoint <= s."""

    breakpoints: tuple
    values: tuple


def _sigmoid(z):
    # exp(-|z|) never overflows; each branch is the exact form for its sign
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_objective(theta, Z, y, l2_lambda):
    """Penalized negative log-likelihood; theta[-1] is the free intercept."""
    z = Z @ theta
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return nll + l2_lambda * float(np.dot(theta[:-1], theta[:-1]))


def _design_matrix(features):
    """C-ordered (n, d+1) float array: the features, then a column of ones.

    A 2-D float array is read without a per-element rebuild. The layout is
    fixed because BLAS rounds products with C- and Fortran-ordered matrices
    differently, and a fit must depend on the feature values alone.
    """
    try:
        X = np.asarray(features, dtype=float)
    except ValueError:
        X = None  # ragged rows
    if X is None or X.ndim != 2:
        raise DimensionMismatch("feature vectors must all have the same dimension")
    Z = np.empty((X.shape[0], X.shape[1] + 1))
    Z[:, :-1] = X
    Z[:, -1] = 1.0
    return Z


def _require_finite(finite: bool, what: str) -> None:
    # an overflowed Hessian can still solve to a finite step, and a nan
    # objective rejects every candidate: either way the fit is garbage
    if not finite:
        raise InvalidTrajectory(f"the {what} of the logistic fit is not finite")


def fit_logistic(features, labels, cfg: FitConfig = FitConfig()) -> LogisticModel:
    """Minimize the L2-penalized logistic loss by damped Newton iterations.

    ``features`` is a sequence of equal-length vectors or a 2-D array.
    Stops at the first of: the gradient infinity-norm drops to
    cfg.tolerance; step halving finds no candidate that does not raise the
    objective; an accepted candidate equals the current weights bit for bit.
    At that fixed point every further iteration would repeat the same step
    and accept the same weights, so stopping returns exactly what running
    all cfg.max_iters iterations would. Otherwise it stops after
    cfg.max_iters Newton steps.
    """
    if len(features) != len(labels):
        raise DimensionMismatch(
            f"{len(features)} feature vectors vs {len(labels)} labels"
        )
    y = np.asarray(labels, dtype=float)
    if not ((y == 0.0) | (y == 1.0)).all():
        raise OutOfRange("labels must be binary 0/1")
    if y.all() or not y.any():
        raise SingleClassData("need at least one example of each label")
    Z = _design_matrix(features)
    d = Z.shape[1] - 1
    theta = np.zeros(d + 1)
    # overflow shows as a non-finite objective, gradient or Hessian, each
    # checked below; a candidate that overflows is only rejected
    with np.errstate(over="ignore", invalid="ignore"):
        obj = logistic_objective(theta, Z, y, cfg.l2_lambda)
        _require_finite(math.isfinite(obj), "objective")
        for _ in range(cfg.max_iters):
            mu = _sigmoid(Z @ theta)
            grad = Z.T @ (mu - y)
            grad[:-1] += 2.0 * cfg.l2_lambda * theta[:-1]
            grad_norm = float(np.max(np.abs(grad)))
            _require_finite(math.isfinite(grad_norm), "gradient")
            if grad_norm <= cfg.tolerance:
                break
            w = np.maximum(mu * (1.0 - mu), 1e-12)
            hess = Z.T @ (w[:, None] * Z)
            hess[np.arange(d), np.arange(d)] += 2.0 * cfg.l2_lambda
            _require_finite(np.isfinite(hess).all(), "Hessian")
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            # halve the step until the objective actually decreases
            scale = 1.0
            while scale > 2.0 ** -40:
                cand = theta - scale * step
                cand_obj = logistic_objective(cand, Z, y, cfg.l2_lambda)
                if cand_obj <= obj:
                    break
                scale *= 0.5
            else:
                break
            if np.array_equal(cand, theta):
                break
            theta, obj = cand, cand_obj
    return LogisticModel(weights=tuple(theta[:-1].tolist()), intercept=float(theta[-1]))


def predict_proba(
    model: LogisticModel, x: Sequence, prob_clamp: float = DEFAULT_PROB_CLAMP
):
    """Clamped sigmoid(weights . x + intercept); never returns 0 or 1.

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
    return np.clip(_sigmoid(z), prob_clamp, 1.0 - prob_clamp)


def fit_isotonic(xs, ys) -> IsotonicModel:
    """Least-squares non-decreasing fit of ys against xs (PAVA).

    Equal xs are pooled first (a monotone function cannot separate them);
    the fitted blocks collapse to (breakpoint, value) pairs.
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} xs vs {len(ys)} ys")
    if len(xs) == 0:
        raise LengthMismatch("need at least one point")
    x = np.asarray(xs, dtype=float)
    order = np.argsort(x, kind="stable")
    x_sorted = x[order].tolist()
    y_sorted = np.asarray(ys, dtype=float)[order].tolist()

    # pool ties in x
    grp_x, grp_y, grp_w = [], [], []
    for x, y in zip(x_sorted, y_sorted):
        if grp_x and x == grp_x[-1]:
            grp_w[-1] += 1.0
            grp_y[-1] += (y - grp_y[-1]) / grp_w[-1]
        else:
            grp_x.append(x)
            grp_y.append(y)
            grp_w.append(1.0)

    # pool adjacent violators; blocks[i] = [value, weight, first_group_index]
    blocks = []
    for i, (y, w) in enumerate(zip(grp_y, grp_w)):
        blocks.append([y, w, i])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v1, w1, i1 = blocks[-2]
            v2, w2, _ = blocks[-1]
            blocks[-2:] = [[(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2, i1]]

    breakpoints, values = [], []
    for value, _, first in blocks:
        if values and value == values[-1]:
            continue
        breakpoints.append(grp_x[first])
        values.append(value)
    return IsotonicModel(breakpoints=tuple(breakpoints), values=tuple(values))


def apply_isotonic(model: IsotonicModel, s):
    """Step-function evaluation; inputs below the first breakpoint map to the
    first value.

    ``s`` is one float, which gives a float, or an array, which gives one
    value per element.
    """
    idx = np.searchsorted(model.breakpoints, s, side="right") - 1
    out = np.asarray(model.values)[np.maximum(idx, 0)]
    return float(out) if out.ndim == 0 else out


def binomial_sf(n: int, p: float, k: int) -> float:
    """Exact Pr[Binomial(n, p) >= k] via log-gamma summation.

    Valid for 0 <= k <= n + 1; relative error is a few ulps per term, far
    inside the 1e-10 contract against exact rational arithmetic.
    """
    try:
        n = operator.index(n)
        k = operator.index(k)
    except TypeError as exc:
        raise OutOfRange(f"n and k must be integers, got n={n!r}, k={k!r}") from exc
    if n < 1:
        raise OutOfRange(f"n must be a positive integer, got {n!r}")
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"p must lie in [0, 1], got {p}")
    if not (0 <= k <= n + 1):
        raise OutOfRange(f"k must be an integer in [0, {n + 1}], got {k!r}")
    if k == 0:
        return 1.0
    if k == n + 1:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    log_cn = math.lgamma(n + 1)
    terms = [
        log_cn - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q
        for i in range(k, n + 1)
    ]
    top = max(terms)
    if top == -math.inf:
        return 0.0
    total = top + math.log(sum(math.exp(t - top) for t in terms))
    return min(1.0, math.exp(total))
