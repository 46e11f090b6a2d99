"""Self-contained numerical primitives.

Two kernels back the rest of the pipeline: L2-regularized logistic
regression (damped Newton with step halving) and pool-adjacent-violators
isotonic regression. No external solver is used; tests verify each kernel
against an independent brute-force oracle. ``FitConfig`` and
``LogisticModel`` live in ``artifact``, and so does the exact binomial tail
behind the PAC threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifact import FitConfig, LogisticModel
from .errors import (
    DimensionMismatch,
    InvalidTrajectory,
    LengthMismatch,
    OutOfRange,
    SingleClassData,
)


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

