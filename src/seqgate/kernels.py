"""Self-contained numerical primitives.

Two kernels back the rest of the pipeline: L2-regularized logistic
regression (damped Newton with step halving) and pool-adjacent-violators
isotonic regression over (sum, count) blocks, exact for 0/1 labels. No
external solver is used; tests verify each kernel against an independent
brute-force or exact rational oracle. ``FitConfig`` and
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


def fit_logistic(
    features, labels, cfg: FitConfig = FitConfig(), start=None
) -> LogisticModel:
    """Minimize the L2-penalized logistic loss by damped Newton iterations.

    ``features`` is a sequence of equal-length vectors or a 2-D array.
    Newton starts from ``start``, the weights then the intercept, or from
    zeros when it is None. With cfg.l2_lambda > 0 the objective is strictly
    convex, so every start leads to the same optimum; a start near it takes
    fewer steps. Stops at the first of: the gradient infinity-norm drops to
    cfg.tolerance; step halving finds no candidate that does not raise the
    objective; an accepted candidate equals the current weights bit for bit.
    At that fixed point every further iteration would repeat the same step
    and accept the same weights, so from any start, stopping returns exactly
    what running all cfg.max_iters iterations would. Otherwise it stops
    after cfg.max_iters Newton steps.
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
    theta = np.zeros(d + 1) if start is None else np.array(start, dtype=float)
    if theta.shape != (d + 1,):
        raise DimensionMismatch(
            f"start must hold {d} weights and an intercept, got shape {theta.shape}"
        )
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

    Equal xs are pooled first (a monotone function cannot separate them).
    Each block is kept as (sum of ys, count, first x): adjacent blocks
    merge while the earlier mean is >= the later one, compared by cross
    products, so the values are strictly increasing and each is one
    division ``sum / count``. Integer ys (0/1 labels) give exact sums, so
    every value is the correctly rounded block mean; float ys give float
    sums through the same code.
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} xs vs {len(ys)} ys")
    if len(xs) == 0:
        raise LengthMismatch("need at least one point")
    x = np.asarray(xs, dtype=float)
    order = np.argsort(x, kind="stable")
    grp_x, starts, counts = np.unique(x[order], return_index=True, return_counts=True)
    sums = np.add.reduceat(np.asarray(ys)[order], starts)

    blocks = []  # (sum, count, first group's x), means strictly increasing
    for s, w, x0 in zip(sums.tolist(), counts.tolist(), grp_x.tolist()):
        while blocks and blocks[-1][0] * w >= s * blocks[-1][1]:
            s_prev, w_prev, x0 = blocks.pop()
            s, w = s_prev + s, w_prev + w
        blocks.append((s, w, x0))
    return IsotonicModel(
        breakpoints=tuple(x0 for _, _, x0 in blocks),
        values=tuple(s / w for s, w, _ in blocks),
    )


def apply_isotonic(model: IsotonicModel, s):
    """Step-function evaluation; inputs below the first breakpoint map to the
    first value.

    ``s`` is one float, which gives a float, or an array, which gives one
    value per element.
    """
    idx = np.searchsorted(model.breakpoints, s, side="right") - 1
    out = np.asarray(model.values)[np.maximum(idx, 0)]
    return float(out) if out.ndim == 0 else out

