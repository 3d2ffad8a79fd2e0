"""Local minimizers: quasi-Newton descent and implicit filtering.

Both optimizers see the objective as a black box that returns a finite value
or +inf, and both report the exact number of objective evaluations they
consumed.  Gradients are always numerical; the objective never supplies
derivatives.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .boxes import SearchBox
from .optreport import BudgetExhausted, CountedObjective, OptReport

# Armijo sufficient-decrease constant; the curvature side of the Wolfe
# conditions is enforced as a positive-curvature gate on the Hessian update.
WOLFE_C1 = 1e-4

# Pattern-search scales 2^-1 .. 2^-7, advanced one step each time a full
# stencil fails to improve the incumbent.
DEFAULT_SCALES = tuple(2.0 ** -m for m in range(1, 8))

# Relative central-difference step of the BFGS gradient (see central_gradient).
GRAD_STEP = 1e-6

# BFGS stops once every gradient component is below this in magnitude.
GRAD_TOL = 1e-6

# Cap on BFGS iterations (line searches).
MAX_ITERS = 400


def central_gradient(objective, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient, 2 * len(x) objective calls: x + h_k e_k,
    then x - h_k e_k, per k, as one batch when the objective has `batch`.

    The step in coordinate k is GRAD_STEP * max(1, |x_k|), which keeps the
    differences well scaled on log10 lengthscale surfaces.
    """
    x = np.asarray(x, dtype=float)
    steps = [GRAD_STEP * max(1.0, abs(v)) for v in x.tolist()]
    points = []
    for k, h in enumerate(steps):
        step = np.zeros_like(x)
        step[k] = h
        points += [x + step, x - step]
    many = getattr(objective, "batch", None)
    values = many(points) if many is not None else [objective(p) for p in points]
    return np.array([(values[2 * k] - values[2 * k + 1]) / (2.0 * h) for k, h in enumerate(steps)])


def _cubic_step(f0, slope, a1, f1, a0, f0v):
    """Minimizer of the cubic through (0, f0) with slope, (a1, f1), (a0, f0v)."""
    denom = a0 * a0 * a1 * a1 * (a1 - a0)
    if denom == 0.0:
        return math.nan
    r1 = f1 - f0 - slope * a1
    r0 = f0v - f0 - slope * a0
    a = (a0 * a0 * r1 - a1 * a1 * r0) / denom
    b = (-(a0 ** 3) * r1 + (a1 ** 3) * r0) / denom
    if a == 0.0:
        if b == 0.0:
            return math.nan
        return -slope / (2.0 * b)
    disc = b * b - 3.0 * a * slope
    if disc < 0.0:
        return math.nan
    return (-b + math.sqrt(disc)) / (3.0 * a)


def _armijo_line_search(wrapped, x, f0, grad_slope, direction, alpha0):
    """Backtracking line search with cubic interpolation.

    Accepts the first step satisfying the Armijo condition with c1=WOLFE_C1.
    Returns (alpha, f_new) or (None, None) when no acceptable step exists
    within the backtracking budget.
    """
    alpha = alpha0
    prev: tuple[float, float] | None = None
    for _ in range(30):
        f_trial = wrapped(x + alpha * direction)
        # Strict decrease is required on top of the Armijo inequality: near
        # the noise floor the threshold term underflows against f0 and a
        # numerically zero step would otherwise be accepted forever.
        if (
            math.isfinite(f_trial)
            and f_trial <= f0 + WOLFE_C1 * alpha * grad_slope
            and f_trial < f0
        ):
            return alpha, f_trial
        if not math.isfinite(f_trial):
            alpha_new = 0.3 * alpha
        elif prev is None:
            denom = 2.0 * (f_trial - f0 - grad_slope * alpha)
            alpha_new = -grad_slope * alpha * alpha / denom if denom > 0 else 0.5 * alpha
        else:
            alpha_new = _cubic_step(f0, grad_slope, alpha, f_trial, prev[0], prev[1])
        if math.isfinite(f_trial):
            prev = (alpha, f_trial)
        if not math.isfinite(alpha_new):
            alpha_new = 0.5 * alpha
        alpha = min(max(alpha_new, 0.1 * alpha), 0.5 * alpha)
        if alpha < 1e-12:
            break
    return None, None


def _inverse_hessian_update(h_inv, s, y, sy):
    """BFGS update of the inverse Hessian for the step s and gradient change y;
    sy = s'y must be positive (each caller gates it on its own curvature test)."""
    rho = 1.0 / sy
    v = np.eye(s.size) - rho * np.outer(s, y)
    return v @ h_inv @ v.T + rho * np.outer(s, s)


def bfgs_minimize(objective, beta0: np.ndarray) -> OptReport:
    """Unconstrained quasi-Newton descent with numerical gradients.

    Uses the inverse-Hessian rank-two update, central-difference gradients
    (2d calls each), and an Armijo/cubic backtracking line search; the
    curvature side of the Wolfe conditions gates the Hessian update.  Stops
    on gradient norm, after MAX_ITERS iterations, or on a failed line search.
    """
    wrapped = CountedObjective(objective)
    x = np.atleast_1d(np.asarray(beta0, dtype=float))
    d = x.size
    f = wrapped(x)
    if not math.isfinite(f):
        return wrapped.report()
    grad = central_gradient(wrapped, x)
    h_inv = np.eye(d)
    scaled = False
    for iteration in range(MAX_ITERS):
        if not np.all(np.isfinite(grad)):
            break
        if np.max(np.abs(grad)) < GRAD_TOL:
            break
        direction = -h_inv @ grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            # Stale curvature made the direction non-descent; restart.
            h_inv = np.eye(d)
            scaled = False
            direction = -grad
            slope = -float(grad @ grad)
        if iteration == 0:
            alpha0 = min(1.0, 1.0 / max(1.0, float(np.max(np.abs(direction)))))
        else:
            alpha0 = 1.0
        alpha, f_new = _armijo_line_search(wrapped, x, f, slope, direction, alpha0)
        if alpha is None:
            break
        x_new = x + alpha * direction
        grad_new = central_gradient(wrapped, x_new)
        if np.all(np.isfinite(grad_new)):
            s = x_new - x
            y = grad_new - grad
            sy = float(s @ y)
            # Positive curvature keeps the update well defined; it holds
            # whenever the Wolfe curvature condition (c2) does and also
            # after the short backtracked steps that violate it.
            if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
                if not scaled:
                    h_inv = (sy / float(y @ y)) * np.eye(d)
                    scaled = True
                h_inv = _inverse_hessian_update(h_inv, s, y, sy)
        x, f, grad = x_new, f_new, grad_new
    return wrapped.report()


def _affine_gradient(samples: list[tuple[np.ndarray, float]], d: int) -> np.ndarray | None:
    """Least-squares slope of an affine fit to the finite samples."""
    finite = [(pt, val) for pt, val in samples if math.isfinite(val)]
    if len(finite) < d + 1:
        return None
    pts = np.array([pt for pt, _ in finite])
    vals = np.array([val for _, val in finite])
    centered = pts - pts.mean(axis=0)
    design = np.column_stack([np.ones(len(finite)), centered])
    coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
    grad = coeffs[1:]
    if not np.all(np.isfinite(grad)):
        return None
    return grad


def implicit_filtering(
    objective, beta0: np.ndarray, box: SearchBox, max_fe: int | None = None
) -> OptReport:
    """Bound-constrained pattern search with a quasi-Newton model step.

    At each scale h the incumbent's 2d-point stencil (incumbent +- h * box
    span per coordinate, clamped into the box) is evaluated; the scale
    shrinks only when a full stencil fails to improve the incumbent.  After
    every stencil phase an affine model is fit by least squares to the points
    sampled at the current scale and one quasi-Newton step on that model is
    tried, projected back into the box and discarded if it does not improve.
    """
    lo, hi = box.lower, box.upper
    span = hi - lo
    d = box.d
    wrapped = CountedObjective(objective, max_fe=max_fe)
    x = np.atleast_1d(np.asarray(beta0, dtype=float))
    if not (np.all(x >= lo) and np.all(x <= hi)):
        warnings.warn("implicit filtering start outside the box; clamping", stacklevel=2)
        x = np.clip(x, lo, hi)
    try:
        f = wrapped(x)
        h_inv = np.eye(d)
        prev_grad: np.ndarray | None = None
        prev_x: np.ndarray | None = None
        scale_idx = 0
        samples: list[tuple[np.ndarray, float]] = [(x.copy(), f)]
        while scale_idx < len(DEFAULT_SCALES):
            h = DEFAULT_SCALES[scale_idx]
            best_f = f
            best_pt: np.ndarray | None = None
            stencil = []
            for j in range(d):
                for sign in (1.0, -1.0):
                    pt = x.copy()
                    pt[j] += sign * h * span[j]
                    stencil.append(np.clip(pt, lo, hi))
            values = wrapped.batch(stencil)
            if len(values) < len(stencil):
                raise BudgetExhausted
            for pt, val in zip(stencil, values):
                samples.append((pt, val))
                if val < best_f:
                    best_f, best_pt = val, pt
            stencil_improved = best_pt is not None
            if stencil_improved:
                x, f = best_pt, best_f
            grad = _affine_gradient(samples, d)
            if grad is not None:
                if prev_grad is not None and prev_x is not None:
                    s = x - prev_x
                    y = grad - prev_grad
                    sy = float(s @ y)
                    if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
                        h_inv = _inverse_hessian_update(h_inv, s, y, sy)
                prev_grad, prev_x = grad, x.copy()
                trial = np.clip(x - h_inv @ grad, lo, hi)
                if not np.array_equal(trial, x):
                    val = wrapped(trial)
                    samples.append((trial, val))
                    if val < f:
                        x, f = trial, val
            if not stencil_improved:
                scale_idx += 1
                samples = [(x.copy(), f)]
                prev_grad = prev_x = None
    except BudgetExhausted:
        pass
    return wrapped.report()
