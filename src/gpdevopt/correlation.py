"""Gaussian spatial correlation matrices with nugget regularization.

The correlation between two design points is a product of per-dimension
Gaussian factors, exp(-10**beta_k * |x_ik - x_jk|**p_k).  Because nearby
points make the matrix nearly singular, a nugget (small diagonal inflation)
is applied whenever the condition number would exceed exp(a); the smallest
such nugget is computed in closed form from the extreme eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

# Condition numbers are capped here when the smallest eigenvalue underflows
# relative to the largest, so the nugget formula stays finite.
KAPPA_CLAMP = 1e14


class IllConditionedError(RuntimeError):
    """Correlation matrix could not be factorized, even after the nugget."""


def powered_distances(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|x_ik - y_jk|**p_k for every pair of rows, as a (d, m, n) array.

    The result is a transposed view of an (m, n, d) array built in place.
    That memory layout fixes the reduction order of `gaussian_kernel`, and
    so the bits of every correlation matrix and vector the package computes.
    """
    powered = x[:, None, :] - y[None, :, :]
    np.abs(powered, out=powered)
    powered **= p
    return powered.transpose(2, 0, 1)


def gaussian_kernel(powered: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """exp(-sum_k 10**beta_k * powered[k]): the Gaussian product correlation."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.tensordot(10.0 ** beta, powered, axes=1)
        np.negative(out, out=out)
        return np.exp(out, out=out)


class DistanceCache:
    """Per-dimension powered distances |x_ik - x_jk|**p_k for one design.

    Building the correlation matrix dominates the cost of a deviance
    evaluation, so the powered distances are computed once per design and
    reused for every beta.
    """

    def __init__(self, points: np.ndarray, p: np.ndarray):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if pts.shape[1] != p.size:
            raise ValueError(
                f"design has {pts.shape[1]} columns but p has length {p.size}"
            )
        self.n, self.d = pts.shape
        self._powered = powered_distances(pts, pts, p)

    def correlation(self, beta: np.ndarray) -> np.ndarray:
        """Correlation matrix at the given log10 inverse lengthscales.

        R[i, j] = prod_k exp(-10**beta_k * |x_ik - x_jk|**p_k); the diagonal is
        exactly one and the result is exactly symmetric.
        """
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.d,):
            raise ValueError(f"beta must have length {self.d}, got {beta.shape}")
        return gaussian_kernel(self._powered, beta)


def nugget_and_kappa(R: np.ndarray, a: float) -> tuple[float, float]:
    """Nugget lower bound delta and (clamped) condition number kappa of R.

    The bound is the smallest delta with kappa(R + delta*I) <= exp(a):
    lmax * (kappa - exp(a)) / (kappa * (exp(a) - 1)), floored at zero, from
    the extreme eigenvalues of the symmetric matrix R.  When lmin underflows
    below 1e-14 * lmax the condition number is clamped so the formula stays
    finite.
    """
    w = np.linalg.eigvalsh(np.asarray(R, dtype=float))
    lmin, lmax = float(w[0]), float(w[-1])
    if lmax <= 0.0:
        raise ValueError("matrix has no positive eigenvalue")
    kappa = lmax / lmin if lmin > lmax * 1e-14 else KAPPA_CLAMP
    ea = math.exp(a)
    if kappa <= ea:
        return 0.0, kappa
    delta = lmax * (kappa - ea) / (kappa * (ea - 1.0))
    return delta, kappa


def nugget_lower_bound(R: np.ndarray, a: float = 25.0) -> float:
    """Smallest nugget keeping the condition number of R + delta*I below exp(a)."""
    return nugget_and_kappa(R, a)[0]


@dataclass(frozen=True)
class FactoredCorrelation:
    """Cholesky-factored nugget-regularized correlation matrix R + delta*I.

    A single lower-triangular factor serves both the inverse action and the
    log-determinant needed by the deviance.  Instances are immutable.
    """

    delta: float
    log_det: float
    factor: np.ndarray
    kappa: float

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(R + delta*I)^-1 b via the triangular factor."""
        return linalg.cho_solve((self.factor, True), b, check_finite=False)

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b, so that ||half_solve(b)||^2 = b' (R + delta*I)^-1 b."""
        return linalg.solve_triangular(self.factor, b, lower=True, check_finite=False)


def factorize(R: np.ndarray, delta: float, kappa: float) -> FactoredCorrelation:
    """Triangular factorization of R + delta*I, recording kappa(R) alongside.

    Raises IllConditionedError when the shifted matrix is numerically not
    positive definite; callers treat the corresponding deviance as +inf.
    """
    if delta < 0.0:
        raise ValueError("nugget delta must be nonnegative")
    R = np.asarray(R, dtype=float)
    if not np.all(np.isfinite(R)):
        raise IllConditionedError("correlation matrix contains non-finite entries")
    n = R.shape[0]
    shifted = R + delta * np.eye(n) if delta > 0.0 else R
    try:
        L = linalg.cholesky(shifted, lower=True, check_finite=False)
    except linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"factorization failed at delta={delta:g}"
        ) from exc
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    return FactoredCorrelation(
        delta=float(delta), log_det=log_det, factor=L, kappa=float(kappa)
    )
