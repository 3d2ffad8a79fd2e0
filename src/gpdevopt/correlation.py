"""Gaussian spatial correlation matrices with nugget regularization.

The correlation between two design points is a product of per-dimension
Gaussian factors, exp(-10**beta_k * |x_ik - x_jk|**p_k).  Because nearby
points make the matrix nearly singular, a nugget (small diagonal inflation)
is applied whenever the condition number would exceed exp(a); the smallest
such nugget is computed in closed form from the extreme eigenvalues.

The eigenvalue decomposition is the expensive step, and the nugget is zero
for most beta an optimizer visits.  `certifies` therefore tries to prove
kappa(R) <= exp(a) from the Cholesky factor L alone, in a cascade of
cheapest first: a pre-test on the pivots of L that rules the proof out; on
designs of at least `_COMPARISON_MIN_N` points, an O(n^2) bound on
||L^-1||_2 from the comparison matrix of L; then trace(R^-1) from the
inverse of L.  The eigenvalues (`nugget_and_kappa`) are computed only when
all of these fail, and wherever kappa itself is reported.  The
factorizations and solves call LAPACK directly, with the same arguments
scipy.linalg would pass.

A certificate also covers every beta >= beta' (in every coordinate) once it
holds at beta': R(beta) = R(beta') o E, the Hadamard product with the
power-exponential correlation matrix of the exponents 10**beta_k -
10**beta'_k, which is positive semidefinite for p in (0, 2] with a unit
diagonal.  So lmin can only rise and lmax only fall (Schur; Horn & Johnson,
Topics in Matrix Analysis, Thm 5.3.4), and kappa(R(beta)) <= kappa(R(beta')).
In floating point, the certificate at beta' proved kappa <= limit = exp(a)/2,
capped at 1/(8 n eps); the computed R(beta) and R(beta') each differ from the
exact Hadamard product by a few ulps per entry, which moves lmin by a small
multiple of n eps lmax, and the factor 1/2 absorbs that as it absorbs the
rounding of eigvalsh.  `DevianceObjective` uses this to skip the cascade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri, dtrtrs

# The nugget keeps kappa(R + delta*I) <= exp(a) with a = 25, as in GPfit.
CONDITION_EXPONENT = 25.0

# Condition numbers are capped here when the smallest eigenvalue underflows
# relative to the largest, so the nugget formula stays finite.
KAPPA_CLAMP = 1e14

# At or below this, sum_k 10**beta_k * |x_k - y_k|**p_k stays finite while
# d * max |x_k - y_k|**p_k is below 1e8; in a design's unit cube it is d.
_QUIET_BETA = 300.0

_EPS = float(np.finfo(float).eps)

# Smallest n at which `certifies` tries `_comparison_bound` before
# inverting L.  The bound saves the inversion on 80-95% of the FEs along
# high-d fits, and costs a fixed two LAPACK calls and |L|.  Per call, best of
# 15 over 40 factors of a 6-D design, OpenBLAS at one thread, two runs on a
# 2-core VM: inversion and trace 4.8-8.1 us at n = 25, 10.5-14.9 at 40,
# 13.0-15.2 at 45, 16.4-19.7 at 50, 30.5-32.1 at 60; the bound 8.0-13.2,
# 9.5-12.1, 10.4-11.2, 10.3-12.7 and 16.5-16.8 us.  Below n = 50 the saving
# is at most 4 us per FE, which deviance timings along fits do not resolve.
_COMPARISON_MIN_N = 50


def powered_distances(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|x_ik - x_jk|**p_k for every pair of rows of a design, as a (d, n*n)
    array; only `DistanceCache` uses it (predictions use `powered_planes`).

    Column i*n + j holds pair (i, j).  The array is built in place as
    (n, n, d), in the memory order numpy derives from the layout of x, and
    its (d, n, n) transpose is reshaped, a view.  That layout fixes the
    reduction order of the `dot` in `gaussian_kernel`, and with the shape it
    picks the `**= p` loop numpy runs: both set the fits' bits.
    """
    n, d = x.shape
    powered = x[:, None, :] - x[None, :, :]
    np.abs(powered, out=powered)
    powered **= p
    return powered.transpose(2, 0, 1).reshape(d, n * n)


def powered_planes(
    x: np.ndarray, y: np.ndarray, p: float, out: np.ndarray | None = None
) -> np.ndarray:
    """`powered_distances` for one exponent p as a C-contiguous array, in two
    whole-array passes: the differences, then their squares where p is 2, else
    `abs` then a scalar-exponent power, never an array-exponent `**=`, whose
    loop numpy picks by shape and layout.  Every entry is an exactly rounded
    function of two coordinates, whatever the layouts and however the rows of
    x are split into blocks.  `out`, d*m*n contiguous entries, receives it.
    """
    (m, d), n = x.shape, y.shape[0]
    powered = np.empty((d, m, n)) if out is None else out.reshape(d, m, n)
    np.subtract(x.T[:, :, None], np.ascontiguousarray(y.T)[:, None, :], out=powered)
    if p == 2.0:
        np.square(powered, out=powered)
    else:
        np.abs(powered, out=powered)
        np.power(powered, p, out=powered)
    return powered.reshape(d, m * n)


def gaussian_kernel(
    powered: np.ndarray, beta: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """exp(-sum_k 10**beta_k * powered[k]), the Gaussian product correlation,
    for every column of a (d, m*n) `powered_distances` or `powered_planes`
    operand, as a (1, m*n) array, in `out` if given (C-contiguous).

    Only a beta_k above `_QUIET_BETA` can make 10**beta_k or the `dot`
    overflow (or multiply an infinity by a zero distance).  The floating-point
    error state is switched only then: switching it costs microseconds, a
    sizeable share of a small deviance evaluation.
    """
    if max(beta.tolist()) <= _QUIET_BETA:
        out = np.dot(-(10.0 ** beta)[None, :], powered, out)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.dot(-(10.0 ** beta)[None, :], powered, out)
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
        self._powered = powered_distances(pts, p)

    def correlation(self, beta: np.ndarray) -> np.ndarray:
        """Correlation matrix at the given log10 inverse lengthscales.

        R[i, j] = prod_k exp(-10**beta_k * |x_ik - x_jk|**p_k); the diagonal is
        exactly one and the result is exactly symmetric.
        """
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.d,):
            raise ValueError(f"beta must have length {self.d}, got {beta.shape}")
        return gaussian_kernel(self._powered, beta).reshape(self.n, self.n)


def nugget_and_kappa(R: np.ndarray, a: float) -> tuple[float, float]:
    """Nugget lower bound delta and (clamped) condition number kappa of R.

    The bound is the smallest delta with kappa(R + delta*I) <= exp(a):
    lmax * (kappa - exp(a)) / (kappa * (exp(a) - 1)), floored at zero, from
    the extreme eigenvalues of the symmetric matrix R.  When lmin underflows
    below 1e-14 * lmax the condition number is clamped so the formula stays
    finite.

    This is the exact path, one full symmetric eigenvalue decomposition.  A
    counted deviance evaluation runs it only when `certifies` cannot prove
    delta = 0; the uncounted evaluation behind model building, model
    files and diagnostics always runs it, because it reports kappa.
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


def nugget_lower_bound(R: np.ndarray, a: float = CONDITION_EXPONENT) -> float:
    """Smallest nugget keeping the condition number of R + delta*I below exp(a)."""
    return nugget_and_kappa(R, a)[0]


def _cholesky(A: np.ndarray, overwrite: bool = False) -> np.ndarray | None:
    """Lower Cholesky factor of A (upper triangle zeroed), or None if A is not
    numerically positive definite.  Callers pass an exactly symmetric R as
    R.T: LAPACK takes Fortran order, so the copy is then a plain one, not a
    transposing one."""
    L, info = dpotrf(A, lower=1, clean=1, overwrite_a=overwrite)
    return L if info == 0 else None


def cholesky_log_det(L: np.ndarray) -> float:
    """log det(L L') from the diagonal of a lower Cholesky factor."""
    return 2.0 * float(np.log(L.diagonal()).sum())


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L')^-1 b for a lower Cholesky factor L."""
    return dpotrs(L, b, lower=1)[0]


def triangular_solve(L: np.ndarray, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """L^-1 b for a lower Cholesky factor L (its diagonal is positive, so the
    solve cannot fail); with `overwrite`, a Fortran-ordered b is solved in
    place.  The keyword is passed only then: it costs 0.3 us per call."""
    return dtrtrs(L, b, lower=1, overwrite_b=1)[0] if overwrite else dtrtrs(L, b, lower=1)[0]


def _comparison_bound(L: np.ndarray) -> float:
    """An upper bound on ||L^-1||_2^2 for a lower triangular L with a positive
    diagonal, in O(n^2): max(z) * max(z'), where M z = e and M' z' = e for the
    comparison matrix M of L (L_ii on the diagonal, -|L_ij| below it).

    |L^-1| <= M^-1 entrywise (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 8.3), so max(z) bounds ||L^-1||_inf and max(z')
    bounds ||L^-1||_1, and ||L^-1||_2^2 <= ||L^-1||_1 * ||L^-1||_inf.  Every
    term of both substitutions is nonnegative, so nothing cancels and the
    computed z and z' are accurate to a small multiple of n*eps.  A NaN or an
    overflow makes the bound NaN or infinite.
    """
    n = L.shape[0]
    # -M (|L| with its diagonal negated) against -e gives the same z, bit for
    # bit, and is one pass over L cheaper to build.
    negated = np.abs(L)
    diagonal = negated.ravel(order="K")[:: n + 1]
    np.negative(diagonal, out=diagonal)
    rhs = np.full(n, -1.0)
    z = dtrtrs(negated, rhs, lower=1)[0]
    z_t = dtrtrs(negated, rhs, lower=1, trans=1)[0]
    return float(z.max()) * float(z_t.max())


def certifies(R: np.ndarray, L: np.ndarray, a: float) -> bool:
    """Whether kappa(R) <= exp(a) is proven from L, the Cholesky factor of R.

    L is the factor `factorize(R, 0.0, kappa)` computes, so when this holds
    `nugget_and_kappa(R, a)` would give delta = 0 and the exact path the same
    factor.  The proof needs no eigenvalues.  R has nonnegative entries, so
    its largest row sum bounds lmax (Gershgorin); an upper bound on 1/lmin =
    ||L^-1||_2^2 times that row sum must be at most half of exp(a), which
    absorbs the rounding of eigvalsh near the ceiling.  It must also be at
    most 1/(8 n eps), beyond which eigvalsh no longer resolves lmin; at
    a = 25 that cap binds only from n = 7,800 or so.  Non-finite entries in
    R always fail the test.  The steps, in order:

    1. The pivots of L give a lower bound on kappa(R): lmax >= max(1'R1/n, 1)
       and lmin <= min_i L_ii^2.  When it is above the limit, the proof
       cannot succeed.
    2. For n >= `_COMPARISON_MIN_N`, the O(n^2) `_comparison_bound` on
       ||L^-1||_2^2.  It certifies most well-conditioned large designs;
       below that size its fixed cost exceeds the inversion it saves.
    3. trace(R^-1) = ||L^-1||_F^2 from the inverse of L (`dtrtri`, O(n^3)).
    """
    n = R.shape[0]
    limit = 0.5 * min(math.exp(a), 0.125 / (n * _EPS))
    rows = R.sum(axis=1)
    if max(float(rows.sum()) / n, 1.0) > limit * float(L.diagonal().min()) ** 2:
        return False
    row_max = float(rows.max())
    if n >= _COMPARISON_MIN_N and row_max * _comparison_bound(L) <= limit:
        return True
    inverse, info = dtrtri(L, lower=1)
    if info != 0:
        return False
    flat = inverse.ravel(order="K")
    return row_max * float(flat @ flat) <= limit


@dataclass(frozen=True)
class FactoredCorrelation:
    """Cholesky-factored nugget-regularized correlation matrix R + delta*I.

    A single lower-triangular factor serves both the inverse action
    (`cholesky_solve` and `triangular_solve` on `factor`) and the
    log-determinant needed by the deviance.  kappa is the condition number
    of R given to `factorize`; the deviance path gives it the exact one from
    `nugget_and_kappa`, never a bound.  Instances are immutable.
    """

    delta: float
    log_det: float
    factor: np.ndarray
    kappa: float


def factorize(R: np.ndarray, delta: float, kappa: float) -> FactoredCorrelation | None:
    """Triangular factorization of R + delta*I, recording kappa(R) alongside.

    None when the shifted matrix has non-finite entries or is numerically not
    positive definite; callers treat the corresponding deviance as +inf.
    """
    if delta < 0.0:
        raise ValueError("nugget delta must be nonnegative")
    # LAPACK factors this Fortran-ordered copy in place; a zero delta adds exactly 0.
    shifted = np.array(R.T, dtype=float, order="F")
    shifted.flat[:: shifted.shape[0] + 1] += delta
    L = _cholesky(shifted, overwrite=True)
    if L is None:
        return None
    # Every entry of the lower triangle feeds a diagonal pivot, so a NaN or
    # infinity in R shows up here without a scan of the whole matrix.
    log_det = cholesky_log_det(L)
    if not math.isfinite(log_det):
        return None
    return FactoredCorrelation(
        delta=float(delta), log_det=log_det, factor=L, kappa=float(kappa)
    )
