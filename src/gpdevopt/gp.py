"""Gaussian process emulator: profiled deviance, fitting, and prediction.

The model is a constant-mean GP with the Gaussian product correlation.  The
mean and variance have closed-form profile estimates, leaving the deviance

    log|R_d| + n * log[(Y - mu_hat)' R_d^-1 (Y - mu_hat)]

(constant terms dropped) to be minimized over the log10 inverse lengthscales,
where R_d is the nugget-regularized correlation matrix.  One deviance
evaluation is the unit of optimization cost throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import ge

import numpy as np

from . import _worker
from .correlation import (
    _QUIET_BETA,
    CONDITION_EXPONENT,
    DistanceCache,
    FactoredCorrelation,
    _cholesky,
    certifies,
    cholesky_log_det,
    cholesky_solve,
    factorize,
    gaussian_kernel,
    nugget_and_kappa,
    powered_planes,
    triangular_solve,
)
from .global_search import run_strategy

DEFAULT_STRATEGY = "DIRECT-BFGS"

# Anchor beta per side of `DevianceObjective`'s dominance step, newest first.
# 2, 4 and 8 skip the certificate on 0.71, 0.81 and 0.87 of the seed-0
# lowd-all FEs, and a replay of them took 26.0, 25.2 and 25.1 us per FE (30.6
# without anchors; best of 10, BLAS at one thread, 2-core VM).
_ANCHORS = 4


class DegenerateDataError(ValueError):
    """The response is constant, so the profile variance collapses to zero."""


class UnfittableError(RuntimeError):
    """Every optimizer start produced a non-finite deviance."""


@dataclass(frozen=True)
class DesignSet:
    """n design points in the unit cube with their simulator outputs."""

    points: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        outputs = np.atleast_1d(np.asarray(self.outputs, dtype=float))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "outputs", outputs)
        if points.shape[0] != outputs.size:
            raise ValueError("points and outputs disagree on the number of rows")
        if points.shape[0] < 2:
            raise ValueError("at least two design points are required")
        if not np.all(np.isfinite(points)) or not np.all(np.isfinite(outputs)):
            raise ValueError("design points and outputs must be finite")
        if np.any(points < -1e-12) or np.any(points > 1.0 + 1e-12):
            raise ValueError("design coordinates must lie in [0, 1]")
        if np.unique(points, axis=0).shape[0] != points.shape[0]:
            raise ValueError("duplicate design points are not allowed")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def output_range(self) -> float:
        return float(self.outputs.max() - self.outputs.min())


@dataclass(frozen=True)
class GpOptions:
    """Model options: the smoothness exponent.  `a` is the fixed ceiling exponent, not a field."""

    p_exponent: float = 2.0
    a = CONDITION_EXPONENT

    def __post_init__(self):
        if not 0.0 < self.p_exponent <= 2.0:
            raise ValueError("smoothness exponent must lie in (0, 2]")

    def p_vector(self, d: int) -> np.ndarray:
        return np.full(d, self.p_exponent)


@dataclass(frozen=True)
class DevianceInfo:
    """Diagnostics attached to one deviance evaluation; `factored` is None
    when R + delta*I could not be factored."""

    mu_hat: float
    sigma2_hat: float
    factored: FactoredCorrelation | None

    @property
    def delta(self) -> float:
        return 0.0 if self.factored is None else self.factored.delta

    @property
    def kappa(self) -> float:
        return math.inf if self.factored is None else self.factored.kappa


class _Profile:
    """Profile estimates for one output vector Y, from a factor of R + delta*I.

    The shift (the plain mean of Y), Y centred on it and a ones vector are
    computed once.  Centering Y first is exact for the estimate and avoids
    cancellation when the outputs carry a large common offset.
    """

    def __init__(self, Y: np.ndarray):
        self.n = Y.size
        self.shift = float(Y.mean())
        self.centered = Y - self.shift
        self.ones = np.ones(self.n)

    def centered_mean(self, L: np.ndarray) -> float:
        """GLS mean of the centred outputs, (1' R^-1 1)^-1 1' R^-1 (Y - shift)."""
        u = cholesky_solve(L, self.ones)
        return float(u @ self.centered) / float(u.sum())

    def __call__(self, L: np.ndarray, log_det: float) -> tuple[float, float, float]:
        """Deviance, profile mean and profile variance."""
        mu_centered = self.centered_mean(L)
        qform = _quadratic_form(L, self.centered - mu_centered)
        # A vanishing quadratic form (a constant or underflowing response)
        # would give -inf, which would win any minimization.
        value = log_det + self.n * math.log(qform) if qform > 0.0 else math.inf
        return value, self.shift + mu_centered, max(qform / self.n, 0.0)


def _quadratic_form(L: np.ndarray, resid: np.ndarray) -> float:
    """resid' (L L')^-1 resid through the triangular factor."""
    z = triangular_solve(L, resid)
    return float(z @ z)


def mean_estimate(factored: FactoredCorrelation, Y: np.ndarray) -> float:
    """Generalized least squares mean (1' R^-1 1)^-1 (1' R^-1 Y)."""
    Y = np.asarray(Y, dtype=float)
    if Y.size != factored.factor.shape[0]:
        raise ValueError("output vector length does not match the factorization")
    profile = _Profile(Y)
    return profile.shift + profile.centered_mean(factored.factor)


def variance_estimate(
    factored: FactoredCorrelation, Y: np.ndarray, mu_hat: float
) -> float:
    """Profile variance (Y - mu)' R^-1 (Y - mu) / n, clamped at zero."""
    Y = np.asarray(Y, dtype=float)
    return max(_quadratic_form(factored.factor, Y - mu_hat) / Y.size, 0.0)


class DevianceObjective:
    """Counting deviance evaluator for one design.

    Everything that does not depend on beta is built once, in __init__: the
    powered distances of the design (`DistanceCache`) and, for the profile,
    the plain mean of the outputs, the outputs centred on it and a ones
    vector.  __call__ is the optimization objective: it evaluates the
    deviance and increments the evaluation counter by exactly one (even when
    the result is +inf).  One Cholesky factor of R serves the dominance step,
    the certificate of a zero nugget (`certifies`) and the profile; the exact
    path runs only when they fail.  evaluate() is the uncounted exact path,
    used for diagnostics and by model(), which builds the emulator at one
    beta: it always computes the nugget and the condition number from the
    eigenvalues of R.  Both give the same deviance bit for bit.

    Before the certificate comes a dominance step (`gpdevopt.correlation`):
    beta >= beta' in every coordinate gives kappa(R(beta)) <= kappa(R(beta')).
    A beta that dominates one of the last `_ANCHORS` certified beta needs only
    dpotrf with a finite log-determinant (else the exact path runs); a beta
    dominated by one of the last `_ANCHORS` beta whose exact path gave a
    nugget goes straight to the exact path.  An eigvalsh delta = 0 has no
    margin below exp(a) and is never an anchor; a beta with some beta_k >
    `_QUIET_BETA` neither uses nor becomes one.
    """

    def __init__(self, design: DesignSet, options: GpOptions | None = None):
        self.design = design
        self.options = options or GpOptions()
        self._cache = DistanceCache(design.points, self.options.p_vector(design.d))
        self._profile = _Profile(design.outputs)
        self._certified: list[list[float]] = []
        self._nugget: list[list[float]] = []
        self.fe_count = 0

    def __call__(self, beta: np.ndarray) -> float:
        self.fe_count += 1
        beta = np.asarray(beta, dtype=float)
        R = self._cache.correlation(beta)
        point = beta.tolist()
        quiet = max(point) <= _QUIET_BETA
        certified, nuggets = (self._certified, self._nugget) if quiet else ([], [])
        dominant = any(all(map(ge, point, anchor)) for anchor in certified)
        nugget = not dominant and any(all(map(ge, anchor, point)) for anchor in nuggets)
        L = None if nugget else _cholesky(R.T)
        settled = L is not None and (dominant or certifies(R, L, CONDITION_EXPONENT))
        if settled and math.isfinite(log_det := cholesky_log_det(L)):
            if not dominant:
                certified.insert(0, point)
                del certified[_ANCHORS:]
            return self._profile(L, log_det)[0]
        exact = self._exact(R)
        if exact is None:
            return math.inf
        if not nugget and exact.delta > 0.0:
            nuggets.insert(0, point)
            del nuggets[_ANCHORS:]
        return self._profile(exact.factor, exact.log_det)[0]

    def batch(self, betas: list[np.ndarray]) -> list[float]:
        """The values and the count of __call__ on each beta in turn.

        A batch of beta of shape (d,) and at least `_SHARE_MIN_WORK` beta times
        design points is shared with the process's worker (`_worker.run`, which
        keeps a lone beta here), unless self is a subclass, whose overrides the
        worker would not run.
        A counted value does not depend on the process or its anchors, so the
        bits and the count are those of single calls.
        """
        d, count = self.design.d, self.fe_count
        share = (len(betas) * self.design.n >= _worker._SHARE_MIN_WORK
                 and type(self) is DevianceObjective and {np.shape(b) for b in betas} == {(d,)})
        values = _worker.run(len(betas), self, betas, share)
        self.fe_count = count + len(betas)
        return values

    def __reduce__(self):
        # The worker's copy: the design and options, at count 0 with no
        # anchors.  Pickle keeps C or F order: the copy keeps the points'
        # axis order, which sets the bits.
        return type(self), (replace(self.design, points=self.design.points.copy(order="K")),
                            self.options)

    def evaluate(self, beta: np.ndarray) -> tuple[float, DevianceInfo]:
        factored = self._exact(self._cache.correlation(beta))
        if factored is None:
            return math.inf, DevianceInfo(math.nan, math.nan, None)
        value, mu_hat, sigma2_hat = self._profile(factored.factor, factored.log_det)
        return value, DevianceInfo(mu_hat, sigma2_hat, factored)

    def model(self, beta: np.ndarray, fe_count: int = 0) -> FittedGP:
        """The emulator at one beta: its deviance, factorization and profile estimates.

        `fe_count` records how many evaluations an optimizer spent reaching
        beta; building the model costs no counted evaluation.  Raises
        UnfittableError when the deviance at beta is not finite.
        """
        beta = np.array(beta, dtype=float)
        value, info = self.evaluate(beta)
        if not math.isfinite(value):
            raise UnfittableError(f"the deviance at beta={beta.tolist()} is not finite")
        return FittedGP(
            design=self.design, beta_star=beta, mu_hat=info.mu_hat,
            sigma2_hat=info.sigma2_hat, correlation=info.factored, deviance=value,
            fe_count=fe_count, p=self.options.p_vector(self.design.d),
        )

    def _exact(self, R: np.ndarray) -> FactoredCorrelation | None:
        """R + delta*I factored, with the nugget and the condition number from
        the eigenvalues of R; None if it cannot be factored."""
        if not np.isfinite(R).all():
            return None
        try:
            return factorize(R, *nugget_and_kappa(R, CONDITION_EXPONENT))
        except np.linalg.LinAlgError:
            return None


@dataclass(frozen=True)
class FittedGP:
    """Fitted emulator: optimal correlation parameters, the exponent `p` of each
    input and profile estimates.  Its first prediction keeps the solves that
    later ones reuse (`_solves`); a `dataclasses.replace` copy starts without."""

    design: DesignSet
    beta_star: np.ndarray
    mu_hat: float
    sigma2_hat: float
    correlation: FactoredCorrelation
    deviance: float
    fe_count: int
    p: np.ndarray

    @cached_property
    def _solves(self) -> tuple[float, np.ndarray, np.ndarray]:
        """1'R^-1 1, L^-1 (Y - mu_hat) and L^-1 1, through the factor L of R."""
        L, ones = self.correlation.factor, np.ones(self.design.n)
        z_resid = triangular_solve(L, self.design.outputs - self.mu_hat)
        return float(cholesky_solve(L, ones).sum()), z_resid, triangular_solve(L, ones)


# Points per block of `predict_many`, at most (a last block may hold one more,
# and calls of 514 points or more take near-equal blocks of a multiple of 8).
# On Goldstein-Price n=100 with a 10,201-point grid (best of 9, three rounds,
# OpenBLAS at one thread, 2-core VM), blocks of 128 to 512 points took 22-32 ms
# per call, 1024 and 2048 took 27-34 ms and no blocking 38-44 ms; the traced
# peak is 2.4 MiB at 512.
PREDICT_BLOCK = 512

# Entries, 2**17 float64 or 1 MiB, of the (d, points*n) `powered_planes`
# operand that a block builds at once: a larger block builds its kernel row in
# slices of a multiple of 8 points, 128 at d=10, n=100 and 88 at d=12, n=120,
# while lowd-all's and dense-cli's blocks are one slice each.  A 512-point
# kernel row took 1.07 ms in slices against 1.22 whole at d=10, n=100, and
# 1.48 against 1.66 ms at d=12, n=120 (best of 9, BLAS at one thread, 2-core
# VM); highd-direct's peak RSS fell from 80.0-80.7 to 71.6-72.0 MiB.
_SLICE_ENTRIES = 2**17


def predict_many(model: FittedGP, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and clamped mean squared errors at many points at once.

    Per block of at most `PREDICT_BLOCK` + 1 points (`_Blocks`), it builds
    the block's kernel row from (d, slice*n) `powered_planes` operands of at
    most `_SLICE_ENTRIES` entries, then runs the triangular solve and the MSE
    sums on the whole row, with the solves the model keeps from its first
    prediction.  The operand does not depend on the layout of the points or
    the design: C- and F-ordered copies predict the same bytes.
    Splitting the points, into blocks, slices or calls, at multiples of 8
    points keeps the bytes of one call; other splits need not: two calls on
    the halves of 2,048 points, split at 4, 8, 100, 256, 500 or 1,000, gave
    the one-call bytes on four fitted models (d = 1-12, n = 40-120), and
    splits at 1, 2, 3, 6, 254, 510, 511 or 513 changed 1-7 rows (OpenBLAS
    0.3.31, Haswell kernels).

    A call is shared with the process's worker, which takes whole blocks from
    the back (`_worker.run`, which keeps a one-block call here), from
    `_worker._SHARE_MIN_ROWS` points up, or, once a worker is live, from
    `_worker._SHARE_MIN_PREDICT_WORK` points times design points times
    (d + 4) up; a block's bytes do not depend on the process that computed it.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != model.design.d:
        raise ValueError(f"points must have {model.design.d} columns")
    if not np.isfinite(points).all():
        raise ValueError("prediction points must be finite")
    blocks, (n, d) = _Blocks(model, points), model.design.points.shape
    work = len(points) * n * (d + 4)
    share = type(model) is FittedGP and (len(points) >= _worker._SHARE_MIN_ROWS or (
        _worker._Worker.live is not None and work >= _worker._SHARE_MIN_PREDICT_WORK))
    parts = _worker.run(blocks.count, blocks, share=share)
    y_hat, mse = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return y_hat, np.maximum(mse, 0.0)


class _Blocks:
    """The blocks of one `predict_many` call: called with k, it gives block k's
    predictions and unclamped MSEs.

    A call of up to `PREDICT_BLOCK` + 1 points is one block.  From
    `PREDICT_BLOCK` + 2 points up, (m - 1) / `PREDICT_BLOCK` rounds up to an
    even count, for near-equal shares of a shared call: every block holds
    `per_block` points, the least multiple of 8 at or above (m - 1) / count,
    but the last, which holds the rest (2 to `per_block` + 1); rounding can
    leave an odd count from 31,746 points up.  A lone last point joins the
    block before it, since a block of one point is both C- and F-contiguous
    and numpy would sum its columns pairwise.  A block builds its kernel row
    in one loop over slices of the most points, a multiple of 8, whose
    operand fits `_SLICE_ENTRIES` (a small block is one slice), and takes the
    model's kept solves.  A process computes the blocks in one workspace,
    allocated at its first block: the operand of one slice, then, for the
    largest block, the kernel row, which the triangular solve overwrites, and
    two C-ordered (n, block) arrays, whose column sums numpy adds row by row.
    A block uses the leading entries of each part, so its arrays have the
    strides of fresh ones.  The workspace is not pickled, and no result is a
    view of it.
    """

    def __init__(self, model: FittedGP, points: np.ndarray):
        self.model, self.points = model, points
        m = len(points)
        count = -(-(m - 1) // PREDICT_BLOCK)
        self.per_block = PREDICT_BLOCK if count < 2 else -(-(m - 1) // (count + count % 2)) + 7 & -8
        self.count = max(-(-(m - 1) // self.per_block), 1)
        self.largest = max(min(m, self.per_block), m - (self.count - 1) * self.per_block)
        self._workspace = None

    def __getstate__(self):
        # The worker allocates its own workspace.
        return {**self.__dict__, "_workspace": None}

    def __call__(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        model = self.model
        one_r_one, z_resid, z_ones = model._solves
        n, d = model.design.points.shape
        step = _SLICE_ENTRIES // (d * n) & -8 or 8
        if self._workspace is None:
            # One allocation: glibc's trim threshold follows the largest block
            # it has freed, so the next call reuses kept pages (four parts
            # faulted in about 470 per call at n=100).  Rows of a multiple of
            # 8 entries, at least one, give each part the alignment of the
            # first; the operand of one slice takes the leading rows.
            span = -(-self.largest * n // 8) * 8 or 8
            rows = -(-d * min(step, self.largest) * n // span)
            self._workspace = np.empty((rows + 3, span))
        space = self._workspace
        row = len(space) - 3
        start = k * self.per_block
        stop = len(self.points) if k == self.count - 1 else start + self.per_block
        m, size = stop - start, (stop - start) * n
        r = space[row : row + 1, :size]
        for a in range(0, m, step):
            b = min(a + step, m)
            powered = powered_planes(self.points[start + a : start + b], model.design.points,
                                     model.p, space.reshape(-1)[: d * (b - a) * n])
            gaussian_kernel(powered, model.beta_star, r[:, a * n : b * n])
        z_r = triangular_solve(model.correlation.factor, r.reshape(m, n).T, overwrite=True)
        y_hat = model.mu_hat + z_r.T @ z_resid
        # Weight vector C solves y_hat = C'Y; the MSE is sigma2 (1 - 2C'r + C'RC)
        # with both contractions done through the triangular factor.
        a_coef = (1.0 - z_ones @ z_r) / one_r_one  # (block,)
        z_w = np.multiply(z_ones[:, None], a_coef[None, :], out=space[row + 1, :size].reshape(n, m))
        z_w += z_r  # (n, block)
        product = np.multiply(z_w, z_r, out=space[row + 2, :size].reshape(n, m))
        cross = product.sum(axis=0)
        mse = model.sigma2_hat * (
            1.0 - 2.0 * cross + np.multiply(z_w, z_w, out=product).sum(axis=0)
        )
        return y_hat, mse


def prediction_weights(model: FittedGP, x_star: np.ndarray) -> np.ndarray:
    """Weight vector C with y_hat = C' Y (the second algebraic form) at one
    point of d finite coordinates, given as shape (d,) or (1, d)."""
    x_star, d = np.asarray(x_star, dtype=float), model.design.d
    if x_star.shape not in ((d,), (1, d)) or not np.isfinite(x_star).all():
        raise ValueError(f"x_star must be one point of {d} finite coordinates")
    L = model.correlation.factor
    ones = np.ones(model.design.n)
    powered = powered_planes(x_star.reshape(1, d), model.design.points, model.p)
    r = gaussian_kernel(powered, model.beta_star)[0]
    u = cholesky_solve(L, ones)
    a_coef = (1.0 - float(r @ u)) / float(u.sum())
    return cholesky_solve(L, a_coef * ones + r)


def fit(
    design: DesignSet,
    strategy: str = DEFAULT_STRATEGY,
    *,
    p_exponent: float = 2.0,
    rng: int | tuple | np.random.Generator = 0,
) -> FittedGP:
    """Fit the emulator by global minimization of the profiled deviance.

    `strategy` names one of the seven optimization strategies; the reported
    evaluation count includes all sampling, clustering, and DIRECT
    evaluations in addition to the local runs.  `rng` goes to `np.random.default_rng`:
    an int, a tuple of ints or a Generator; None, a seed from OS entropy, is rejected.
    """
    if rng is None:
        raise ValueError("rng=None would seed the fit from OS entropy; pass a seed")
    if design.output_range == 0.0:
        raise DegenerateDataError(
            "constant response: the profile variance is zero and the deviance is undefined"
        )
    objective = DevianceObjective(design, GpOptions(p_exponent=p_exponent))
    report = run_strategy(objective, strategy, design.d, np.random.default_rng(rng))
    if report.fe_used != objective.fe_count:
        raise RuntimeError(
            f"evaluation accounting mismatch: {report.fe_used} != {objective.fe_count}"
        )
    if not math.isfinite(report.value):
        raise UnfittableError("every start produced a non-finite deviance")
    return objective.model(report.beta_star, report.fe_used)
