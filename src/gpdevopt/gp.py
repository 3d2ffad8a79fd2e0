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
from dataclasses import dataclass
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

        A batch of two or more beta of shape (d,) and at least `_SHARE_MIN_WORK`
        beta times design points goes to the process's worker (`_worker.run`),
        unless self is a subclass, whose overrides the worker would not run.
        A counted value does not depend on the process or its anchors, so the
        bits and the count are those of single calls.
        """
        d, count = self.design.d, self.fe_count
        share = (len(betas) > 1 and len(betas) * self.design.n >= _worker._SHARE_MIN_WORK
                 and type(self) is DevianceObjective and {np.shape(b) for b in betas} == {(d,)})
        values = _worker.run(len(betas), self, betas, share)
        self.fe_count = count + len(betas)
        return values

    def __getstate__(self):
        # The worker's copy: the design and options, at count 0 with no
        # anchors.  Pickle keeps C or F order: the copy keeps the points'
        # axis order, which sets the bits.
        return self.design.points.copy(order="K"), self.design.outputs, self.options

    def __setstate__(self, state):
        points, outputs, options = state
        self.__init__(DesignSet(points, outputs), options)

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
            fe_count=fe_count, options=self.options,
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
    """Fitted emulator: optimal correlation parameters plus profile estimates."""

    design: DesignSet
    beta_star: np.ndarray
    mu_hat: float
    sigma2_hat: float
    correlation: FactoredCorrelation
    deviance: float
    fe_count: int
    options: GpOptions

    @property
    def p(self) -> np.ndarray:
        return self.options.p_vector(self.design.d)


# Points per block of `predict_many`.  On Goldstein-Price n=100 with a
# 10,201-point grid (best of 9, three rounds, OpenBLAS at one thread, 2-core
# VM), blocks of 128 to 512 points took 22-32 ms per call, 1024 and 2048
# took 27-34 ms and no blocking 38-44 ms; the traced peak is 4.7 MiB at 512.
PREDICT_BLOCK = 512


def predict_many(model: FittedGP, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and clamped mean squared errors at many points at once.

    Per block of `PREDICT_BLOCK` points, it builds the block's (d, block*n)
    `powered_planes` operand and runs the kernel, the triangular solve and the
    MSE sums, so a call holds a few (n, block) arrays.  The operand does not
    depend on the layout of the points or the design: C- and F-ordered copies
    predict the same bytes.  The last partial block joins the one before it: a
    block of one point would be both C- and F-contiguous, and its column sums
    would take numpy's pairwise path.  Even so, a row's last bits depend on
    the call it is in, because the solve and the sums round by block.

    A call of at least `_worker._SHARE_MIN_ROWS` points (several blocks) is
    shared with the process's worker, which takes whole blocks from the back
    (`_worker.run`); a block's bytes do not depend on the process that
    computed it.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != model.design.d:
        raise ValueError(f"points must have {model.design.d} columns")
    if not np.isfinite(points).all():
        raise ValueError("prediction points must be finite")
    blocks = _Blocks(model, points)
    share = len(points) >= _worker._SHARE_MIN_ROWS and type(model) is FittedGP
    parts = _worker.run(blocks.count, blocks, share=share)
    y_hat, mse = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return y_hat, np.maximum(mse, 0.0)


class _Blocks:
    """The blocks of one `predict_many` call: called with k, it gives block k's
    predictions and unclamped MSEs."""

    def __init__(self, model: FittedGP, points: np.ndarray):
        self.model, self.points = model, points
        self.count = max(len(points) // PREDICT_BLOCK, 1)
        L, ones = model.correlation.factor, np.ones(model.design.n)
        self.one_r_one = float(cholesky_solve(L, ones).sum())
        self.z_resid = triangular_solve(L, model.design.outputs - model.mu_hat)
        self.z_ones = triangular_solve(L, ones)

    def __call__(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        model, n, z_ones = self.model, self.model.design.n, self.z_ones
        start = k * PREDICT_BLOCK
        stop = len(self.points) if k == self.count - 1 else start + PREDICT_BLOCK
        powered = powered_planes(self.points[start:stop], model.design.points, model.p)
        r = gaussian_kernel(powered, model.beta_star)
        z_r = triangular_solve(model.correlation.factor, r.reshape(stop - start, n).T)
        y_hat = model.mu_hat + z_r.T @ self.z_resid
        # Weight vector C solves y_hat = C'Y; the MSE is sigma2 (1 - 2C'r + C'RC)
        # with both contractions done through the triangular factor.
        a_coef = (1.0 - z_ones @ z_r) / self.one_r_one  # (block,)
        z_w = z_ones[:, None] * a_coef[None, :] + z_r  # (n, block)
        mse = model.sigma2_hat * (
            1.0 - 2.0 * np.sum(z_w * z_r, axis=0) + np.sum(z_w * z_w, axis=0)
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
