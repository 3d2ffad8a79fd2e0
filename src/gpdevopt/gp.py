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

import numpy as np

from .correlation import (
    DistanceCache,
    FactoredCorrelation,
    IllConditionedError,
    certified_factor,
    cholesky_log_det,
    cholesky_solve,
    factorize,
    gaussian_kernel,
    nugget_and_kappa,
    powered_distances,
    triangular_solve,
)
from .global_search import STRATEGIES, run_strategy

DEFAULT_STRATEGY = "DIRECT-BFGS"


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
    """Model options: smoothness exponent and condition-number ceiling."""

    p_exponent: float = 2.0
    a: float = 25.0

    def __post_init__(self):
        if not 0.0 < self.p_exponent <= 2.0:
            raise ValueError("smoothness exponent must lie in (0, 2]")
        # exp(a) - 1 divides the nugget bound: it must be finite and positive.
        try:
            ceiling_ok = 1.0 < math.exp(self.a) < math.inf
        except OverflowError:
            ceiling_ok = False
        if not ceiling_ok:
            raise ValueError("condition threshold exponent a must be positive with finite exp(a)")

    def p_vector(self, d: int) -> np.ndarray:
        return np.full(d, self.p_exponent)


@dataclass(frozen=True)
class DevianceInfo:
    """Diagnostics attached to one deviance evaluation."""

    delta: float
    kappa: float
    mu_hat: float
    sigma2_hat: float
    factored: FactoredCorrelation | None


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


def evaluate_deviance(
    design: DesignSet, beta: np.ndarray, options: GpOptions | None = None
) -> tuple[float, DevianceInfo]:
    """Profiled deviance of the design at one beta vector.

    The nugget lower bound is recomputed from the correlation matrix at this
    beta, and the same regularized factorization feeds both the mean estimate
    and the quadratic form.  Ill-conditioning yields +inf rather than an
    exception so optimizers can survive pathological beta.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    return DevianceObjective(design, options).evaluate(beta)


class DevianceObjective:
    """Counting deviance evaluator for one design.

    Everything that does not depend on beta is built once, in __init__: the
    powered distances of the design (`DistanceCache`) and, for the profile,
    the plain mean of the outputs, the outputs centred on it and a ones
    vector.  __call__ is the optimization objective: it evaluates the
    deviance and increments the evaluation counter by exactly one (even when
    the result is +inf).  It first tries to certify a zero nugget from the
    Cholesky factor of R (`certified_factor`) and runs the exact path only
    when that fails.  evaluate() is the uncounted exact path, used for
    diagnostics and for rebuilding the model at the optimum: it always
    computes the nugget and the condition number from the eigenvalues of R.
    Both give the same deviance bit for bit.
    """

    def __init__(self, design: DesignSet, options: GpOptions | None = None):
        self.design = design
        self.options = options or GpOptions()
        self._cache = DistanceCache(design.points, self.options.p_vector(design.d))
        self._profile = _Profile(design.outputs)
        self.fe_count = 0

    def __call__(self, beta: np.ndarray) -> float:
        self.fe_count += 1
        R = self._cache.correlation(beta)
        L = certified_factor(R, self.options.a)
        if L is not None:
            return self._profile(L, cholesky_log_det(L))[0]
        exact = self._exact(R)
        return math.inf if exact is None else self._profile(exact.factor, exact.log_det)[0]

    def evaluate(self, beta: np.ndarray) -> tuple[float, DevianceInfo]:
        factored = self._exact(self._cache.correlation(beta))
        if factored is None:
            return math.inf, DevianceInfo(0.0, math.inf, math.nan, math.nan, None)
        value, mu_hat, sigma2_hat = self._profile(factored.factor, factored.log_det)
        return value, DevianceInfo(factored.delta, factored.kappa, mu_hat, sigma2_hat, factored)

    def _exact(self, R: np.ndarray) -> FactoredCorrelation | None:
        """R + delta*I factored, with the nugget and the condition number from
        the eigenvalues of R; None if it cannot be factored."""
        if not np.isfinite(R).all():
            return None
        try:
            return factorize(R, *nugget_and_kappa(R, self.options.a))
        except (IllConditionedError, np.linalg.LinAlgError):
            return None


@dataclass(frozen=True)
class Prediction:
    y_hat: float
    mse: float


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
    def d(self) -> int:
        return self.design.d

    @property
    def p(self) -> np.ndarray:
        return self.options.p_vector(self.d)


def model_at(
    design: DesignSet,
    beta: np.ndarray,
    options: GpOptions | None = None,
    *,
    fe_count: int = 0,
) -> FittedGP:
    """The emulator at one beta: its deviance, factorization and profile estimates.

    `fe_count` records how many evaluations an optimizer spent reaching beta;
    building the model costs no counted evaluation.  Raises UnfittableError
    when the deviance at beta is not finite.
    """
    options = options or GpOptions()
    beta = np.array(beta, dtype=float)
    value, info = evaluate_deviance(design, beta, options)
    if not math.isfinite(value):
        raise UnfittableError(f"the deviance at beta={beta.tolist()} is not finite")
    return FittedGP(
        design=design,
        beta_star=beta,
        mu_hat=info.mu_hat,
        sigma2_hat=info.sigma2_hat,
        correlation=info.factored,
        deviance=value,
        fe_count=fe_count,
        options=options,
    )


def predict_many(model: FittedGP, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and clamped mean squared errors at many points at once."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != model.d:
        raise ValueError(f"points must have {model.d} columns")
    if not np.isfinite(points).all():
        raise ValueError("prediction points must be finite")
    factored = model.correlation
    n = model.design.n
    ones = np.ones(n)
    resid = model.design.outputs - model.mu_hat
    powered = powered_distances(points, model.design.points, model.p)
    r = gaussian_kernel(powered, model.beta_star).reshape(points.shape[0], n)
    u = factored.solve(ones)
    one_r_one = float(u.sum())
    z_resid = factored.half_solve(resid)
    z_ones = factored.half_solve(ones)
    z_r = factored.half_solve(r.T)  # (n, m)
    y_hat = model.mu_hat + z_r.T @ z_resid
    # Weight vector C solves y_hat = C'Y; the MSE is sigma2 (1 - 2C'r + C'RC)
    # with both contractions done through the triangular factor.
    a_coef = (1.0 - z_ones @ z_r) / one_r_one  # (m,)
    z_w = z_ones[:, None] * a_coef[None, :] + z_r  # (n, m)
    mse = model.sigma2_hat * (1.0 - 2.0 * np.sum(z_w * z_r, axis=0) + np.sum(z_w * z_w, axis=0))
    return y_hat, np.maximum(mse, 0.0)


def predict(model: FittedGP, x_star: np.ndarray) -> Prediction:
    """Best linear unbiased prediction with its mean squared error."""
    y_hat, mse = predict_many(model, np.atleast_2d(x_star))
    return Prediction(y_hat=float(y_hat[0]), mse=float(mse[0]))


def prediction_weights(model: FittedGP, x_star: np.ndarray) -> np.ndarray:
    """Weight vector C with y_hat = C' Y (the second algebraic form)."""
    x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
    factored = model.correlation
    ones = np.ones(model.design.n)
    powered = powered_distances(x_star, model.design.points, model.p)
    r = gaussian_kernel(powered, model.beta_star).reshape(x_star.shape[0], -1)[0]
    u = factored.solve(ones)
    a_coef = (1.0 - float(r @ u)) / float(u.sum())
    return factored.solve(a_coef * ones + r)


def fit(
    design: DesignSet,
    strategy: str = DEFAULT_STRATEGY,
    *,
    p_exponent: float = 2.0,
    a: float = 25.0,
    box_scale: float = 1.0,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> FittedGP:
    """Fit the emulator by global minimization of the profiled deviance.

    `strategy` names one of the seven optimization strategies; the reported
    evaluation count includes all sampling, clustering, and DIRECT
    evaluations in addition to the local runs.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if design.output_range == 0.0:
        raise DegenerateDataError(
            "constant response: the profile variance is zero and the deviance is undefined"
        )
    options = GpOptions(p_exponent=p_exponent, a=a)
    objective = DevianceObjective(design, options)
    if rng is None:
        rng = np.random.default_rng(seed)
    report = run_strategy(objective, strategy, design.d, rng, box_scale=box_scale)
    if report.fe_used != objective.fe_count:
        raise RuntimeError(
            f"evaluation accounting mismatch: {report.fe_used} != {objective.fe_count}"
        )
    if not math.isfinite(report.value):
        raise UnfittableError("every start produced a non-finite deviance")
    return model_at(design, report.beta_star, options, fe_count=report.fe_used)
