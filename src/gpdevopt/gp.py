"""Gaussian process emulator: profiled deviance, fitting, and prediction.

The model is a constant-mean GP with the Gaussian product correlation.  The
mean and variance have closed-form profile estimates, leaving the deviance

    log|R_d| + n * log[(Y - mu_hat)' R_d^-1 (Y - mu_hat)]

(constant terms dropped) to be minimized over the log10 inverse lengthscales,
where R_d is the nugget-regularized correlation matrix.  One deviance
evaluation is the unit of optimization cost throughout the package.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import mmap
import os
import pickle
import signal
import threading
import weakref
from dataclasses import dataclass
from operator import ge

import numpy as np

from .correlation import (
    _QUIET_BETA,
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

# Work, in beta times design points, from which `DevianceObjective.batch`
# shares a batch with the process's worker; a smaller batch saves about what
# a pipe round trip costs.  Fits of hump n=10 and Goldstein-Price n=20 (seeds
# 0-2, all seven strategies) ran at 1.25-1.26 times the serial FE rate for
# values from 40 to 320, 1.24 when every batch was shared and 1.22 at 640
# (best of 3, BLAS at one thread, 2-core VM).
_SHARE_MIN_WORK = 160


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
        settled = L is not None and (dominant or certifies(R, L, self.options.a))
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

        A batch of two or more beta and at least `_SHARE_MIN_WORK` beta times
        design points goes to the process's `_Worker`, forked at the first such
        batch on Linux with two cores and one thread (a BLAS pool holds the
        cores, and fork copies no thread), unless another Python thread runs
        or self is a subclass, whose overrides the worker would not run.  The
        worker takes the batch from the back and this process from the front,
        up to where their claims meet (`_claim`); this process then evaluates
        what the reply leaves.  A counted value does not depend on the process
        or its anchors, so the bits and the count are those of single calls.
        """
        share = len(betas) > 1 and len(betas) * self.design.n >= _SHARE_MIN_WORK
        share = share and type(self) is DevianceObjective and threading.active_count() == 1
        # /proc/self/task lists this process's threads, on Linux only.
        if share and _Worker.live is None and os.path.isdir("/proc/self/task") and (
            len(os.listdir("/proc/self/task")) == 1 and len(os.sched_getaffinity(0)) >= 2
        ):
            with contextlib.suppress(OSError):  # no process to spare: evaluate here
                _Worker.live = _Worker()
        worker = _Worker.live if share else None
        if worker is None:
            return [self(beta) for beta in betas]
        count, claims, values = self.fe_count, worker.claims, []
        try:
            worker.send(self, betas)
            while len(values) + _claim(claims, 0, len(values)) < len(betas):
                values.append(self(betas[len(values)]))
            tail = worker.receive()
        except BaseException:
            # The pipes may be out of step: the next shared batch forks afresh.
            worker.stop()
            raise
        head = len(betas) - len(tail)
        values = values[:head] + [self(beta) for beta in betas[len(values):head]] + tail
        self.fe_count = count + len(betas)
        return values

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
            return factorize(R, *nugget_and_kappa(R, self.options.a))
        except np.linalg.LinAlgError:
            return None


def _floats(stream, count: int) -> np.ndarray:
    data = stream.read(8 * count)
    if len(data) < 8 * count:
        raise EOFError("the deviance worker closed its pipe")
    return np.frombuffer(data)


# The acquire keeps `_claim`'s read from passing its write where it is a full
# fence (x86); elsewhere both sides may evaluate one beta, to the same value.
_FENCE = threading.Lock()


def _claim(claims, side: int, k: int) -> int:
    """Claim beta k from this side's end, then read the other side's claim."""
    claims[side] = k + 1
    with _FENCE:
        return claims[1 - side]


class _Worker:
    """The process's deviance worker, with a pipe each way and the two sides'
    claims in shared memory.  A request is m and a flag, then, if the flag is
    set, the pickled points, outputs and options of a new objective, then m
    beta, as float64.  The reply is k and the counted values of the last k
    beta in order, or -1 and the pickled exception that one raised.  The
    worker ignores SIGINT and exits at end of file on its requests, unless
    `stop` kills it first: after an error, or at exit.
    """

    live: _Worker | None = None

    def __init__(self):
        self.claims = memoryview(mmap.mmap(-1, 16)).cast("q")
        requests, to_worker = os.pipe()
        from_worker, replies = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (requests, to_worker, from_worker, replies):
                os.close(fd)
            raise
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(to_worker)
                os.close(from_worker)
                _serve(open(requests, "rb"), open(replies, "wb"), self.claims)
            finally:
                os._exit(0)
        os.close(requests)
        os.close(replies)
        self._requests, self._replies = open(to_worker, "wb"), open(from_worker, "rb")
        self._owner, self._pid, self._serving = os.getpid(), pid, lambda: None

    def send(self, objective: DevianceObjective, betas: list[np.ndarray]) -> None:
        # The worker is idle between a reply and the next request.
        self.claims[0] = self.claims[1] = 0
        new = self._serving() is not objective
        self._requests.write(np.array([len(betas), new], dtype=float).tobytes())
        if new:
            # Pickle keeps C or F order: the copy keeps the points' axis order,
            # which sets the kernel's bits.
            points = objective.design.points.copy(order="K")
            pickle.dump((points, objective.design.outputs, objective.options), self._requests)
            self._serving = weakref.ref(objective)
        self._requests.write(np.concatenate(betas).tobytes())
        self._requests.flush()

    def receive(self) -> list[float]:
        (count,) = _floats(self._replies, 1)
        if count < 0:
            raise pickle.load(self._replies)
        return _floats(self._replies, int(count)).tolist()

    @classmethod
    def stop(cls) -> None:
        """Forget the live worker; kill and reap it if this process forked it."""
        worker, cls.live = cls.live, None
        if worker is None:
            return
        if os.getpid() == worker._owner:
            os.kill(worker._pid, signal.SIGKILL)
            os.waitpid(worker._pid, 0)
        for stream in (worker._requests, worker._replies):
            with contextlib.suppress(OSError):  # the rest of a request cut short
                stream.close()


atexit.register(_Worker.stop)
# A forked process leaves the worker to see end of file when this one exits.
os.register_at_fork(after_in_child=_Worker.stop)


def _serve(requests, replies, claims) -> None:
    while True:
        count, new = _floats(requests, 2)
        if new:
            points, outputs, options = pickle.load(requests)
            objective = DevianceObjective(DesignSet(points, outputs), options)
        betas = _floats(requests, int(count) * objective.design.d).reshape(int(count), -1)
        values = []
        try:
            while len(values) + _claim(claims, 1, len(values)) < len(betas):
                values.append(objective(betas[-1 - len(values)]))
            replies.write(np.array([len(values), *values[::-1]], dtype=float).tobytes())
        except Exception as exc:
            replies.write(np.array([-1.0]).tobytes())
            pickle.dump(exc, replies)
        replies.flush()


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
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != model.design.d:
        raise ValueError(f"points must have {model.design.d} columns")
    if not np.isfinite(points).all():
        raise ValueError("prediction points must be finite")
    L = model.correlation.factor
    m, n = points.shape[0], model.design.n
    ones = np.ones(n)
    resid = model.design.outputs - model.mu_hat
    one_r_one = float(cholesky_solve(L, ones).sum())
    z_resid = triangular_solve(L, resid)
    z_ones = triangular_solve(L, ones)
    y_hat = np.empty(m)
    mse = np.empty(m)
    start = 0
    while start < m:
        stop = m if m - start < 2 * PREDICT_BLOCK else start + PREDICT_BLOCK
        powered = powered_planes(points[start:stop], model.design.points, model.p)
        r = gaussian_kernel(powered, model.beta_star)
        z_r = triangular_solve(L, r.reshape(stop - start, n).T)  # (n, block)
        y_hat[start:stop] = model.mu_hat + z_r.T @ z_resid
        # Weight vector C solves y_hat = C'Y; the MSE is sigma2 (1 - 2C'r + C'RC)
        # with both contractions done through the triangular factor.
        a_coef = (1.0 - z_ones @ z_r) / one_r_one  # (block,)
        z_w = z_ones[:, None] * a_coef[None, :] + z_r  # (n, block)
        mse[start:stop] = model.sigma2_hat * (
            1.0 - 2.0 * np.sum(z_w * z_r, axis=0) + np.sum(z_w * z_w, axis=0)
        )
        start = stop
    return y_hat, np.maximum(mse, 0.0)


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
