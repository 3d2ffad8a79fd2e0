"""Benchmark testbed: closed-form test functions, metrics, and the protocol.

Each test function is evaluated after an affine map from the unit cube onto
its native domain, so the emulator always works on [0, 1]^d inputs.  One
benchmark replicate draws a 10d-point training design and a 100d-point
validation set, fits every requested strategy on the identical data, and
records the optimized deviance, the relative prediction error, and the
number of deviance evaluations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boxes import SearchBox
from .global_search import STRATEGIES, lhd_maximin
from .gp import DesignSet, UnfittableError, fit, predict_many

TRAIN_POINTS_PER_DIM = 10
VALIDATION_POINTS_PER_DIM = 100


@dataclass(frozen=True)
class TestFunction:
    """Deterministic scalar test function with its native-domain map."""

    name: str
    d: int
    native_lower: np.ndarray
    native_upper: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray]

    def to_native(self, unit_points: np.ndarray) -> np.ndarray:
        unit_points = np.atleast_2d(np.asarray(unit_points, dtype=float))
        return self.native_lower + unit_points * (self.native_upper - self.native_lower)

    def evaluate_native(self, points: np.ndarray) -> np.ndarray:
        return self.fn(np.atleast_2d(np.asarray(points, dtype=float)))

    def evaluate(self, unit_points: np.ndarray) -> np.ndarray:
        """Values at unit-cube inputs, mapped through the native domain."""
        return self.evaluate_native(self.to_native(unit_points))


def _hump(x: np.ndarray) -> np.ndarray:
    t = x[:, 0]
    return 1.0316285 + 4.0 * t ** 2 - 2.1 * t ** 4 + t ** 6 / 3.0


def _goldstein_price(x: np.ndarray) -> np.ndarray:
    x1, x2 = x[:, 0], x[:, 1]
    part1 = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1 ** 2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 ** 2
    )
    part2 = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1 ** 2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 ** 2
    )
    return part1 * part2


def _schwefel5(x: np.ndarray) -> np.ndarray:
    return 2094.9 - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=1)


# Hartmann coefficient matrices, four terms over six input dimensions.
_HARTMANN_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN_B = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.02, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMANN_Q = np.array(
    [
        [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.588],
        [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
        [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
        [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
    ]
)


def _hartmann6(x: np.ndarray) -> np.ndarray:
    inner = np.einsum("ij,mij->mi", _HARTMANN_B, (x[:, None, :] - _HARTMANN_Q[None, :, :]) ** 2)
    return -np.exp(-inner) @ _HARTMANN_ALPHA


def _rastrigin10(x: np.ndarray) -> np.ndarray:
    return 10.0 * x.shape[1] + np.sum(x ** 2 - 10.0 * np.cos(2.0 * np.pi * x), axis=1)


def _rosenbrock10(x: np.ndarray) -> np.ndarray:
    return np.sum(
        100.0 * (x[:, :-1] ** 2 - x[:, 1:]) ** 2 + (x[:, :-1] - 1.0) ** 2, axis=1
    )


def _perm12(x: np.ndarray) -> np.ndarray:
    d = x.shape[1]
    j = np.arange(1, d + 1, dtype=float)
    total = np.zeros(x.shape[0])
    ratio = x / j  # (m, d)
    for i in range(1, d + 1):
        term = (j ** i + 0.5) * ratio ** (i - 1)
        total += np.sum(term ** 2, axis=1)
    return total


_REGISTRY: dict[str, tuple[int, float, float, Callable[[np.ndarray], np.ndarray]]] = {
    "hump": (1, -2.0, 2.0, _hump),
    "goldstein-price": (2, -2.0, 2.0, _goldstein_price),
    "schwefel": (5, -500.0, 500.0, _schwefel5),
    "hartmann6": (6, 0.0, 1.0, _hartmann6),
    "rastrigin10": (10, -5.12, 5.12, _rastrigin10),
    "rosenbrock10": (10, -5.0, 10.0, _rosenbrock10),
    "perm12": (12, -12.0, 12.0, _perm12),
}

TEST_FUNCTION_NAMES = tuple(_REGISTRY)


def test_function(name: str) -> TestFunction:
    """Registered test function by name, on its default native domain."""
    try:
        d, lo, hi, fn = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown test function {name!r}; expected one of {TEST_FUNCTION_NAMES}"
        ) from None
    return TestFunction(
        name=name,
        d=d,
        native_lower=np.full(d, float(lo)),
        native_upper=np.full(d, float(hi)),
        fn=fn,
    )


def rmspe(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Relative root mean square prediction error.

    sqrt(sum (y - y_hat)^2 / sum y^2); undefined for an all-zero truth vector.
    """
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("prediction and truth vectors must have equal length")
    denom = float(np.sum(y_true ** 2))
    if denom <= 0.0:
        raise ValueError("relative error is undefined for an all-zero truth vector")
    return math.sqrt(float(np.sum((y_true - y_pred) ** 2)) / denom)


def percent_deltas(values: np.ndarray) -> np.ndarray:
    """Percent relative difference of each value against the column best.

    The best (smallest) entry gets 0 and the rest 100 * (v - best) / |best|.
    NaN entries stay NaN, and an all-NaN input is returned as it is.
    """
    values = np.asarray(values, dtype=float)
    if np.isnan(values).all():
        return values
    best = float(np.nanmin(values))
    return 100.0 * (values - best) / abs(best)


@dataclass(frozen=True)
class BenchmarkResult:
    """One strategy's per-replicate records over the fitted replicates.

    The aggregates are derived from the records: the means are NaN when no
    replicate fitted, and the standard error is 0.0 for one fitted replicate.
    """

    strategy: str
    replicates: int
    deviances: tuple[float, ...] = ()
    rmspes: tuple[float, ...] = ()
    fe_counts: tuple[int, ...] = ()

    @property
    def failed_replicates(self) -> int:
        return self.replicates - len(self.deviances)

    @property
    def mean_deviance(self) -> float:
        return _mean(self.deviances)

    @property
    def mean_rmspe(self) -> float:
        return _mean(self.rmspes)

    @property
    def mean_fe(self) -> float:
        return _mean(self.fe_counts)

    @property
    def rmspe_std_err(self) -> float:
        """Standard error of the replicate errors: sample std dev / sqrt(count)."""
        count = len(self.rmspes)
        if count < 2:
            return 0.0 if count else math.nan
        return float(np.std(self.rmspes, ddof=1)) / math.sqrt(count)


def _mean(values: tuple) -> float:
    return float(np.mean(values)) if values else math.nan


def _one_replicate(
    fn: TestFunction,
    strategies: tuple[str, ...],
    rng_seed: int,
    replicate: int,
    p_exponent: float,
):
    rng = np.random.default_rng(rng_seed + replicate)
    unit = SearchBox(np.zeros(fn.d), np.ones(fn.d))
    train = lhd_maximin(TRAIN_POINTS_PER_DIM * fn.d, unit, rng)
    valid = lhd_maximin(VALIDATION_POINTS_PER_DIM * fn.d, unit, rng)
    design = DesignSet(train, fn.evaluate(train))
    y_valid = fn.evaluate(valid)
    rows = {}
    for strategy in strategies:
        key = (rng_seed, replicate, STRATEGIES.index(strategy))
        try:
            model = fit(design, strategy, p_exponent=p_exponent, rng=key)
        except UnfittableError:
            rows[strategy] = None
            continue
        y_hat, _ = predict_many(model, valid)
        rows[strategy] = (model.deviance, rmspe(y_valid, y_hat), model.fe_count)
    return rows


def run_benchmark(
    fn: TestFunction,
    strategies: tuple[str, ...] = STRATEGIES,
    replicates: int = 25,
    rng_seed: int = 0,
    *,
    p_exponent: float = 2.0,
) -> list[BenchmarkResult]:
    """Benchmark the strategies on one test function.

    Every replicate draws fresh training and validation designs (replicate r
    uses the stream seeded by rng_seed + r) and all strategies consume the
    identical data, so comparisons are paired.  Unfittable replicates are
    excluded from the averages and counted per strategy.  A strategy listed
    twice is rejected before any fit runs.
    """
    if replicates < 1:
        raise ValueError("at least one replicate is required")
    strategies = tuple(strategies)
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategies.count(strategy) > 1:
            raise ValueError(f"strategy {strategy!r} is listed more than once")
    all_rows = [_one_replicate(fn, strategies, rng_seed, r, p_exponent) for r in range(replicates)]

    results = []
    for strategy in strategies:
        ok = [rows[strategy] for rows in all_rows if rows[strategy] is not None]
        failed = replicates - len(ok)
        if failed:
            warnings.warn(
                f"{strategy}: {failed} unfittable replicate(s) excluded from means",
                stacklevel=2,
            )
        results.append(BenchmarkResult(strategy, replicates, *map(tuple, zip(*ok))))
    return results
