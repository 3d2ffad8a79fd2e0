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

_STRATEGY_INDEX = {name: i for i, name in enumerate(STRATEGIES)}

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


def rmspe_std_err(values: np.ndarray) -> float:
    """Standard error of replicate errors: sample std dev / sqrt(count)."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("at least two replicates are required")
    return float(np.std(values, ddof=1)) / math.sqrt(values.size)


def percent_deltas(values: np.ndarray) -> np.ndarray:
    """Percent relative difference of each value against the column best.

    The best (smallest) entry gets 0 and the rest 100 * (v - best) / |best|.
    """
    values = np.asarray(values, dtype=float)
    best = float(values.min())
    return 100.0 * (values - best) / abs(best)


@dataclass(frozen=True)
class BenchmarkResult:
    """Per-strategy aggregate over the successful replicates."""

    strategy: str
    mean_deviance: float
    mean_rmspe: float
    rmspe_std_err: float
    mean_fe: float
    replicates: int
    failed_replicates: int
    deviances: tuple[float, ...]
    rmspes: tuple[float, ...]
    fe_counts: tuple[int, ...]


def _one_replicate(
    fn: TestFunction,
    strategies: tuple[str, ...],
    rng_seed: int,
    replicate: int,
    p_exponent: float,
    box_scale: float,
):
    rng = np.random.default_rng(rng_seed + replicate)
    unit = SearchBox(np.zeros(fn.d), np.ones(fn.d))
    train = lhd_maximin(TRAIN_POINTS_PER_DIM * fn.d, unit, rng)
    valid = lhd_maximin(VALIDATION_POINTS_PER_DIM * fn.d, unit, rng)
    design = DesignSet(train, fn.evaluate(train))
    y_valid = fn.evaluate(valid)
    rows = {}
    for strategy in strategies:
        srng = np.random.default_rng((rng_seed, replicate, _STRATEGY_INDEX[strategy]))
        try:
            model = fit(
                design, strategy, p_exponent=p_exponent, box_scale=box_scale, rng=srng
            )
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
    box_scale: float = 1.0,
) -> list[BenchmarkResult]:
    """Benchmark the strategies on one test function.

    Every replicate draws fresh training and validation designs (replicate r
    uses the stream seeded by rng_seed + r) and all strategies consume the
    identical data, so comparisons are paired.  Unfittable replicates are
    excluded from the averages and counted per strategy.
    """
    if replicates < 1:
        raise ValueError("at least one replicate is required")
    for strategy in strategies:
        if strategy not in _STRATEGY_INDEX:
            raise ValueError(f"unknown strategy {strategy!r}")
    strategies = tuple(strategies)
    all_rows = [
        _one_replicate(fn, strategies, rng_seed, r, p_exponent, box_scale)
        for r in range(replicates)
    ]

    results = []
    for strategy in strategies:
        records = [rows[strategy] for rows in all_rows]
        ok = [rec for rec in records if rec is not None]
        failed = len(records) - len(ok)
        if failed:
            warnings.warn(
                f"{strategy}: {failed} unfittable replicate(s) excluded from means",
                stacklevel=2,
            )
        if not ok:
            results.append(
                BenchmarkResult(
                    strategy, math.nan, math.nan, math.nan, math.nan,
                    replicates, failed, (), (), (),
                )
            )
            continue
        deviances = tuple(rec[0] for rec in ok)
        rmspes = tuple(rec[1] for rec in ok)
        fes = tuple(rec[2] for rec in ok)
        results.append(
            BenchmarkResult(
                strategy=strategy,
                mean_deviance=float(np.mean(deviances)),
                mean_rmspe=float(np.mean(rmspes)),
                rmspe_std_err=rmspe_std_err(rmspes) if len(rmspes) > 1 else 0.0,
                mean_fe=float(np.mean(fes)),
                replicates=replicates,
                failed_replicates=failed,
                deviances=deviances,
                rmspes=rmspes,
                fe_counts=fes,
            )
        )
    return results
