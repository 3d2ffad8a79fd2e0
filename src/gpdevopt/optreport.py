"""Shared optimizer bookkeeping: evaluation counting, budgets, and reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class BudgetExhausted(Exception):
    """Raised by CountedObjective when the evaluation budget is spent."""


@dataclass(frozen=True)
class OptReport:
    """Outcome of one optimizer run, or of a whole strategy (`run_strategy`).

    fe_used counts every evaluation made.  For a strategy it is the sampling
    evaluations plus the sum of the phases' fe_used, and beta_star/value is
    the best local or DIRECT result, not the best sampled point.
    """

    beta_star: np.ndarray
    value: float
    fe_used: int


class CountedObjective:
    """Wraps an objective with exact call counting and an optional budget.

    Every evaluation increments `count`; once `count` reaches `max_fe` the
    next call raises BudgetExhausted without evaluating, so the number of
    true evaluations never exceeds the budget.  A budget must allow at least
    one evaluation, so every optimizer has a point to report.
    """

    def __init__(self, fn, max_fe: int | None = None):
        if max_fe is not None and max_fe < 1:
            raise ValueError("the evaluation budget must be at least 1")
        self._fn = fn
        self._batch = getattr(fn, "batch", None)
        self.max_fe = max_fe
        self.count = 0
        self.best_value = np.inf
        self.best_point: np.ndarray | None = None

    def __call__(self, x: np.ndarray) -> float:
        if self.max_fe is not None and self.count >= self.max_fe:
            raise BudgetExhausted
        x = np.asarray(x, dtype=float)
        return self._record(x, self._fn(x))

    def batch(self, points) -> list[float]:
        """Values at `points` as from calling self on each in turn, raising
        BudgetExhausted where such a call would.  An objective with its own
        `batch` evaluates as many as the budget covers; the count and the best
        point then follow in call order, so ties still go to the first."""
        if self._batch is None:
            return [self(x) for x in points]
        covered = points if self.max_fe is None else points[: self.max_fe - self.count]
        values = [self._record(x, value) for x, value in zip(covered, self._batch(covered))]
        if len(values) < len(points):
            raise BudgetExhausted
        return values

    def _record(self, x: np.ndarray, value) -> float:
        self.count += 1
        value = float(value)
        # Ties keep the first point; a NaN best yields to any other value.
        if self.best_point is None or not (value >= self.best_value or math.isnan(value)):
            self.best_value = value
            self.best_point = np.array(x, dtype=float, copy=True)
        return value

    def report(self) -> OptReport:
        """Report of the best point seen."""
        return OptReport(self.best_point.copy(), self.best_value, self.count)
