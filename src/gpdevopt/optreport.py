"""Shared optimizer bookkeeping: evaluation counting, budgets, and reports."""

from __future__ import annotations

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
        self.max_fe = max_fe
        self.count = 0
        self.best_value = np.inf
        self.best_point: np.ndarray | None = None

    def __call__(self, x: np.ndarray) -> float:
        if self.max_fe is not None and self.count >= self.max_fe:
            raise BudgetExhausted
        self.count += 1
        value = float(self._fn(np.asarray(x, dtype=float)))
        if value < self.best_value or self.best_point is None:
            self.best_value = value
            self.best_point = np.array(x, dtype=float, copy=True)
        return value

    def report(self) -> OptReport:
        """Report of the best point seen."""
        return OptReport(
            beta_star=self.best_point.copy(),
            value=self.best_value,
            fe_used=self.count,
        )
