"""Dividing-rectangles global search over a bound box.

The box is normalized to the unit cube.  Starting from its center, the
algorithm repeatedly selects potentially optimal rectangles (the lower-right
convex hull of size versus value, with the usual epsilon improvement
condition) and trisects each along its longest sides.  Everything is
deterministic: identical inputs and budget give identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boxes import SearchBox
from .optreport import BudgetExhausted, CountedObjective, OptReport

# Minimum relative improvement a candidate rectangle must promise over the
# incumbent best value.
EPSILON = 1e-4


@dataclass(eq=False)
class Rectangle:
    """Hyper-rectangle in unit-cube coordinates.

    levels[j] counts trisections along dimension j, so the side length in
    dimension j is 3**-levels[j].
    """

    center: np.ndarray
    levels: np.ndarray
    value: float
    size_key: tuple[int, ...] = field(init=False)
    measure: float = field(init=False)

    def __post_init__(self):
        # Rectangles share a size class iff their level multisets match.
        self.size_key = tuple(sorted(int(v) for v in self.levels))
        sides = 3.0 ** (-self.levels.astype(float))
        self.measure = 0.5 * float(np.linalg.norm(sides))


def potentially_optimal(rects: list[Rectangle], f_min: float) -> list[Rectangle]:
    """Rectangles on the lower-right hull of (measure, value).

    Within each size class only the lowest-value rectangle (first on ties)
    can qualify.  A candidate must admit some K > 0 with
    value - K * measure below every other candidate's bound and below
    f_min - EPSILON * |f_min|.
    """
    by_size: dict[tuple[int, ...], Rectangle] = {}
    for rect in rects:
        cur = by_size.get(rect.size_key)
        if cur is None or rect.value < cur.value:
            by_size[rect.size_key] = rect
    candidates = sorted(by_size.values(), key=lambda r: r.measure)
    chosen: list[Rectangle] = []
    measures = np.array([r.measure for r in candidates])
    values = np.array([r.value for r in candidates])
    for j, rect in enumerate(candidates):
        dj, fj = rect.measure, rect.value
        if not math.isfinite(fj):
            continue
        smaller = values[measures < dj]
        larger_mask = measures > dj
        max_lower = -math.inf
        if smaller.size:
            max_lower = np.max((fj - smaller) / (dj - measures[measures < dj]))
        min_upper = math.inf
        if larger_mask.any():
            min_upper = np.min((values[larger_mask] - fj) / (measures[larger_mask] - dj))
        if max_lower > min_upper:
            continue
        if larger_mask.any():
            if f_min != 0.0:
                bound = (f_min - fj) / abs(f_min) + (dj / abs(f_min)) * min_upper
                if bound < EPSILON:
                    continue
            elif fj > dj * min_upper:
                continue
        chosen.append(rect)
    return chosen


def direct_search(objective, box: SearchBox, fe_budget: int) -> OptReport:
    """Run DIRECT on `objective` over `box` with an exact evaluation budget.

    The run halts as soon as the budget is consumed, mid-division if
    necessary, and reports the best center found together with the exact
    number of evaluations used.
    """
    if fe_budget < 1:
        raise ValueError("fe_budget must be at least 1")
    lo, hi = box.bounds()
    width = hi - lo
    d = box.d

    def unit_objective(u: np.ndarray) -> float:
        return objective(lo + u * width)

    wrapped = CountedObjective(unit_objective, max_fe=fe_budget)
    center = np.full(d, 0.5)
    rects: list[Rectangle] = []
    try:
        value = wrapped(center)
        rects.append(Rectangle(center, np.zeros(d, dtype=int), value))
        while True:
            selected = potentially_optimal(rects, wrapped.best_value)
            if not selected:
                break
            selected_ids = {id(r) for r in selected}
            new_rects: list[Rectangle] = []
            for rect in selected:
                new_rects.extend(_divide(rect, wrapped))
            rects = [r for r in rects if id(r) not in selected_ids]
            rects.extend(new_rects)
    except BudgetExhausted:
        pass
    report = wrapped.report(fallback=center)
    return replace(report, beta_star=lo + report.beta_star * width)


def _divide(rect: Rectangle, wrapped: CountedObjective) -> list[Rectangle]:
    """Trisect `rect` along all of its longest dimensions.

    The two offset centers of every longest dimension are sampled first;
    dimensions are then split in order of their best sampled value (ties to
    the lowest index), so better regions end up in larger children.
    """
    min_level = int(rect.levels.min())
    long_dims = [j for j in range(rect.levels.size) if rect.levels[j] == min_level]
    delta = 3.0 ** (-(min_level + 1))
    sampled: dict[int, tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]] = {}
    ranking: list[tuple[float, int]] = []
    for j in long_dims:
        plus = rect.center.copy()
        plus[j] += delta
        minus = rect.center.copy()
        minus[j] -= delta
        f_plus = wrapped(plus)
        f_minus = wrapped(minus)
        sampled[j] = ((plus, f_plus), (minus, f_minus))
        ranking.append((min(f_plus, f_minus), j))
    ranking.sort()
    children: list[Rectangle] = []
    levels = rect.levels.copy()
    for _, j in ranking:
        levels[j] += 1
        for point, value in sampled[j]:
            children.append(Rectangle(point, levels.copy(), value))
    children.append(Rectangle(rect.center, levels, rect.value))
    return children
