"""Dividing-rectangles global search over a bound box.

The box is normalized to the unit cube.  Starting from its center, the
algorithm repeatedly selects potentially optimal rectangles (the lower-right
convex hull of size versus value, with the usual epsilon improvement
condition) and trisects each along its longest sides.  Everything is
deterministic: identical inputs and budget give identical output.

Live rectangles are kept per size class (Gablonsky's DIRECT v2.0 lists), so
an iteration reads one top per class rather than scanning every rectangle:
each class is ordered by (value, insertion), and its top is exactly the
rectangle a scan in insertion order would pick, first on ties.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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
    dimension j is 3**-levels[j].  Rectangles share a size class (size_key)
    iff their level multisets match.
    """

    center: np.ndarray
    levels: tuple[int, ...]
    value: float
    size_key: tuple[int, ...]
    measure: float


class SizeClasses:
    """The live rectangles of a DIRECT run, kept per size class.

    Each class is a heap ordered by (value, insertion number), so its top is
    the lowest-value rectangle and the first inserted on ties: the one a scan
    of all rectangles in insertion order keeps with a strict `<`.  Values are
    never NaN (`add` rejects one), so that order is total.  A rectangle's
    measure, half the diagonal, is computed from its own levels as a norm
    whose last bit can depend on their order, and is memoised per levels.
    """

    def __init__(self):
        self._heaps: dict[tuple[int, ...], list] = {}
        self._shapes: dict[tuple[int, ...], tuple[tuple[int, ...], float]] = {}
        self._inserted = 0

    def add(self, center: np.ndarray, levels: tuple[int, ...], value: float) -> Rectangle:
        if math.isnan(value):
            raise ValueError("DIRECT objective returned NaN")
        shape = self._shapes.get(levels)
        if shape is None:
            sides = 3.0 ** (-np.array(levels, dtype=float))
            shape = (tuple(sorted(levels)), 0.5 * float(np.linalg.norm(sides)))
            self._shapes[levels] = shape
        rect = Rectangle(center, levels, value, *shape)
        self._inserted += 1
        heapq.heappush(self._heaps.setdefault(rect.size_key, []), (value, self._inserted, rect))
        return rect

    def tops(self) -> list[Rectangle]:
        """The top rectangle of every class, by increasing measure."""
        return sorted((heap[0][2] for heap in self._heaps.values()), key=lambda r: r.measure)

    def remove_top(self, rect: Rectangle) -> None:
        """Remove `rect`, which must be the top of its class."""
        heap = self._heaps[rect.size_key]
        heapq.heappop(heap)
        if not heap:
            del self._heaps[rect.size_key]


def potentially_optimal(tops: list[Rectangle], f_min: float) -> list[Rectangle]:
    """Class tops on the lower-right hull of (measure, value).

    Within each size class only the top (`SizeClasses.tops`) can qualify.  A
    candidate must admit some K > 0 with value - K * measure below every
    other candidate's bound and below f_min - EPSILON * |f_min|.  Values are
    never NaN, so no slope below is NaN either.
    """
    chosen: list[Rectangle] = []
    for rect in tops:
        dj, fj = rect.measure, rect.value
        if not math.isfinite(fj):
            continue
        larger = [(r.value - fj) / (r.measure - dj) for r in tops if r.measure > dj]
        min_upper = min(larger, default=math.inf)
        if larger:
            if f_min != 0.0:
                bound = (f_min - fj) / abs(f_min) + (dj / abs(f_min)) * min_upper
                if bound < EPSILON:
                    continue
            elif fj > dj * min_upper:
                continue
        if any((fj - r.value) / (dj - r.measure) > min_upper for r in tops if r.measure < dj):
            continue
        chosen.append(rect)
    return chosen


def direct_search(objective, box: SearchBox, fe_budget: int) -> OptReport:
    """Run DIRECT on `objective` over `box` with an exact evaluation budget.

    An iteration evaluates the offset centers of every rectangle it divides
    as one batch, in the order that dividing them one by one would.  The run
    halts as soon as the budget is consumed, mid-division if necessary, and
    reports the best center found together with the exact number of
    evaluations used.  The objective must not return NaN.
    """
    lo, width = box.lower, box.upper - box.lower
    wrapped = CountedObjective(objective, max_fe=fe_budget)
    center = np.full(box.d, 0.5)
    classes = SizeClasses()
    try:
        classes.add(center, (0,) * box.d, wrapped(lo + center * width))
        while True:
            selected = potentially_optimal(classes.tops(), wrapped.best_value)
            if not selected:
                break
            for rect in selected:
                classes.remove_top(rect)
            trials = [_offset_centers(rect) for rect in selected]
            values = iter(wrapped.batch([lo + u * width for trial in trials for _, u in trial]))
            for rect, trial in zip(selected, trials):
                _divide(rect, trial, [next(values) for _ in trial], classes)
    except BudgetExhausted:
        pass
    return wrapped.report()


def _offset_centers(rect: Rectangle) -> list[tuple[int, np.ndarray]]:
    """(j, center moved by + then - a third of the side along j) for every
    longest dimension j of `rect`, in order."""
    min_level = min(rect.levels)
    delta = 3.0 ** (-(min_level + 1))
    long_dims = [j for j, level in enumerate(rect.levels) if level == min_level]
    trial = []
    for j in long_dims:
        for step in (delta, -delta):
            moved = rect.center.copy()
            moved[j] += step
            trial.append((j, moved))
    return trial


def _divide(rect: Rectangle, trial: list, values: list[float], classes: SizeClasses) -> None:
    """Trisect `rect` along all of its longest dimensions into `classes`.

    `trial` holds the offset centers (`_offset_centers`) and `values` their
    values.  Dimensions are split in order of their best sampled value (ties
    to the lowest index), so better regions end up in larger children.
    """
    pairs = range(0, len(trial), 2)
    ranking = sorted((min(values[i], values[i + 1]), trial[i][0], i) for i in pairs)
    levels = list(rect.levels)
    for _, j, i in ranking:
        levels[j] += 1
        classes.add(trial[i][1], tuple(levels), values[i])
        classes.add(trial[i + 1][1], tuple(levels), values[i + 1])
    classes.add(rect.center, tuple(levels), rect.value)
