import hashlib
import math

import numpy as np
import pytest

from gpdevopt.boxes import SearchBox, default_beta_box
from gpdevopt.direct import EPSILON, SizeClasses, direct_search, potentially_optimal
from gpdevopt.global_search import lhd_maximin
from gpdevopt.gp import DesignSet, DevianceObjective
from gpdevopt.testbed import test_function as make_test_function


def counting(fn):
    calls = {"n": 0}

    def wrapped(x):
        calls["n"] += 1
        return fn(x)

    return wrapped, calls


def unit_box(d=1):
    return SearchBox(np.zeros(d), np.ones(d))


class TestDirectSearch:
    def test_constant_objective_returns_first_center(self):
        fn, calls = counting(lambda x: 5.0)
        report = direct_search(fn, unit_box(2), fe_budget=60)
        assert report.value == 5.0
        assert np.allclose(report.beta_star, [0.5, 0.5])
        # Rectangles keep dividing without improvement until the budget.
        assert calls["n"] == 60

    def test_quadratic_localized_within_budget(self):
        report = direct_search(lambda x: (x[0] - 0.7) ** 2, unit_box(1), fe_budget=100)
        assert abs(report.beta_star[0] - 0.7) <= 0.01
        assert report.fe_used <= 100

    def test_offset_box_mapping(self):
        box = SearchBox(np.array([-4.0, 2.0]), np.array([0.0, 6.0]))
        target = np.array([-1.0, 3.0])
        report = direct_search(
            lambda x: float((x - target) @ (x - target)), box, fe_budget=300
        )
        assert np.all(np.abs(report.beta_star - target) < 0.05)

    def test_deterministic(self):
        def wavy(x):
            return float(np.sin(7 * x[0]) + np.cos(5 * x[1]) + x @ x)

        first = direct_search(wavy, unit_box(2), fe_budget=150)
        second = direct_search(wavy, unit_box(2), fe_budget=150)
        assert np.array_equal(first.beta_star, second.beta_star)
        assert first.value == second.value
        assert first.fe_used == second.fe_used

    def test_fe_count_exact(self):
        fn, calls = counting(lambda x: float(np.sum((x - 0.3) ** 2)))
        report = direct_search(fn, unit_box(2), fe_budget=123)
        assert report.fe_used == calls["n"] <= 123

    def test_best_point_inside_box(self):
        box = SearchBox(np.array([-2.0]), np.array([3.0]))
        report = direct_search(lambda x: float(np.cos(3 * x[0])), box, fe_budget=80)
        lo, hi = box.lower, box.upper
        assert np.all(report.beta_star >= lo) and np.all(report.beta_star <= hi)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            direct_search(lambda x: 0.0, unit_box(1), fe_budget=0)

    def test_budget_of_one_returns_center(self):
        report = direct_search(lambda x: float(x[0]), unit_box(1), fe_budget=1)
        assert report.fe_used == 1
        assert np.allclose(report.beta_star, [0.5])

    def test_nan_objective_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            direct_search(lambda x: math.nan if x[0] > 0.6 else float(x[0]), unit_box(1), 50)


def deviance_objective(name, n, seed):
    fn = make_test_function(name)
    x = lhd_maximin(n, SearchBox(np.zeros(fn.d), np.ones(fn.d)), np.random.default_rng(seed))
    return DevianceObjective(DesignSet(x, fn.evaluate(x)))


def wavy(x):
    return float(np.sin(3.0 * x).sum() + 0.1 * x @ x)


def terraced(x):
    # Plateaus: value ties within and across size classes, and f_min = 0.
    return float(np.floor(4.0 * np.abs(x).sum()))


class TestDirectPinned:
    """Runs pinned to the all-rectangle bookkeeping they were recorded with:
    the hash covers every evaluated point, in order."""

    @pytest.mark.parametrize(
        "case, d, beta_bits, value_hex, fe_used, points_sha",
        [
            ("hump", 1, [0x3FF6C3E51AA66A34], "0x1.013d4e81ff664p+3", 200, "0ad4d7d5047bbef7"),
            ("goldstein-price", 2, [0x3FE8088E7217AF78, 0x3FF8E883D9524350],
             "0x1.f8c8df7189b5cp+8", 400, "4f6e387074983e73"),
            ("wavy", 5, [-0x401F9752A7ABC088, -0x401F9752A7ABC088, -0x401FA8EC940BB378,
                         -0x401F9752A7ABC088, -0x401FA8EC940BB378],
             "-0x1.376a7ea77821fp+2", 1000, "632a52d53d55fadb"),
            ("terraced", 2, [0x3FA8CF1838864800, 0x3FA8CF1838864800], "0x0.0p+0", 400,
             "7763b2fe1ca8ab74"),
        ],
    )
    def test_bits_match_recorded_run(self, case, d, beta_bits, value_hex, fe_used, points_sha):
        if case in ("hump", "goldstein-price"):
            objective = deviance_objective(case, 10 * d, 3)
        else:
            objective = wavy if case == "wavy" else terraced
        digest = hashlib.sha256()

        def recorded(x):
            digest.update(np.asarray(x, dtype="<f8").tobytes())
            return objective(x)

        report = direct_search(recorded, default_beta_box(d), 200 * d)
        assert report.beta_star.view(np.int64).tolist() == beta_bits
        assert report.value.hex() == value_hex
        assert report.fe_used == fe_used
        assert digest.hexdigest()[:16] == points_sha


def all_rectangle_selection(rects, f_min):
    """The selection as computed over every live rectangle, in insertion order:
    the reference for `potentially_optimal` over size-class tops."""
    by_size = {}
    for rect in rects:
        cur = by_size.get(rect.size_key)
        if cur is None or rect.value < cur.value:
            by_size[rect.size_key] = rect
    candidates = sorted(by_size.values(), key=lambda r: r.measure)
    chosen = []
    measures = np.array([r.measure for r in candidates])
    values = np.array([r.value for r in candidates])
    for rect in candidates:
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


class TestPotentiallyOptimal:
    def population(self, entries):
        """SizeClasses and the insertion-ordered list of (levels, value) entries."""
        classes = SizeClasses()
        rects = [classes.add(np.full(len(lv), 0.5), tuple(lv), v) for lv, v in entries]
        return classes, rects

    def test_selected_are_best_of_their_size(self):
        classes, rects = self.population([
            ([0, 0], 3.0), ([0, 0], 1.0), ([1, 0], 2.0), ([1, 0], 0.5), ([1, 1], 0.9),
        ])
        chosen = potentially_optimal(classes.tops(), f_min=0.5)
        by_size = {}
        for r in rects:
            by_size.setdefault(r.size_key, []).append(r.value)
        for r in chosen:
            assert r.value <= min(by_size[r.size_key])

    def test_dominated_rectangle_excluded(self):
        # Same size, strictly worse value: can never be selected.
        classes, (good, bad, big) = self.population([([1, 1], 0.2), ([1, 1], 5.0), ([0, 0], 1.0)])
        chosen = potentially_optimal(classes.tops(), f_min=0.2)
        assert bad not in chosen
        assert good in chosen

    def test_largest_rectangle_always_eligible(self):
        # With nothing larger, the biggest low-value rectangle is on the hull.
        classes, rects = self.population([([0, 0], 7.0), ([2, 2], 6.9)])
        chosen = potentially_optimal(classes.tops(), f_min=6.9)
        assert rects[0] in chosen

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_all_rectangle_selection(self, d):
        # Random live populations as DIRECT builds them (levels m or m + 1),
        # with value ties within and across classes, +inf values, removals of
        # class tops and re-insertions; f_min is the smallest value (0 or
        # negative) as in a run, or 0 with positive values.
        rng = np.random.default_rng(d)
        for trial in range(60):
            classes, live = SizeClasses(), []
            for step in range(4):
                for _ in range(int(rng.integers(1, 25))):
                    m = int(rng.integers(0, 4))
                    levels = tuple(m + int(b) for b in rng.integers(0, 2, size=d))
                    if min(levels) > m:
                        levels = (m,) + levels[1:]
                    value = math.inf if rng.random() < 0.1 else float(rng.integers(-2, 4))
                    if trial % 3 == 0:
                        value = abs(value)
                    live.append(classes.add(np.full(d, 0.5), levels, value))
                finite = [r.value for r in live if math.isfinite(r.value)]
                f_min = min(finite, default=0.0)
                if trial % 3 == 0 and step % 2:
                    f_min = 0.0
                chosen = potentially_optimal(classes.tops(), f_min)
                assert chosen == all_rectangle_selection(live, f_min)
                for rect in chosen:
                    classes.remove_top(rect)
                    live.remove(rect)
