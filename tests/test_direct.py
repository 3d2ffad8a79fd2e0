import numpy as np
import pytest

from gpdevopt.boxes import SearchBox
from gpdevopt.direct import Rectangle, direct_search, potentially_optimal


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
        assert box.contains(report.beta_star)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            direct_search(lambda x: 0.0, unit_box(1), fe_budget=0)

    def test_budget_of_one_returns_center(self):
        report = direct_search(lambda x: float(x[0]), unit_box(1), fe_budget=1)
        assert report.fe_used == 1
        assert np.allclose(report.beta_star, [0.5])


class TestPotentiallyOptimal:
    def rect(self, levels, value):
        levels = np.asarray(levels, dtype=int)
        return Rectangle(np.full(levels.size, 0.5), levels, value)

    def test_selected_are_best_of_their_size(self):
        rects = [
            self.rect([0, 0], 3.0),
            self.rect([0, 0], 1.0),
            self.rect([1, 0], 2.0),
            self.rect([1, 0], 0.5),
            self.rect([1, 1], 0.9),
        ]
        chosen = potentially_optimal(rects, f_min=0.5)
        by_size = {}
        for r in rects:
            by_size.setdefault(r.size_key, []).append(r.value)
        for r in chosen:
            assert r.value <= min(by_size[r.size_key])

    def test_dominated_rectangle_excluded(self):
        # Same size, strictly worse value: can never be selected.
        good = self.rect([1, 1], 0.2)
        bad = self.rect([1, 1], 5.0)
        big = self.rect([0, 0], 1.0)
        chosen = potentially_optimal([good, bad, big], f_min=0.2)
        assert bad not in chosen
        assert good in chosen

    def test_largest_rectangle_always_eligible(self):
        # With nothing larger, the biggest low-value rectangle is on the hull.
        rects = [self.rect([0, 0], 7.0), self.rect([2, 2], 6.9)]
        chosen = potentially_optimal(rects, f_min=6.9)
        assert rects[0] in chosen
