import math

import numpy as np
import pytest

from gpdevopt import local_search
from gpdevopt.boxes import SearchBox, if_beta_box
from gpdevopt.global_search import lhd_maximin
from gpdevopt.gp import DesignSet, DevianceObjective
from gpdevopt.local_search import (
    DEFAULT_SCALES,
    _cubic_step,
    _inverse_hessian_update,
    bfgs_minimize,
    central_gradient,
    implicit_filtering,
)
from gpdevopt.testbed import test_function as make_test_function


def counting(fn):
    calls = {"n": 0}

    def wrapped(x):
        calls["n"] += 1
        return fn(x)

    return wrapped, calls


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def hump_deviance_objective(seed=11):
    rng = np.random.default_rng(seed)
    fn = make_test_function("hump")
    pts = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
    return DevianceObjective(DesignSet(pts, fn.evaluate(pts)))


class TestInverseHessianUpdate:
    def test_symmetric_and_secant(self):
        rng = np.random.default_rng(0)
        checked = 0
        for d in (1, 2, 3, 5, 8):
            for _ in range(20):
                a = rng.standard_normal((d, d))
                h_inv = a @ a.T + 0.1 * np.eye(d)
                s, y = rng.standard_normal(d), rng.standard_normal(d)
                sy = float(s @ y)
                if sy <= 1e-3 * np.linalg.norm(s) * np.linalg.norm(y):
                    continue
                checked += 1
                updated = _inverse_hessian_update(h_inv, s, y, sy)
                # Symmetric and secant up to rounding (the product v H v' is
                # not formed symmetrically, so the two halves may differ in
                # their last bits).
                scale = np.abs(updated).max()
                np.testing.assert_allclose(updated, updated.T, rtol=0, atol=1e-12 * scale)
                np.testing.assert_allclose(updated @ y, s, rtol=1e-8, atol=1e-8 * np.abs(s).max())
                # Positive definiteness survives a positive-curvature update.
                assert np.linalg.eigvalsh(updated).min() > 0.0
        assert checked >= 30


class TestCentralGradient:
    def test_matches_five_point_stencil(self):
        def smooth(x):
            return math.sin(x[0]) + x[1] ** 2 * math.cos(x[0]) + 0.3 * x[1]

        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            grad = central_gradient(smooth, x)
            for k in range(2):
                h = 1e-3
                e = np.zeros(2)
                e[k] = h
                five_point = (
                    -smooth(x + 2 * e) + 8 * smooth(x + e) - 8 * smooth(x - e) + smooth(x - 2 * e)
                ) / (12 * h)
                assert grad[k] == pytest.approx(five_point, rel=1e-4, abs=1e-8)

    def test_costs_two_d_calls(self):
        fn, calls = counting(lambda x: float(x @ x))
        central_gradient(fn, np.zeros(3))
        assert calls["n"] == 6


class TestBfgs:
    def test_convex_quadratic(self):
        report = bfgs_minimize(lambda x: float(x @ x), np.array([3.0, -4.0]))
        assert np.max(np.abs(report.beta_star)) < 1e-6

    def test_rosenbrock(self, monkeypatch):
        monkeypatch.setattr(local_search, "MAX_ITERS", 200)
        report = bfgs_minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert report.value < 1e-6

    def test_infinite_start_returns_unchanged(self):
        start = np.array([1.0, 2.0])
        report = bfgs_minimize(lambda x: math.inf, start)
        assert report.value == math.inf
        assert np.array_equal(report.beta_star, start)
        assert report.fe_used == 1

    def test_non_descent_direction_restarts_from_steepest_descent(self, monkeypatch):
        # An update that returns -I makes the next direction an ascent one;
        # without the restart the line search would fail there and stop.  An
        # update after the first follows an iteration that began at -I.
        updates = []

        def negative(h_inv, s, y, sy):
            updates.append(1)
            return -np.eye(s.size)

        monkeypatch.setattr(local_search, "_inverse_hessian_update", negative)
        report = bfgs_minimize(lambda x: float((x - 1.0) @ (x - 1.0)), np.array([3.0, -2.0]))
        assert len(updates) >= 2
        assert np.allclose(report.beta_star, [1.0, 1.0], atol=1e-6)

    def test_non_finite_gradient_stops(self):
        # Finite only for |x| < 1: the central difference steps out of the
        # domain, so the search stops after the start and its two gradient FEs.
        start = np.array([1.0 - 1e-7])
        report = bfgs_minimize(lambda x: float(x @ x) if abs(x[0]) < 1.0 else math.inf, start)
        assert report.fe_used == 3
        assert report.value < float(start @ start)  # the best FE, the inner gradient probe

    def test_hump_deviance_from_basin(self):
        obj = hump_deviance_objective()
        box = if_beta_box(1)
        lo, hi = box.lower, box.upper
        grid = np.linspace(lo[0], hi[0], 2001)
        vals = [obj.evaluate(np.array([b]))[0] for b in grid]
        best_idx = int(np.argmin(vals))
        start = np.array([grid[best_idx] + 0.05])  # inside the global basin
        report = bfgs_minimize(obj, start)
        assert report.value <= min(vals) + 1e-3

    def test_fe_conservation(self):
        fn, calls = counting(rosenbrock)
        report = bfgs_minimize(fn, np.array([0.5, 0.5]))
        assert report.fe_used == calls["n"]

    def test_zero_budget_rejected(self):
        # A budget must allow the first evaluation, so there is a point to report.
        with pytest.raises(ValueError):
            implicit_filtering(rosenbrock, np.zeros(2), SearchBox(-np.ones(2), np.ones(2)), max_fe=0)


class TestCubicStep:
    def test_cubic_through_three_values(self):
        # f = -3 a + a^3 has slope -3 at 0 and its minimum at a = 1.
        assert _cubic_step(0.0, -3.0, 0.5, -1.375, 2.0, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_coincident_steps_give_nan(self):
        assert math.isnan(_cubic_step(0.0, -1.0, 0.5, -0.25, 0.5, -0.25))
        assert math.isnan(_cubic_step(0.0, -1.0, 0.5, -0.25, 0.0, 0.0))

    def test_straight_line_gives_nan(self):
        assert math.isnan(_cubic_step(0.0, -1.0, 1.0, -1.0, 2.0, -2.0))

    def test_quadratic_gives_its_minimizer(self):
        # f = a^2 - 2a: no cubic term, minimum at a = 1.
        assert _cubic_step(0.0, -2.0, 1.0, -1.0, 2.0, 0.0) == 1.0

    def test_cubic_without_a_minimum_gives_nan(self):
        # f = -a - a^3 decreases everywhere: the derivative has no real root.
        assert math.isnan(_cubic_step(0.0, -1.0, 1.0, -2.0, 2.0, -10.0))


class TestImplicitFiltering:
    def test_convex_bowl_converges_to_center(self):
        box = SearchBox(np.array([-2.0, -1.0]), np.array([4.0, 3.0]))
        center = np.array([1.0, 1.0])

        def bowl(x):
            return float((x - center) @ (x - center))

        report = implicit_filtering(bowl, np.array([-1.5, 2.5]), box)
        h_min = 2.0 ** -7
        lo, hi = box.lower, box.upper
        span = hi - lo
        assert np.all(np.abs(report.beta_star - center) <= h_min * span + 1e-12)

    def test_hump_deviance_beats_grid(self):
        obj = hump_deviance_objective()
        box = if_beta_box(1)
        lo, hi = box.lower, box.upper
        grid_vals = [obj.evaluate(np.array([b]))[0] for b in np.linspace(lo[0], hi[0], 2001)]
        start = 0.5 * (lo + hi)
        report = implicit_filtering(obj, start, box)
        assert report.value <= min(grid_vals) + 1e-2

    def test_start_outside_box_clamped_with_warning(self):
        box = SearchBox(np.zeros(1), np.ones(1))
        with pytest.warns(UserWarning):
            report = implicit_filtering(lambda x: float(x[0] ** 2), np.array([5.0]), box)
        assert 0.0 <= report.beta_star[0] <= 1.0

    def test_all_evaluations_inside_box(self):
        box = SearchBox(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        seen = []

        def recording(x):
            seen.append(np.array(x))
            return float(x @ x)

        implicit_filtering(recording, np.array([0.9, 1.9]), box)
        lo, hi = box.lower, box.upper
        for point in seen:
            assert np.all(point >= lo - 1e-12) and np.all(point <= hi + 1e-12)

    def test_boundary_stencil_points_clamped_and_counted(self):
        # Start on the boundary: half the stencil clamps onto the incumbent's
        # side yet every probe still costs an evaluation.  Neither probe
        # improves and the model step clamps back onto the incumbent, so each
        # scale costs exactly its two probes.
        box = SearchBox(np.zeros(1), np.ones(1))
        fn, calls = counting(lambda x: float(x[0]))
        report = implicit_filtering(fn, np.array([0.0]), box)
        assert calls["n"] == report.fe_used == 1 + 2 * len(DEFAULT_SCALES)

    def test_fe_conservation_and_budget(self):
        obj = hump_deviance_objective(seed=3)
        fn, calls = counting(obj)
        box = if_beta_box(1)
        report = implicit_filtering(fn, np.array([0.0]), box, max_fe=20)
        assert report.fe_used == calls["n"] <= 20
