import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from gpdevopt.boxes import SearchBox, default_beta_box, if_beta_box
from gpdevopt.global_search import (
    KMEANS_RESTARTS,
    LHD_CANDIDATES,
    STRATEGIES,
    _closest_pair_distance,
    _lloyd,
    cluster_starts,
    kmeans_best,
    lhd_maximin,
    lhd_unit_sample,
    run_strategy,
)
from gpdevopt.gp import DesignSet, DevianceObjective
from gpdevopt.testbed import test_function as make_test_function


def counting(fn):
    calls = {"n": 0}

    def wrapped(x):
        calls["n"] += 1
        return fn(x)

    return wrapped, calls


def hump_objective(seed=11):
    rng = np.random.default_rng(seed)
    fn = make_test_function("hump")
    pts = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
    return DevianceObjective(DesignSet(pts, fn.evaluate(pts)))


def _reference_bounds(lo, hi, d):
    """The nominal box [lo, hi]^d as center -+ half in numpy, the arithmetic
    every fit's box has always come from."""
    lower, upper = np.full(d, lo), np.full(d, hi)
    center = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    return center - half, center + half


class TestBoxes:
    def test_default_box_d1(self):
        box = default_beta_box(1)
        assert box.lower[0] == pytest.approx(-2.0)
        assert box.upper[0] == pytest.approx(math.log10(500.0))

    def test_default_box_d10(self):
        box = default_beta_box(10)
        assert box.lower[0] == pytest.approx(-3.0)
        assert box.upper[0] == pytest.approx(math.log10(50.0))

    def test_if_box_values(self):
        box = if_beta_box(1)
        assert box.lower[0] == pytest.approx(-2.0)
        assert box.upper[0] == pytest.approx(math.log10(500.0))
        box4 = if_beta_box(4)
        assert box4.lower[0] == pytest.approx(4 * (-2 - math.log10(4)))
        assert box4.upper[0] == pytest.approx(math.log10(500.0))

    def test_bounds_bits_match_scaled_nominal_box(self):
        # Every fit trajectory starts from these bits: the builders must give
        # exactly center -+ half of the nominal box, which is not lo/hi in
        # the last bit at 15 of these (builder, d) pairs, d = 12 among them.
        differs = 0
        for d in range(1, 41):
            log_d = math.log10(d)
            nominal = {
                default_beta_box: (-2.0 - log_d, math.log10(500.0) - log_d),
                if_beta_box: (d * (-2.0 - log_d), math.log10(500.0)),
            }
            for builder, (lo, hi) in nominal.items():
                box = builder(d)
                expected_lo, expected_hi = _reference_bounds(lo, hi, d)
                assert np.array_equal(box.lower.view(np.uint64), expected_lo.view(np.uint64)), d
                assert np.array_equal(box.upper.view(np.uint64), expected_hi.view(np.uint64)), d
                differs += (expected_lo[0], expected_hi[0]) != (lo, hi)
        assert differs == 15

    def test_default_box_nested_in_if_box(self):
        for d in range(1, 41):
            start, pattern = default_beta_box(d), if_beta_box(d)
            assert np.all(pattern.lower <= start.lower), d
            assert np.all(start.upper <= pattern.upper), d

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            SearchBox(np.array([1.0]), np.array([1.0]))

    @pytest.mark.parametrize(
        "lower, upper",
        [(np.zeros((1, 2)), np.ones((1, 2))), (np.zeros(2), np.ones(3))],
        ids=["2-d", "unequal-length"],
    )
    def test_bounds_must_be_vectors_of_one_length(self, lower, upper):
        with pytest.raises(ValueError, match="1-D vectors of equal length"):
            SearchBox(lower, upper)

    @pytest.mark.parametrize("builder", [default_beta_box, if_beta_box])
    def test_zero_dimensions_rejected(self, builder):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            builder(0)

    def test_non_finite_bounds_rejected(self):
        for lower, upper in ((math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                SearchBox(np.array([lower]), np.array([upper]))


class TestLatinHypercube:
    def test_two_points_in_distinct_halves(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = lhd_maximin(2, SearchBox(np.zeros(1), np.ones(1)), rng)
            assert min(pts[:, 0]) < 0.5 <= max(pts[:, 0])

    def test_stratum_occupancy_is_permutation(self):
        rng = np.random.default_rng(1)
        count = 17
        pts = lhd_maximin(count, SearchBox(np.zeros(3), np.ones(3)), rng)
        for k in range(3):
            strata = np.floor(pts[:, k] * count).astype(int)
            assert sorted(strata) == list(range(count))

    def test_winner_beats_every_candidate(self):
        box = SearchBox(np.zeros(2), np.ones(2))
        best = lhd_maximin(12, box, np.random.default_rng(5))
        best_score = pdist(best).min()
        rng = np.random.default_rng(5)  # regenerate the same candidate stream
        lo, hi = box.lower, box.upper
        for _ in range(LHD_CANDIDATES):
            candidate = lo + lhd_unit_sample(12, 2, rng) * (hi - lo)
            assert best_score >= pdist(candidate).min()

    @pytest.mark.parametrize(
        "count, d",
        [(2, 1), (10, 1), (7, 3), (20, 2), (40, 1), (100, 2), (50, 5), (100, 10),
         (120, 12), (300, 10), (1200, 12)],
    )
    def test_unit_sample_matches_per_column_permutations(self, count, d):
        # The draws, the generator state after them and the C layout (which
        # fixes the kernel's bits) all match one permutation per column.
        def per_column(count, d, rng):
            strata = np.column_stack([rng.permutation(count) for _ in range(d)])
            return (strata + rng.random((count, d))) / count

        for seed in range(5):
            expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = per_column(count, d, expected_rng)
            got = lhd_unit_sample(count, d, rng)
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_count_validation(self):
        with pytest.raises(ValueError):
            lhd_maximin(1, SearchBox(np.zeros(1), np.ones(1)), np.random.default_rng(0))

    @staticmethod
    def _pdist_scored(count, box, seed, candidates=LHD_CANDIDATES):
        """lhd_maximin's design with every candidate scored by pdist."""
        rng = np.random.default_rng(seed)
        lo, hi = box.lower, box.upper
        expected, best_score = None, -math.inf
        for _ in range(candidates):
            sample = lo + lhd_unit_sample(count, box.d, rng) * (hi - lo)
            score = float(pdist(sample).min())
            if score > best_score:
                expected, best_score = sample, score
        return expected

    @pytest.mark.parametrize(
        "count, d, candidates",
        [(count, d, LHD_CANDIDATES) for count, d in
         [(2, 12), (3, 10), (10, 1), (40, 1), (200, 1), (20, 2), (400, 2), (50, 5), (100, 10),
          (120, 12), (1000, 10), (1200, 12)]],
    )
    def test_matches_full_pdist_scoring(self, count, d, candidates):
        # From two- and three-point designs, whose last sweep offset holds
        # one pair, up to the benchmark's 1200-point validation designs,
        # against every candidate scored by pdist: the same design, bit for bit.
        box = SearchBox(np.full(d, -1.5), np.full(d, 2.0))
        for seed in range(2):
            expected = self._pdist_scored(count, box, seed, candidates)
            got = lhd_maximin(count, box, np.random.default_rng(seed))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("count, bound", [(20, 1e200), (5, 1e300)])
    def test_overflowing_box_matches_pdist_silently(self, count, bound):
        # Every squared distance overflows to inf, silently as in pdist, so
        # the first candidate wins.
        box = SearchBox(np.full(2, -bound), np.full(2, bound))
        expected = self._pdist_scored(count, box, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lhd_maximin(count, box, np.random.default_rng(0))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_box_whose_width_overflows_is_rejected(self):
        # Finite bounds 2e308 apart: the box, not the sample, must refuse them.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64 in dimension 0"):
                lhd_maximin(5, SearchBox([-1e308], [1e308]), np.random.default_rng(0))
            with pytest.raises(ValueError, match="in dimension 1"):
                SearchBox([0.0, -1e308], [1.0, 1e308])


@st.composite
def scattered_points(draw):
    count, d = draw(st.integers(2, 60)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = draw(st.sampled_from([0.0, 0.7, -250.0, 3e6]))
    points = offset + scale * rng.random((count, d))
    # A stretched first coordinate ends the sweep early; a squeezed one
    # makes it run through many offsets.
    points[:, 0] *= 10.0 ** draw(st.floats(-2.0, 2.0))
    return points


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(points=scattered_points(), which_floor=st.integers(0, 4))
def test_closest_pair_distance_is_pdist_min(points, which_floor):
    # The exact score is pdist's minimum to the bit, also against a floor one
    # ulp below it; a sweep that stops early returns a distance no larger
    # than the floor, which loses in lhd_maximin.  The test below always
    # covers the two- and three-point designs at d = 8..12.
    expected = float(pdist(points).min())
    floor = (-math.inf, math.nextafter(expected, 0.0), 0.5 * expected, expected,
             2.0 * expected)[which_floor]
    got = _closest_pair_distance(points, floor)
    if expected > floor:
        assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)
    else:
        assert got <= floor


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("d", [8, 9, 10, 11, 12])
def test_closest_pair_distance_sums_one_pair_in_coordinate_order(count, d):
    # A one-pair offset must not take numpy's pairwise sum, whose order
    # differs from pdist's coordinate order from 8 coordinates on.
    rng = np.random.default_rng(count * 100 + d)
    for _ in range(200):
        points = 10.0 ** rng.uniform(-3, 3) * rng.random((count, d))
        expected = pdist(points).min()
        got = _closest_pair_distance(points, -math.inf)
        assert np.float64(got).view(np.int64) == expected.view(np.int64)


class TestKmeans:
    def test_identical_points_collapse_to_one_center(self):
        points = np.tile(np.array([[0.3, 0.7]]), (40, 1))
        centers = kmeans_best(points, 3, np.random.default_rng(0))
        assert np.allclose(centers, [0.3, 0.7])

    def test_restart_dominance(self):
        rng = np.random.default_rng(2)
        points = np.concatenate(
            [rng.normal(0, 0.05, (30, 2)), rng.normal(1, 0.05, (30, 2))]
        )

        def sse_of(centers):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            return d2.min(axis=1).sum()

        best = kmeans_best(points, 2, np.random.default_rng(9))
        # Replaying the identical stream as single Lloyd runs gives exactly
        # the restarts the best-of call compared internally.
        replay = np.random.default_rng(9)
        singles = [_lloyd(points, 2, replay)[0] for _ in range(KMEANS_RESTARTS)]
        assert sse_of(best) <= min(sse_of(c) for c in singles) + 1e-12

    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(3)
        points = np.concatenate(
            [rng.normal(-2, 0.1, (25, 1)), rng.normal(2, 0.1, (25, 1))]
        )
        centers = kmeans_best(points, 2, np.random.default_rng(4))
        assert sorted(np.round(centers[:, 0])) == [-2.0, 2.0]


class TestClusterStarts:
    def test_d1_two_d_plus_one(self):
        fn, calls = counting(lambda x: float(x @ x))
        starts, fe = cluster_starts(
            fn, default_beta_box(1), 3, True, np.random.default_rng(0)
        )
        assert len(starts) == 3  # 2 cluster centers + best diagonal point
        assert fe == calls["n"] == 203

    def test_d2_half_d(self):
        fn, calls = counting(lambda x: float(x @ x))
        starts, fe = cluster_starts(
            fn, default_beta_box(2), 1, False, np.random.default_rng(1)
        )
        assert len(starts) == 1
        assert fe == calls["n"] == 400

    def test_d10_half_d_sampling_budget(self):
        fn, calls = counting(lambda x: float(x @ x))
        starts, fe = cluster_starts(
            fn, default_beta_box(10), 5, False, np.random.default_rng(3)
        )
        assert len(starts) == 5
        assert fe == calls["n"] == 2000

    @pytest.mark.parametrize("n_starts, include_diagonal", [(0, False), (1, True)])
    def test_no_cluster_center_rejected(self, n_starts, include_diagonal):
        # With the diagonal start, one start leaves no cluster center.
        with pytest.raises(ValueError, match="at least one cluster center"):
            cluster_starts(
                lambda x: 0.0, default_beta_box(1), n_starts, include_diagonal,
                np.random.default_rng(0),
            )

    def test_starts_inside_box(self):
        box = default_beta_box(2)
        starts, _ = cluster_starts(
            lambda x: float(np.sin(x[0]) + x[1] ** 2),
            box,
            5,
            True,
            np.random.default_rng(2),
        )
        lo, hi = box.lower, box.upper
        for start in starts:
            assert np.all(start >= lo) and np.all(start <= hi)

    def test_multistart_count(self, count_calls):
        # Local runs per strategy, counted at the names the strategies call.
        import gpdevopt.global_search as gs

        counters = [count_calls(gs, name)
                    for name in ("direct_search", "bfgs_minimize", "implicit_filtering")]
        for d in (1, 3, 4):
            two_d1, half_d = 2 * d + 1, math.ceil(d / 2)
            expected = {
                "MS-BFGS-2d1": (0, two_d1, 0), "MS-IF-2d1": (0, 0, two_d1),
                "MS-BFGS-halfd": (0, half_d, 0), "MS-IF-halfd": (0, 0, half_d),
                "IF2": (0, 0, half_d + 1), "DIRECT-BFGS": (1, 1, 0), "DIRECT-IF": (1, 0, 1),
            }
            for strategy in STRATEGIES:
                before = [counter.calls for counter in counters]
                run_strategy(lambda x: float((x - 0.1) @ (x - 0.1)), strategy, d,
                             np.random.default_rng(d))
                calls = tuple(counter.calls - b for counter, b in zip(counters, before))
                assert calls == expected[strategy], (strategy, d)


class TestRunStrategy:
    def test_all_strategies_match_grid_on_1d(self):
        obj = hump_objective()
        box = default_beta_box(1)
        lo, hi = box.lower, box.upper
        grid_vals = [obj.evaluate(np.array([b]))[0] for b in np.linspace(lo[0], hi[0], 2001)]
        grid_min = min(grid_vals)
        for strategy in STRATEGIES:
            inner = hump_objective()
            report = run_strategy(inner, strategy, 1, np.random.default_rng(3))
            assert report.value <= grid_min + 0.01 * abs(grid_min), strategy

    def test_fe_additivity_against_injected_wrapper(self):
        for strategy in STRATEGIES:
            obj = hump_objective(seed=7)
            fn, calls = counting(obj)
            report = run_strategy(fn, strategy, 1, np.random.default_rng(5))
            assert report.fe_used == calls["n"], strategy

    def test_if2_stage_one_cap(self, monkeypatch):
        import gpdevopt.global_search as gs

        caps = []
        original = gs.implicit_filtering

        def recording(objective, start, box, max_fe=None):
            caps.append(max_fe)
            return original(objective, start, box, max_fe)

        monkeypatch.setattr(gs, "implicit_filtering", recording)
        fn = make_test_function("goldstein-price")
        rng = np.random.default_rng(0)
        pts = lhd_maximin(20, SearchBox(np.zeros(2), np.ones(2)), rng)
        obj = DevianceObjective(DesignSet(pts, fn.evaluate(pts)))
        report = run_strategy(obj, "IF2", 2, np.random.default_rng(1))
        # d=2 and one start: stage one capped at 20d = 40, completion uncapped.
        assert caps == [40, None]
        assert report.fe_used == obj.fe_count
        assert report.fe_used >= 400  # sampling included

    def test_a_constant_objective_reports_the_first_run_in_phase_order(self, monkeypatch):
        # Every report ties, so the result is the first one in phase order:
        # DIRECT's centre for the hybrids, and the run from the first start
        # for the multistart strategies and IF2 (its first capped run).
        import gpdevopt.global_search as gs

        for d in (1, 3):
            box = default_beta_box(d)
            for strategy in STRATEGIES:
                runs, starts = [], []

                def recording(name, original):
                    def run(objective, start, *args):
                        report = original(objective, start, *args)
                        runs.append((name, start, report))
                        return report

                    return run

                def clustering(*args):
                    found, fe = cluster_starts(*args)
                    starts.extend(found)
                    return found, fe

                with monkeypatch.context() as patch:
                    for name in ("direct_search", "bfgs_minimize", "implicit_filtering"):
                        patch.setattr(gs, name, recording(name, getattr(gs, name)))
                    patch.setattr(gs, "cluster_starts", clustering)
                    fn, calls = counting(lambda beta: 1.0)
                    report = run_strategy(fn, strategy, d, np.random.default_rng(d))
                name, start, first = runs[0]
                key = (strategy, d)
                assert report.value == 1.0 and report.fe_used == calls["n"], key
                assert report.beta_star.tobytes() == first.beta_star.tobytes(), key
                if strategy.startswith("DIRECT-"):
                    assert name == "direct_search" and not starts, key
                    assert np.array_equal(first.beta_star, (box.lower + box.upper) / 2), key
                else:
                    assert name != "direct_search" and start is starts[0], key

    def test_direct_strategies_deterministic(self):
        results = []
        for _ in range(2):
            obj = hump_objective(seed=9)
            report = run_strategy(obj, "DIRECT-BFGS", 1, np.random.default_rng(0))
            results.append((tuple(report.beta_star), report.value, report.fe_used))
        assert results[0] == results[1]

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_strategy(lambda x: 0.0, "NEWTON", 1, np.random.default_rng(0))
