import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from gpdevopt.boxes import SearchBox, default_beta_box, if_beta_box
from gpdevopt.global_search import (
    KMEANS_RESTARTS,
    LHD_CANDIDATES,
    STRATEGIES,
    _lloyd,
    cluster_starts,
    kmeans_best,
    lhd_maximin,
    lhd_unit_sample,
    multistart_count,
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
            assert best_score >= pdist(candidate).min() - 1e-15

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

    @pytest.mark.parametrize(
        "count, d, candidates",
        [(count, d, LHD_CANDIDATES) for count, d in
         [(10, 1), (40, 1), (200, 1), (20, 2), (400, 2), (50, 5), (100, 10), (1000, 10)]],
    )
    def test_matches_full_pdist_scoring(self, count, d, candidates):
        # Shapes on both sides of SWEEP_MIN_POINTS_PER_DIM2, against every
        # candidate scored by pdist: the same design, bit for bit.
        box = SearchBox(np.full(d, -1.5), np.full(d, 2.0))
        for seed in range(2):
            rng = np.random.default_rng(seed)
            lo, hi = box.lower, box.upper
            expected, best_score = None, -math.inf
            for _ in range(candidates):
                sample = lo + lhd_unit_sample(count, d, rng) * (hi - lo)
                score = float(pdist(sample).min())
                if score > best_score:
                    expected, best_score = sample, score
            got = lhd_maximin(count, box, np.random.default_rng(seed))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


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

    def test_multistart_count(self):
        assert multistart_count("MS-BFGS-2d1", 3) == 7
        assert multistart_count("MS-IF-halfd", 10) == 5
        assert multistart_count("IF2", 1) == 1
        assert multistart_count("DIRECT-BFGS", 4) == 1


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
