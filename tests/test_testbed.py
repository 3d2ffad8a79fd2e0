import math
import warnings

import numpy as np
import pytest

import gpdevopt.testbed as tb
from gpdevopt.testbed import (
    BenchmarkResult,
    percent_deltas,
    rmspe,
    run_benchmark,
)

make_test_function = tb.test_function


class TestFunctions:
    def test_registry_names(self):
        assert tb.TEST_FUNCTION_NAMES == (
            "hump",
            "goldstein-price",
            "schwefel",
            "hartmann6",
            "rastrigin10",
            "rosenbrock10",
            "perm12",
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_test_function("ackley")

    def test_hump_at_native_zero(self):
        fn = make_test_function("hump")
        assert fn.fn(np.array([[0.0]]))[0] == pytest.approx(1.0316285)
        # Native domain [-2, 2]: the unit-cube midpoint maps onto native 0.
        assert fn.evaluate(np.array([[0.5]]))[0] == pytest.approx(1.0316285)

    def test_goldstein_price_known_value(self):
        fn = make_test_function("goldstein-price")
        assert fn.fn(np.array([[0.0, -1.0]]))[0] == pytest.approx(3.0)

    def test_schwefel_at_native_zero(self):
        fn = make_test_function("schwefel")
        assert fn.fn(np.zeros((1, 5)))[0] == pytest.approx(2094.9)

    def test_rastrigin_at_native_zero(self):
        fn = make_test_function("rastrigin10")
        assert fn.fn(np.zeros((1, 10)))[0] == pytest.approx(0.0)

    def test_rosenbrock_at_ones(self):
        fn = make_test_function("rosenbrock10")
        assert fn.fn(np.ones((1, 10)))[0] == pytest.approx(0.0)

    def test_perm_at_native_zero(self):
        # Only the i=1 layer survives at the origin: sum_j (j + 0.5)^2 = 731.
        fn = make_test_function("perm12")
        assert fn.fn(np.zeros((1, 12)))[0] == pytest.approx(731.0)

    def test_hartmann_matches_direct_summation(self):
        fn = make_test_function("hartmann6")
        rng = np.random.default_rng(0)
        x = rng.random(6)
        expected = 0.0
        for i in range(4):
            inner = sum(tb._HARTMANN_B[i, j] * (x[j] - tb._HARTMANN_Q[i, j]) ** 2 for j in range(6))
            expected -= tb._HARTMANN_ALPHA[i] * math.exp(-inner)
        assert fn.fn(x[None, :])[0] == pytest.approx(expected, rel=1e-12)

    def test_perm_matches_direct_summation(self):
        fn = make_test_function("perm12")
        rng = np.random.default_rng(1)
        x = rng.uniform(-12, 12, 12)
        expected = 0.0
        for i in range(1, 13):
            for j in range(1, 13):
                expected += ((j ** i + 0.5) * (x[j - 1] / j) ** (i - 1)) ** 2
        assert fn.fn(x[None, :])[0] == pytest.approx(expected, rel=1e-12)

    def test_all_finite_on_unit_cube(self):
        rng = np.random.default_rng(2)
        for name in tb.TEST_FUNCTION_NAMES:
            fn = make_test_function(name)
            values = fn.evaluate(rng.random((50, fn.d)))
            assert np.all(np.isfinite(values)), name


class TestMetrics:
    def test_rmspe_perfect(self):
        y = np.array([1.0, 2.0, -3.0])
        assert rmspe(y, y) == 0.0

    def test_rmspe_zero_prediction(self):
        y = np.array([1.0, 2.0, -3.0])
        assert rmspe(y, np.zeros(3)) == pytest.approx(1.0)

    def test_rmspe_hand_case(self):
        assert rmspe(np.array([3.0, 4.0]), np.array([3.0, 0.0])) == pytest.approx(0.8)

    def test_rmspe_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            rmspe(np.zeros(3), np.ones(3))

    def test_std_err_all_equal(self):
        result = BenchmarkResult("IF2", 25, rmspes=(0.31,) * 25)
        assert result.rmspe_std_err == pytest.approx(0.0, abs=1e-12)

    def test_std_err_hand_case(self):
        assert BenchmarkResult("IF2", 2, rmspes=(0.0, 2.0)).rmspe_std_err == pytest.approx(1.0)

    def test_percent_deltas(self):
        deltas = percent_deltas(np.array([10.0, 12.0, 15.0]))
        assert deltas[0] == 0.0
        assert np.all(deltas >= 0.0)
        assert deltas[1] == pytest.approx(20.0)

    def test_percent_deltas_negative_best(self):
        deltas = percent_deltas(np.array([-10.0, -8.0]))
        assert deltas[0] == 0.0
        assert deltas[1] == pytest.approx(20.0)

    def test_percent_deltas_keep_nan(self):
        # A strategy with no fitted replicate has NaN means: its gaps stay
        # NaN, and the best is taken over the others.
        deltas = percent_deltas([12.0, math.nan, 10.0])
        assert deltas[0] == pytest.approx(20.0)
        assert math.isnan(deltas[1])
        assert deltas[2] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(percent_deltas([math.nan, math.nan])).all()

    @pytest.mark.parametrize(
        "values, expected",
        [([0.0, 1.0], [0.0, math.inf]),
         ([-0.0, 2.0], [0.0, math.inf]),
         ([math.nan, 0.0, 3.0], [math.nan, 0.0, math.inf]),
         ([0.0, -0.0, 0.0], [0.0, 0.0, 0.0])],
    )
    def test_percent_deltas_zero_best(self, values, expected):
        # Any gap above a best of exactly zero is infinitely many percent; the
        # best itself gets +0.0, not NaN or -0.0, and nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deltas = percent_deltas(values)
        assert deltas.tobytes() == np.array(expected).tobytes()


class TestRunBenchmark:
    def test_duplicate_strategy_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr(tb, "fit", no_fit)
        fn = make_test_function("hump")
        with pytest.raises(ValueError, match="strategy 'DIRECT-BFGS' is listed more than once"):
            run_benchmark(
                fn, ("DIRECT-BFGS", "IF2", "DIRECT-BFGS"), replicates=1, rng_seed=3
            )

    def test_bit_reproducible(self):
        fn = make_test_function("hump")
        runs = [
            run_benchmark(fn, ("DIRECT-BFGS", "IF2"), replicates=2, rng_seed=7)
            for _ in range(2)
        ]
        for a, b in zip(*runs):
            assert a.deviances == b.deviances
            assert a.rmspes == b.rmspes
            assert a.fe_counts == b.fe_counts

    def test_training_and_validation_disjoint(self):
        fn = make_test_function("hump")
        rng = np.random.default_rng(5)
        from gpdevopt.boxes import SearchBox
        from gpdevopt.global_search import lhd_maximin

        train = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
        valid = lhd_maximin(100, SearchBox(np.zeros(1), np.ones(1)), rng)
        assert not set(map(tuple, train)) & set(map(tuple, valid))

    def test_strategies_share_design_within_replicate(self, monkeypatch):
        seen = []
        original = tb.fit

        def recording(design, strategy, **kwargs):
            seen.append((design, strategy))  # held, so no id is reused
            return original(design, strategy, **kwargs)

        monkeypatch.setattr(tb, "fit", recording)
        fn = make_test_function("hump")
        run_benchmark(fn, ("DIRECT-BFGS", "MS-BFGS-halfd"), replicates=2, rng_seed=0)
        by_replicate = [seen[0:2], seen[2:4]]
        for pair in by_replicate:
            assert pair[0][0] is pair[1][0]  # identical design object
        assert seen[0][0] is not seen[2][0]

    def test_result_shape(self):
        fn = make_test_function("hump")
        results = run_benchmark(fn, ("IF2",), replicates=2, rng_seed=9)
        (res,) = results
        assert isinstance(res, BenchmarkResult)
        assert res.replicates == 2
        assert res.failed_replicates == 0
        assert len(res.deviances) == 2
        assert res.mean_fe == pytest.approx(np.mean(res.fe_counts))
        want = np.std(res.rmspes, ddof=1) / math.sqrt(2)
        assert res.rmspe_std_err == pytest.approx(want)

    def test_replicate_count_validation(self):
        fn = make_test_function("hump")
        with pytest.raises(ValueError):
            run_benchmark(fn, ("IF2",), replicates=0, rng_seed=0)
        with pytest.raises(ValueError):
            run_benchmark(fn, ("SIMPLEX",), replicates=1, rng_seed=0)

    def test_unfittable_replicates_excluded_with_warning(self, monkeypatch):
        from gpdevopt.gp import UnfittableError

        original = tb.fit
        state = {"calls": 0}

        def flaky(design, strategy, **kwargs):
            state["calls"] += 1
            if state["calls"] == 2:
                raise UnfittableError("forced failure")
            return original(design, strategy, **kwargs)

        monkeypatch.setattr(tb, "fit", flaky)
        fn = make_test_function("hump")
        with pytest.warns(UserWarning, match="unfittable"):
            results = run_benchmark(fn, ("DIRECT-BFGS",), replicates=3, rng_seed=0)
        (res,) = results
        assert res.failed_replicates == 1
        assert len(res.deviances) == 2
        assert res.replicates == 3

    def test_all_replicates_unfittable(self, monkeypatch, capsys):
        from gpdevopt.cli import main
        from gpdevopt.gp import UnfittableError

        original = tb.fit

        def never_if2(design, strategy, **kwargs):
            if strategy == "IF2":
                raise UnfittableError("forced failure")
            return original(design, strategy, **kwargs)

        monkeypatch.setattr(tb, "fit", never_if2)
        fn = make_test_function("hump")
        with pytest.warns(UserWarning, match="IF2: 2 unfittable"):
            direct, if2 = run_benchmark(fn, ("DIRECT-BFGS", "IF2"), replicates=2, rng_seed=0)
        assert if2.replicates == if2.failed_replicates == 2
        assert if2.deviances == if2.rmspes == if2.fe_counts == ()
        for value in (if2.mean_deviance, if2.mean_rmspe, if2.mean_fe, if2.rmspe_std_err):
            assert math.isnan(value)
        assert direct.failed_replicates == 0

        argv = ["benchmark", "--function", "hump", "--strategies", "DIRECT-BFGS,IF2",
                "--replicates", "2", "--format", "csv"]
        with pytest.warns(UserWarning, match="IF2: 2 unfittable"):
            assert main(argv) == 0
        header, direct_row, if2_row = capsys.readouterr().out.splitlines()
        assert header.split(",")[2:4] == ["pct_delta_deviance", "pct_delta_rmspe"]
        assert direct_row.split(",")[2:4] == ["0.0", "0.0"]
        assert if2_row.split(",")[1:] == ["IF2"] + ["nan"] * 6 + ["2", "2"]

    def test_one_fitted_replicate_has_zero_std_err(self):
        fn = make_test_function("hump")
        (res,) = run_benchmark(fn, ("DIRECT-BFGS",), replicates=1, rng_seed=0)
        assert res.rmspe_std_err == 0.0
        assert res.mean_rmspe == res.rmspes[0]
