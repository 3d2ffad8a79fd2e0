import math

import numpy as np
import pytest
import scipy.linalg

from gpdevopt import correlation
from gpdevopt.boxes import SearchBox, default_beta_box
from gpdevopt.correlation import (
    DistanceCache,
    IllConditionedError,
    certified_factor,
    factorize,
    nugget_and_kappa,
)
from gpdevopt.global_search import lhd_maximin, run_strategy
from gpdevopt.gp import (
    DegenerateDataError,
    DesignSet,
    DevianceObjective,
    GpOptions,
    _Profile,
    evaluate_deviance,
    fit,
    mean_estimate,
    model_at,
    predict,
    predict_many,
    prediction_weights,
    variance_estimate,
)
from gpdevopt.testbed import test_function as make_test_function


def dense_deviance_oracle(points, Y, beta, p=2.0, a=25.0):
    """Brute-force deviance via explicit inverse and eigenvalues."""
    n = len(Y)
    diffs = np.abs(points[:, None, :] - points[None, :, :])
    R = np.exp(-((diffs ** p) @ (10.0 ** beta)))
    w = np.sort(np.linalg.eigvals(R).real)
    kappa = w[-1] / w[0] if w[0] > w[-1] * 1e-14 else 1e14
    ea = math.exp(a)
    delta = max(w[-1] * (kappa - ea) / (kappa * (ea - 1.0)), 0.0)
    Rd = R + delta * np.eye(n)
    Rinv = np.linalg.inv(Rd)
    ones = np.ones(n)
    mu = (ones @ Rinv @ Y) / (ones @ Rinv @ ones)
    resid = Y - mu
    qform = resid @ Rinv @ resid
    sign, logdet = np.linalg.slogdet(Rd)
    return logdet + n * math.log(qform), mu, qform / n, Rd, Rinv


def small_design(rng, n=6, d=2):
    pts = lhd_maximin(n, SearchBox(np.zeros(d), np.ones(d)), rng)
    Y = np.sin(3 * pts[:, 0]) + pts @ np.arange(1.0, d + 1.0)
    return DesignSet(pts, Y)


class TestDesignSet:
    def test_duplicate_rows_rejected(self):
        pts = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.6]])
        with pytest.raises(ValueError):
            DesignSet(pts, np.array([1.0, 2.0, 3.0]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DesignSet(np.array([[0.0], [1.5]]), np.array([0.0, 1.0]))

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            DesignSet(np.array([[0.5]]), np.array([1.0]))

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError):
            DesignSet(np.array([[0.1], [0.9]]), np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            DesignSet(np.array([[np.nan], [0.9]]), np.array([1.0, 2.0]))


class TestMeanAndVariance:
    def test_identity_gives_arithmetic_mean(self):
        fac = factorize(np.eye(4), 0.0, 1.0)
        Y = np.array([1.0, 2.0, 3.0, 6.0])
        assert mean_estimate(fac, Y) == pytest.approx(Y.mean(), rel=1e-14)

    def test_constant_output_recovered_exactly(self):
        rng = np.random.default_rng(0)
        ds = small_design(rng)
        val, info = evaluate_deviance(ds, np.array([0.2, -0.3]))
        fac = info.factored
        assert mean_estimate(fac, np.full(ds.n, 7.25)) == pytest.approx(7.25, abs=1e-12)

    def test_mean_matches_dense_oracle(self):
        x = np.array([[0.0], [0.4], [1.0]])
        Y = np.array([1.0, -2.0, 0.5])
        ds = DesignSet(x, Y)
        beta = np.array([0.0])
        _, info = evaluate_deviance(ds, beta)
        _, mu_oracle, _, _, _ = dense_deviance_oracle(x, Y, beta)
        assert info.mu_hat == pytest.approx(mu_oracle, rel=1e-10)
        assert mean_estimate(info.factored, Y) == pytest.approx(mu_oracle, rel=1e-10)

    def test_variance_constant_output_is_zero(self):
        fac = factorize(np.eye(3), 0.0, 1.0)
        assert variance_estimate(fac, np.full(3, 2.0), 2.0) == 0.0

    def test_variance_identity_is_population_variance(self):
        fac = factorize(np.eye(5), 0.0, 1.0)
        Y = np.array([1.0, 4.0, -2.0, 0.5, 3.0])
        mu = Y.mean()
        assert variance_estimate(fac, Y, mu) == pytest.approx(np.var(Y), rel=1e-12)

    def test_variance_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        pts = rng.random((4, 2))
        Y = rng.standard_normal(4)
        ds = DesignSet(pts, Y)
        beta = np.array([0.1, -0.2])
        _, info = evaluate_deviance(ds, beta)
        _, mu, s2, _, _ = dense_deviance_oracle(pts, Y, beta)
        assert info.sigma2_hat == pytest.approx(s2, rel=1e-10)
        assert variance_estimate(info.factored, Y, mu) == pytest.approx(s2, rel=1e-10)


class TestEvaluateDeviance:
    def test_two_point_hand_case(self):
        # x = {0, 1}, Y = {0, 1}, beta = 0: R is 2x2 with off-diagonal e^-1.
        ds = DesignSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        val, info = evaluate_deviance(ds, np.array([0.0]))
        e1 = math.exp(-1.0)
        expected = math.log(1 - e1 ** 2) + 2 * math.log(1.0 / (2.0 * (1.0 - e1)))
        assert val == pytest.approx(expected, rel=1e-12)
        assert info.mu_hat == pytest.approx(0.5, abs=1e-12)
        assert info.delta == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        ds = small_design(rng)
        beta = np.array([0.3, 0.1])
        base, _ = evaluate_deviance(ds, beta)
        for c in (1.0, -17.0, 1e3):
            shifted = DesignSet(ds.points, ds.outputs + c)
            val, _ = evaluate_deviance(shifted, beta)
            assert val == pytest.approx(base, abs=1e-9)

    def test_scaling_shifts_by_2n_log_s(self):
        rng = np.random.default_rng(3)
        ds = small_design(rng, n=5)
        beta = np.array([0.2, -0.1])
        base, _ = evaluate_deviance(ds, beta)
        for s in (2.0, 0.5, 13.0):
            scaled = DesignSet(ds.points, ds.outputs * s)
            val, _ = evaluate_deviance(scaled, beta)
            assert val - base == pytest.approx(2 * ds.n * math.log(s), abs=1e-9)

    def test_counter_increments_exactly_once_per_call(self):
        rng = np.random.default_rng(4)
        ds = small_design(rng)
        obj = DevianceObjective(ds)
        for k in range(5):
            obj(np.array([0.1 * k, -0.1 * k]))
        assert obj.fe_count == 5
        # +inf evaluations still count
        obj(np.array([900.0, 900.0]))
        assert obj.fe_count == 6

    def test_wrong_beta_length_rejected(self):
        rng = np.random.default_rng(5)
        ds = small_design(rng)
        with pytest.raises(ValueError):
            evaluate_deviance(ds, np.array([0.0]))

    def test_constant_output_gives_positive_infinity(self):
        # A vanishing quadratic form must not yield -inf, which would win
        # every minimization: a constant response, or one so small that the
        # quadratic form underflows.
        x = np.array([[0.0], [0.5], [1.0]])
        for Y in (np.full(3, 2.0), 1e-200 * np.array([0.0, 1.0, 0.3])):
            val, info = evaluate_deviance(DesignSet(x, Y), np.array([0.0]))
            assert val == math.inf
            assert info.sigma2_hat == 0.0

    def test_smoothness_exponent_1_99(self):
        # Slightly lowering the exponent changes R off the p=2 values but
        # keeps the model well defined end to end.
        x = np.array([[0.0], [0.5], [1.0]])
        Y = np.array([0.0, 1.0, 0.3])
        ds = DesignSet(x, Y)
        options = GpOptions(p_exponent=1.99)
        val, info = evaluate_deviance(ds, np.array([0.0]), options)
        assert math.isfinite(val)
        val2, _ = evaluate_deviance(ds, np.array([0.0]))
        assert val != val2
        R = DistanceCache(x, [1.99]).correlation(np.array([0.0]))
        assert R[0, 1] == pytest.approx(math.exp(-(0.5 ** 1.99)), rel=1e-14)


class TestPredict:
    def build_model(self, seed=0, n=10, d=1):
        rng = np.random.default_rng(seed)
        fn = make_test_function("hump") if d == 1 else make_test_function("goldstein-price")
        pts = lhd_maximin(n, SearchBox(np.zeros(d), np.ones(d)), rng)
        ds = DesignSet(pts, fn.evaluate(pts))
        return fit(ds, "DIRECT-BFGS", seed=seed)

    def test_interpolates_design_points(self):
        model = self.build_model()
        assert model.correlation.delta == 0.0
        span = model.design.output_range
        for i in range(model.design.n):
            pred = predict(model, model.design.points[i])
            assert abs(pred.y_hat - model.design.outputs[i]) < 1e-6 * span
            assert pred.mse < 1e-8 * model.sigma2_hat

    def test_far_field_limit(self):
        # Large beta: the query point decorrelates from every design point.
        x = np.array([[0.0], [0.05], [0.1]])
        Y = np.array([1.0, 3.0, 2.0])
        ds = DesignSet(x, Y)
        _, info = evaluate_deviance(ds, np.array([2.6]))
        model = model_at(ds, np.array([2.6]))
        pred = predict(model, np.array([1.0]))
        assert pred.y_hat == pytest.approx(info.mu_hat, abs=1e-8)
        ones = np.ones(3)
        limit = info.sigma2_hat * (1.0 + 1.0 / (ones @ info.factored.solve(ones)))
        assert pred.mse == pytest.approx(limit, rel=1e-6)

    def test_both_blup_forms_agree(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 4))
            pts = rng.random((n, d))
            Y = rng.standard_normal(n)
            ds = DesignSet(pts, Y)
            beta = rng.uniform(-0.5, 1.0, d)
            val, info = evaluate_deviance(ds, beta)
            # The 1e-8 agreement only makes sense away from near-singular R,
            # where conditioning amplifies roundoff past the tolerance.
            if not math.isfinite(val) or info.kappa > 1e6:
                continue
            checked += 1
            model = model_at(ds, beta)
            x_star = rng.random(d)
            direct_form = predict(model, x_star).y_hat
            weights = prediction_weights(model, x_star)
            assert direct_form == pytest.approx(float(weights @ Y), rel=1e-8, abs=1e-10)

    def test_mse_nonnegative_on_grid(self):
        model = self.build_model(seed=3, n=10, d=1)
        grid = np.linspace(0, 1, 100)[:, None]
        _, mse = predict_many(model, grid)
        assert np.all(mse >= 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        model = self.build_model()
        with pytest.raises(ValueError, match="finite"):
            predict_many(model, np.array([[0.5], [bad]]))
        with pytest.raises(ValueError, match="finite"):
            predict(model, np.array([bad]))


class TestFit:
    def test_hump_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        fn = make_test_function("hump")
        pts = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
        ds = DesignSet(pts, fn.evaluate(pts))
        obj = DevianceObjective(ds)
        lo, hi = default_beta_box(1).bounds()
        grid_vals = [obj.evaluate(np.array([b]))[0] for b in np.linspace(lo[0], hi[0], 2001)]
        grid_min = min(grid_vals)
        for strategy in ("MS-BFGS-2d1", "DIRECT-BFGS", "MS-IF-halfd"):
            model = fit(ds, strategy, seed=1)
            assert model.deviance <= grid_min + 0.01 * abs(grid_min)

    def test_constant_output_rejected(self):
        ds = DesignSet(np.array([[0.0], [0.5], [1.0]]), np.full(3, 4.0))
        with pytest.raises(DegenerateDataError):
            fit(ds, "DIRECT-BFGS")

    def test_reported_deviance_is_reproducible(self):
        rng = np.random.default_rng(12)
        fn = make_test_function("hump")
        pts = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
        ds = DesignSet(pts, fn.evaluate(pts))
        model = fit(ds, "DIRECT-BFGS", seed=5)
        val, _ = evaluate_deviance(ds, model.beta_star, GpOptions())
        assert model.deviance == pytest.approx(val, rel=1e-10)

    def test_fe_count_matches_injected_wrapper(self, monkeypatch):
        calls = {"n": 0}
        original = DevianceObjective.__call__

        def counting(self, beta):
            calls["n"] += 1
            return original(self, beta)

        monkeypatch.setattr(DevianceObjective, "__call__", counting)
        rng = np.random.default_rng(13)
        fn = make_test_function("hump")
        pts = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
        ds = DesignSet(pts, fn.evaluate(pts))
        model = fit(ds, "MS-BFGS-2d1", seed=2)
        assert model.fe_count == calls["n"]

    def test_unknown_strategy_rejected(self):
        ds = DesignSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            fit(ds, "GRADIENT-DESCENT")

    def test_box_scale_and_p_are_plumbed_through(self):
        rng = np.random.default_rng(17)
        fn = make_test_function("hump")
        pts = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
        ds = DesignSet(pts, fn.evaluate(pts))
        base = fit(ds, "DIRECT-BFGS", seed=1)
        widened = fit(ds, "DIRECT-BFGS", seed=1, box_scale=2.0)
        rough = fit(ds, "DIRECT-BFGS", seed=1, p_exponent=1.99)
        # A different sampling box changes the DIRECT trajectory; a different
        # exponent changes the surface itself.
        assert not np.array_equal(base.beta_star, widened.beta_star) or base.fe_count != widened.fe_count
        assert rough.deviance != base.deviance
        assert np.all(rough.p == 1.99)

    def test_prediction_finite_with_nugget(self):
        # Near-duplicate design points force delta > 0; predictions smooth
        # rather than interpolate but stay finite with nonnegative mse.
        base = np.linspace(0.05, 0.95, 8)
        x = np.concatenate([base, base + 1e-7])[:, None]
        Y = np.sin(3 * x[:, 0])
        ds = DesignSet(x, Y)
        model = model_at(ds, np.array([0.5]))
        assert model.correlation.delta > 0.0
        y_hat, mse = predict_many(model, np.linspace(0, 1, 25)[:, None])
        assert np.all(np.isfinite(y_hat))
        assert np.all(mse >= 0.0)


class _Recorder(DevianceObjective):
    """Deviance objective that keeps every beta it is evaluated at."""

    def __init__(self, design):
        super().__init__(design)
        self.betas = []

    def __call__(self, beta):
        self.betas.append(np.array(beta, dtype=float))
        return super().__call__(beta)


def _testbed_design(name, n):
    fn = make_test_function(name)
    pts = lhd_maximin(n, SearchBox(np.zeros(fn.d), np.ones(fn.d)), np.random.default_rng(0))
    return DesignSet(pts, fn.evaluate(pts))


def _near_duplicate_design():
    x = np.sort(np.random.default_rng(0).random(8))
    x = np.append(x, x[3] + 1e-7)
    return DesignSet(x[:, None], np.sin(6.0 * x))


@pytest.fixture(scope="module")
def visited():
    """Designs with up to 120 beta visited along their DIRECT-BFGS fits.

    Rastrigin 10-D keeps a zero nugget along its whole fit; the dense 1-D
    and 2-D designs and the near-duplicate pair need one at most beta.
    """
    designs = {
        "rastrigin10-n100": _testbed_design("rastrigin10", 100),
        "hump-n40": _testbed_design("hump", 40),
        "goldstein-price-n100": _testbed_design("goldstein-price", 100),
        "near-duplicate": _near_duplicate_design(),
    }
    out = {}
    for name, ds in designs.items():
        recorder = _Recorder(ds)
        run_strategy(recorder, "DIRECT-BFGS", ds.d, np.random.default_rng(0))
        stride = max(1, len(recorder.betas) // 120)
        out[name] = (ds, recorder.betas[::stride])
    return out


def _exact_deviance(ds, beta, a):
    """The deviance composed by hand from the eigenvalue path."""
    R = DistanceCache(ds.points, np.full(ds.d, 2.0)).correlation(beta)
    try:
        factored = factorize(R, *nugget_and_kappa(R, a))
    except IllConditionedError:
        return math.inf
    return _Profile(ds.outputs)(factored.factor, factored.log_det)[0]


def _passes_pivot_test(R, a):
    """Whether R factors and its pivots leave kappa(R) <= the certificate's
    limit possible: max(1'R1/n, 1) <= limit * min_i L_ii^2."""
    n = R.shape[0]
    try:
        L = scipy.linalg.cholesky(R, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    limit = 0.5 * min(math.exp(a), 0.125 / (n * np.finfo(float).eps))
    return max(R.sum(axis=1).sum() / n, 1.0) <= limit * L.diagonal().min() ** 2


class TestCertifiedDeviance:
    @pytest.mark.parametrize("a", [5.0, 25.0, 40.0])
    def test_counted_fe_matches_exact_path(self, visited, a):
        # a = 40 puts exp(a) above KAPPA_CLAMP, where the eigen path never
        # adds a nugget.
        for name, (ds, betas) in visited.items():
            objective = DevianceObjective(ds, GpOptions(a=a))
            for beta in betas:
                got = objective(beta)
                assert got == _exact_deviance(ds, beta, a), (name, beta)
                assert objective.evaluate(beta)[0] == got

    def test_certified_fe_calls_no_eigen_routine(self, visited, count_calls):
        ds, betas = visited["rastrigin10-n100"]
        objective = DevianceObjective(ds)
        counter = count_calls(np.linalg, "eigvalsh")
        for beta in betas:
            objective(beta)
        assert counter.calls == 0
        assert objective.fe_count == len(betas)

    @pytest.mark.parametrize("name", ["hump-n40", "goldstein-price-n100", "near-duplicate"])
    def test_nugget_heavy_fe_calls_eigen_routine(self, visited, count_calls, name):
        ds, betas = visited[name]
        objective = DevianceObjective(ds)
        cache = DistanceCache(ds.points, np.full(ds.d, 2.0))
        needs_nugget = [nugget_and_kappa(cache.correlation(b), 25.0)[0] > 0.0 for b in betas]
        certified = [certified_factor(cache.correlation(b), 25.0) is not None for b in betas]
        assert sum(needs_nugget) > len(betas) // 2
        counter = count_calls(np.linalg, "eigvalsh")
        for beta, nugget, proven in zip(betas, needs_nugget, certified):
            before = counter.calls
            objective(beta)
            assert counter.calls - before == (0 if proven else 1)
            assert not (nugget and proven)

    def test_large_design_skips_the_inversion(self, visited, count_calls):
        # At n = 100 the O(n^2) comparison-matrix bound certifies most FEs,
        # so L is inverted (dtrtri) only where that bound fails.
        ds, betas = visited["rastrigin10-n100"]
        assert ds.n >= correlation._COMPARISON_MIN_N
        objective = DevianceObjective(ds)
        eigen = count_calls(np.linalg, "eigvalsh")
        inversions = count_calls(correlation, "dtrtri")
        for beta in betas:
            objective(beta)
        assert inversions.calls <= 0.2 * len(betas)
        assert eigen.calls == 0

    def test_small_design_inverts_after_the_pivot_test(self, visited, count_calls):
        # Below the crossover every FE whose pivots pass the pre-test inverts L.
        ds, betas = visited["hump-n40"]
        assert ds.n < correlation._COMPARISON_MIN_N
        cache = DistanceCache(ds.points, np.full(ds.d, 2.0))
        expected = sum(_passes_pivot_test(cache.correlation(b), 25.0) for b in betas)
        assert 0 < expected < len(betas)
        objective = DevianceObjective(ds)
        inversions = count_calls(correlation, "dtrtri")
        for beta in betas:
            objective(beta)
        assert inversions.calls == expected

    def test_evaluate_reports_exact_kappa(self, visited):
        ds, betas = visited["rastrigin10-n100"]
        cache = DistanceCache(ds.points, np.full(ds.d, 2.0))
        for beta in betas[:10]:
            _, info = evaluate_deviance(ds, beta)
            assert info.kappa == nugget_and_kappa(cache.correlation(beta), 25.0)[1]
            assert model_at(ds, beta).correlation.kappa == info.kappa
