import dataclasses
import inspect
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from gpdevopt import correlation, global_search
from gpdevopt import gp as gp_module
from gpdevopt.boxes import SearchBox, default_beta_box
from gpdevopt.correlation import (
    DistanceCache,
    _cholesky,
    certifies,
    cholesky_solve,
    factorize,
    gaussian_kernel,
    nugget_and_kappa,
    powered_planes,
    triangular_solve,
)
from gpdevopt.global_search import STRATEGIES, lhd_maximin, run_strategy
from gpdevopt.gp import (
    PREDICT_BLOCK,
    DegenerateDataError,
    DesignSet,
    DevianceObjective,
    GpOptions,
    UnfittableError,
    _Profile,
    fit,
    mean_estimate,
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

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="number of rows"):
            DesignSet(np.array([[0.1], [0.5], [0.9]]), np.array([1.0, 2.0]))

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
        val, info = DevianceObjective(ds).evaluate(np.array([0.2, -0.3]))
        fac = info.factored
        assert mean_estimate(fac, np.full(ds.n, 7.25)) == pytest.approx(7.25, abs=1e-12)

    @pytest.mark.parametrize("length", [3, 5])
    def test_mean_rejects_wrong_length_output(self, length):
        fac = factorize(np.eye(4), 0.0, 1.0)
        with pytest.raises(ValueError, match="does not match the factorization"):
            mean_estimate(fac, np.ones(length))

    def test_mean_matches_dense_oracle(self):
        x = np.array([[0.0], [0.4], [1.0]])
        Y = np.array([1.0, -2.0, 0.5])
        ds = DesignSet(x, Y)
        beta = np.array([0.0])
        _, info = DevianceObjective(ds).evaluate(beta)
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
        _, info = DevianceObjective(ds).evaluate(beta)
        _, mu, s2, _, _ = dense_deviance_oracle(pts, Y, beta)
        assert info.sigma2_hat == pytest.approx(s2, rel=1e-10)
        assert variance_estimate(info.factored, Y, mu) == pytest.approx(s2, rel=1e-10)


class TestEvaluateDeviance:
    def test_two_point_hand_case(self):
        # x = {0, 1}, Y = {0, 1}, beta = 0: R is 2x2 with off-diagonal e^-1.
        ds = DesignSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        val, info = DevianceObjective(ds).evaluate(np.array([0.0]))
        e1 = math.exp(-1.0)
        expected = math.log(1 - e1 ** 2) + 2 * math.log(1.0 / (2.0 * (1.0 - e1)))
        assert val == pytest.approx(expected, rel=1e-12)
        assert info.mu_hat == pytest.approx(0.5, abs=1e-12)
        assert info.delta == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        ds = small_design(rng)
        beta = np.array([0.3, 0.1])
        base, _ = DevianceObjective(ds).evaluate(beta)
        for c in (1.0, -17.0, 1e3):
            shifted = DesignSet(ds.points, ds.outputs + c)
            val, _ = DevianceObjective(shifted).evaluate(beta)
            assert val == pytest.approx(base, abs=1e-9)

    def test_scaling_shifts_by_2n_log_s(self):
        rng = np.random.default_rng(3)
        ds = small_design(rng, n=5)
        beta = np.array([0.2, -0.1])
        base, _ = DevianceObjective(ds).evaluate(beta)
        for s in (2.0, 0.5, 13.0):
            scaled = DesignSet(ds.points, ds.outputs * s)
            val, _ = DevianceObjective(scaled).evaluate(beta)
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
            DevianceObjective(ds).evaluate(np.array([0.0]))

    def test_constant_output_gives_positive_infinity(self):
        # A vanishing quadratic form must not yield -inf, which would win
        # every minimization: a constant response, or one so small that the
        # quadratic form underflows.
        x = np.array([[0.0], [0.5], [1.0]])
        for Y in (np.full(3, 2.0), 1e-200 * np.array([0.0, 1.0, 0.3])):
            val, info = DevianceObjective(DesignSet(x, Y)).evaluate(np.array([0.0]))
            assert val == math.inf
            assert info.sigma2_hat == 0.0

    def test_failed_evaluation_contract(self):
        # At beta=400 the kernel gives 0 * inf = NaN on the diagonal, so R is
        # not finite: evaluate() reports +inf with no factor, and no model.
        fn = make_test_function("hump")
        pts = lhd_maximin(6, SearchBox(np.zeros(1), np.ones(1)), np.random.default_rng(0))
        objective = DevianceObjective(DesignSet(pts, fn.evaluate(pts)))
        val, info = objective.evaluate(np.array([400.0]))
        assert val == math.inf
        assert info.factored is None
        assert info.delta == 0.0
        assert info.kappa == math.inf
        with pytest.raises(UnfittableError):
            objective.model(np.array([400.0]))

    def test_smoothness_exponent_1_99(self):
        # Slightly lowering the exponent changes R off the p=2 values but
        # keeps the model well defined end to end.
        x = np.array([[0.0], [0.5], [1.0]])
        Y = np.array([0.0, 1.0, 0.3])
        ds = DesignSet(x, Y)
        options = GpOptions(p_exponent=1.99)
        val, info = DevianceObjective(ds, options).evaluate(np.array([0.0]))
        assert math.isfinite(val)
        val2, _ = DevianceObjective(ds).evaluate(np.array([0.0]))
        assert val != val2
        R = DistanceCache(x, [1.99]).correlation(np.array([0.0]))
        assert R[0, 1] == pytest.approx(math.exp(-(0.5 ** 1.99)), rel=1e-14)


class TestPredict:
    def build_model(self, seed=0, n=10, d=1):
        rng = np.random.default_rng(seed)
        fn = make_test_function("hump") if d == 1 else make_test_function("goldstein-price")
        pts = lhd_maximin(n, SearchBox(np.zeros(d), np.ones(d)), rng)
        ds = DesignSet(pts, fn.evaluate(pts))
        return fit(ds, "DIRECT-BFGS", rng=seed)

    def test_interpolates_design_points(self):
        model = self.build_model()
        assert model.correlation.delta == 0.0
        span = model.design.output_range
        for i in range(model.design.n):
            y_hat, mse = predict_many(model, model.design.points[i : i + 1])
            assert abs(y_hat[0] - model.design.outputs[i]) < 1e-6 * span
            assert mse[0] < 1e-8 * model.sigma2_hat

    def test_far_field_limit(self):
        # Large beta: the query point decorrelates from every design point.
        x = np.array([[0.0], [0.05], [0.1]])
        Y = np.array([1.0, 3.0, 2.0])
        ds = DesignSet(x, Y)
        objective = DevianceObjective(ds)
        _, info = objective.evaluate(np.array([2.6]))
        model = objective.model(np.array([2.6]))
        (y_hat,), (mse,) = predict_many(model, np.array([[1.0]]))
        assert y_hat == pytest.approx(info.mu_hat, abs=1e-8)
        ones = np.ones(3)
        limit = info.sigma2_hat * (1.0 + 1.0 / (ones @ cholesky_solve(info.factored.factor, ones)))
        assert mse == pytest.approx(limit, rel=1e-6)

    def test_both_blup_forms_agree(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 4))
            pts = rng.random((n, d))
            Y = rng.standard_normal(n)
            objective = DevianceObjective(DesignSet(pts, Y))
            beta = rng.uniform(-0.5, 1.0, d)
            val, info = objective.evaluate(beta)
            # The 1e-8 agreement only makes sense away from near-singular R,
            # where conditioning amplifies roundoff past the tolerance.
            if not math.isfinite(val) or info.kappa > 1e6:
                continue
            checked += 1
            model = objective.model(beta)
            x_star = rng.random(d)
            direct_form = predict_many(model, x_star[None])[0][0]
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
            predict_many(model, np.array([[bad]]))

    def test_wrong_column_count_rejected(self):
        model = self.build_model()
        with pytest.raises(ValueError, match="must have 1 columns"):
            predict_many(model, np.full((3, 2), 0.5))

    @pytest.mark.parametrize("d, n, beta", [
        (1, 7, 0.5), (2, 11, 0.3), (10, 13, -0.5), (10, 100, -0.3), (12, 120, -0.3),
        (2, 129, 0.3)])
    @pytest.mark.parametrize("design_order", ["C", "F"])
    @pytest.mark.parametrize("points_order", ["C", "F"])
    def test_blocked_matches_unblocked_bits(self, d, n, beta, design_order, points_order, run_script):
        # Blocks and the slices of their kernel rows split the points at
        # multiples of 8, which keeps the bytes of one unblocked call.  Slices
        # hold 128 points at d=10, n=100, 88 at d=12, n=120 and 504 at d=2,
        # n=129, whose 512-point block is just over `_SLICE_ENTRIES`.  A
        # threaded BLAS splits the unblocked solve of a large design at other
        # columns, so those designs are checked in an interpreter with BLAS
        # at one thread.
        args = d, n, beta, design_order, points_order
        if n < 100:
            _check_blocked_bits(*args)
            return
        run_script(
            "from gpdevopt.correlation import *\n"
            "from gpdevopt.gp import DesignSet, DevianceObjective, PREDICT_BLOCK, predict_many\n"
            "gp_module = gp\n" + inspect.getsource(_unblocked_predict_many)
            + inspect.getsource(_check_blocked_bits) + f"_check_blocked_bits{args!r}\n")

    def test_blocks_in_any_order_keep_their_bytes_and_their_workspace(self):
        # One `_Blocks` computes every block in its workspace, in any order,
        # with the bytes of a fresh one; no result is a view of the workspace,
        # and the workspace is never pickled.
        rng = np.random.default_rng(31)
        pts = rng.random((20, 3))
        model = DevianceObjective(DesignSet(pts, np.sin(4 * pts).sum(axis=1))).model(np.full(3, 0.2))
        B = PREDICT_BLOCK
        for m in (2 * B + 1, 3 * B + 100):
            x = rng.random((m, 3))
            count = gp_module._Blocks(model, x).count
            want = [[a.tobytes() for a in gp_module._Blocks(model, x)(k)] for k in range(count)]
            for order in (range(count)[::-1], rng.permutation(count).tolist()):
                blocks = gp_module._Blocks(model, x)
                size = len(pickle.dumps(blocks))
                got = {}
                for k in order:
                    got[k] = blocks(k)
                    assert [a.tobytes() for a in got[k]] == want[k], (m, k)
                    assert not any(np.shares_memory(a, blocks._workspace) for a in got[k])
                    assert len(pickle.dumps(blocks)) == size
                assert [[a.tobytes() for a in got[k]] for k in range(count)] == want

    def _model_and_points(self, d=2, n=11):
        rng = np.random.default_rng(n)
        pts = rng.random((n, d))
        model = DevianceObjective(DesignSet(pts, np.sin(3 * pts).sum(axis=1))).model(np.full(d, 0.3))
        return model, rng.random((600, d))

    def test_a_model_solves_once_for_all_its_predictions(self, count_calls):
        model, x = self._model_and_points()
        solves = count_calls(gp_module, "cholesky_solve")
        for _ in range(3):
            predict_many(model, x[:100])
        assert solves.calls == 1

    def test_a_replaced_model_predicts_from_its_own_fields(self):
        # A copy made after the model has predicted does not reuse its solves.
        model, x = self._model_and_points()
        predict_many(model, x)
        fortran = DesignSet(np.asfortranarray(model.design.points), model.design.outputs)
        for other in (dataclasses.replace(model, mu_hat=model.mu_hat + 1.0),
                      dataclasses.replace(model, design=fortran)):
            for got, want in zip(predict_many(other, x), _unblocked_predict_many(other, x)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_model_pickled_before_or_after_predicting_keeps_its_bytes(self):
        # A shared call's worker gets the model without its solves at the
        # model's first call and with them at later calls.
        model, x = self._model_and_points()
        before = pickle.loads(pickle.dumps(model))
        want = predict_many(model, x)
        after = pickle.loads(pickle.dumps(model))
        assert "_solves" not in vars(before) and "_solves" in vars(after)
        for copy in (before, after):
            for got, ref in zip(predict_many(copy, x), want):
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("d, n", [(1, 7), (2, 11), (10, 13)])
    def test_point_layout_gives_identical_bytes(self, d, n):
        rng = np.random.default_rng(d + 20)
        pts = rng.random((n, d))
        model = DevianceObjective(DesignSet(pts, np.cos(2 * pts).sum(axis=1))).model(np.full(d, 0.2))
        fortran = dataclasses.replace(model, design=DesignSet(np.asfortranarray(pts), model.design.outputs))
        for m in (1, 3, 2 * PREDICT_BLOCK + 1):
            x = rng.random((m, d))
            want = predict_many(model, x)
            for design_model in (model, fortran):
                for points in (x, np.asfortranarray(x)):
                    for got, ref in zip(predict_many(design_model, points), want):
                        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), m

    def test_peak_memory_is_one_block_operand(self):
        # One workspace for the largest block (at most PREDICT_BLOCK + 1
        # points): the operand of one slice, at most `_SLICE_ENTRIES` entries
        # and one row of rounding, and three (n, block) rows, plus 0.5 MiB.
        # Goldstein-Price n=100 on a 101 x 101 grid builds each block's
        # operand whole and peaks at 2.4 MiB; a (d, m*n) operand for the whole
        # grid alone would be 15.6 MiB.  Perm 12-D n=120 builds slices of 88
        # points and peaks at 2.1 MiB of its 3.4 MiB bound; with whole
        # 512-point operands of 5.9 MiB it peaked at 7.2 MiB.
        axis = np.linspace(0.0, 1.0, 101)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        perm_points = np.random.default_rng(1).random((1200, 12))
        cases = ("goldstein-price", 100, grid, 0.3), ("perm12", 120, perm_points, -0.3)
        for name, n, x, beta in cases:
            fn = make_test_function(name)
            pts = lhd_maximin(n, SearchBox(np.zeros(fn.d), np.ones(fn.d)), np.random.default_rng(0))
            model = DevianceObjective(DesignSet(pts, fn.evaluate(pts))).model(np.full(fn.d, beta))
            assert x.flags.c_contiguous and pts.flags.c_contiguous
            tracemalloc.start()
            try:
                predict_many(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            row = (PREDICT_BLOCK + 1) * n * 8
            operand = min(fn.d * row, 8 * gp_module._SLICE_ENTRIES + row)
            assert peak <= operand + 3 * row + 2**19, (name, peak)

    def test_weights_reject_several_points(self):
        model = self.build_model(n=6, d=2)
        with pytest.raises(ValueError, match="one point of 2 finite"):
            prediction_weights(model, np.full((3, 2), 0.5))

    def test_weights_reject_non_finite_point(self):
        model = self.build_model(n=6, d=2)
        with pytest.raises(ValueError, match="one point of 2 finite"):
            prediction_weights(model, np.array([0.5, math.nan]))

    def test_weights_reject_wrong_coordinate_count(self):
        model = self.build_model(n=6, d=2)
        with pytest.raises(ValueError, match="one point of 2 finite"):
            prediction_weights(model, np.array([0.5]))


def _check_blocked_bits(d, n, beta, design_order, points_order):
    rng = np.random.default_rng(d)
    pts = rng.random((n, d))
    ds = DesignSet(np.array(pts, order=design_order), np.sin(3 * pts[:, 0]) + pts.sum(axis=1))
    model = DevianceObjective(ds).model(np.full(d, beta))
    B = PREDICT_BLOCK
    counts = [1, 2, B - 1, B, B + 1, B + 2, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 1, 1000, 1200]
    if n >= 100:
        # The last slice of one block, and the last block of four and its
        # last slice, at every residue mod 8.
        counts += [*range(B - 6, B), *range(1201, 1208)]
    for m in counts:
        x = np.array(rng.random((m, d)), order=points_order)
        for got, want in zip(predict_many(model, x), _unblocked_predict_many(model, x)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), m
        blocks = gp_module._Blocks(model, x)
        sizes = [len(blocks(k)[0]) for k in range(blocks.count)]
        # Near-equal blocks of a multiple of 8 points, the last holding the
        # rest, at most B + 1 points each: one block up to B + 1 points, an
        # even count from B + 2 points on.
        assert sum(sizes) == m and max(sizes) <= B + 1, (m, sizes)
        assert (m >= B + 2) == (len(sizes) > 1), (m, sizes)
        if len(sizes) > 1:
            assert len(sizes) % 2 == 0 and sizes[-1] >= 2, (m, sizes)
            assert set(sizes[:-1]) == {sizes[0]} and sizes[0] % 8 == 0, (m, sizes)


def _unblocked_predict_many(model, points):
    """predict_many as it was before blocking: every (n, m) array at once."""
    L = model.correlation.factor
    n = model.design.n
    ones = np.ones(n)
    resid = model.design.outputs - model.mu_hat
    powered = powered_planes(points, model.design.points, model.p)
    r = gaussian_kernel(powered, model.beta_star).reshape(points.shape[0], n)
    u = cholesky_solve(L, ones)
    one_r_one = float(u.sum())
    z_resid = triangular_solve(L, resid)
    z_ones = triangular_solve(L, ones)
    z_r = triangular_solve(L, r.T)
    y_hat = model.mu_hat + z_r.T @ z_resid
    a_coef = (1.0 - z_ones @ z_r) / one_r_one
    z_w = z_ones[:, None] * a_coef[None, :] + z_r
    mse = model.sigma2_hat * (1.0 - 2.0 * np.sum(z_w * z_r, axis=0) + np.sum(z_w * z_w, axis=0))
    return y_hat, np.maximum(mse, 0.0)


class TestFit:
    def test_hump_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        fn = make_test_function("hump")
        pts = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
        ds = DesignSet(pts, fn.evaluate(pts))
        obj = DevianceObjective(ds)
        box = default_beta_box(1)
        lo, hi = box.lower, box.upper
        grid_vals = [obj.evaluate(np.array([b]))[0] for b in np.linspace(lo[0], hi[0], 2001)]
        grid_min = min(grid_vals)
        for strategy in ("MS-BFGS-2d1", "DIRECT-BFGS", "MS-IF-halfd"):
            model = fit(ds, strategy, rng=1)
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
        model = fit(ds, "DIRECT-BFGS", rng=5)
        val, _ = DevianceObjective(ds, GpOptions()).evaluate(model.beta_star)
        assert model.deviance == pytest.approx(val, rel=1e-10)

    def test_fe_count_matches_injected_wrapper(self, run_script):
        # The wrapper counts the calls of both the fitting process and its worker.
        run_script("""
            model = fit(design("hump", 10, seed=13), "MS-BFGS-2d1", rng=2)
            assert evaluated_once(model.fe_count), (model.fe_count, calls.tolist())
            assert calls[1] > 0 or not CAN_FORK, forks
        """)

    def test_uncounted_evaluation_is_an_accounting_mismatch(self, monkeypatch):
        # A phase that calls the objective once more than it reports.
        original = global_search.cluster_starts

        def undercounting(objective, *args):
            starts, fe_used = original(objective, *args)
            objective(starts[0])
            return starts, fe_used

        monkeypatch.setattr(global_search, "cluster_starts", undercounting)
        fn = make_test_function("hump")
        pts = lhd_maximin(6, SearchBox(np.zeros(1), np.ones(1)), np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="evaluation accounting mismatch"):
            fit(DesignSet(pts, fn.evaluate(pts)), "MS-BFGS-halfd")

    def test_one_distance_cache_per_fit(self, monkeypatch):
        # The optimized objective also builds the model: one set of powered
        # distances serves the whole fit.
        built = []

        class CountingCache(DistanceCache):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(gp_module, "DistanceCache", CountingCache)
        fn = make_test_function("hump")
        pts = lhd_maximin(6, SearchBox(np.zeros(1), np.ones(1)), np.random.default_rng(0))
        fit(DesignSet(pts, fn.evaluate(pts)), "DIRECT-BFGS")
        assert len(built) == 1

    def test_unknown_strategy_rejected(self):
        ds = DesignSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="unknown strategy 'GRADIENT-DESCENT'; expected one of"):
            fit(ds, "GRADIENT-DESCENT")

    def test_seed_keyword_is_gone(self):
        ds = DesignSet(np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 1.0, 0.3]))
        with pytest.raises(TypeError):
            fit(ds, seed=1)

    def test_rng_none_rejected_before_any_fe(self, monkeypatch):
        # None would seed the fit from OS entropy.
        def no_fe(self, beta):
            raise AssertionError("an FE ran")

        monkeypatch.setattr(DevianceObjective, "__call__", no_fe)
        ds = DesignSet(np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 1.0, 0.3]))
        with pytest.raises(ValueError, match="rng=None"):
            fit(ds, rng=None)

    @pytest.mark.parametrize("seed", [4, (4, 1)], ids=["int", "tuple"])
    def test_generator_gives_the_seed_bits(self, seed):
        # default_rng returns a Generator as it is, so a Generator and its
        # seed drive the same stream.
        fn = make_test_function("hump")
        pts = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), np.random.default_rng(18))
        ds = DesignSet(pts, fn.evaluate(pts))
        by_seed = fit(ds, "MS-IF-2d1", rng=seed)
        by_generator = fit(ds, "MS-IF-2d1", rng=np.random.default_rng(seed))
        assert by_seed.beta_star.tobytes() == by_generator.beta_star.tobytes()
        assert np.float64(by_seed.deviance).tobytes() == np.float64(by_generator.deviance).tobytes()
        assert by_seed.fe_count == by_generator.fe_count

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_infinite_deviances_are_unfittable(self, monkeypatch, strategy):
        # Every FE is counted and +inf: each strategy must end in the typed
        # error, not in the accounting check or a numpy warning.
        def infinite(self, beta):
            self.fe_count += 1
            return math.inf

        monkeypatch.setattr(DevianceObjective, "__call__", infinite)
        rng = np.random.default_rng(0)
        ds = DesignSet(rng.random((6, 2)), rng.random(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnfittableError, match="every start produced a non-finite"):
                fit(ds, strategy)

    def test_p_is_plumbed_through(self):
        rng = np.random.default_rng(17)
        fn = make_test_function("hump")
        pts = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
        ds = DesignSet(pts, fn.evaluate(pts))
        base = fit(ds, "DIRECT-BFGS", rng=1)
        rough = fit(ds, "DIRECT-BFGS", rng=1, p_exponent=1.99)
        # A different exponent changes the surface itself.
        assert rough.deviance != base.deviance
        assert np.all(rough.p == 1.99)

    def test_prediction_finite_with_nugget(self):
        # Near-duplicate design points force delta > 0; predictions smooth
        # rather than interpolate but stay finite with nonnegative mse.
        base = np.linspace(0.05, 0.95, 8)
        x = np.concatenate([base, base + 1e-7])[:, None]
        Y = np.sin(3 * x[:, 0])
        ds = DesignSet(x, Y)
        model = DevianceObjective(ds).model(np.array([0.5]))
        assert model.correlation.delta > 0.0
        y_hat, mse = predict_many(model, np.linspace(0, 1, 25)[:, None])
        assert np.all(np.isfinite(y_hat))
        assert np.all(mse >= 0.0)


class _Recorder(DevianceObjective):
    """Deviance objective that keeps every beta it is evaluated at, and the
    value it returned."""

    def __init__(self, design):
        super().__init__(design)
        self.betas = []
        self.values = []

    def __call__(self, beta):
        self.betas.append(np.array(beta, dtype=float))
        self.values.append(super().__call__(beta))
        return self.values[-1]


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
    factored = factorize(R, *nugget_and_kappa(R, a))
    if factored is None:
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
    def test_counted_fe_matches_exact_path(self, visited, a, monkeypatch):
        # a = 40 puts exp(a) above KAPPA_CLAMP, where the eigen path never
        # adds a nugget.  Single calls never reach the worker, so patching
        # the ceiling in this process moves every evaluation.
        monkeypatch.setattr(gp_module, "CONDITION_EXPONENT", a)
        for name, (ds, betas) in visited.items():
            objective = DevianceObjective(ds)
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
        certified = [
            (L := _cholesky(R.T)) is not None and certifies(R, L, 25.0)
            for R in map(cache.correlation, betas)
        ]
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
        # Below the crossover every FE whose pivots pass the pre-test inverts
        # L.  A fresh objective per beta has no anchors, so every FE runs the
        # certificate.
        ds, betas = visited["hump-n40"]
        assert ds.n < correlation._COMPARISON_MIN_N
        cache = DistanceCache(ds.points, np.full(ds.d, 2.0))
        expected = sum(_passes_pivot_test(cache.correlation(b), 25.0) for b in betas)
        assert 0 < expected < len(betas)
        inversions = count_calls(correlation, "dtrtri")
        for beta in betas:
            DevianceObjective(ds)(beta)
        assert inversions.calls == expected

    def test_evaluate_reports_exact_kappa(self, visited):
        ds, betas = visited["rastrigin10-n100"]
        cache = DistanceCache(ds.points, np.full(ds.d, 2.0))
        objective = DevianceObjective(ds)
        for beta in betas[:10]:
            _, info = objective.evaluate(beta)
            assert info.kappa == nugget_and_kappa(cache.correlation(beta), 25.0)[1]
            assert objective.model(beta).correlation.kappa == info.kappa


def _bits(value):
    return np.float64(value).view(np.int64)


class _Paths:
    """Per-FE record of which routines a counted evaluation called:
    `certifies` (the certificate), the Cholesky factorization of R that the
    dominance step, the certificate and the profile share, and eigvalsh (the
    exact path).  No FE factors R twice."""

    def __init__(self, count_calls):
        self.certificate = count_calls(gp_module, "certifies")
        self.factor = count_calls(gp_module, "_cholesky")
        self.eigen = count_calls(np.linalg, "eigvalsh")
        self.fes = []

    def __call__(self, objective, beta):
        counters = (self.certificate, self.factor, self.eigen)
        before = [c.calls for c in counters]
        value = objective(np.array(beta, dtype=float))
        self.fes.append(tuple(c.calls - b for c, b in zip(counters, before)))
        assert self.fes[-1][1] <= 1, self.fes[-1]
        return value


@pytest.fixture(scope="module")
def lowd_designs():
    """The design shapes of the lowd-all benchmark workload."""
    return {"hump-n10": _testbed_design("hump", 10),
            "goldstein-price-n20": _testbed_design("goldstein-price", 20)}


class TestDominanceAnchors:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_counted_fe_matches_fresh_exact_path_along_fits(self, lowd_designs, strategy):
        for name, ds in lowd_designs.items():
            recorder = _Recorder(ds)
            run_strategy(recorder, strategy, ds.d, np.random.default_rng(0))
            fresh = DevianceObjective(ds)
            for beta, value in zip(recorder.betas, recorder.values):
                assert _bits(value) == _bits(fresh.evaluate(beta)[0]), (name, beta)
            assert fresh.fe_count == 0

    @pytest.mark.parametrize("name", ["hump-n10", "goldstein-price-n20"])
    def test_direct_bfgs_skips_most_certificates(self, lowd_designs, count_calls, name):
        ds = lowd_designs[name]
        paths, objective = _Paths(count_calls), DevianceObjective(ds)
        run_strategy(lambda beta: paths(objective, beta), "DIRECT-BFGS", ds.d,
                     np.random.default_rng(0))
        assert len(paths.fes) == objective.fe_count
        assert paths.certificate.calls <= 0.5 * objective.fe_count
        dominance_certified = [fe for fe in paths.fes if fe == (0, 1, 0)]
        assert len(dominance_certified) > 0.25 * objective.fe_count
        # An FE that factors R and skips the certificate never reaches eigvalsh.
        assert all(fe[2] == 0 for fe in paths.fes if fe[:2] == (0, 1))

    def test_nugget_side_skips_most_certificates_on_dense_design(self, count_calls):
        ds = _testbed_design("hump", 40)
        paths, objective = _Paths(count_calls), DevianceObjective(ds)
        run_strategy(lambda beta: paths(objective, beta), "DIRECT-BFGS", ds.d,
                     np.random.default_rng(0))
        nugget_side = sum(fe == (0, 0, 1) for fe in paths.fes)
        assert nugget_side > 0.5 * objective.fe_count

    # On hump n=10 with beta = b in every coordinate, b = 0.5 needs a nugget,
    # b = 0.55 has delta = 0 from eigvalsh that the certificate cannot prove,
    # and b = 0.6 is certified.
    def test_only_certified_fe_becomes_a_certified_anchor(self, lowd_designs, count_calls):
        paths = _Paths(count_calls)
        control = DevianceObjective(lowd_designs["hump-n10"])
        paths(control, [0.6])
        paths(control, [0.7])
        assert paths.fes == [(1, 1, 0), (0, 1, 0)]
        paths.fes.clear()
        objective = DevianceObjective(lowd_designs["hump-n10"])
        paths(objective, [0.55])
        paths(objective, [0.58])
        assert paths.fes[0] == (1, 1, 1)
        assert paths.fes[1][:2] == (1, 1)

    def test_only_exact_path_nugget_becomes_a_nugget_anchor(self, lowd_designs, count_calls):
        paths = _Paths(count_calls)
        control = DevianceObjective(lowd_designs["hump-n10"])
        paths(control, [0.5])
        paths(control, [0.4])
        assert paths.fes == [(1, 1, 1), (0, 0, 1)]
        paths.fes.clear()
        objective = DevianceObjective(lowd_designs["hump-n10"])
        assert objective.evaluate(np.array([0.55]))[1].delta == 0.0
        paths(objective, [0.55])
        paths(objective, [0.5])
        assert paths.fes == [(1, 1, 1), (1, 1, 1)]

    def test_beta_above_quiet_bound_skips_the_anchors(self, lowd_designs, count_calls):
        assert correlation._QUIET_BETA < 400.0
        ds = lowd_designs["goldstein-price-n20"]
        paths = _Paths(count_calls)
        control = DevianceObjective(ds)
        paths(control, [0.5, 0.5])
        paths(control, [0.6, 0.6])
        assert paths.fes == [(1, 1, 0), (0, 1, 0)]
        paths.fes.clear()
        objective = DevianceObjective(ds)
        for beta in ([0.5, 0.5], [0.6, 400.0], [0.5, 400.0], [0.6, 500.0]):
            value = paths(objective, beta)
            assert _bits(value) == _bits(objective.evaluate(np.array(beta))[0])
        # Certified, but neither uses an anchor nor becomes one.
        assert paths.fes == [(1, 1, 0)] * 4

    @pytest.mark.parametrize("failure", ["not-positive-definite", "infinite-log-det"])
    def test_failed_factor_goes_to_the_exact_path_with_the_exact_value(
        self, lowd_designs, count_calls, monkeypatch, failure
    ):
        # [0.7] dominates the certified anchor [0.6], and then runs without
        # an anchor, where a factor with an infinite pivot passes the
        # certificate but not the log-determinant check.
        ds = lowd_designs["hump-n10"]
        objective = DevianceObjective(ds)
        objective(np.array([0.6]))
        if failure == "not-positive-definite":
            monkeypatch.setattr(gp_module, "_cholesky", lambda R: None)
        else:
            monkeypatch.setattr(gp_module, "_cholesky", lambda R: np.diag(np.full(ds.n, np.inf)))
        paths = _Paths(count_calls)
        dominant = paths(objective, [0.7])
        alone = paths(DevianceObjective(ds), [0.7])
        certificate = 0 if failure == "not-positive-definite" else 1
        assert paths.fes == [(0, 1, 1), (certificate, 1, 1)]
        exact = objective.evaluate(np.array([0.7]))[0]
        assert _bits(dominant) == _bits(alone) == _bits(exact)
