"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS lines
on success).  The desk-scale benchmark runs are shared across criteria via
module-scoped fixtures and use fixed seeds throughout.
"""

import math

import numpy as np
import pytest

from gpdevopt import local_search
from gpdevopt.boxes import SearchBox, default_beta_box, if_beta_box
from gpdevopt.correlation import DistanceCache, nugget_lower_bound
from gpdevopt.direct import direct_search
from gpdevopt.global_search import STRATEGIES, lhd_maximin
from gpdevopt.gp import (
    DesignSet,
    DevianceObjective,
    fit,
    predict_many,
    prediction_weights,
)
from gpdevopt.local_search import bfgs_minimize, central_gradient, implicit_filtering
from gpdevopt.optreport import CountedObjective
from gpdevopt.testbed import run_benchmark
from gpdevopt.testbed import test_function as make_test_function

E25 = math.exp(25.0)


# ---------------------------------------------------------------------------
# Independent dense-matrix oracle (inv/eig based, no shared code path with
# the library's Cholesky pipeline).
# ---------------------------------------------------------------------------

def oracle_everything(points, Y, beta, x_star, p=2.0, a=25.0):
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
    _, logdet = np.linalg.slogdet(Rd)
    deviance = logdet + n * math.log(qform)
    sigma2 = qform / n

    r = np.exp(-((np.abs(x_star[None, :] - points) ** p) @ (10.0 ** beta)))
    y_hat_direct = mu + r @ Rinv @ resid
    a_coef = (1.0 - r @ Rinv @ ones) / (ones @ Rinv @ ones)
    C = Rinv @ (a_coef * ones + r)
    y_hat_weights = C @ Y
    mse = sigma2 * (1.0 - 2.0 * C @ r + C @ Rd @ C)
    return {
        "deviance": deviance,
        "mu": mu,
        "sigma2": sigma2,
        "kappa": kappa,
        "y_hat_direct": y_hat_direct,
        "y_hat_weights": y_hat_weights,
        "mse": mse,
    }


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        points = rng.random((n, d))
        Y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        beta = rng.uniform(-0.5, 1.0, d)
        x_star = rng.random(d)
        ds = DesignSet(points, Y)
        objective = DevianceObjective(ds)
        value, info = objective.evaluate(beta)
        if not math.isfinite(value) or info.kappa > 1e6:
            continue  # the 1e-8 comparison needs a well-posed configuration
        checked += 1
        oracle = oracle_everything(points, Y, beta, x_star)
        assert value == pytest.approx(oracle["deviance"], rel=1e-8)
        assert info.mu_hat == pytest.approx(oracle["mu"], rel=1e-8, abs=1e-12)
        assert info.sigma2_hat == pytest.approx(oracle["sigma2"], rel=1e-8)
        model = objective.model(beta)
        y_hat, mse = predict_many(model, x_star[None, :])
        weights = prediction_weights(model, x_star)
        assert y_hat[0] == pytest.approx(oracle["y_hat_direct"], rel=1e-8, abs=1e-10)
        assert float(weights @ Y) == pytest.approx(oracle["y_hat_weights"], rel=1e-8, abs=1e-10)
        assert mse[0] == pytest.approx(max(oracle["mse"], 0.0), rel=1e-8, abs=1e-12)
    print("criterion 1 (oracle equivalence, 100 configs at 1e-8): PASS")


def test_criterion_2_interpolation_suite():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        d = int(rng.integers(1, 4))
        n = int(rng.integers(8, 13))
        points = lhd_maximin(n, SearchBox(np.zeros(d), np.ones(d)), rng)
        Y = np.sin(points @ np.linspace(2.0, 3.0, d)) + points @ np.arange(1.0, d + 1.0)
        ds = DesignSet(points, Y)
        objective = DevianceObjective(ds)
        beta = rng.uniform(0.3, 1.0, d)
        _, info = objective.evaluate(beta)
        if info.delta != 0.0:
            continue  # criterion targets nugget-free designs
        checked += 1
        model = objective.model(beta)
        y_hat, mse = predict_many(model, points)
        span = ds.output_range
        assert np.max(np.abs(y_hat - Y)) < 1e-6 * span
        assert np.max(mse) < 1e-8 * model.sigma2_hat
    print("criterion 2 (interpolation on 25 nugget-free designs): PASS")


def test_criterion_3_invariance_suite():
    rng = np.random.default_rng(5)
    points = lhd_maximin(8, SearchBox(np.zeros(1), np.ones(1)), rng)
    # A response the 8-point emulator cannot interpolate to roundoff keeps
    # the quadratic form away from zero, where the log would amplify noise.
    Y = np.sin(5.0 * points[:, 0]) + 0.4 * np.sin(29.0 * points[:, 0]) + 2.0
    ds = DesignSet(points, Y)
    box = default_beta_box(1)
    lo, hi = box.lower, box.upper
    grid = np.linspace(lo[0], hi[0], 101)
    shift = 1e3
    scale = 7.0
    n = ds.n

    def deviances(design):
        objective = DevianceObjective(design)
        return np.array([objective.evaluate(np.array([b]))[0] for b in grid])

    base = deviances(ds)
    shifted = deviances(DesignSet(points, Y + shift))
    scaled = deviances(DesignSet(points, Y * scale))

    assert np.max(np.abs(shifted - base)) < 1e-9
    assert np.max(np.abs(scaled - base - 2 * n * math.log(scale))) < 1e-9
    assert int(np.argmin(base)) == int(np.argmin(shifted)) == int(np.argmin(scaled))
    print("criterion 3 (translation/scaling invariance at 1e-9): PASS")


def test_criterion_4_nugget_bound():
    rng = np.random.default_rng(11)
    cases = 0
    while cases < 50:
        d = int(rng.integers(1, 4))
        n_base = int(rng.integers(5, 12))
        base = rng.random((n_base, d))
        jitter = 10.0 ** rng.uniform(-9, -5)
        points = np.concatenate([base, base + jitter])
        p = np.full(d, 2.0)
        beta = rng.uniform(-2.0, 0.5, d)
        R = DistanceCache(points, p).correlation(beta)
        delta = nugget_lower_bound(R, 25.0)
        if delta == 0.0:
            continue  # not actually ill-conditioned; draw again
        cases += 1
        w = np.linalg.eigvalsh(R + delta * np.eye(len(points)))
        assert w[0] > 0.0
        assert w[-1] / w[0] <= E25 * 1.05
    print("criterion 4 (nugget restores condition ceiling, 50 designs): PASS")


# ---------------------------------------------------------------------------
# Desk-scale benchmark reproduction (criteria 5 and 6 share these runs).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hump_benchmark():
    return run_benchmark(make_test_function("hump"), STRATEGIES, replicates=25, rng_seed=0)


@pytest.fixture(scope="module")
def goldstein_benchmark():
    return run_benchmark(
        make_test_function("goldstein-price"), STRATEGIES, replicates=25, rng_seed=0
    )


def test_criterion_5_desk_scale_table(hump_benchmark, goldstein_benchmark):
    # Hump: every strategy predicts essentially identically.
    rmspes = [r.mean_rmspe for r in hump_benchmark]
    assert (max(rmspes) - min(rmspes)) / min(rmspes) < 0.01
    assert all(r.failed_replicates == 0 for r in hump_benchmark)

    by_name = {r.strategy: r for r in goldstein_benchmark}
    fe_direct = by_name["DIRECT-BFGS"].mean_fe
    fe_half = by_name["MS-BFGS-halfd"].mean_fe
    fe_full = by_name["MS-BFGS-2d1"].mean_fe
    assert fe_direct < fe_full
    assert fe_half < fe_full
    # "Adjacent": the hybrid and the reduced multistart cost about the same.
    assert abs(fe_direct - fe_half) <= 0.15 * fe_half
    assert 0.5 <= fe_direct / fe_full <= 0.9
    # Reported hybrid budget lands near the reference average of 449.
    assert 449.0 * 0.75 <= fe_direct <= 449.0 * 1.25

    best_deviance = min(r.mean_deviance for r in goldstein_benchmark)
    gap = by_name["DIRECT-BFGS"].mean_deviance - best_deviance
    assert gap <= 0.01 * abs(best_deviance)
    print("criterion 5 (desk-scale table reproduction): PASS")


def test_criterion_6_rmspe_consistency(hump_benchmark, goldstein_benchmark):
    for result in (*hump_benchmark, *goldstein_benchmark):
        assert result.rmspe_std_err <= 0.1 * result.mean_rmspe, result.strategy
    print("criterion 6 (std err one order below mean RMSPE): PASS")


def test_criterion_7_higher_dimension_spot_check():
    results = run_benchmark(
        make_test_function("schwefel"),
        ("MS-BFGS-2d1", "DIRECT-BFGS"),
        replicates=10,
        rng_seed=0,
    )
    by_name = {r.strategy: r for r in results}
    assert by_name["DIRECT-BFGS"].mean_fe < 0.5 * by_name["MS-BFGS-2d1"].mean_fe
    best = min(r.mean_deviance for r in results)
    gap = by_name["DIRECT-BFGS"].mean_deviance - best
    assert gap <= 0.01 * abs(best)
    print("criterion 7 (5-D spot check: hybrid under half the cost): PASS")


def test_criterion_8_optimizer_unit_gates(monkeypatch):
    # Quasi-Newton solves 2-D Rosenbrock within 200 iterations.
    monkeypatch.setattr(local_search, "MAX_ITERS", 200)
    report = bfgs_minimize(
        lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2,
        np.array([-1.2, 1.0]),
    )
    assert report.value < 1e-6

    # DIRECT localizes a 1-D quadratic within 100 evaluations.
    box = SearchBox(np.zeros(1), np.ones(1))
    report = direct_search(lambda x: (x[0] - 0.7) ** 2, box, fe_budget=100)
    assert abs(report.beta_star[0] - 0.7) <= 0.01

    # Pattern search reaches the dense-grid floor on a multimodal surface.
    rng = np.random.default_rng(11)
    fn = make_test_function("hump")
    points = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
    obj = DevianceObjective(DesignSet(points, fn.evaluate(points)))
    wide = if_beta_box(1)
    lo, hi = wide.lower, wide.upper
    grid_min = min(
        obj.evaluate(np.array([b]))[0] for b in np.linspace(lo[0], hi[0], 2001)
    )
    report = implicit_filtering(obj, 0.5 * (lo + hi), wide)
    assert report.value <= grid_min + 1e-2

    # Numerical gradient agrees with a higher-order stencil.
    def smooth(x):
        return math.sin(x[0]) + x[1] ** 2 * math.cos(x[0])

    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        grad = central_gradient(CountedObjective(smooth), x)
        for k in range(2):
            h = 1e-3
            e = np.zeros(2)
            e[k] = h
            five_point = (
                -smooth(x + 2 * e) + 8 * smooth(x + e) - 8 * smooth(x - e) + smooth(x - 2 * e)
            ) / (12 * h)
            assert grad[k] == pytest.approx(five_point, rel=1e-4, abs=1e-8)
    print("criterion 8 (optimizer unit gates): PASS")


def test_criterion_9_fe_accounting(monkeypatch):
    calls = {"n": 0}
    original = DevianceObjective.__call__

    def counted(self, beta):
        calls["n"] += 1
        return original(self, beta)

    monkeypatch.setattr(DevianceObjective, "__call__", counted)
    rng = np.random.default_rng(21)
    fn = make_test_function("hump")
    points = lhd_maximin(10, SearchBox(np.zeros(1), np.ones(1)), rng)
    ds = DesignSet(points, fn.evaluate(points))
    for strategy in STRATEGIES:
        calls["n"] = 0
        model = fit(ds, strategy, rng=3)
        assert model.fe_count == calls["n"], strategy
    print("criterion 9 (exact evaluation accounting for all strategies): PASS")
