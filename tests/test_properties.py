"""Property tests of the counted deviance evaluation (the optimizers' hot path)
and of the whole path from a design to a model file."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from gpdevopt.correlation import (
    _COMPARISON_MIN_N,
    DistanceCache,
    _cholesky,
    certifies,
    factorize,
    nugget_and_kappa,
)
from gpdevopt import cli
from gpdevopt.gp import DesignSet, DevianceObjective, fit, predict_many

# Ordinary log10 inverse lengthscales, plus values whose 10**beta underflows
# to zero or overflows to infinity.
BETA = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-400.0, 400.0]))


@st.composite
def designs(draw, n=st.integers(2, 25), d=st.integers(1, 3)):
    n = draw(n)
    d = draw(d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.random((n, d))
    if draw(st.booleans()):
        # A near-duplicate pair makes R nearly singular, so a nugget is needed.
        points[-1] = points[0] + np.where(points[0] < 0.5, 1e-7, -1e-7)
    offset = draw(st.sampled_from([0.0, 1e6, -3e9]))
    outputs = offset + np.sin(6.0 * points).sum(axis=1) + 0.1 * rng.standard_normal(n)
    order = draw(st.sampled_from("CF"))
    return DesignSet(np.array(points, order=order), outputs)


def _check_counted_fe(data, design_strategy, beta_strategy=BETA):
    ds = data.draw(design_strategy, label="design")
    betas = data.draw(
        st.lists(st.lists(beta_strategy, min_size=ds.d, max_size=ds.d), min_size=1, max_size=4),
        label="betas",
    )
    objective = DevianceObjective(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for calls, beta in enumerate(betas, start=1):
            got = objective(np.array(beta))
            assert objective.fe_count == calls
            want = objective.evaluate(np.array(beta))[0]
            assert objective.fe_count == calls
            # Bit for bit, which also covers both being +inf.
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_counted_fe_equals_exact_evaluation(data):
    _check_counted_fe(data, designs())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_counted_fe_equals_exact_evaluation_above_crossover(data):
    # Designs large enough for the comparison-matrix bound to run first, and
    # lengthscales at which many of them are well conditioned, so that it
    # certifies some FEs and fails on others.
    _check_counted_fe(
        data,
        designs(st.integers(_COMPARISON_MIN_N, 80), st.integers(1, 10)),
        st.one_of(st.floats(-0.5, 2.0), BETA),
    )


@pytest.mark.parametrize("a", [5.0, 25.0, 40.0])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kappa_is_monotone_under_dominance(data, a):
    # beta >= beta' in every coordinate makes R(beta) = R(beta') o E with a
    # correlation matrix E, so kappa(R(beta)) <= kappa(R(beta')): a
    # certificate at beta' carries over to beta, and a nugget at beta to
    # beta'.  Steps along one coordinate are drawn as often as general ones,
    # as DIRECT trisections and gradient probes make them.
    ds = data.draw(designs(st.integers(2, 80), st.integers(1, 10)), label="design")
    low = np.array(data.draw(st.lists(st.floats(-2.0, 2.5), min_size=ds.d, max_size=ds.d),
                             label="beta'"))
    step = st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 3.0))
    high = low + np.array(data.draw(st.lists(step, min_size=ds.d, max_size=ds.d), label="step"))
    cache = DistanceCache(ds.points, np.full(ds.d, 2.0))
    R_low, R_high = cache.correlation(low), cache.correlation(high)
    delta_low, _ = nugget_and_kappa(R_low, a)
    delta_high, kappa_high = nugget_and_kappa(R_high, a)
    L_low = _cholesky(R_low.T)
    if L_low is not None and certifies(R_low, L_low, a):
        assert delta_high == 0.0
        L, info = dpotrf(R_high, lower=1, clean=1)
        assert info == 0
        assert np.array_equal(L, factorize(R_high, 0.0, kappa_high).factor)
    if delta_high > 0.0:
        assert delta_low > 0.0


@st.composite
def fit_designs(draw):
    # Small designs at the numerical edges a fit meets: points 1e-6 apart
    # overall, a pair 1e-9 apart, outputs far from zero relative to their
    # range, and output scales far from one.
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1.0, 1e-6]))
    points = 0.5 + spread * (rng.random((n, d)) - 0.5)
    if draw(st.booleans()):
        points[-1] = points[0] + 1e-9
    signal = np.sin(6.0 * (points - 0.5) / spread).sum(axis=1) + 0.1 * rng.standard_normal(n)
    offset = draw(st.sampled_from([0.0, 1e3, -1e9, 1e9]))
    scale = 10.0 ** draw(st.integers(-100, 100))
    order = draw(st.sampled_from("CF"))
    return DesignSet(np.array(points, order=order), scale * (offset + signal))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ds=fit_designs())
def test_fit_predict_and_model_file_round_trip(ds):
    model = fit(ds, rng=0)
    probes = np.vstack([ds.points, np.random.default_rng(0).random((5, ds.d))])
    y_hat, mse = predict_many(model, probes)
    assert np.isfinite(y_hat).all()
    assert np.isfinite(mse).all() and (mse >= 0.0).all()
    span = ds.output_range
    # With a nugget the predictor smooths rather than interpolates.
    if model.correlation.delta == 0.0:
        assert np.max(np.abs(y_hat[: ds.n] - ds.outputs)) < 1e-6 * span
    mins, maxs = np.zeros(ds.d), np.ones(ds.d)
    payload = cli._model_payload(model, mins, maxs, "DIRECT-BFGS", 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(payload))
        loaded, _, _ = cli._load_model(str(path))
    y_loaded, _ = predict_many(loaded, probes)
    assert np.max(np.abs(y_loaded - y_hat)) <= 1e-6 * span
