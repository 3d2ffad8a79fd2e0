"""Property tests of the counted deviance evaluation (the optimizers' hot path)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from gpdevopt.correlation import (
    _COMPARISON_MIN_N,
    DistanceCache,
    certified_factor,
    factorize,
    nugget_and_kappa,
)
from gpdevopt.gp import DesignSet, DevianceObjective

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
    if certified_factor(R_low, a) is not None:
        assert delta_high == 0.0
        L, info = dpotrf(R_high, lower=1, clean=1)
        assert info == 0
        assert np.array_equal(L, factorize(R_high, 0.0, kappa_high).factor)
    if delta_high > 0.0:
        assert delta_low > 0.0
