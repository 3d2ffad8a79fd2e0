import itertools
import math

import numpy as np
import pytest

from gpdevopt import correlation as correlation_module
from gpdevopt.correlation import (
    _COMPARISON_MIN_N,
    CONDITION_EXPONENT,
    DistanceCache,
    _cholesky,
    _comparison_bound,
    certifies,
    cholesky_solve,
    factorize,
    gaussian_kernel,
    nugget_and_kappa,
    nugget_lower_bound,
    powered_planes,
)
from gpdevopt.gp import DesignSet, DevianceObjective, GpOptions, fit

E25 = math.exp(25.0)


def random_design(rng, n, d):
    return rng.random((n, d))


def correlation(design, beta, p=2.0):
    beta = np.asarray(beta, dtype=float)
    return DistanceCache(design, np.full(beta.size, p)).correlation(beta)


class TestBuildCorrelation:
    def test_zero_distance_gives_one(self):
        design = np.array([[0.2, 0.4], [0.2, 0.4], [0.9, 0.1]])
        R = correlation(design, [0.3, -0.5])
        assert R[0, 1] == 1.0
        assert np.all(np.diag(R) == 1.0)

    def test_scalar_formula(self):
        # d=1, beta=0, p=2, |dx|=0.5 -> exp(-0.25)
        R = correlation(np.array([[0.0], [0.5]]), [0.0])
        assert R[0, 1] == pytest.approx(math.exp(-0.25), rel=1e-15)

    def test_very_negative_beta_gives_all_ones(self):
        rng = np.random.default_rng(0)
        R = correlation(random_design(rng, 6, 2), [-30.0, -30.0])
        assert np.all(R > 1.0 - 1e-12)

    def test_symmetry_and_unit_diagonal_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = rng.integers(1, 4)
            R = correlation(random_design(rng, 8, d), rng.uniform(-1, 1, d))
            assert np.array_equal(R, R.T)
            assert np.all(np.diag(R) == 1.0)

    def test_monotone_decreasing_in_beta(self):
        # For any pair with nonzero separation, raising any single beta_k
        # strictly shrinks the correlation.
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            design = random_design(rng, 5, d)
            beta = rng.uniform(-1.0, 1.0, d)
            k = int(rng.integers(d))
            bumped = beta.copy()
            bumped[k] += rng.uniform(0.1, 1.0)
            i, j = 0, int(rng.integers(1, 5))
            r_lo = correlation(design, beta)[i, j]
            r_hi = correlation(design, bumped)[i, j]
            assert r_hi < r_lo

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DistanceCache(np.zeros((4, 2)), [2.0])
        with pytest.raises(ValueError):
            DistanceCache(np.array([[0.0], [1.0]]), [2.0]).correlation(np.array([0.0, 1.0]))

    def test_spec_validation(self):
        # Out-of-range options are rejected before any deviance is evaluated.
        design = DesignSet(np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 1.0, 0.3]))
        for p_exponent in (2.5, 3.0, 0.0):
            with pytest.raises(ValueError):
                GpOptions(p_exponent=p_exponent)
            with pytest.raises(ValueError):
                fit(design, p_exponent=p_exponent)
        # The ceiling is fixed at exp(25): the exponent is the only option.
        with pytest.raises(TypeError):
            GpOptions(a=5.0)
        assert DevianceObjective(design).options.a == CONDITION_EXPONENT == 25.0


class TestConditionNumber:
    def test_identity(self):
        assert nugget_and_kappa(np.eye(5), 25.0) == (0.0, pytest.approx(1.0))

    @pytest.mark.parametrize("R", [np.zeros((3, 3)), -np.eye(3)], ids=["zero", "negative"])
    def test_no_positive_eigenvalue_rejected(self, R):
        with pytest.raises(ValueError, match="no positive eigenvalue"):
            nugget_and_kappa(R, 25.0)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_two_by_two_closed_form(self, r):
        R = np.array([[1.0, r], [r, 1.0]])
        assert nugget_and_kappa(R, 25.0)[1] == pytest.approx((1 + r) / (1 - r), rel=1e-12)

    def test_near_coincident_points_blow_up(self):
        # 10 nearly coincident 1-D points at beta=0 make R numerically singular.
        x = 0.5 + 1e-6 * np.arange(10.0)
        R = correlation(x[:, None], [0.0])
        delta, kappa = nugget_and_kappa(R, 25.0)
        assert kappa > E25 and delta > 0.0


class TestNuggetLowerBound:
    def test_identity_is_zero(self):
        assert nugget_lower_bound(np.eye(4), 25.0) == 0.0

    def test_well_conditioned_is_zero(self):
        R = np.array([[1.0, 0.5], [0.5, 1.0]])  # kappa = 3 << e^25
        assert nugget_lower_bound(R, 25.0) == 0.0

    def test_bound_restores_condition_ceiling(self):
        rng = np.random.default_rng(3)
        spec_p = np.full(1, 2.0)
        for _ in range(10):
            base = np.sort(rng.random(8))
            x = np.concatenate([base, base + 1e-7])  # near-duplicates
            cache = DistanceCache(x[:, None], spec_p)
            R = cache.correlation(np.array([0.0]))
            delta = nugget_lower_bound(R, 25.0)
            assert delta > 0.0
            w = np.linalg.eigvalsh(R + delta * np.eye(len(x)))
            assert w[-1] / w[0] <= E25 * 1.05


class TestFactorize:
    def test_identity_log_det_zero(self):
        fac = factorize(np.eye(3), 0.0, 1.0)
        assert fac.log_det == pytest.approx(0.0, abs=1e-14)
        assert fac.delta == 0.0

    def test_two_by_two_log_det(self):
        R = np.array([[1.0, 0.5], [0.5, 1.0]])  # det = 0.75
        fac = factorize(R, 0.0, 3.0)
        assert fac.log_det == pytest.approx(math.log(0.75), rel=1e-12)

    def test_log_det_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = rng.integers(2, 7)
            A = rng.standard_normal((n, n))
            R = A @ A.T + n * np.eye(n)  # SPD
            fac = factorize(R, 0.0, np.linalg.cond(R))
            sign, logdet = np.linalg.slogdet(R)
            assert sign == 1.0
            assert fac.log_det == pytest.approx(logdet, rel=1e-8)

    def test_singular_matrix_succeeds_with_nugget(self):
        x = 0.5 + 1e-8 * np.arange(12.0)
        R = DistanceCache(x[:, None], np.full(1, 2.0)).correlation(np.array([0.0]))
        fac = factorize(R, *nugget_and_kappa(R, 25.0))
        assert math.isfinite(fac.log_det)

    def test_non_pd_without_nugget_fails(self):
        x = 0.5 + 1e-9 * np.arange(15.0)
        R = DistanceCache(x[:, None], np.full(1, 2.0)).correlation(np.array([0.0]))
        assert factorize(R, 0.0, nugget_and_kappa(R, 25.0)[1]) is None

    def test_non_finite_entries_rejected(self):
        for bad, delta in itertools.product((np.nan, np.inf), (0.0, 0.1)):
            R = np.eye(4)
            R[3, 1] = R[1, 3] = bad
            assert factorize(R, delta, 1.0) is None

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            factorize(np.eye(2), -1e-3, 1.0)

    def test_solve_matches_dense_inverse(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 5))
        R = A @ A.T + 5 * np.eye(5)
        fac = factorize(R, 0.0, np.linalg.cond(R))
        b = rng.standard_normal(5)
        assert cholesky_solve(fac.factor, b) == pytest.approx(np.linalg.solve(R, b), rel=1e-10)


def factor_if_certified(R, a):
    """The Cholesky factor of R when `certifies` proves kappa(R) <= exp(a) from
    it, else None: what a counted FE returns its profile from."""
    L = _cholesky(R.T)
    return L if L is not None and certifies(R, L, a) else None


class TestCertifiedFactor:
    def test_identity_is_certified(self):
        L = factor_if_certified(np.eye(4), 25.0)
        assert np.array_equal(L, factorize(np.eye(4), 0.0, 1.0).factor)

    def test_certificate_implies_zero_nugget(self):
        # Near-duplicate pairs at shrinking spacings sweep kappa(R) across
        # every ceiling exp(a), a = 2..40; KAPPA_CLAMP binds from a = 33 on.
        rng = np.random.default_rng(6)
        base = np.sort(rng.random(12))
        outcomes = set()
        for beta, spacing in itertools.product([1.5, 2.5], 10.0 ** -np.arange(1.0, 8.5, 0.5)):
            x = np.append(base, base[5] + spacing)
            R = DistanceCache(x[:, None], np.full(1, 2.0)).correlation(np.array([beta]))
            for a in np.arange(2.0, 41.0):
                L = factor_if_certified(R, a)
                delta, kappa = nugget_and_kappa(R, a)
                outcomes.add((L is not None, delta > 0.0))
                if L is not None:
                    assert delta == 0.0
                    assert np.array_equal(L, factorize(R, 0.0, kappa).factor)
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_non_finite_entries_are_not_certified(self):
        for bad in (np.nan, np.inf):
            R = np.eye(3)
            R[0, 2] = R[2, 0] = bad
            assert factor_if_certified(R, 25.0) is None

    def test_margin_covers_eigenvalue_rounding(self):
        # At kappa(R) near 1/(n eps), eigvalsh overestimates kappa of this
        # 4-point design by more than the slack of the trace bound: the row
        # sum times ||L^-1||_F^2 lies 3.5% below the computed kappa.  Only the
        # factor 1/2 in the certificate's limit keeps it sound here.
        base = np.random.default_rng(28).random((3, 2))
        R = correlation(np.vstack([base, base[0] + 10.0 ** -7.4]), [1.0, 1.0])
        kappa = nugget_and_kappa(R, 40.0)[1]
        inverse = np.linalg.inv(np.linalg.cholesky(R))
        assert R.sum(axis=1).max() * np.sum(inverse**2) < kappa
        certified = []
        for a in math.log(kappa) + np.linspace(-0.05, 1.0, 22):
            L = factor_if_certified(R, a)
            certified.append(L is not None)
            if L is not None:
                assert nugget_and_kappa(R, a)[0] == 0.0
        assert any(certified) and not all(certified)

    def test_certificate_implies_zero_nugget_above_crossover(self, count_calls):
        # The same sweep on a 3-D design of 61 points, where the
        # comparison-matrix bound runs before L is inverted (dtrtri).
        rng = np.random.default_rng(6)
        base = rng.random((60, 3))
        assert base.shape[0] + 1 >= _COMPARISON_MIN_N
        inversions = count_calls(correlation_module, "dtrtri")
        outcomes = set()
        for beta, spacing in itertools.product([0.5, 1.0], 10.0 ** -np.arange(1.0, 8.5, 0.5)):
            x = np.vstack([base, base[5] + spacing])
            R = DistanceCache(x, np.full(3, 2.0)).correlation(np.full(3, beta))
            for a in np.arange(2.0, 41.0):
                before = inversions.calls
                L = factor_if_certified(R, a)
                delta, kappa = nugget_and_kappa(R, a)
                outcomes.add((L is not None, inversions.calls > before, delta > 0.0))
                if L is not None:
                    assert delta == 0.0
                    assert np.array_equal(L, factorize(R, 0.0, kappa).factor)
        # Certified by the comparison bound; by the trace bound after the
        # comparison bound failed; not certified, with and without a nugget.
        assert {
            (True, False, False),
            (True, True, False),
            (False, True, False),
            (False, True, True),
        } <= outcomes

    def test_comparison_bound_covers_inverse_norm(self):
        # max(z) * max(z') >= ||L^-1||_2^2 = 1 / sigma_min(L)^2.
        rng = np.random.default_rng(9)
        factors = []
        for _ in range(20):
            n, d = int(rng.integers(_COMPARISON_MIN_N, 100)), int(rng.integers(4, 11))
            R = correlation(random_design(rng, n, d), rng.uniform(0.0, 1.5, d))
            factors.append(np.linalg.cholesky(R))
        # One heavy column: ||L^-1||_inf^2 = 11^2, far below ||L^-1||_2^2,
        # which is about 10^2 * 59.
        heavy = np.eye(60)
        heavy[1:, 0] = 10.0
        inverse = np.linalg.inv(heavy)
        assert np.abs(inverse).sum(axis=1).max() ** 2 < 0.1 * np.linalg.norm(inverse, 2) ** 2
        factors.append(heavy)
        for L in factors:
            norm2 = np.linalg.svd(L, compute_uv=False)[-1] ** -2.0
            assert _comparison_bound(np.asfortranarray(L)) >= norm2 * (1.0 - 1e-12)

    def test_non_finite_entries_above_crossover_are_not_certified(self, count_calls):
        R0 = correlation(random_design(np.random.default_rng(10), 60, 3), [1.0, 1.0, 1.0])
        inversions = count_calls(correlation_module, "dtrtri")
        assert factor_if_certified(R0, 25.0) is not None
        assert inversions.calls == 0
        for bad, symmetric in itertools.product((np.nan, np.inf), (True, False)):
            R = R0.copy()
            # The upper triangle alone is never read by the Cholesky
            # factorization, so only the row sums see it.
            R[2, 40] = bad
            if symmetric:
                R[40, 2] = bad
            assert factor_if_certified(R, 25.0) is None


def _tensordot_kernel(powered, beta):
    """The kernel composed with np.tensordot over (d, m, n) powered distances:
    the reference for its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.tensordot(10.0 ** beta, powered, axes=1)
    return np.exp(-out)


def _in_place_powered(x, y, p):
    """The (d, m, n) transpose of the (m, n, d) powered distances built in
    place, as `powered_distances` builds them."""
    powered = x[:, None, :] - y[None, :, :]
    np.abs(powered, out=powered)
    powered **= p
    return powered.transpose(2, 0, 1)


class TestKernelBits:
    """The (1, d) x (d, m*n) dot must reproduce the tensordot kernel bit for
    bit, for both memory layouts of the points: over the contiguous planes of
    the prediction operand, and over the design's own `DistanceCache`."""

    @pytest.mark.parametrize(
        "m, n, d, order",
        [(10201, 100, 2, "F"), (10201, 40, 1, "F"), (200, 20, 2, "C"), (1200, 120, 12, "C")],
    )
    def test_gaussian_kernel_matches_tensordot(self, m, n, d, order):
        rng = np.random.default_rng(m + n + d)
        x = np.array(rng.random((m, d)), order=order)
        y = np.array(rng.random((n, d)), order=order)
        powered = powered_planes(x, y, 2.0)
        planes = np.ascontiguousarray(np.square(x[:, None, :] - y[None, :, :]).transpose(2, 0, 1))
        for beta in (rng.uniform(-2.0, 2.0, d), np.full(d, -3.0), np.full(d, 1.5)):
            got = gaussian_kernel(powered, beta).reshape(m, n)
            want = _tensordot_kernel(planes, beta)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_distance_cache_matches_tensordot_in_both_layouts(self):
        rng = np.random.default_rng(7)
        design = rng.random((30, 3))
        p = np.array([2.0, 1.5, 1.9])
        for points in (np.ascontiguousarray(design), np.asfortranarray(design)):
            cache = DistanceCache(points, p)
            for beta in (rng.uniform(-2.0, 2.0, 3), np.array([0.5, -1.0, 2.0])):
                want = _tensordot_kernel(_in_place_powered(points, points, p), beta)
                got = cache.correlation(beta)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestPoweredPlanes:
    """Every entry of the prediction operand is an exactly rounded function of
    two coordinates, whatever the layouts and however the rows are split."""

    @pytest.mark.parametrize("p_value", [2.0, 1.99])
    @pytest.mark.parametrize("d", [1, 2, 10, 12])
    def test_entries_match_elementwise_reference(self, p_value, d):
        rng = np.random.default_rng(d)
        x, y = rng.random((300, d)), rng.random((40, d))
        want = np.stack([
            np.square(np.subtract.outer(x[:, k], y[:, k])) if p_value == 2.0
            else np.power(np.abs(np.subtract.outer(x[:, k], y[:, k])), p_value)
            for k in range(d)
        ]).reshape(d, -1)
        for x_layout in (x, np.asfortranarray(x)):
            for y_layout in (y, np.asfortranarray(y)):
                for cuts in ([], [1], [7, 8, 150], [299]):
                    blocks = [powered_planes(b, y_layout, p_value) for b in np.split(x_layout, cuts)]
                    assert all(block.flags.c_contiguous for block in blocks)
                    got = np.concatenate(blocks, axis=1)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), cuts
