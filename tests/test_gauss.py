import itertools
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

from copulamix import gauss


def bvn_reference(a, b, rho):
    """Bivariate rectangle probability by adaptive quadrature."""
    s = np.sqrt(1.0 - rho * rho)

    def f(t):
        return (np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi)
                * (ndtr((b[1] - rho * t) / s) - ndtr((a[1] - rho * t) / s)))

    val, _ = integrate.quad(f, max(a[0], -9), min(b[0], 9),
                            epsabs=1e-13, limit=200)
    return val


class TestLinearAlgebra:
    def test_chol_jitter_repair(self):
        # slightly indefinite through rounding
        m = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        chol = gauss.chol_spd(m)
        assert np.all(np.isfinite(chol))

    def test_chol_rejects_indefinite(self):
        with pytest.raises(gauss.NumericalError):
            gauss.chol_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_normalize_to_correlation(self):
        cov = np.array([[4.0, 1.2], [1.2, 9.0]])
        corr = gauss.normalize_to_correlation(cov)
        np.testing.assert_allclose(np.diag(corr), 1.0)
        assert corr[0, 1] == pytest.approx(1.2 / 6.0)

    def test_random_correlation_matrix_valid(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 5):
            corr = gauss.random_correlation_matrix(dim, rng)
            assert gauss.is_correlation_matrix(corr)

    def test_conditional_gaussian_matches_block_formula(self):
        rng = np.random.default_rng(1)
        cov = gauss.random_correlation_matrix(4, rng)
        y_given = np.array([0.3, -0.7])
        mean, cond = gauss.conditional_gaussian(cov, [0, 1], [2, 3], y_given)
        block = cov[:2, 2:] @ np.linalg.inv(cov[2:, 2:])
        np.testing.assert_allclose(mean, block @ y_given, atol=1e-12)
        np.testing.assert_allclose(cond, cov[:2, :2] - block @ cov[2:, :2],
                                   atol=1e-12)

    def test_conditional_gaussian_disjointness(self):
        with pytest.raises(ValueError):
            gauss.conditional_gaussian(np.eye(3), [0, 1], [1, 2],
                                       np.zeros(2))

    def test_mvn_logpdf_rows_matches_scipy(self):
        rng = np.random.default_rng(2)
        cov = gauss.random_correlation_matrix(3, rng)
        y = rng.normal(size=(10, 3))
        np.testing.assert_allclose(
            gauss.mvn_logpdf_rows(y, cov),
            stats.multivariate_normal(np.zeros(3), cov).logpdf(y),
            rtol=1e-10)


class TestInverseWishart:
    def test_mean_matches_theory(self):
        rng = np.random.default_rng(3)
        scale = np.array([[2.0, 0.5], [0.5, 1.0]])
        df = 8.0
        draws = np.mean([gauss.inverse_wishart_sample(df, scale, rng)
                         for _ in range(20000)], axis=0)
        expected = scale / (df - 2 - 1)
        np.testing.assert_allclose(draws, expected, atol=0.02)

    def test_matches_scipy_density_via_moments(self):
        rng = np.random.default_rng(4)
        scale = np.eye(3) * 2.0
        df = 10.0
        ours = np.mean([gauss.inverse_wishart_sample(df, scale, rng)[0, 0]
                        for _ in range(20000)])
        theirs = stats.invwishart(int(df), scale).mean()[0, 0]
        assert ours == pytest.approx(theirs, rel=0.05)

    def test_scale_equivariance_bitwise(self):
        scale = np.array([[1.5, 0.2], [0.2, 0.8]])
        d1 = gauss.inverse_wishart_sample(6.0, scale,
                                          np.random.default_rng(7))
        d2 = gauss.inverse_wishart_sample(6.0, 4.0 * scale,
                                          np.random.default_rng(7))
        np.testing.assert_array_equal(4.0 * d1, d2)

    def test_df_validation(self):
        with pytest.raises(ValueError):
            gauss.inverse_wishart_sample(1.0, np.eye(3),
                                         np.random.default_rng(0))


class TestTruncatedNormal:
    def test_in_bounds_far_tail(self):
        rng = np.random.default_rng(5)
        draws = np.array([gauss.truncated_univariate_normal_sample(
            0.0, 1.0, 12.0, 13.0, rng) for _ in range(500)])
        assert np.all((draws >= 12.0) & (draws <= 13.0))

    def test_moments_match_scipy(self):
        rng = np.random.default_rng(6)
        a, b = -0.5, 1.2
        draws = gauss.truncated_normal_rows(np.zeros(200000), np.ones(200000),
                                            np.full(200000, a),
                                            np.full(200000, b), rng)
        dist = stats.truncnorm(a, b)
        assert draws.mean() == pytest.approx(dist.mean(), abs=0.01)
        assert draws.std() == pytest.approx(dist.std(), abs=0.01)

    def test_one_sided_bounds(self):
        rng = np.random.default_rng(7)
        draws = gauss.truncated_normal_rows(
            np.zeros(50000), np.ones(50000),
            np.full(50000, -np.inf), np.full(50000, -1.0), rng)
        dist = stats.truncnorm(-np.inf, -1.0)
        assert np.all(draws <= -1.0)
        assert draws.mean() == pytest.approx(dist.mean(), abs=0.02)

    def test_gibbs_rows_moments(self):
        rng = np.random.default_rng(8)
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        n = 40000
        lo = np.tile([0.0, -1.0], (n, 1))
        hi = np.tile([2.0, 0.5], (n, 1))
        draws = gauss.truncated_mvn_gibbs_rows(cov, np.zeros((n, 2)),
                                               lo, hi, rng, sweeps=15)
        assert np.all((draws > lo) & (draws < hi))
        z = rng.multivariate_normal([0, 0], cov, size=2_000_000)
        keep = z[np.all((z > lo[0]) & (z < hi[0]), axis=1)]
        np.testing.assert_allclose(draws.mean(0), keep.mean(0), atol=0.01)
        np.testing.assert_allclose(np.cov(draws.T), np.cov(keep.T), atol=0.01)

    def test_gibbs_rows_shared_coefficients(self):
        cov = np.array([[1.0, 0.6, -0.2], [0.6, 1.0, 0.1], [-0.2, 0.1, 1.0]])
        lo = np.tile([0.0, -1.0, -np.inf], (50, 1))
        hi = np.tile([2.0, 0.5, 0.3], (50, 1))
        means = np.random.default_rng(10).normal(size=(50, 3))
        plain = gauss.truncated_mvn_gibbs_rows(cov, means, lo, hi,
                                               np.random.default_rng(11))
        shared = gauss.truncated_mvn_gibbs_rows(
            cov, means, lo, hi, np.random.default_rng(11),
            coefficients=gauss.gibbs_coefficients(cov))
        np.testing.assert_array_equal(plain, shared)

    def test_single_sample_wrapper(self):
        rng = np.random.default_rng(9)
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        box = gauss.Box([0.0, 0.0], [1.0, 1.0])
        x = gauss.truncated_mvn_sample(np.zeros(2), cov, box, rng)
        assert np.all((x > 0.0) & (x < 1.0))


class TestBvnRectangle:
    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.5, 0.8, -0.925, 0.99,
                                     -0.999])
    def test_matches_quadrature(self, rho):
        rng = np.random.default_rng(abs(hash(rho)) % 2**32)
        for _ in range(25):
            a = rng.normal(size=2) * 2 - 1
            b = a + rng.exponential(size=2) * 2
            if rng.random() < 0.3:
                a[0] = -np.inf
            if rng.random() < 0.3:
                b[1] = np.inf
            p = gauss.bvn_rectangle(a[None, :], b[None, :], rho)[0]
            assert p == pytest.approx(bvn_reference(a, b, rho), abs=5e-11)

    def test_orthant_identity(self):
        # P(X<0, Y<0) = 1/4 + arcsin(rho) / (2 pi)
        for rho in (0.5, -0.5, 0.9):
            p = gauss.bvn_rectangle(np.array([[-np.inf, -np.inf]]),
                                    np.array([[0.0, 0.0]]), rho)[0]
            assert p == pytest.approx(0.25 + np.arcsin(rho) / (2 * np.pi),
                                      abs=1e-14)


class TestBoxProbabilities:
    def _reference(self, cov, a, b):
        d = cov.shape[0]
        dist = stats.multivariate_normal(np.zeros(d), cov)
        total = 0.0
        for signs in itertools.product([0, 1], repeat=d):
            pt = np.where(np.array(signs) == 1, b, a)
            total += (-1) ** (d - sum(signs)) * dist.cdf(pt)
        return total

    def test_dimension_dispatch(self):
        rng = np.random.default_rng(10)
        for d in (1, 2, 3, 4, 5):
            cov = gauss.random_correlation_matrix(d, rng)
            a = rng.normal(size=d) - 1.0
            b = a + rng.exponential(size=d) + 0.5
            value, err = gauss.box_probabilities(cov, a[None, :], b[None, :],
                                                 rng)
            ref = self._reference(cov, a, b)
            # scipy's own cdf is Monte Carlo beyond d=2; keep a loose gate
            assert value[0] == pytest.approx(ref, abs=5e-4)
            assert 0.0 <= value[0] <= 1.0

    def test_zero_dims(self):
        value, err = gauss.box_probabilities(np.empty((0, 0)),
                                             np.empty((1, 0)),
                                             np.empty((1, 0)), None)
        assert value[0] == 1.0

    def test_full_box_is_one(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            cov = gauss.random_correlation_matrix(d, rng)
            box = gauss.Box.full(d)
            res = gauss.box_probability(np.zeros(d), cov, box, rng)
            assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_qmc_error_estimate_honest(self):
        rng = np.random.default_rng(12)
        misses = 0
        for _ in range(30):
            cov = gauss.random_correlation_matrix(4, rng)
            a = rng.normal(size=4) - 1.0
            b = a + rng.exponential(size=4) + 0.3
            value, err = gauss.box_probabilities(cov, a[None, :], b[None, :],
                                                 rng)
            ref = self._reference(cov, a, b)
            if abs(value[0] - ref) > max(err[0], 2e-4):
                misses += 1
        assert misses <= 2

    def test_many_rows_share_covariance(self):
        rng = np.random.default_rng(13)
        cov = gauss.random_correlation_matrix(2, rng)
        a = rng.normal(size=(50, 2)) - 1.0
        b = a + 1.0
        values, _ = gauss.box_probabilities(cov, a, b, rng)
        singles = [gauss.box_probabilities(cov, a[i:i + 1], b[i:i + 1],
                                           rng)[0][0] for i in range(50)]
        np.testing.assert_allclose(values, singles, rtol=1e-12)


# interior, straddling, half-infinite and far-tail intervals
KERNEL_INTERVALS = [
    (-0.5, 1.2), (0.3, 2.0), (-2.0, -0.1), (-1.0, 1.0), (-3.0, 2.0),
    (-2.0, 3.0), (1.5, np.inf), (-0.7, np.inf),
    (-np.inf, -1.5), (-np.inf, 0.7), (30.0, 31.0), (39.0, 40.0),
    (-40.0, -39.0), (-31.0, -30.0), (-np.inf, -30.0), (30.0, np.inf),
    (-np.inf, np.inf),
]


def _midpoint(a, b):
    if np.isfinite(a) and np.isfinite(b):
        return 0.5 * (a + b)
    if np.isfinite(a):
        return a
    return b if np.isfinite(b) else 0.0


class TestTruncatedNormalKernel:
    def test_matches_truncnorm_quantile(self):
        # upper-tail intervals draw the truncated quantile at u, the
        # others (mirrored) at 1 - u
        rng = np.random.default_rng(12)
        for a, b in KERNEL_INTERVALS:
            u = rng.uniform(size=64)
            x = gauss._trunc_std_normal(np.full(64, a), np.full(64, b), u)
            q = u if _midpoint(a, b) > 0 else 1.0 - u
            np.testing.assert_allclose(x, stats.truncnorm.ppf(q, a, b),
                                       rtol=1e-12, err_msg=f"({a}, {b})")

    def test_unbounded_row_warns_nothing(self):
        rng = np.random.default_rng(13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = gauss.truncated_normal_rows(0.0, 1.0, -np.inf, np.inf, rng)
            val = gauss.log_gaussian_interval(np.array([-np.inf]),
                                              np.array([np.inf]))
        assert np.isfinite(x)
        assert val[0] == 0.0


class TestLogGaussianInterval:
    def test_matches_mpmath_in_both_tails(self):
        mpmath = pytest.importorskip("mpmath")
        a = np.array([lo for lo, _ in KERNEL_INTERVALS])
        b = np.array([hi for _, hi in KERNEL_INTERVALS])
        got = gauss.log_gaussian_interval(a, b)
        # 450 digits resolve the upper-tail masses down to 1e-350
        with mpmath.workdps(450):
            expected = [float(mpmath.log(mpmath.ncdf(hi) - mpmath.ncdf(lo)))
                        for lo, hi in KERNEL_INTERVALS]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_matches_direct_in_bulk(self):
        lo = np.array([-1.0, 0.2, -np.inf])
        hi = np.array([0.5, 1.7, -1.0])
        expected = np.log(ndtr(hi) - ndtr(lo))
        np.testing.assert_allclose(gauss.log_gaussian_interval(lo, hi),
                                   expected, rtol=1e-12)

    def test_far_tail_finite(self):
        val = gauss.log_gaussian_interval(np.array([30.0]), np.array([31.0]))
        assert np.isfinite(val[0])
        # leading order: log phi(30) - log 30
        assert val[0] == pytest.approx(-0.5 * 900 - 0.5 * np.log(2 * np.pi)
                                       - np.log(30.0), rel=1e-3)

    def test_empty_interval(self):
        assert gauss.log_gaussian_interval(np.array([1.0]),
                                           np.array([1.0]))[0] == -np.inf
