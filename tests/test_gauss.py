import itertools
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import log_ndtr, ndtr

from conftest import random_correlation_matrix, rejection_means

from copulamix import gauss, margins as mg, model as mx


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_chol_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            gauss.chol_spd(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ValueError):
            gauss.chol_spd(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_normalize_to_correlation(self):
        cov = np.array([[4.0, 1.2], [1.2, 9.0]])
        corr = gauss.normalize_to_correlation(cov)
        np.testing.assert_allclose(np.diag(corr), 1.0)
        assert corr[0, 1] == pytest.approx(1.2 / 6.0)

    def test_random_correlation_matrix_valid(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 5):
            corr = random_correlation_matrix(dim, rng)
            assert gauss.is_correlation_matrix(corr)

    def test_mvn_logpdf_rows_matches_scipy(self):
        rng = np.random.default_rng(2)
        for e in (1, 2, 3, 4, 5):
            cov = random_correlation_matrix(e, rng)
            y = rng.normal(size=(10, e))
            np.testing.assert_allclose(
                gauss.mvn_logpdf_rows(y, cov),
                stats.multivariate_normal(np.zeros(e), cov).logpdf(y),
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
        draws = gauss.truncated_normal_rows(np.zeros(500), 1.0, 12.0, 13.0,
                                            rng)
        assert draws.shape == (500,)
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


class TestBvnRectangle:
    """``box_probabilities`` at d = 2 on standard bivariate normals."""

    @staticmethod
    def _prob(lower, upper, rho):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        return np.exp(gauss.box_probabilities(cov, lower, upper)[0])

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
            p = self._prob(a[None, :], b[None, :], rho)[0]
            assert p == pytest.approx(bvn_reference(a, b, rho), abs=5e-11)

    def test_orthant_identity(self):
        # P(X<0, Y<0) = 1/4 + arcsin(rho) / (2 pi)
        for rho in (0.5, -0.5, 0.9):
            p = self._prob(np.array([[-np.inf, -np.inf]]),
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
            cov = random_correlation_matrix(d, rng)
            a = rng.normal(size=d) - 1.0
            b = a + rng.exponential(size=d) + 0.5
            log_p, err = gauss.box_probabilities(cov, a[None, :], b[None, :])
            ref = self._reference(cov, a, b)
            # scipy's own cdf is Monte Carlo beyond d=2; keep a loose gate
            assert np.exp(log_p[0]) == pytest.approx(ref, abs=5e-4)
            assert log_p[0] <= 0.0

    def test_zero_dims(self):
        log_p, err = gauss.box_probabilities(np.empty((0, 0)),
                                             np.empty((1, 0)),
                                             np.empty((1, 0)))
        assert log_p[0] == 0.0

    def test_empty_box_is_minus_inf(self):
        # (inf, inf) is the box of a level whose mass underflowed
        for d in (1, 2, 3, 4):
            lower, upper = np.zeros((3, d)), np.ones((3, d))
            lower[0, 0] = upper[0, 0] = np.inf
            lower[1, -1] = upper[1, -1] = 0.5
            log_p, _ = gauss.box_probabilities(np.eye(d) * 0.6 + 0.4,
                                               lower, upper)
            assert np.all(log_p[:2] == -np.inf) and np.isfinite(log_p[2])

    def test_full_box_is_one(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            cov = random_correlation_matrix(d, rng)
            log_p, _ = gauss.box_probabilities(cov, np.full((3, d), -np.inf),
                                               np.full((3, d), np.inf))
            np.testing.assert_allclose(log_p, 0.0, atol=1e-6)

    def test_qmc_error_estimate_honest(self):
        rng = np.random.default_rng(12)
        misses = 0
        for _ in range(30):
            cov = random_correlation_matrix(4, rng)
            a = rng.normal(size=4) - 1.0
            b = a + rng.exponential(size=4) + 0.3
            log_p, rel_err = gauss.box_probabilities(cov, a[None, :],
                                                     b[None, :])
            value, err = np.exp(log_p[0]), rel_err[0] * np.exp(log_p[0])
            ref = self._reference(cov, a, b)
            if abs(value - ref) > max(err, 2e-4):
                misses += 1
        assert misses <= 2

    def _qmc_rows(self, rng, n):
        """d = 4 boxes from central to far out; each row's first lower bound
        is distinct so a row can be recognized in a subset."""
        cov = random_correlation_matrix(4, rng)
        a = rng.normal(size=(n, 4)) * 1.5 - 1.0
        a[:, 0] += np.arange(n) * 1e-6
        b = a + rng.exponential(size=(n, 4)) + 0.3
        return cov, a, b

    def test_qmc_refines_only_unconverged_rows_up_to_cap(self, monkeypatch):
        rng = np.random.default_rng(14)
        cov, a, b = self._qmc_rows(rng, 12)
        calls = []  # (row ids, points, values, errors) per QMC pass
        real = gauss._mvn_qmc_batch

        def counting(chol, lower, upper, shifts, n_points):
            value, err = real(chol, lower, upper, shifts, n_points)
            ids = [int(np.flatnonzero(a[:, 0] == x)[0]) for x in lower[:, 0]]
            calls.append((ids, n_points, value.copy(), err.copy()))
            return value, err

        monkeypatch.setattr(gauss, "_mvn_qmc_batch", counting)
        monkeypatch.setattr(gauss, "_QMC_MAX_POINTS", 5000)
        log_p, rel_err = gauss.box_probabilities(cov, a, b)
        assert calls[0][0] == list(range(12))
        assert max(points for _, points, _, _ in calls) == 5000
        assert 0 < len(calls[-1][0]) < 12  # some rows stop early, some hit the cap
        done = set()
        last = {}
        for ids, points, v, e in calls:
            assert points <= 5000
            assert not done & set(ids)
            done |= {i for i, ok in zip(ids, e <= 1e-4 * v) if ok}
            last.update({i: (vi, ei) for i, vi, ei in zip(ids, v, e)})
        assert done
        # a row keeps the value and error of the last pass it took part in,
        # returned as the log and the error over the value
        assert all(log_p[i] == np.log(vi) and rel_err[i] == ei / vi
                   for i, (vi, ei) in last.items())

    def test_qmc_matches_dense_reference(self):
        rng = np.random.default_rng(15)
        cov, a, b = self._qmc_rows(rng, 5)
        log_p, rel_err = gauss.box_probabilities(cov, a, b)
        value, err = np.exp(log_p), rel_err * np.exp(log_p)
        # shifts of its own, so the reference shares no lattice points with
        # the fixed-shift estimate it checks
        shifts = np.random.default_rng(16).uniform(size=(8, 3))
        ref, ref_err = gauss._mvn_qmc_batch(gauss.chol_spd(cov), a, b,
                                            shifts, 2 ** 18)
        assert np.all(ref_err < err)
        assert np.all(np.abs(value - ref) <= err + ref_err)

    @pytest.mark.parametrize("d, value, err", [
        (4, [0.0001013154082386288, 0.010955059266418743,
             0.001593834369950012, 0.003006330403199922],
         [1.1273893434557252e-08, 1.0479463827610983e-06,
          4.2010630912772464e-08, 1.75905117607143e-07]),
        (5, [8.402809358494962e-06, 2.666824470821907e-07,
             0.0001618805982315503, 5.007031599216718e-10],
         [1.759121177297192e-09, 5.814714831764875e-11,
          7.447651354767785e-08, 3.1169318205760545e-11]),
    ])
    def test_qmc_values_are_pinned(self, d, value, err):
        # the lattice rule's values and errors bit for bit, on rows that
        # refine from 512 points per shift up to the cap: the scores of a
        # fit must not move when the lattice code does.  They come back as
        # the log of the value and the error over the value
        rng = np.random.default_rng([19, d])
        cov = random_correlation_matrix(d, rng)
        a = rng.normal(size=(4, d)) * 1.5 - 1.0
        b = a + rng.exponential(size=(4, d)) + 0.3
        a[0, 1] = -np.inf
        b[1, 2] = np.inf
        got, got_err = gauss.box_probabilities(cov, a, b)
        np.testing.assert_array_equal(got, np.log(value))
        np.testing.assert_array_equal(got_err, np.divide(err, value))

    def test_many_rows_share_covariance(self):
        rng = np.random.default_rng(13)
        for d in (2, 4, 5):  # quadrature, then the lattice rule
            cov = random_correlation_matrix(d, rng)
            a = rng.normal(size=(50, d)) - 1.0
            b = a + 1.0
            values, _ = gauss.box_probabilities(cov, a, b)
            singles = [gauss.box_probabilities(cov, a[i:i + 1],
                                               b[i:i + 1])[0][0]
                       for i in range(50)]
            np.testing.assert_allclose(np.exp(values), np.exp(singles),
                                       rtol=1e-12)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PIECE_ENDS = 8.0 ** np.arange(-4, 3)  # 2^-12 .. 64


def _mp_mass(mpmath, a, b):
    """Standard normal mass of (a, b), from ncdf of the negated bounds on
    the upper tail so that the difference does not cancel."""
    if a > 0:
        return mpmath.ncdf(-a) - mpmath.ncdf(-b)
    return mpmath.ncdf(b) - mpmath.ncdf(a)


def _mp_tail_integral(mpmath, f, a, b):
    """Integral of npdf(x) f(x) over (a, b) by composite Gauss-Legendre in
    u = s (x - a), s = max(1, a): the tail's own scale, on pieces that grow
    eightfold from 2^-12 to 256, past which the integrand is below e^-256
    of its value at a.  Mirrored on the lower tail and split at 0."""
    if a < 0 < b:
        return (_mp_tail_integral(mpmath, f, a, 0.0)
                + _mp_tail_integral(mpmath, f, 0.0, b))
    if b <= 0:
        return _mp_tail_integral(mpmath, lambda x: f(-x), -b, -a)
    s = max(1.0, a)
    width = s * (b - a)
    ends = [0.0, *_PIECE_ENDS[_PIECE_ENDS < width], min(width, 256.0)]
    total = mpmath.mpf(0)
    for lo, hi in zip(ends[:-1], ends[1:]):
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            x = mpmath.mpf(a) + mpmath.mpf(lo + (hi - lo) * (1 + node) / 2) / s
            total += (hi - lo) / 2 * weight * mpmath.npdf(x) * f(x)
    return total / s


def _mp_box(mpmath, cov, lower, upper):
    """P(lower < X < upper) for X ~ N(0, cov) in mpmath: integrate over the
    coordinate of least interval mass, the rest conditional on it."""
    d = len(lower)
    sd = [np.sqrt(cov[i][i]) for i in range(d)]
    mass = [_mp_mass(mpmath, lower[i] / sd[i], upper[i] / sd[i])
            for i in range(d)]
    if d == 1:
        return mass[0]
    i = min(range(d), key=lambda j: mass[j])
    rest = [j for j in range(d) if j != i]
    beta = [cov[j][i] / cov[i][i] for j in rest]
    cond = [[cov[j][k] - cov[j][i] * cov[i][k] / cov[i][i] for k in rest]
            for j in rest]

    def given(x):
        shift = [b * x * sd[i] for b in beta]
        return _mp_box(mpmath, cond,
                       [lower[j] - m for j, m in zip(rest, shift)],
                       [upper[j] - m for j, m in zip(rest, shift)])

    return _mp_tail_integral(mpmath, given, lower[i] / sd[i],
                             upper[i] / sd[i])


def mp_log_box(cov, lower, upper):
    """log P of a zero-mean normal box by an independent mpmath rule at 20
    digits, whatever the exponent: composite Gauss-Legendre over tail-scaled
    pieces, the last coordinate in closed form."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        return float(mpmath.log(_mp_box(mpmath, np.asarray(cov).tolist(),
                                        list(lower), list(upper))))


class TestFarTailBoxes:
    """Boxes 6 to 40 sd out, whose probabilities lie far below the smallest
    double: every row is finite and within 1e-8 of the reference in log P,
    relative to |log P| where that exceeds 1."""

    BOXES = [((6.0, 7.0), (np.inf, 8.0)), ((9.0, 9.0), (np.inf, np.inf)),
             ((-40.0, -np.inf), (-39.0, -38.0)),
             ((20.0, -np.inf), (np.inf, -6.0))]

    @staticmethod
    def _check(cov, lower, upper):
        log_p, err = gauss.box_probabilities(cov, lower, upper)
        ref = np.array([mp_log_box(cov, lo, hi)
                        for lo, hi in zip(lower, upper)])
        assert np.all(np.isfinite(log_p)) and np.all(np.isfinite(err))
        assert np.all(ref < -20.0)
        np.testing.assert_array_less(np.abs(log_p - ref),
                                     1e-8 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("rho", [0.5, -0.5, 0.9, -0.9, 0.99, -0.99])
    def test_bivariate(self, rho):
        lower, upper = (np.array(side, dtype=float)
                        for side in zip(*self.BOXES))
        self._check(np.array([[1.0, rho], [rho, 1.0]]), lower, upper)

    @pytest.mark.parametrize("r12, r23, lower, upper", [
        (0.5, -0.9, (9.0, 9.0, -np.inf), (np.inf, np.inf, -6.0)),
        (-0.5, 0.99, (-40.0, 6.0, 6.0), (-39.0, np.inf, 7.0)),
        (0.9, -0.99, (-np.inf, -np.inf, 20.0), (-6.0, -6.0, np.inf)),
    ])
    def test_trivariate(self, r12, r23, lower, upper):
        # a Markov chain x1 - x2 - x3, positive definite for any |r| < 1
        cov = np.array([[1.0, r12, r12 * r23], [r12, 1.0, r23],
                        [r12 * r23, r23, 1.0]])
        self._check(cov, np.array([lower]), np.array([upper]))


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


class TestGhkRows:
    """The sampler's proposal kernel: the GHK weight w is an unbiased
    estimate of the box probability, and scoring a point gives back the
    weight of the draw that produced it."""

    @staticmethod
    def _box(dim):
        lo = np.array([-0.4, -np.inf, 0.2])[:dim]
        hi = np.array([1.1, 0.3, np.inf])[:dim]
        return lo, hi

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mean_weight_is_box_probability(self, dim):
        rng = np.random.default_rng(40 + dim)
        cov = random_correlation_matrix(dim, rng)
        lo, hi = self._box(dim)
        mean = np.array([0.3, -0.2, 0.5])[:dim]
        n = 200_000
        rows = np.ones((n, 1))
        _, log_w = gauss.ghk_rows(gauss.chol_spd(cov), mean * rows,
                                  lo * rows, hi * rows, rng)
        w = np.exp(log_w)
        log_p, _ = gauss.box_probabilities(cov, (lo - mean)[None, :],
                                           (hi - mean)[None, :])
        exact = np.exp(log_p[0])
        assert abs(w.mean() - exact) < 4 * w.std(ddof=1) / np.sqrt(n)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_score_returns_the_draws_weight(self, dim):
        rng = np.random.default_rng(50 + dim)
        chol = gauss.chol_spd(random_correlation_matrix(dim, rng))
        lo, hi = self._box(dim)
        mean = rng.normal(size=(500, dim))
        lo = np.broadcast_to(lo, mean.shape)
        hi = np.broadcast_to(hi, mean.shape)
        y, log_w = gauss.ghk_rows(chol, mean, lo, hi, rng)
        assert np.all((y >= lo) & (y <= hi))
        _, scored = gauss.ghk_rows(chol, mean, lo, hi, y=y)
        np.testing.assert_allclose(scored, log_w, rtol=1e-12, atol=1e-12)

    def test_point_outside_its_box_scores_minus_inf(self):
        chol = gauss.chol_spd(np.array([[1.0, 0.5], [0.5, 1.0]]))
        lo = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        hi = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, -0.1]])
        _, log_w = gauss.ghk_rows(chol, np.zeros((3, 2)), lo, hi, y=y)
        assert np.isfinite(log_w[0])
        assert np.all(log_w[1:] == -np.inf)

    def test_one_dimension_weight_is_interval_mass(self):
        rng = np.random.default_rng(60)
        sd = 1.7
        mean = rng.normal(size=(len(KERNEL_INTERVALS), 1))
        lo = np.array([[a] for a, _ in KERNEL_INTERVALS])
        hi = np.array([[b] for _, b in KERNEL_INTERVALS])
        _, log_w = gauss.ghk_rows(np.array([[sd]]), mean, lo, hi, rng)
        expected = gauss.log_gaussian_interval((lo - mean)[:, 0] / sd,
                                               (hi - mean)[:, 0] / sd)
        np.testing.assert_array_equal(log_w, expected)


def log_interval_mass(a, b):
    """log(Phi(b) - Phi(a)) from scipy's log_ndtr: a difference of survival
    functions when the interval lies wholly above 0, of cdfs otherwise, so
    it keeps its relative precision in both tails."""
    up = a > 0
    big = np.where(up, log_ndtr(-a), log_ndtr(b))
    small = np.where(up, log_ndtr(-b), log_ndtr(a))
    with np.errstate(divide="ignore"):
        return big + np.log1p(-np.exp(small - big))


def tallis_bivariate(cov, lower, upper):
    """E[Y | lower < Y < upper] for Y ~ N(0, cov) in two dimensions, by the
    Tallis (1961) first-moment formula: each coordinate's density on the box
    faces times the other coordinate's conditional interval probability,
    over the box probability.  The interval probabilities come from
    ``log_interval_mass`` and the box probability from adaptive quadrature
    of the first face term across the first interval, cut to (-12, 12),
    each to a relative precision near rounding, so the means are exact to
    about 1e-14 where the box probability exceeds 1e-6.  Returns (means,
    box probabilities)."""
    sd = np.sqrt(np.diag(cov))
    rho = cov[0, 1] / (sd[0] * sd[1])
    s = np.sqrt(1.0 - rho * rho)
    a, b = lower / sd, upper / sd

    def face(x, lo, hi):
        with np.errstate(invalid="ignore"):
            v = np.exp(-0.5 * x * x + log_interval_mass(
                (lo - rho * x) / s, (hi - rho * x) / s)) / np.sqrt(2 * np.pi)
        return np.where(np.isinf(x), 0.0, v)

    f0 = face(a[:, 0], a[:, 1], b[:, 1]) - face(b[:, 0], a[:, 1], b[:, 1])
    f1 = face(a[:, 1], a[:, 0], b[:, 0]) - face(b[:, 1], a[:, 0], b[:, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        prob = np.array([integrate.quad(
            lambda x, lo1, hi1: float(face(x, lo1, hi1)),
            *np.clip([lo[0], hi[0]], -12.0, 12.0), args=(lo[1], hi[1]),
            epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(a, b)])
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.column_stack([f0 + rho * f1, rho * f0 + f1]) / prob[:, None]
    return mean * sd, prob


def bivariate_reference_means(cov, lower, upper, panels):
    """E[Y | lower < Y < upper] for Y ~ N(0, cov) in two dimensions, each
    coordinate y integrated as the outer variable against its density times
    the other's conditional interval mass (``log_interval_mass``).  The log
    integrand is concave in y, so the range where it lies within 80 of its
    peak is one interval: it is located on an 801-point grid across the box
    (cut to 20 sd) and integrated there by composite 16-point Gauss-Legendre
    on ``panels`` panels."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 1.0, panels + 1)
    v = (0.5 * (edges[1:] + edges[:-1])[:, None] + 0.5 / panels * nodes)
    wv = np.tile(weights, panels) * 0.5 / panels
    means = []
    for i in (0, 1):
        j = 1 - i
        sd = np.sqrt(cov[i, i])
        beta = cov[i, j] / cov[i, i]
        s = np.sqrt(cov[j, j] - cov[i, j] * beta)

        def log_f(y):
            with np.errstate(invalid="ignore"):
                return -0.5 * (y / sd) ** 2 + log_interval_mass(
                    (lower[:, j, None] - beta * y) / s,
                    (upper[:, j, None] - beta * y) / s)

        lo = np.clip(lower[:, i], -20 * sd, 20 * sd)[:, None]
        hi = np.clip(upper[:, i], -20 * sd, 20 * sd)[:, None]
        grid = lo + np.linspace(0.0, 1.0, 801) * (hi - lo)
        g = log_f(grid)
        keep = g > g.max(axis=1, keepdims=True) - 80
        rows = np.arange(len(grid))
        a = grid[rows, np.maximum(np.argmax(keep, axis=1) - 1, 0)]
        b = grid[rows, np.minimum(800 - np.argmax(keep[:, ::-1], axis=1) + 1,
                                  800)]
        y = a[:, None] + v.ravel() * (b - a)[:, None]
        g = log_f(y)
        f = np.exp(g - g.max(axis=1, keepdims=True)) * wv
        means.append(np.sum(f * y, axis=1) / np.sum(f, axis=1))
    return np.column_stack(means)


def stress_boxes(kind, rho, n=400):
    """Boxes for d = 2 truncated means under sds (1.3, 0.6) and correlation
    rho: ``random`` boxes have N(0, 1.5^2) lower ends and Exp(1) widths with
    a quarter of the ends infinite; ``far`` boxes start 6 to 11 sd out on
    either side and are 0.1 to 1 sd wide, a quarter of them open outward."""
    sds = np.array([1.3, 0.6])
    cov = np.outer(sds, sds) * np.array([[1.0, rho], [rho, 1.0]])
    rng = np.random.default_rng([17, round(1000 * rho) % 10007])
    lo = rng.normal(0.0, 1.5, size=(n, 2))
    hi = lo + rng.exponential(1.0, size=(n, 2))
    lo[rng.random((n, 2)) < 0.25] = -np.inf
    hi[rng.random((n, 2)) < 0.25] = np.inf
    if kind == "far":
        inner = rng.uniform(6.0, 11.0, size=(n, 2))
        outer = inner + rng.uniform(0.1, 1.0, size=(n, 2))
        outer[rng.random((n, 2)) < 0.25] = np.inf
        up = rng.random((n, 2)) < 0.5
        lo, hi = np.where(up, inner, -outer), np.where(up, outer, -inner)
    return cov, lo * sds, hi * sds


def example_boxes(component_index, reverse=False):
    """Discrete-block boxes, centred on their conditional means, of rows
    from a Gaussian/Poisson/binary mixture scored under one component (the
    other component's rows sit far out), with the conditional covariance."""
    corr1 = np.array([[1.0, -0.4, 0.4], [-0.4, 1.0, 0.4], [0.4, 0.4, 1.0]])
    corr2 = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.1], [0.1, 0.1, 1.0]])
    params = mx.MixtureParams(np.array([0.5, 0.5]), (
        mx.ComponentParams(corr1, (mg.GaussianMargin(-2.0, 1.0),
                                   mg.PoissonMargin(5.0),
                                   mg.OrdinalMargin([0.5, 0.5]))),
        mx.ComponentParams(corr2, (mg.GaussianMargin(2.0, 1.0),
                                   mg.PoissonMargin(15.0),
                                   mg.OrdinalMargin([0.5, 0.5])))))
    ds, _, _ = mx.generate(400, params, np.random.default_rng(20))
    comp = params.components[component_index]
    _, _, lo, hi, mean, cov = mx.latent_geometry(
        ds.values, mx.discrete_index(ds.values, 1), comp)
    cols = [1, 0] if reverse else [0, 1]
    return cov[np.ix_(cols, cols)], (lo - mean)[:, cols], (hi - mean)[:, cols]


class TestGhkMeans:
    def test_one_dimension_is_exact(self):
        lo = np.array([[a] for a, _ in KERNEL_INTERVALS])
        hi = np.array([[b] for _, b in KERNEL_INTERVALS])
        sd = 1.5
        mean, err = gauss.ghk_means(np.array([[sd * sd]]), sd * lo, sd * hi)
        expected = sd * stats.truncnorm(lo[:, 0], hi[:, 0]).mean()
        np.testing.assert_allclose(mean[:, 0], expected, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(err, 0.0)

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_bivariate_matches_tallis(self, component, reverse):
        # column order must not matter: each row integrates over its most
        # constrained coordinate and takes the other in closed form
        cov, lo, hi = example_boxes(component, reverse)
        expected, prob = tallis_bivariate(cov, lo, hi)
        mean, err = gauss.ghk_means(cov, lo, hi)
        rows = prob > 1e-6
        assert rows.sum() > 200
        assert np.max(np.abs(mean - expected)[rows]) <= 5e-3
        z = np.abs(mean - expected)[rows] / err[rows]
        assert np.mean(np.any(z > 4, axis=1)) <= 0.02

    @pytest.mark.parametrize("dim", [3, 4])
    def test_matches_rejection_reference(self, dim):
        rng = np.random.default_rng(dim)
        cov = random_correlation_matrix(dim, rng)
        lo = rng.uniform(-1.5, 0.5, size=(12, dim))
        hi = lo + rng.uniform(0.8, 2.5, size=(12, dim))
        lo[rng.random((12, dim)) < 0.3] = -np.inf
        hi[rng.random((12, dim)) < 0.3] = np.inf
        expected, ref_err = rejection_means(cov, lo, hi,
                                            np.random.default_rng(99))
        mean, err = gauss.ghk_means(cov, lo, hi)
        assert np.all((mean > lo) & (mean < hi))
        tol = 4.5 * np.sqrt(err ** 2 + ref_err ** 2)
        assert np.all(np.abs(mean - expected) <= tol)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_far_tail_boxes(self, dim, monkeypatch):
        # boxes 6 to 12 standard deviations out, where rectangle
        # probabilities underflow: finite, inside the box, and close to an
        # exact reference (d = 2) or a run with four times the points under
        # shifts of its own, so that it shares no lattice point with the
        # estimate.  An error from 8 shifts has heavy tails this far out,
        # hence 5 standard errors, not 4
        cov = 0.5 * np.eye(dim) + 0.5
        lo = np.array([[6.0] * dim, [-12.0] * dim, [6.5, -np.inf, 7.0][:dim],
                       [-np.inf, 9.0, -1.0][:dim]])
        hi = np.array([[7.0] * dim, [-11.0] * dim, [np.inf, -8.0, 9.0][:dim],
                       [-6.0, 10.0, 1.0][:dim]])
        mean, err = gauss.ghk_means(cov, lo, hi)
        if dim == 2:
            big = bivariate_reference_means(cov, lo, hi, 128)
            big_err = 0.0
        else:
            points = gauss._GHK_POINTS
            shifts = gauss._QMC_SHIFT_TABLE[:, : dim - 1]
            other = np.outer(np.arange(1, 9),
                             np.sqrt(gauss._QMC_PRIMES + 1.0 / 3.0))
            own = gauss._lattice(points, shifts).reshape(-1, dim - 1)
            ref = gauss._lattice(4 * points,
                                 other[:, : dim - 1]).reshape(-1, dim - 1)
            gap = np.abs(own[:, None] - ref[None]).max(axis=-1)
            assert gap.min() > 1e-6
            monkeypatch.setattr(gauss, "_QMC_SHIFT_TABLE", other)
            monkeypatch.setattr(gauss, "_GHK_POINTS", 4 * points)
            big, big_err = gauss.ghk_means(cov, lo, hi)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(err))
        assert np.all((mean >= lo) & (mean <= hi))
        tol = 5 * np.sqrt(err ** 2 + big_err ** 2) + 1e-9
        assert np.all(np.abs(mean - big) <= tol)

    @pytest.mark.parametrize("kind", ["random", "far"])
    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.8, 0.95, 0.99, 0.999])
    def test_bivariate_stress_boxes(self, kind, rho):
        # d = 2 is a deterministic quadrature: within 1e-6 of an exact
        # reference even at rho = 0.999 (the 500-point shifted lattice it
        # replaced missed by 2.6e-4 to 5.5e-3 on these families), never
        # more than 1e-8 past its reported error and inside every box
        cov, lo, hi = stress_boxes(kind, rho)
        expected = bivariate_reference_means(cov, lo, hi, 128)
        np.testing.assert_allclose(
            bivariate_reference_means(cov, lo, hi, 64), expected,
            rtol=0, atol=1e-12)
        mean, err = gauss.ghk_means(cov, lo, hi)
        assert np.all((mean >= lo) & (mean <= hi))
        miss = np.abs(mean - expected)
        assert np.max(miss) <= 1e-6
        assert np.all(miss <= err + 1e-8)

    def test_blocks_do_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(15)
        cov3 = random_correlation_matrix(3, rng)
        lo3 = rng.normal(0.0, 1.5, size=(60, 3))
        hi3 = lo3 + rng.exponential(1.0, size=(60, 3))
        cases = [example_boxes(0), (cov3, lo3, hi3)]
        results = [gauss.ghk_means(*case) for case in cases]
        monkeypatch.setattr(gauss, "_GHK_BLOCK", 100)
        for case, (mean, err) in zip(cases, results):
            small, small_err = gauss.ghk_means(*case)
            np.testing.assert_array_equal(small, mean)
            np.testing.assert_array_equal(small_err, err)
