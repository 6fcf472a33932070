import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from copulamix import margins as mg
from copulamix.schema import continuous, integer, ordinal


class TestParams:
    def test_gaussian_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            mg.GaussianMargin(0.0, 0.0)

    def test_poisson_needs_positive_rate(self):
        with pytest.raises(ValueError):
            mg.PoissonMargin(-1.0)

    def test_ordinal_needs_simplex(self):
        with pytest.raises(ValueError):
            mg.OrdinalMargin([0.5, 0.6])
        with pytest.raises(ValueError):
            mg.OrdinalMargin([1.0])

    def test_is_discrete(self):
        assert not mg.is_discrete(mg.GaussianMargin(0, 1))
        assert mg.is_discrete(mg.PoissonMargin(2.0))
        assert mg.is_discrete(mg.OrdinalMargin([0.3, 0.7]))


class TestCdfQuantile:
    def test_gaussian_cdf(self):
        m = mg.GaussianMargin(1.0, 2.0)
        np.testing.assert_allclose(mg.cdf_array([1.0, 3.0], m),
                                   [0.5, stats.norm.cdf(1.0)], rtol=1e-12)

    def test_poisson_cdf_matches_scipy(self):
        m = mg.PoissonMargin(3.5)
        x = np.arange(0, 15, dtype=float)
        np.testing.assert_allclose(mg.cdf_array(x, m),
                                   stats.poisson.cdf(x, 3.5), rtol=1e-12)

    def test_ordinal_cdf_exact_one_at_top(self):
        m = mg.OrdinalMargin([0.2, 0.3, 0.5])
        np.testing.assert_allclose(mg.cdf_array(np.array([1.0, 2.0, 3.0]), m),
                                   [0.2, 0.5, 1.0])
        assert mg.cdf_array(3.0, m)[0] == 1.0

    def test_quantile_is_generalized_inverse(self):
        rng = np.random.default_rng(0)
        for m in (mg.PoissonMargin(4.2), mg.OrdinalMargin([0.1, 0.2, 0.7])):
            u = rng.uniform(1e-6, 1 - 1e-6, size=200)
            x = mg.quantile_array(u, m)
            # smallest support point with cdf >= u
            assert np.all(mg.cdf_array(x, m) >= u - 1e-12)
            assert np.all(mg.cdf_array(x - 1.0, m) < u)

    def test_poisson_quantile_matches_scipy_exactly(self):
        tail = np.geomspace(1e-12, 0.5, 300)
        u = np.concatenate([tail, np.linspace(0.01, 0.99, 99), 1.0 - tail])
        for rate in np.geomspace(0.05, 200.0, 40):
            np.testing.assert_array_equal(
                mg.quantile_array(u, mg.PoissonMargin(rate)),
                stats.poisson.ppf(u, rate))

    def test_quantile_rejects_boundary(self):
        with pytest.raises(ValueError):
            mg.quantile_array(0.0, mg.PoissonMargin(1.0))
        with pytest.raises(ValueError):
            mg.quantile_array([0.5, 1.0], mg.OrdinalMargin([0.5, 0.5]))

    def test_support_errors(self):
        with pytest.raises(mg.SupportError):
            mg.logpdf_array([2.0, -1.0], mg.PoissonMargin(1.0))
        with pytest.raises(mg.SupportError):
            mg.logpdf_array([1.0, 1.5], mg.OrdinalMargin([0.5, 0.5]))
        with pytest.raises(mg.SupportError):
            mg.logpdf_array([3.0], mg.OrdinalMargin([0.5, 0.5]))


class TestLogpdf:
    def test_matches_scipy(self):
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            mg.logpdf_array(x, mg.GaussianMargin(0.5, 1.5)),
            stats.norm.logpdf(x, 0.5, 1.5))
        np.testing.assert_allclose(
            mg.logpdf_array(x, mg.PoissonMargin(2.5)),
            stats.poisson.logpmf(x, 2.5))

    def test_ordinal_mass(self):
        m = mg.OrdinalMargin([0.2, 0.8])
        np.testing.assert_allclose(mg.logpdf_array([2.0, 1.0], m),
                                   np.log([0.8, 0.2]), rtol=1e-12)


class TestLatentBounds:
    def test_interval_mass_equals_margin_mass(self):
        for m in (mg.PoissonMargin(3.0), mg.OrdinalMargin([0.25, 0.5, 0.25])):
            xs = np.array([0.0, 1.0, 2.0]) + (1.0 if isinstance(
                m, mg.OrdinalMargin) else 0.0)
            lo, hi = mg.latent_bounds_arrays(xs, m)
            mass = ndtr(hi) - ndtr(lo)
            np.testing.assert_allclose(mass, np.exp(mg.logpdf_array(xs, m)),
                                       rtol=1e-10)

    def test_arrays_match_elementwise(self):
        rng = np.random.default_rng(4)
        cases = [
            (mg.PoissonMargin(4.0), np.r_[rng.poisson(4.0, 41), 0, 0, 19]),
            (mg.OrdinalMargin([0.2, 0.5, 0.3]), np.r_[rng.integers(1, 4, 40), 1, 3]),
            (mg.OrdinalMargin([0.6, 0.4]), np.r_[rng.integers(1, 3, 40), 1, 2]),
        ]
        for margin, xs in cases:
            xs = rng.permutation(xs.astype(float))  # unsorted, with repeats
            lo, hi = mg.latent_bounds_arrays(xs, margin)
            expected = np.array([mg.latent_bounds_arrays(xs[i:i + 1], margin)
                                 for i in range(xs.size)])[:, :, 0]
            np.testing.assert_array_equal(lo, expected[:, 0])
            np.testing.assert_array_equal(hi, expected[:, 1])
            lo2, hi2 = mg.latent_bounds_arrays(xs.reshape(2, -1), margin)
            np.testing.assert_array_equal(lo2, lo.reshape(2, -1))
            np.testing.assert_array_equal(hi2, hi.reshape(2, -1))

    def test_large_counts_keep_their_mass(self):
        # counts far in the upper tail: their cdf rounds to 1, so the
        # bounds must come from the upper tail to stay finite and exact;
        # from about 245 on pdtrc(k, 5) is 0 and the tail is taken in logs
        mpmath = pytest.importorskip("mpmath")
        from copulamix.gauss import log_gaussian_interval
        counts = np.r_[np.arange(20.0, 151.0), 250.0, 300.0, 1000.0]
        lo, hi = mg.latent_bounds_arrays(counts, mg.PoissonMargin(5.0))
        assert np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))
        with mpmath.workdps(50):
            expected = [float(-5 + k * mpmath.log(5) - mpmath.loggamma(k + 1))
                        for k in counts]
        np.testing.assert_allclose(log_gaussian_interval(lo, hi), expected,
                                   rtol=1e-10)

    def test_bounds_chain_across_the_tail_underflow(self):
        # each count's upper bound is the next count's lower bound, and the
        # bounds keep rising where the series takes over from pdtrc
        lo, hi = mg.latent_bounds_arrays(np.arange(200.0, 1001.0),
                                         mg.PoissonMargin(5.0))
        assert np.all(np.isfinite(hi))
        np.testing.assert_array_equal(hi[:-1], lo[1:])
        assert np.all(np.diff(hi) > 0)

    def test_edges_infinite(self):
        (lo,), (hi,) = mg.latent_bounds_arrays([0.0], mg.PoissonMargin(2.0))
        assert lo == -np.inf and np.isfinite(hi)
        (lo,), (hi,) = mg.latent_bounds_arrays(
            [3.0], mg.OrdinalMargin([0.2, 0.3, 0.5]))
        assert np.isfinite(lo) and hi == np.inf

    def test_continuous_margin_rejected(self):
        with pytest.raises(mg.SupportError):
            mg.latent_bounds_arrays([0.0], mg.GaussianMargin(0, 1))


class TestDefaultPriors:
    def test_gaussian_hyperparameters(self):
        rng = np.random.default_rng(2)
        col = rng.normal(3.0, 2.0, size=500)
        prior = mg.default_prior(col, continuous())
        assert prior.c0 == pytest.approx(1.28)
        assert prior.C0 == pytest.approx(0.36 * np.var(col, ddof=1))
        assert prior.b0 == pytest.approx(col.mean())
        assert prior.N0 == pytest.approx(2.6 / (col.max() - col.min()))

    def test_poisson_hyperparameters(self):
        col = np.array([0.0, 2.0, 4.0, 6.0])
        prior = mg.default_prior(col, integer())
        assert prior.a0 == 1.0
        assert prior.A0 == pytest.approx(len(col) / col.sum())

    def test_ordinal_prior_jeffreys(self):
        prior = mg.default_prior(np.array([1.0, 2.0, 2.0]), ordinal(3))
        np.testing.assert_allclose(prior.alpha, [0.5, 0.5, 0.5])

    def test_constant_continuous_rejected(self):
        with pytest.raises(ValueError):
            mg.default_prior(np.ones(10), continuous())


class TestConjugacy:
    def test_nig_posterior_update(self):
        prior = mg.GaussianNIGPrior(b0=0.0, N0=1.0, c0=2.0, C0=3.0)
        x = np.array([1.0, 2.0, 3.0])
        post = mg.posterior_hyperparams(x, prior)
        n, xbar = 3, 2.0
        assert post.N0 == pytest.approx(1.0 + n)
        assert post.b0 == pytest.approx((0.0 + n * xbar) / (1.0 + n))
        assert post.c0 == pytest.approx(2.0 + n / 2)
        expected_C = 3.0 + 0.5 * np.sum((x - xbar) ** 2) \
            + 0.5 * 1.0 * n * xbar ** 2 / (1.0 + n)
        assert post.C0 == pytest.approx(expected_C)

    def test_gamma_posterior_update(self):
        prior = mg.PoissonGammaPrior(a0=1.0, A0=0.5)
        post = mg.posterior_hyperparams(np.array([2.0, 3.0]), prior)
        assert post.a0 == 6.0
        assert post.A0 == 2.5

    def test_dirichlet_posterior_update(self):
        prior = mg.OrdinalDirichletPrior(levels=3)
        post = mg.posterior_hyperparams(np.array([1.0, 3.0, 3.0]), prior)
        np.testing.assert_allclose(post.alpha, [1.5, 0.5, 2.5])

    def test_posterior_sample_moments_gaussian(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 1.0, size=200)
        prior = mg.default_prior(x, continuous())
        post = mg.posterior_hyperparams(x, prior)
        draws = [mg.conjugate_posterior_sample(x, prior, rng)
                 for _ in range(4000)]
        mus = np.array([d.mu for d in draws])
        # posterior mean of mu is b_n
        se = mus.std(ddof=1) / np.sqrt(mus.size)
        assert abs(mus.mean() - post.b0) < 4 * se

    def test_posterior_sample_moments_poisson(self):
        rng = np.random.default_rng(4)
        x = rng.poisson(5.0, size=100).astype(float)
        prior = mg.default_prior(x, integer())
        post = mg.posterior_hyperparams(x, prior)
        rates = np.array([mg.conjugate_posterior_sample(x, prior, rng).rate
                          for _ in range(4000)])
        se = rates.std(ddof=1) / np.sqrt(rates.size)
        assert abs(rates.mean() - post.a0 / post.A0) < 4 * se

    def test_empty_data_is_prior_draw(self):
        rng = np.random.default_rng(5)
        prior = mg.PoissonGammaPrior(a0=2.0, A0=1.0)
        draws = np.array([
            mg.conjugate_posterior_sample(np.array([]), prior, rng).rate
            for _ in range(4000)])
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 2.0) < 4 * se
