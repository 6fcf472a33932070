import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from conftest import component_logpdf, oracle_logpdf_quadrature

from copulamix import evaluate as ev, margins as mg, model as mx, sampler as sp


class TestKlDivergence:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(0)
        logpdf = lambda x: stats.norm.logpdf(x)
        kl, se, dropped = ev.kl_divergence_mc(
            lambda n, r: r.normal(size=n), logpdf, logpdf, 2000, rng)
        assert kl == 0.0
        assert se == 0.0
        assert dropped == 0

    def test_gaussian_closed_form(self):
        # KL(N(0,1) || N(1,1)) = 1/2
        rng = np.random.default_rng(1)
        kl, se, dropped = ev.kl_divergence_mc(
            lambda n, r: r.normal(size=n),
            lambda x: stats.norm.logpdf(x),
            lambda x: stats.norm.logpdf(x, loc=1.0),
            200_000, rng)
        assert dropped == 0
        assert kl == pytest.approx(0.5, abs=4 * se)
        assert se < 0.01

    def test_dropped_counted(self):
        rng = np.random.default_rng(2)
        kl, se, dropped = ev.kl_divergence_mc(
            lambda n, r: r.normal(size=n),
            lambda x: stats.norm.logpdf(x),
            lambda x: np.where(x > 0, -np.inf, stats.norm.logpdf(x)),
            10_000, rng)
        assert 4500 < dropped < 5500
        assert np.isfinite(kl)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            ev.kl_divergence_mc(lambda n, r: r.normal(size=n),
                                lambda x: x, lambda x: x, 0,
                                np.random.default_rng(0))


class TestMisclassification:
    def test_simple_case(self):
        assert ev.misclassification_rate([0, 0, 1, 1], [0, 1, 1, 1]) == 0.25

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 3, size=200)
        est = (true + 1) % 3  # a pure relabeling
        assert ev.misclassification_rate(est, true) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 3, size=100)
        b = rng.integers(0, 3, size=100)
        assert ev.misclassification_rate(a, b) == \
            ev.misclassification_rate(b, a)

    def test_worst_case_bounded(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, size=500)
        b = rng.integers(0, 2, size=500)
        assert 0.0 <= ev.misclassification_rate(a, b) <= 0.5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ev.misclassification_rate([0, 1], [0, 1, 2])


class TestBivariatePoisson:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ev.BivPoissonMixtureParams(np.array([0.5, 0.5]),
                                       np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            ev.BivPoissonMixtureParams(np.array([0.5, 0.5]),
                                       np.array([[1.0, 2.0, -1.0],
                                                 [1.0, 1.0, 1.0]]))

    def test_component_moments(self):
        # trivariate reduction: E[x1] = l1 + l3, Var[x1] = l1 + l3,
        # Cov = l3
        rng = np.random.default_rng(6)
        for lam in ([1.0, 2.0, 3.0], [0.5, 4.0, 1.5], [2.0, 2.0, 0.3]):
            params = ev.BivPoissonMixtureParams(
                np.array([1.0]), np.array([lam]))
            ds, _ = ev.bivariate_poisson_mixture_generate(params, 200_000,
                                                          rng)
            x = ds.values
            assert x[:, 0].mean() == pytest.approx(lam[0] + lam[2], rel=0.02)
            assert x[:, 1].mean() == pytest.approx(lam[1] + lam[2], rel=0.02)
            assert np.cov(x.T)[0, 1] == pytest.approx(lam[2], rel=0.1)

    def test_zero_shared_rate_limit_independent(self):
        # as l3 -> 0 the pmf factorizes into two Poisson margins
        lam = np.array([[2.0, 3.0, 1e-12]])
        params = ev.BivPoissonMixtureParams(np.array([1.0]), lam)
        x = np.array([[1.0, 4.0], [0.0, 0.0], [5.0, 2.0]])
        got = ev.bivariate_poisson_mixture_logpmf(x, params)
        ref = (stats.poisson.logpmf(x[:, 0], 2.0)
               + stats.poisson.logpmf(x[:, 1], 3.0))
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_pmf_normalizes(self):
        params = ev.karlis_params()
        grid = np.arange(0, 60)
        xx, yy = np.meshgrid(grid, grid)
        pts = np.column_stack([xx.ravel(), yy.ravel()]).astype(float)
        total = np.exp(logsumexp(
            ev.bivariate_poisson_mixture_logpmf(pts, params)))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_pmf_matches_empirical(self):
        rng = np.random.default_rng(7)
        params = ev.karlis_params()
        ds, _ = ev.bivariate_poisson_mixture_generate(params, 400_000, rng)
        x = ds.values
        for pt in ([3.0, 4.0], [8.0, 10.0], [1.0, 2.0]):
            emp = np.mean((x[:, 0] == pt[0]) & (x[:, 1] == pt[1]))
            model = np.exp(ev.bivariate_poisson_mixture_logpmf(
                np.array([pt]), params))[0]
            se = np.sqrt(model * (1 - model) / x.shape[0])
            assert emp == pytest.approx(model, abs=4 * se + 1e-4)

    def test_karlis_component1_stats(self):
        # under the first component: means (4, 5), correlation 3/sqrt(20)
        lam = ev.karlis_params().lambdas[0]
        assert lam[0] + lam[2] == pytest.approx(4.0)
        assert lam[1] + lam[2] == pytest.approx(5.0)
        corr = lam[2] / np.sqrt((lam[0] + lam[2]) * (lam[1] + lam[2]))
        assert corr == pytest.approx(3.0 / np.sqrt(20.0))


class TestOracle:
    """The quadrature oracle of ``conftest`` that the acceptance suite
    checks the production density against."""

    def test_independent_factorizes(self):
        rng = np.random.default_rng(8)
        comp = mx.ComponentParams(
            np.eye(3), (mg.GaussianMargin(0.5, 1.2), mg.PoissonMargin(4.0),
                        mg.OrdinalMargin([0.3, 0.7])))
        for x in ([0.0, 3.0, 1.0], [2.0, 0.0, 2.0], [-1.0, 7.0, 1.0]):
            got = oracle_logpdf_quadrature(np.array(x), comp)
            ref = sum(mg.logpdf_array(x[j], comp.margins[j])
                      for j in range(3))
            assert got == pytest.approx(ref, abs=1e-8)

    def test_bivariate_orthant(self):
        # binary x binary at rho = 0.5 with balanced margins: the cell
        # (1, 1) has probability 1/4 + arcsin(0.5) / (2 pi) = 1/3
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        comp = mx.ComponentParams(corr, (mg.OrdinalMargin([0.5, 0.5]),
                                         mg.OrdinalMargin([0.5, 0.5])))
        got = oracle_logpdf_quadrature(np.array([1.0, 1.0]), comp)
        assert got == pytest.approx(np.log(1.0 / 3.0), abs=1e-9)

    def test_matches_production_path(self):
        comp = ev.example1_params().components[0]
        x = np.array([-2.0, 5.0, 1.0])
        got = oracle_logpdf_quadrature(x, comp)
        prod = component_logpdf(x, comp)
        assert got == pytest.approx(prod, abs=1e-8)

    def test_rejects_many_discrete_dims(self):
        comp = mx.ComponentParams(
            np.eye(4), tuple(mg.OrdinalMargin([0.5, 0.5]) for _ in range(4)))
        with pytest.raises(ValueError):
            oracle_logpdf_quadrature(np.ones(4), comp)


class TestStudies:
    def test_seed_reproducibility(self):
        cfg = sp.ChainConfig(g=2, iterations=20, burn_in=5, n_chains=1)
        rows1 = ev.run_simulation_study("example1", [100], 1, cfg, n_kl=500)
        rows2 = ev.run_simulation_study("example1", [100], 1, cfg, n_kl=500)
        assert rows1 == rows2

    def test_row_format(self):
        cfg = sp.ChainConfig(g=2, iterations=20, burn_in=5, n_chains=1)
        rows = ev.run_simulation_study("karlis", [150], 2, cfg, n_kl=500)
        metrics = {"kl", "kl_se", "kl_dropped", "misclassification",
                   "corr12", "margin_param"}
        assert len(rows) == 2 * len(metrics)
        assert {r["metric"] for r in rows} == metrics
        assert all(r["study"] == "karlis" and r["n"] == 150 for r in rows)

    def test_unknown_study_rejected(self):
        with pytest.raises(ValueError):
            ev.run_simulation_study("nosuch", [100], 1)

    def test_format_study_table(self):
        rows = [{"study": "example1", "n": 100, "replicate": 0,
                 "metric": "kl", "value": 0.25}]
        text = ev.format_study_table(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "study,n,replicate,metric,value"
        assert lines[1] == "example1,100,0,kl,0.25"
