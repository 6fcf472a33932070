"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package, from numerical
identities through full simulation studies.  The two simulation studies are
marked ``slow``; run ``pytest -m "not slow"`` to skip them.  The real-data
selection test needs a dataset that cannot be redistributed with the
package and skips itself with instructions when the fixture is absent.
"""

import os
import time

import numpy as np
import pytest

from conftest import (
    component_logpdf, oracle_logpdf_quadrature, random_correlation_matrix,
)

from copulamix import (
    evaluate as ev, margins as mg, model as mx, sampler as sp,
    selection as sel, viz,
)
from copulamix.schema import (
    Schema, continuous, integer, load_dataset, ordinal,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def random_component(rng, c, d, max_levels=4):
    dim = c + d
    corr = random_correlation_matrix(dim, rng)
    margins = []
    for _ in range(c):
        margins.append(mg.GaussianMargin(rng.normal(), rng.uniform(0.5, 2.0)))
    for _ in range(d):
        if rng.random() < 0.5:
            margins.append(mg.PoissonMargin(rng.uniform(0.5, 10.0)))
        else:
            levels = int(rng.integers(2, max_levels + 1))
            margins.append(mg.OrdinalMargin(rng.dirichlet(np.ones(levels))))
    return mx.ComponentParams(corr, tuple(margins))


def random_observation(rng, component):
    c = component.n_continuous
    x = np.empty(component.dim)
    for j, margin in enumerate(component.margins):
        if j < c:
            x[j] = rng.normal(margin.mu, margin.sigma)
        elif isinstance(margin, mg.PoissonMargin):
            x[j] = rng.poisson(margin.rate)
        else:
            x[j] = rng.choice(margin.probs.size, p=margin.probs) + 1
    return x


class TestIndependenceFactorization:
    """With identity correlation the joint density is the margin product."""

    def test_500_random_instances(self):
        rng = np.random.default_rng(100)
        start = time.perf_counter()
        for _ in range(500):
            c = int(rng.integers(0, 4))
            d = int(rng.integers(0 if c else 1, 4))
            comp = random_component(rng, c, d)
            comp = mx.ComponentParams(np.eye(comp.dim), comp.margins)
            x = random_observation(rng, comp)
            joint = component_logpdf(x, comp)
            product = sum(mg.logpdf_array(x[j], m)
                          for j, m in enumerate(comp.margins))
            assert joint == pytest.approx(product, abs=1e-10)
        assert time.perf_counter() - start < 10.0


class TestOracleEquivalence:
    """The production density path agrees with an independent quadrature
    oracle on random parameters and on the canned two-component truth."""

    def test_200_random_instances(self):
        rng = np.random.default_rng(200)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            c = int(rng.integers(0, 3))
            d = int(rng.integers(1, 3))
            comp = random_component(rng, c, d)
            x = random_observation(rng, comp)
            oracle = oracle_logpdf_quadrature(x, comp)
            prod = component_logpdf(x, comp)
            if np.isfinite(oracle):
                worst = max(worst, abs(oracle - prod))
                assert prod == pytest.approx(oracle, abs=1e-6)
        assert worst < 1e-6
        assert time.perf_counter() - start < 120.0

    def test_canned_truth(self):
        params = ev.example1_params()
        for comp in params.components:
            for x in ([-2.0, 5.0, 1.0], [2.0, 15.0, 2.0], [0.0, 9.0, 1.0]):
                oracle = oracle_logpdf_quadrature(np.array(x), comp)
                prod = component_logpdf(x, comp)
                assert prod == pytest.approx(oracle, abs=1e-8)


class TestConjugacySuite:
    """Gibbs blocks with closed-form full conditionals match their targets
    at Monte-Carlo precision, and the margin update degenerates to an
    always-accept conjugate draw under the independent family."""

    def test_proportion_block(self):
        rng = np.random.default_rng(300)
        z = np.repeat([0, 1], [70, 30])
        draws = np.array([sp.step_proportions(z, 2, rng)[0]
                          for _ in range(100_000)])
        alpha = np.array([70.5, 30.5])
        target_mean = alpha[0] / alpha.sum()
        target_sd = np.sqrt(alpha[0] * alpha[1]
                            / (alpha.sum() ** 2 * (alpha.sum() + 1)))
        se = target_sd / np.sqrt(draws.size)
        assert abs(draws.mean() - target_mean) < 3 * se
        assert abs(draws.std() - target_sd) < 3 * target_sd / np.sqrt(draws.size)

    def test_gaussian_margin_block(self):
        rng = np.random.default_rng(301)
        x = rng.normal(1.5, 0.8, size=150)
        prior = mg.default_prior(x, continuous())
        post = mg.posterior_hyperparams(x, prior)
        mus = np.empty(100_000)
        for i in range(mus.size):
            mus[i] = mg.conjugate_posterior_sample(x, prior, rng).mu
        # marginal of mu is Student-t around b_n
        scale = np.sqrt(post.C0 / (post.N0 * post.c0))
        var = scale ** 2 * 2 * post.c0 / (2 * post.c0 - 2)
        se = np.sqrt(var / mus.size)
        assert abs(mus.mean() - post.b0) < 3 * se

    def test_poisson_margin_block(self):
        rng = np.random.default_rng(302)
        x = rng.poisson(6.0, size=200).astype(float)
        prior = mg.default_prior(x, integer())
        post = mg.posterior_hyperparams(x, prior)
        rates = np.array([
            mg.conjugate_posterior_sample(x, prior, rng).rate
            for _ in range(100_000)])
        target_mean = post.a0 / post.A0
        target_sd = np.sqrt(post.a0) / post.A0
        se = target_sd / np.sqrt(rates.size)
        assert abs(rates.mean() - target_mean) < 3 * se

    def test_independent_family_acceptance_is_one(self):
        rng = np.random.default_rng(303)
        start = time.perf_counter()
        comp = mx.ComponentParams(
            np.eye(3), (mg.GaussianMargin(0.0, 1.0), mg.PoissonMargin(4.0),
                        mg.OrdinalMargin([0.4, 0.6])))
        params = mx.MixtureParams(np.array([1.0]), (comp,), mx.INDEPENDENT)
        ds, _, _ = mx.generate(200, params, rng)
        priors = [mg.default_prior(ds.values[:, j], kind)
                  for j, kind in enumerate(ds.schema.kinds)]
        index = mx.discrete_index(ds.values, 1)
        state = sp.initial_latent_state(ds.values, index, params, rng)
        total = np.zeros((1, 3))
        for _ in range(200):
            params, state, took = sp.step_margins(ds.values, index, params,
                                                  state, priors, rng)
            total += took
        np.testing.assert_array_equal(total, 200.0)
        assert time.perf_counter() - start < 60.0


@pytest.mark.slow
class TestSimulationStudyCopulaTruth:
    """Fitting data generated by the model itself: error rates and density
    divergence must shrink as the sample grows."""

    @pytest.fixture(scope="class")
    @staticmethod
    def rows():
        cfg = sp.ChainConfig(g=2, iterations=300, burn_in=60, n_chains=1)
        return ev.run_simulation_study("example1", [100, 400, 1600], 20,
                                       cfg, master_seed=42, n_kl=10_000)

    @staticmethod
    def median(rows, metric, n):
        vals = [r["value"] for r in rows
                if r["metric"] == metric and r["n"] == n]
        assert len(vals) >= 15  # nearly all replicates must survive
        return float(np.median(vals))

    def test_misclassification_decreases(self, rows):
        med = [self.median(rows, "misclassification", n)
               for n in (100, 400, 1600)]
        # the components are well separated, so the medians sit at the Bayes
        # floor; allow one misassigned row of slack at the smallest size
        # (a median of exactly 0.0 at n = 100 must not fail the comparison)
        slack = 1.0 / 100
        assert med[0] + slack >= med[1] >= med[2]
        assert med[2] <= med[0] + slack

    def test_misclassification_near_bayes_rate(self, rows):
        assert self.median(rows, "misclassification", 1600) <= 0.03

    def test_kl_shrinks(self, rows):
        kl_small = self.median(rows, "kl", 100)
        kl_large = self.median(rows, "kl", 1600)
        assert kl_large <= kl_small / 3.0

    def test_margin_recovered(self, rows):
        assert self.median(rows, "margin_param", 1600) == pytest.approx(
            -2.0, abs=0.15)


@pytest.mark.slow
class TestSimulationStudyPoissonTruth:
    """Robustness under misspecification: data come from a bivariate
    Poisson mixture outside the model family."""

    @pytest.fixture(scope="class")
    @staticmethod
    def rows():
        cfg = sp.ChainConfig(g=2, iterations=300, burn_in=60, n_chains=1)
        return ev.run_simulation_study("karlis", [1600], 20, cfg,
                                       master_seed=7, n_kl=10_000)

    @staticmethod
    def values(rows, metric):
        vals = [r["value"] for r in rows if r["metric"] == metric]
        assert len(vals) >= 15
        return np.array(vals)

    def test_misclassification_near_theoretical(self, rows):
        med = float(np.median(self.values(rows, "misclassification")))
        assert med == pytest.approx(0.0967, abs=0.03)

    def test_component1_correlation_recovered(self, rows):
        med = float(np.median(self.values(rows, "corr12")))
        assert med == pytest.approx(3.0 / np.sqrt(20.0), abs=0.1)

    def test_component1_rate_recovered(self, rows):
        med = float(np.median(self.values(rows, "margin_param")))
        assert med == pytest.approx(4.0, abs=0.4)


class TestParameterCounting:
    def test_reference_schema(self):
        pairs = [("sbp", continuous()), ("tobacco", continuous()),
                 ("ldl", continuous()), ("adiposity", continuous()),
                 ("famhist", ordinal(2)), ("typea", integer()),
                 ("obesity", continuous()), ("alcohol", continuous()),
                 ("age", integer())]
        schema = Schema.from_pairs(pairs)
        assert sel.param_count(schema, 3, mx.INDEPENDENT) == 47
        assert sel.param_count(schema, 3, mx.HOMOSCEDASTIC) == 83
        assert sel.param_count(schema, 3, mx.HETEROSCEDASTIC) == 155

    def test_ordering_over_1000_random_schemas(self):
        rng = np.random.default_rng(600)
        kinds = [continuous(), integer(), ordinal(2), ordinal(3), ordinal(6)]
        for _ in range(1000):
            e = int(rng.integers(1, 9))
            schema = Schema.from_pairs(
                (f"v{j}", kinds[rng.integers(len(kinds))]) for j in range(e))
            g = int(rng.integers(1, 6))
            loc = sel.param_count(schema, g, mx.INDEPENDENT)
            homo = sel.param_count(schema, g, mx.HOMOSCEDASTIC)
            het = sel.param_count(schema, g, mx.HETEROSCEDASTIC)
            assert 0 < loc <= homo <= het
            if e > 1:
                assert loc < homo
                if g > 1:
                    assert homo < het


class TestRealDataSelection:
    """Model selection on the South African heart-disease risk-factor data
    (462 rows, nine mixed variables).  The dataset is not redistributable
    with this package; drop it at tests/fixtures/saheart.csv (comma
    separated, header row sbp,tobacco,ldl,adiposity,famhist,typea,obesity,
    alcohol,age with famhist coded 1/2) to enable the test."""

    CSV = os.path.join(FIXTURE_DIR, "saheart.csv")
    SCHEMA = os.path.join(FIXTURE_DIR, "saheart.schema")

    @pytest.mark.skipif(not os.path.exists(CSV),
                        reason="real dataset not available: place the nine "
                               "risk-factor columns at tests/fixtures/"
                               "saheart.csv to enable this test")
    def test_homoscedastic_three_components_selected(self):
        dataset = load_dataset(self.CSV, self.SCHEMA)
        assert dataset.n == 462
        cfg = sp.ChainConfig(g=1, iterations=300, burn_in=60, n_chains=2)
        report = sel.sweep(dataset, [1, 2, 3],
                           [mx.INDEPENDENT, mx.HOMOSCEDASTIC,
                            mx.HETEROSCEDASTIC], cfg)
        best_bic = report.best("bic")
        best_icl = report.best("icl")
        assert (best_bic.family, best_bic.g) == (mx.HOMOSCEDASTIC, 3)
        assert (best_icl.family, best_icl.g) == (mx.HOMOSCEDASTIC, 3)
        assert best_bic.bic == pytest.approx(-12739.94, rel=0.015)


class TestSamplerInvariants:
    """Every Gibbs block preserves the structural constraints of the state
    on fuzzed schemas and parameters."""

    def test_fuzzed_sweeps(self):
        rng = np.random.default_rng(800)
        start = time.perf_counter()
        for trial in range(15):
            c = int(rng.integers(0, 3))
            d = int(rng.integers(0 if c else 1, 3))
            g = int(rng.integers(1, 4))
            family = (mx.INDEPENDENT, mx.HOMOSCEDASTIC,
                      mx.HETEROSCEDASTIC)[trial % 3]
            comps = []
            shared = random_correlation_matrix(c + d, rng)
            # all components must share one margin family per column
            discrete_plan = [("poisson" if rng.random() < 0.5 else
                              int(rng.integers(2, 4))) for _ in range(d)]
            for _ in range(g):
                margins = [mg.GaussianMargin(rng.normal(),
                                             rng.uniform(0.5, 2.0))
                           for _ in range(c)]
                for plan in discrete_plan:
                    if plan == "poisson":
                        margins.append(
                            mg.PoissonMargin(rng.uniform(0.5, 10.0)))
                    else:
                        margins.append(
                            mg.OrdinalMargin(rng.dirichlet(np.ones(plan))))
                if family == mx.INDEPENDENT:
                    corr = np.eye(c + d)
                elif family == mx.HOMOSCEDASTIC:
                    corr = shared
                else:
                    corr = random_correlation_matrix(c + d, rng)
                comps.append(mx.ComponentParams(corr, tuple(margins)))
            pi = rng.dirichlet(np.full(g, 5.0))
            params = mx.MixtureParams(pi, tuple(comps), family)
            ds, _, _ = mx.generate(int(rng.integers(40, 120)), params, rng)
            priors = [mg.default_prior(ds.values[:, j], kind)
                      for j, kind in enumerate(ds.schema.kinds)]
            index = mx.discrete_index(ds.values, c)
            state = sp.initial_latent_state(ds.values, index, params, rng)
            for _ in range(3):
                state, _, _ = sp.step_latent(ds.values, index, params, state,
                                             rng)
                params, state, _ = sp.step_margins(ds.values, index, params,
                                                   state, priors, rng)
                pi = sp.step_proportions(state.z, g, rng)
                params = mx.MixtureParams(pi, params.components,
                                          params.family)
                params = sp.step_correlation(params, state, rng)
                self.check_state(ds.values, params, state)
        assert time.perf_counter() - start < 120.0

    @staticmethod
    def check_state(values, params, state):
        g = params.g
        c = params.n_continuous
        assert np.all(params.proportions > 0)
        assert params.proportions.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all((state.z >= 0) & (state.z < g))
        for k, comp in enumerate(params.components):
            corr = comp.correlation
            np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-9)
            np.testing.assert_allclose(corr, corr.T, atol=1e-12)
            assert np.linalg.eigvalsh(corr)[0] > -1e-10
            if params.family == mx.INDEPENDENT:
                np.testing.assert_array_equal(corr, np.eye(params.dim))
            if params.family == mx.HOMOSCEDASTIC:
                assert corr is params.components[0].correlation
            rows = state.z == k
            if not rows.any():
                continue
            y_c, _, lo, hi, _, _ = mx.latent_geometry(
                values[rows], mx.discrete_index(values[rows], c), comp)
            if c:
                np.testing.assert_array_equal(state.y[rows][:, :c], y_c)
            if params.family == mx.INDEPENDENT:
                # nothing reads the discrete latent coordinates there
                assert np.all(np.isnan(state.y[rows, c:]))
                continue
            for j in range(c, params.dim):
                assert np.all((state.y[rows, j] > lo[:, j - c])
                              & (state.y[rows, j] <= hi[:, j - c]))

    def test_fit_reproducible(self):
        rng = np.random.default_rng(801)
        ds, _, _ = mx.generate(100, ev.example1_params(), rng)
        cfg = sp.ChainConfig(g=2, iterations=30, burn_in=10, n_chains=2,
                             seed=5)
        r1 = sp.fit(ds, cfg)
        r2 = sp.fit(ds, cfg)
        assert mx.params_to_json(r1.params) == mx.params_to_json(r2.params)


class TestVisualizationGuarantees:
    def test_suite(self):
        rng = np.random.default_rng(900)
        start = time.perf_counter()
        # spectral identities on random correlation matrices
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            corr = random_correlation_matrix(dim, rng)
            pca = viz.component_pca(corr)
            recon = pca.axes @ np.diag(pca.eigenvalues) @ pca.axes.T
            np.testing.assert_allclose(recon, corr, atol=1e-10)
            assert pca.eigenvalues.sum() == pytest.approx(dim)
            load = viz.correlation_circle(pca)
            assert np.all(np.linalg.norm(load, axis=1) <= 1.0 + 1e-10)
        # projections on a fitted-truth mixture stay finite and labelled
        params = ev.example1_params()
        ds, z, _ = mx.generate(200, params, rng)
        proj = viz.project(ds, params, 0)
        assert np.all(np.isfinite(proj["scores"]))
        agree = max(np.mean(proj["labels"] == z),
                    np.mean(proj["labels"] != z))
        assert agree > 0.95
        # score variance along each axis close to its eigenvalue for a
        # mostly-continuous component
        corr = np.array([[1.0, 0.7, 0.3], [0.7, 1.0, 0.2], [0.3, 0.2, 1.0]])
        comp = mx.ComponentParams(corr, (mg.GaussianMargin(0.0, 1.0),
                                         mg.GaussianMargin(1.0, 2.0),
                                         mg.GaussianMargin(-1.0, 0.5)))
        single = mx.MixtureParams(np.array([1.0]), (comp,))
        ds1, _, _ = mx.generate(4000, single, rng)
        proj1 = viz.project(ds1, single, 0)
        pca1 = proj1["pca"]
        var = proj1["scores"].var(axis=0)
        np.testing.assert_allclose(var, pca1.eigenvalues[:2], rtol=0.1)
        # CSV exports parse back to the same numbers
        lines = viz.scores_csv(proj).strip().split("\n")
        assert len(lines) == 201
        row0 = lines[1].split(",")
        assert float(row0[4]) == proj["scores"][0, 0]
        assert time.perf_counter() - start < 60.0
