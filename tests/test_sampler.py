import numpy as np
import pytest
from scipy import stats

from copulamix import gauss, margins as mg, model as mx, sampler as sp
from copulamix.schema import MixedDataset, Schema, continuous, integer, ordinal


def example_mixture():
    corr1 = np.array([[1.0, -0.4, 0.4], [-0.4, 1.0, 0.4], [0.4, 0.4, 1.0]])
    corr2 = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.1], [0.1, 0.1, 1.0]])
    comp1 = mx.ComponentParams(corr1, (mg.GaussianMargin(-2.0, 1.0),
                                       mg.PoissonMargin(5.0),
                                       mg.OrdinalMargin([0.5, 0.5])))
    comp2 = mx.ComponentParams(corr2, (mg.GaussianMargin(2.0, 1.0),
                                       mg.PoissonMargin(15.0),
                                       mg.OrdinalMargin([0.5, 0.5])))
    return mx.MixtureParams(np.array([0.5, 0.5]), (comp1, comp2))


def state_invariants_hold(values, params, state):
    c = params.n_continuous
    for k, comp in enumerate(params.components):
        rows = state.z == k
        if not rows.any():
            continue
        expected = mx.standardize_continuous(values[rows, :c], comp)
        if c and not np.array_equal(state.y[rows][:, :c], expected):
            return False
        for j in range(c, params.dim):
            lo, hi = mg.latent_bounds_arrays(values[rows, j], comp.margins[j])
            if not np.all((state.y[rows, j] > lo) & (state.y[rows, j] <= hi)):
                return False
    return True


class TestChainConfig:
    def test_defaults(self):
        cfg = sp.ChainConfig(g=2)
        assert cfg.iterations == 1000
        assert cfg.burn_in == 100
        assert cfg.n_chains == 10
        assert cfg.mh_latent_threshold == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            sp.ChainConfig(g=0)
        with pytest.raises(ValueError):
            sp.ChainConfig(g=1, iterations=0)
        with pytest.raises(ValueError):
            sp.ChainConfig(g=1, family="spherical")


class TestInitLocalIndependent:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 1.5, size=(800, 1))
        ds = MixedDataset(Schema((("a", continuous()),)), x)
        params = sp.init_local_independent(ds, 1, rng)
        m = params.components[0].margins[0]
        assert m.mu == pytest.approx(x.mean(), abs=1e-8)
        assert m.sigma == pytest.approx(x.std(), abs=1e-8)

    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(-10, 1, 250),
                            rng.normal(10, 1, 250)])[:, None]
        ds = MixedDataset(Schema((("a", continuous()),)), x)
        params = sp.init_local_independent(ds, 2, rng)
        mus = sorted(c.margins[0].mu for c in params.components)
        assert abs(mus[0] + 10) < 0.2 and abs(mus[1] - 10) < 0.2

    def test_returns_identity_correlations(self):
        rng = np.random.default_rng(2)
        ds, _, _ = mx.generate(200, example_mixture(), rng)
        params = sp.init_local_independent(ds, 2, rng)
        assert params.family == mx.INDEPENDENT
        for comp in params.components:
            np.testing.assert_array_equal(comp.correlation, np.eye(3))

    def test_em_loglik_monotone(self):
        # run EM manually via the module internals and check monotonicity
        rng = np.random.default_rng(3)
        ds, _, _ = mx.generate(300, example_mixture(), rng)
        values = ds.values
        kinds = ds.schema.kinds
        resp = rng.dirichlet(np.ones(2), size=ds.n)
        from scipy.special import logsumexp
        logliks = []
        for _ in range(40):
            pi = resp.mean(axis=0)
            comps = [[sp._weighted_margin_mle(values[:, j], kinds[j],
                                              resp[:, k])
                      for j in range(3)] for k in range(2)]
            logs = sp._independent_loglik_matrix(values, comps, np.log(pi))
            logliks.append(float(logsumexp(logs, axis=1).sum()))
            resp = np.exp(logs - logsumexp(logs, axis=1, keepdims=True))
        diffs = np.diff(logliks)
        assert np.all(diffs > -1e-8)

    def test_unidentifiable_schema_rejected(self):
        rng = np.random.default_rng(4)
        schema = Schema((("a", ordinal(2)), ("b", ordinal(2))))
        ds = MixedDataset(schema, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(sp.DegenerateFitError, match="identifiable"):
            sp.init_local_independent(ds, 1, rng)


class TestStepLatent:
    def test_g1_labels_constant_continuous_exact(self):
        rng = np.random.default_rng(5)
        params = example_mixture()
        comp = params.components[0]
        single = mx.MixtureParams(np.array([1.0]), (comp,))
        ds, _, _ = mx.generate(200, single, rng)
        state = sp.initial_latent_state(ds.values, single, rng)
        state, _, _ = sp.step_latent(ds.values, single, state, rng)
        assert np.all(state.z == 0)
        np.testing.assert_array_equal(
            state.y[:, 0],
            mx.standardize_continuous(ds.values[:, :1], comp)[:, 0])

    def test_identical_components_label_frequencies(self):
        rng = np.random.default_rng(6)
        comp = example_mixture().components[0]
        params = mx.MixtureParams(np.array([0.3, 0.7]), (comp, comp))
        ds, _, _ = mx.generate(10_000, params, rng)
        state = sp.initial_latent_state(ds.values, params, rng)
        state, _, _ = sp.step_latent(ds.values, params, state, rng)
        freq = np.mean(state.z == 1)
        assert freq == pytest.approx(0.7, abs=3 * 0.46 / 100)

    def test_invariants_after_exact_step(self):
        rng = np.random.default_rng(7)
        params = example_mixture()
        ds, _, _ = mx.generate(300, params, rng)
        state = sp.initial_latent_state(ds.values, params, rng)
        state, accepted, proposed = sp.step_latent(ds.values, params, state,
                                                   rng)
        assert proposed == 0
        assert state_invariants_hold(ds.values, params, state)

    def test_warm_step_keeps_state_valid(self):
        rng = np.random.default_rng(30)
        params = example_mixture()
        ds, _, _ = mx.generate(300, params, rng)
        values = ds.values
        state = sp.initial_latent_state(values, params, rng)
        new, _, _ = sp.step_latent(values, params, state, rng)
        kept = new.z == state.z
        assert kept.any()
        assert np.all(new.y[kept, 1:] != state.y[kept, 1:])
        assert state_invariants_hold(values, params, new)
        for k, comp in enumerate(params.components):
            rows = new.z == k
            lo, hi = mx.latent_boxes(values[rows, 1:], comp)
            assert np.all((new.y[rows, 1:] > lo) & (new.y[rows, 1:] < hi))

    def test_step_from_coordinates_outside_their_box(self):
        rng = np.random.default_rng(31)
        params = example_mixture()
        ds, _, _ = mx.generate(300, params, rng)
        state = sp.initial_latent_state(ds.values, params, rng)
        far = mx.LatentState(np.full_like(state.y, 40.0), state.z)
        new, _, _ = sp.step_latent(ds.values, params, far, rng)
        assert state_invariants_hold(ds.values, params, new)

    def test_mh_path_used_beyond_threshold(self):
        rng = np.random.default_rng(8)
        params = example_mixture()
        ds, _, _ = mx.generate(300, params, rng)
        state = sp.initial_latent_state(ds.values, params, rng)
        state, accepted, proposed = sp.step_latent(ds.values, params, state,
                                                   rng, mh_threshold=1)
        assert proposed == 300
        assert 0 < accepted <= 300
        assert state_invariants_hold(ds.values, params, state)

    def test_mh_path_preserves_posterior_frequencies(self):
        # with many repeated MH steps the label distribution approaches the
        # exact-path multinomial probabilities
        rng = np.random.default_rng(9)
        params = example_mixture()
        ds, _, _ = mx.generate(400, params, rng)
        t, _ = mx.posterior_probs_rows(ds.values, params, rng=rng)
        state = sp.initial_latent_state(ds.values, params, rng)
        hits = np.zeros(ds.n)
        n_rounds = 60
        for _ in range(n_rounds):
            state, _, _ = sp.step_latent(ds.values, params, state, rng,
                                         mh_threshold=1)
            hits += (state.z == 1)
        # average over rows: empirical rate of label 2 vs posterior mass
        assert np.mean(hits / n_rounds) == pytest.approx(
            np.mean(t[:, 1]), abs=0.05)


def _mixed_latent_case():
    # c = 1, d = 2; component 2 has conditional discrete correlation 0.85
    comp1 = mx.ComponentParams(
        np.array([[1.0, 0.2, 0.2], [0.2, 1.0, 0.0], [0.2, 0.0, 1.0]]),
        (mg.GaussianMargin(-1.0, 1.0), mg.OrdinalMargin([0.7, 0.3]),
         mg.OrdinalMargin([0.7, 0.3])))
    comp2 = mx.ComponentParams(
        np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.85], [0.1, 0.85, 1.0]]),
        (mg.GaussianMargin(1.0, 1.0), mg.OrdinalMargin([0.3, 0.7]),
         mg.OrdinalMargin([0.3, 0.7])))
    params = mx.MixtureParams(np.array([0.5, 0.5]), (comp1, comp2))
    rows = np.array([[-0.8, 2, 2], [0.0, 2, 1], [0.3, 1, 2], [0.3, 1, 1]])
    return params, rows


def _discrete_latent_case():
    # c = 0, d = 2; component 1 has latent correlation 0.8
    comp1 = mx.ComponentParams(np.array([[1.0, 0.8], [0.8, 1.0]]),
                               (mg.PoissonMargin(1.0), mg.PoissonMargin(1.5)))
    comp2 = mx.ComponentParams(np.array([[1.0, -0.3], [-0.3, 1.0]]),
                               (mg.PoissonMargin(3.0), mg.PoissonMargin(2.5)))
    params = mx.MixtureParams(np.array([0.4, 0.6]), (comp1, comp2))
    rows = np.array([[0, 2], [1, 3], [2, 2], [3, 3]], dtype=float)
    return params, rows


def _exact_latent_draws(x, comp, size, rng):
    """Independent draws of the discrete latent block given one row and one
    component: the conditional normal, kept when it falls in the box."""
    c = comp.n_continuous
    corr = comp.correlation
    bounds = [mg.latent_bounds_arrays(x[c + j: c + j + 1], m)
              for j, m in enumerate(comp.margins[c:])]
    lo = np.array([b[0][0] for b in bounds])
    hi = np.array([b[1][0] for b in bounds])
    y_c = np.array([(x[j] - m.mu) / m.sigma
                    for j, m in enumerate(comp.margins[:c])])
    coef = np.linalg.solve(corr[:c, :c], corr[:c, c:]) if c else None
    mean = y_c @ coef if c else np.zeros(lo.size)
    cov = corr[c:, c:] - corr[c:, :c] @ coef if c else corr
    chol = np.linalg.cholesky(cov)
    kept = []
    while sum(len(k) for k in kept) < size:
        cand = mean + rng.standard_normal((20_000, lo.size)) @ chol.T
        kept.append(cand[np.all((cand > lo) & (cand < hi), axis=1)])
    return np.concatenate(kept)[:size]


class TestLatentStepLaw:
    """Distribution-level check of the exact latent step (after Geweke 2004,
    "Getting it right").  With the parameters fixed, the stationary law of
    (z, y) under repeated ``step_latent`` must be p(z | x) times the
    box-truncated conditional normal of y given z.  Each chosen row is
    copied into many independent chains; thinned draws of those chains are
    compared with exact draws: a binomial test on the label and a two-sample
    KS test per discrete coordinate and label.  A kernel that warm-starts
    relabelled rows from the old component's coordinates fails this test."""

    replicas, burn_in, kept, thin = 250, 10, 8, 5
    min_p = 1e-4

    @pytest.mark.parametrize("case", [_mixed_latent_case,
                                      _discrete_latent_case])
    def test_chain_matches_exact_draws(self, case):
        params, rows = case()
        t, _ = mx.posterior_probs_rows(rows, params)
        assert np.all((t > 0.2) & (t < 0.8))
        m, c = rows.shape[0], params.n_continuous
        values = np.repeat(rows, self.replicas, axis=0)
        rng = np.random.default_rng(2004)
        state = sp.initial_latent_state(values, params, rng)
        zs, ys = [], []
        for it in range(self.burn_in + self.kept * self.thin):
            state, _, _ = sp.step_latent(values, params, state, rng)
            if it >= self.burn_in and (it - self.burn_in) % self.thin == 0:
                zs.append(state.z.reshape(m, self.replicas))
                ys.append(state.y.reshape(m, self.replicas, -1))
        z = np.concatenate(zs, axis=1)
        y = np.concatenate(ys, axis=1)

        ref_rng = np.random.default_rng(799)
        for i in range(m):
            p_label = stats.binomtest(int(np.sum(z[i] == 1)), z.shape[1],
                                      t[i, 1]).pvalue
            assert p_label > self.min_p, (i, p_label)
            for k, comp in enumerate(params.components):
                chain = y[i][z[i] == k]
                y_c = mx.standardize_continuous(rows[i:i + 1, :c], comp)
                np.testing.assert_array_equal(
                    chain[:, :c], np.broadcast_to(y_c, (len(chain), c)))
                exact = _exact_latent_draws(rows[i], comp, 4000, ref_rng)
                for j in range(exact.shape[1]):
                    p = stats.ks_2samp(chain[:, c + j], exact[:, j]).pvalue
                    assert p > self.min_p, (i, k, j, p)


class TestStepMargins:
    def make_fit_inputs(self, rng, family=mx.HETEROSCEDASTIC):
        params = example_mixture()
        if family == mx.INDEPENDENT:
            comps = tuple(mx.ComponentParams(np.eye(3), c.margins)
                          for c in params.components)
            params = mx.MixtureParams(params.proportions, comps, family)
        ds, _, _ = mx.generate(400, params, rng)
        priors = [mg.default_prior(ds.values[:, j], kind)
                  for j, kind in enumerate(ds.schema.kinds)]
        state = sp.initial_latent_state(ds.values, params, rng)
        return ds, params, priors, state

    def test_independent_family_always_accepts(self):
        rng = np.random.default_rng(10)
        ds, params, priors, state = self.make_fit_inputs(rng, mx.INDEPENDENT)
        total = np.zeros((2, 3))
        for _ in range(50):
            params, state, took = sp.step_margins(ds.values, params, state,
                                                  priors, rng)
            total += took
        np.testing.assert_array_equal(total, 50.0)

    def test_invariants_after_step(self):
        rng = np.random.default_rng(11)
        ds, params, priors, state = self.make_fit_inputs(rng)
        params, state, _ = sp.step_margins(ds.values, params, state, priors,
                                           rng)
        assert state_invariants_hold(ds.values, params, state)

    def test_empty_component_still_updates(self):
        rng = np.random.default_rng(12)
        ds, params, priors, state = self.make_fit_inputs(rng)
        # force every row into component 0; component 1 margins come from
        # the prior-driven proposal and remain valid
        state = mx.LatentState(state.y, np.zeros(ds.n, dtype=int))
        state, _, _ = sp.step_latent(ds.values, params,
                                     state, rng)
        state = mx.LatentState(state.y, np.zeros(ds.n, dtype=int))
        params, state, took = sp.step_margins(ds.values, params, state,
                                              priors, rng)
        comp = params.components[1]
        assert comp.margins[0].sigma > 0
        assert comp.margins[1].rate > 0

    def test_binary_conjugate_posterior_mean(self):
        # single binary column, identity correlation, all observations at
        # level 1: the stationary law of p1 is Beta(n + 1/2, 1/2)
        rng = np.random.default_rng(13)
        n = 40
        schema = Schema((("a", continuous()), ("b", ordinal(2))))
        values = np.column_stack([rng.normal(size=n), np.ones(n)])
        ds = MixedDataset(schema, values)
        priors = [mg.default_prior(values[:, 0], continuous()),
                  mg.OrdinalDirichletPrior(levels=2)]
        comps = (mx.ComponentParams(np.eye(2), (mg.GaussianMargin(0, 1),
                                                mg.OrdinalMargin([0.5, 0.5]))),)
        params = mx.MixtureParams(np.array([1.0]), comps, mx.INDEPENDENT)
        state = sp.initial_latent_state(values, params, rng)
        draws = []
        for _ in range(3000):
            params, state, _ = sp.step_margins(values, params, state, priors,
                                               rng)
            draws.append(params.components[0].margins[1].probs[0])
        draws = np.array(draws[200:])
        expected = (n + 0.5) / (n + 1.0)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - expected) < 5 * se


class TestStepProportions:
    def test_dirichlet_mean(self):
        rng = np.random.default_rng(14)
        z = np.array([0, 0, 0, 1])
        draws = np.array([sp.step_proportions(z, 2, rng)
                          for _ in range(100_000)])
        np.testing.assert_allclose(draws.mean(0), [0.7, 0.3], atol=0.005)

    def test_g1(self):
        rng = np.random.default_rng(15)
        np.testing.assert_allclose(sp.step_proportions(np.zeros(5, int), 1,
                                                       rng), [1.0])

    def test_empty_component_valid_simplex(self):
        rng = np.random.default_rng(16)
        z = np.zeros(10, dtype=int)
        for _ in range(100):
            pi = sp.step_proportions(z, 2, rng)
            assert np.all(pi > 0) and pi.sum() == pytest.approx(1.0)


class TestStepCorrelation:
    def make_state(self, rng, params, n=500):
        ds, _, _ = mx.generate(n, params, rng)
        return ds, sp.initial_latent_state(ds.values, params, rng)

    def test_independent_noop(self):
        rng = np.random.default_rng(17)
        comps = tuple(mx.ComponentParams(np.eye(3), c.margins)
                      for c in example_mixture().components)
        params = mx.MixtureParams(np.array([0.5, 0.5]), comps, mx.INDEPENDENT)
        _, state = self.make_state(rng, params)
        out = sp.step_correlation(params, state, rng)
        assert out is params

    def test_homoscedastic_shares_object(self):
        rng = np.random.default_rng(18)
        corr = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        comps = tuple(mx.ComponentParams(corr, c.margins)
                      for c in example_mixture().components)
        params = mx.MixtureParams(np.array([0.5, 0.5]), comps,
                                  mx.HOMOSCEDASTIC)
        _, state = self.make_state(rng, params)
        out = sp.step_correlation(params, state, rng)
        assert out.components[0].correlation is out.components[1].correlation
        assert gauss.is_correlation_matrix(out.components[0].correlation)

    def test_posterior_concentration(self):
        rng = np.random.default_rng(19)
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        y = rng.multivariate_normal(np.zeros(2), corr, size=10_000)
        comps = (mx.ComponentParams(np.eye(2), (mg.GaussianMargin(0, 1),
                                                mg.GaussianMargin(0, 1))),)
        params = mx.MixtureParams(np.array([1.0]), comps)
        state = mx.LatentState(y, np.zeros(10_000, dtype=int))
        out = sp.step_correlation(params, state, rng)
        assert out.components[0].correlation[0, 1] == pytest.approx(0.5,
                                                                    abs=0.05)


class TestFit:
    def test_g1_continuous_recovers_mle(self):
        rng = np.random.default_rng(20)
        x = rng.multivariate_normal([1.0, -2.0],
                                    [[2.0, 0.6], [0.6, 1.0]], size=1000)
        ds = MixedDataset(Schema((("a", continuous()), ("b", continuous()))),
                          x)
        cfg = sp.ChainConfig(g=1, iterations=300, burn_in=50, n_chains=1,
                             seed=1)
        res = sp.fit(ds, cfg)
        for j in range(2):
            m = res.params.components[0].margins[j]
            mle_mu = x[:, j].mean()
            mle_sd = x[:, j].std()
            post_sd = mle_sd / np.sqrt(ds.n)
            assert abs(m.mu - mle_mu) < 3 * post_sd
            assert abs(m.sigma - mle_sd) < 3 * mle_sd / np.sqrt(2 * ds.n)

    def test_reproducible_bitwise(self):
        rng = np.random.default_rng(21)
        ds, _, _ = mx.generate(120, example_mixture(), rng)
        cfg = sp.ChainConfig(g=2, iterations=40, burn_in=10, n_chains=2,
                             seed=9)
        r1 = sp.fit(ds, cfg)
        r2 = sp.fit(ds, cfg)
        assert mx.params_to_json(r1.params) == mx.params_to_json(r2.params)
        np.testing.assert_array_equal(r1.labels, r2.labels)
        assert r1.loglik == r2.loglik

    def test_stationarity_from_truth(self):
        rng = np.random.default_rng(22)
        truth = example_mixture()
        ds, _, _ = mx.generate(800, truth, rng)
        cfg = sp.ChainConfig(g=2, iterations=250, burn_in=50, n_chains=1,
                             seed=3)
        res = sp.fit(ds, cfg, init=truth)
        mus = sorted(c.margins[0].mu for c in res.params.components)
        assert abs(mus[0] - (-2.0)) < 0.15
        assert abs(mus[1] - 2.0) < 0.15

    def test_estimate_is_valid_mixture(self):
        rng = np.random.default_rng(23)
        ds, _, _ = mx.generate(150, example_mixture(), rng)
        cfg = sp.ChainConfig(g=2, family=mx.HOMOSCEDASTIC, iterations=60,
                             burn_in=15, n_chains=1, seed=4)
        res = sp.fit(ds, cfg)
        assert res.params.family == mx.HOMOSCEDASTIC
        assert res.params.components[0].correlation is \
            res.params.components[1].correlation
        assert res.params.proportions.sum() == pytest.approx(1.0)
        assert res.posterior.shape == (150, 2)
        assert res.accept_margins.shape == (2, 3)

    def test_estimate_scored_once_matches_row_functions(self):
        rng = np.random.default_rng(25)
        ds, _, _ = mx.generate(150, example_mixture(), rng)
        cfg = sp.ChainConfig(g=2, iterations=8, burn_in=2, n_chains=1)
        res = sp.run_chain(ds, cfg, np.random.default_rng(26))
        assert res.loglik == float(
            mx.mixture_logpdf_rows(ds.values, res.params).sum())
        posterior, _ = mx.posterior_probs_rows(ds.values, res.params)
        np.testing.assert_array_equal(res.posterior, posterior)
        np.testing.assert_array_equal(res.labels, np.argmax(posterior, axis=1))

    def test_chain_persistence_roundtrip(self, tmp_path):
        rng = np.random.default_rng(24)
        ds, _, _ = mx.generate(100, example_mixture(), rng)
        cfg = sp.ChainConfig(g=2, iterations=30, burn_in=10, n_chains=1,
                             seed=5, keep_draws=True, thin=2)
        res = sp.fit(ds, cfg)
        path = tmp_path / "chain.ndjson"
        sp.save_chain(path, res, cfg)
        draws, manifest = sp.load_chain(path)
        assert len(draws) == len(res.draws) == 15
        assert manifest["g"] == 2
        assert manifest["loglik"] == res.loglik
        np.testing.assert_allclose(draws[0]["pi"], res.draws[0]["pi"])
