import json

import numpy as np
import pytest
from scipy import stats

from conftest import component_logpdf, random_correlation_matrix

from copulamix import margins as mg, model as mx


def example_components():
    corr1 = np.array([[1.0, -0.4, 0.4], [-0.4, 1.0, 0.4], [0.4, 0.4, 1.0]])
    corr2 = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.1], [0.1, 0.1, 1.0]])
    comp1 = mx.ComponentParams(corr1, (mg.GaussianMargin(-2.0, 1.0),
                                       mg.PoissonMargin(5.0),
                                       mg.OrdinalMargin([0.5, 0.5])))
    comp2 = mx.ComponentParams(corr2, (mg.GaussianMargin(2.0, 1.0),
                                       mg.PoissonMargin(15.0),
                                       mg.OrdinalMargin([0.5, 0.5])))
    return comp1, comp2


def example_mixture():
    return mx.MixtureParams(np.array([0.5, 0.5]), example_components())


def random_component(rng, c, d):
    e = c + d
    corr = random_correlation_matrix(e, rng) if e > 1 else np.eye(1)
    margins = [mg.GaussianMargin(rng.normal(), 0.3 + rng.exponential())
               for _ in range(c)]
    for _ in range(d):
        if rng.random() < 0.5:
            margins.append(mg.PoissonMargin(0.5 + rng.exponential(3)))
        else:
            levels = int(rng.integers(2, 5))
            margins.append(mg.OrdinalMargin(rng.dirichlet(np.ones(levels))))
    return mx.ComponentParams(corr, tuple(margins))


class TestParamsValidation:
    def test_margins_must_be_continuous_first(self):
        with pytest.raises(ValueError, match="continuous-first"):
            mx.ComponentParams(np.eye(2), (mg.PoissonMargin(1.0),
                                           mg.GaussianMargin(0, 1)))

    def test_correlation_shape(self):
        with pytest.raises(ValueError):
            mx.ComponentParams(np.eye(3), (mg.GaussianMargin(0, 1),))

    def test_proportions_on_simplex(self):
        comp1, comp2 = example_components()
        with pytest.raises(ValueError):
            mx.MixtureParams(np.array([0.5, 0.6]), (comp1, comp2))
        with pytest.raises(ValueError):
            mx.MixtureParams(np.array([1.0, 0.0]), (comp1, comp2))

    def test_independent_family_requires_identity(self):
        comp1, comp2 = example_components()
        with pytest.raises(ValueError, match="identity"):
            mx.MixtureParams(np.array([0.5, 0.5]), (comp1, comp2),
                             mx.INDEPENDENT)

    def test_homoscedastic_shares_storage(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        margins = (mg.GaussianMargin(0, 1), mg.PoissonMargin(2.0))
        comp1 = mx.ComponentParams(corr, margins)
        comp2 = mx.ComponentParams(corr.copy(), margins)
        params = mx.MixtureParams(np.array([0.4, 0.6]), (comp1, comp2),
                                  mx.HOMOSCEDASTIC)
        assert params.components[0].correlation is \
            params.components[1].correlation

    def test_homoscedastic_rejects_unequal(self):
        margins = (mg.GaussianMargin(0, 1), mg.PoissonMargin(2.0))
        comp1 = mx.ComponentParams(np.array([[1.0, 0.3], [0.3, 1.0]]), margins)
        comp2 = mx.ComponentParams(np.array([[1.0, 0.5], [0.5, 1.0]]), margins)
        with pytest.raises(ValueError, match="equal"):
            mx.MixtureParams(np.array([0.4, 0.6]), (comp1, comp2),
                             mx.HOMOSCEDASTIC)

    def test_components_disagreeing_on_families(self):
        comp1 = mx.ComponentParams(np.eye(1), (mg.PoissonMargin(2.0),))
        comp2 = mx.ComponentParams(np.eye(1), (mg.OrdinalMargin([0.5, 0.5]),))
        with pytest.raises(ValueError, match="disagree"):
            mx.MixtureParams(np.array([0.5, 0.5]), (comp1, comp2))


def standardized(x_c, comp):
    """The continuous latent block ``latent_geometry`` gives one row."""
    values = np.array([list(x_c) + [1.0] * comp.n_discrete])
    return mx.latent_geometry(values, mx.discrete_index(
        values, comp.n_continuous), comp)[0][0]


class TestStandardize:
    def test_at_mean_is_zero(self):
        comp1, _ = example_components()
        np.testing.assert_array_equal(standardized([-2.0], comp1), [0.0])

    def test_example_value(self):
        _, comp2 = example_components()
        assert standardized([3.0], comp2)[0] == 1.0

    def test_scale(self):
        comp = mx.ComponentParams(np.eye(1), (mg.GaussianMargin(0.0, 2.0),))
        assert standardized([-4.0], comp)[0] == -2.0


class TestComponentLogpdf:
    def test_independence_factorization(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = int(rng.integers(0, 3))
            d = int(rng.integers(1 if c == 0 else 0, 3))
            comp = random_component(rng, c, d)
            comp_ind = mx.ComponentParams(np.eye(comp.dim), comp.margins)
            ds, _, _ = mx.generate(
                1, mx.MixtureParams(np.array([1.0]), (comp_ind,)), rng)
            x = ds.values[0]
            expected = sum(mg.logpdf_array(x[j], comp.margins[j])
                           for j in range(comp.dim))
            assert component_logpdf(x, comp_ind) == \
                pytest.approx(expected, abs=1e-10)

    def test_all_continuous_is_mvn(self):
        rng = np.random.default_rng(1)
        corr = random_correlation_matrix(3, rng)
        mus = np.array([0.0, 1.0, -1.0])
        sds = np.array([1.0, 2.0, 0.5])
        comp = mx.ComponentParams(corr, tuple(
            mg.GaussianMargin(m, s) for m, s in zip(mus, sds)))
        cov = corr * np.outer(sds, sds)
        x = np.array([0.3, 2.0, -1.5])
        expected = stats.multivariate_normal(mus, cov).logpdf(x)
        assert component_logpdf(x, comp) == pytest.approx(expected, rel=1e-10)

    def test_density_sums_to_one_small_schema(self):
        # 1 continuous (quadrature grid) x 1 binary: total mass within 1e-4
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        comp = mx.ComponentParams(corr, (mg.GaussianMargin(0.5, 1.2),
                                         mg.OrdinalMargin([0.3, 0.7])))
        xs = np.linspace(0.5 - 9 * 1.2, 0.5 + 9 * 1.2, 2001)
        total = 0.0
        for level in (1.0, 2.0):
            rows = np.column_stack([xs, np.full_like(xs, level)])
            index = mx.discrete_index(rows, 1)
            dens = np.exp(mx.component_logpdf_rows(rows, index, comp))
            total += np.trapezoid(dens, xs)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_flag_floor(self):
        # an ordinal level of vanishing probability drives the box to zero
        comp = mx.ComponentParams(np.eye(1),
                                  (mg.OrdinalMargin([1.0 - 1e-300, 1e-300]),))
        assert component_logpdf([2.0], comp) == \
            mx.LOG_DENSITY_FLOOR


class TestMixture:
    def test_g1_equals_component(self):
        comp1, _ = example_components()
        params = mx.MixtureParams(np.array([1.0]), (comp1,))
        x = np.array([-2.0, 5.0, 1.0])
        assert mx.mixture_logpdf_rows(x, params)[0] == pytest.approx(
            component_logpdf(x, comp1), rel=1e-12)

    def test_identical_components_collapse(self):
        comp1, _ = example_components()
        params = mx.MixtureParams(np.array([0.3, 0.7]), (comp1, comp1))
        x = np.array([-1.0, 4.0, 2.0])
        assert mx.mixture_logpdf_rows(x, params)[0] == pytest.approx(
            component_logpdf(x, comp1), rel=1e-10)

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(5)
        params = example_mixture()
        ds, _, _ = mx.generate(50, params, rng)
        t = mx.posterior_probs_rows(ds.values, params)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_posterior_identical_components_gives_pi(self):
        comp1, _ = example_components()
        params = mx.MixtureParams(np.array([0.3, 0.7]), (comp1, comp1))
        t = mx.posterior_probs_rows(np.array([-1.0, 4.0, 1.0]), params)
        np.testing.assert_allclose(t[0], [0.3, 0.7], atol=1e-10)

    def test_posterior_strong_assignment(self):
        t = mx.posterior_probs_rows(np.array([2.0, 15.0, 1.0]),
                                    example_mixture())
        assert t[0, 1] > 0.99

    def test_scoring_indexes_discrete_columns_once(self, monkeypatch):
        calls = []
        real = mx.discrete_index

        def counting(values, c):
            calls.append(c)
            return real(values, c)

        monkeypatch.setattr(mx, "discrete_index", counting)
        rng = np.random.default_rng(13)
        params = example_mixture()
        ds, _, _ = mx.generate(100, params, rng)
        mx.mixture_logpdf_rows(ds.values, params)
        assert calls == [1]

    def test_row_underflowing_everywhere_is_uniform_at_floor(self):
        # the level of mass 1e-300 underflows the box under both components
        margins = (mg.GaussianMargin(0.0, 1.0),
                   mg.OrdinalMargin([1.0 - 1e-300, 1e-300]))
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        params = mx.MixtureParams(np.array([0.25, 0.75]),
                                  (mx.ComponentParams(np.eye(2), margins),
                                   mx.ComponentParams(corr, margins)))
        rows = np.array([[0.5, 2.0], [0.5, 1.0]])
        t = mx.posterior_probs_rows(rows, params)
        log_density = mx.mixture_logpdf_rows(rows, params)
        np.testing.assert_array_equal(t[0], [0.5, 0.5])
        assert log_density[0] == mx.LOG_DENSITY_FLOOR
        assert log_density[1] > mx.LOG_DENSITY_FLOOR


class TestGenerate:
    def test_continuous_exactness_and_box_membership(self):
        rng = np.random.default_rng(8)
        params = example_mixture()
        ds, z, y = mx.generate(2000, params, rng)
        for k, comp in enumerate(params.components):
            rows = z == k
            np.testing.assert_array_equal(
                ds.values[rows, 0],
                comp.margins[0].mu + comp.margins[0].sigma * y[rows, 0])
            for j in (1, 2):
                lo, hi = mg.latent_bounds_arrays(ds.values[rows, j],
                                                 comp.margins[j])
                assert np.all((y[rows, j] > lo) & (y[rows, j] <= hi))

    def test_margin_moments(self):
        rng = np.random.default_rng(9)
        comp = mx.ComponentParams(np.eye(2), (mg.GaussianMargin(3.0, 2.0),
                                              mg.OrdinalMargin([0.5, 0.5])))
        params = mx.MixtureParams(np.array([1.0]), (comp,))
        ds, _, _ = mx.generate(100_000, params, rng)
        se = 2.0 / np.sqrt(ds.n)
        assert abs(ds.values[:, 0].mean() - 3.0) < 3 * se
        assert abs(ds.values[:, 0].std() - 2.0) < 3 * se
        freq = np.mean(ds.values[:, 1] == 1.0)
        assert abs(freq - 0.5) < 3 * 0.5 / np.sqrt(ds.n)

    def test_kolmogorov_smirnov_per_margin(self):
        rng = np.random.default_rng(10)
        params = example_mixture()
        ds, z, _ = mx.generate(100_000, params, rng)
        rows = z == 0
        stat = stats.kstest(ds.values[rows, 0], "norm",
                            args=(-2.0, 1.0)).statistic
        assert stat < 0.01
        # discrete margin: compare empirical pmf against Poisson(5)
        counts = np.bincount(ds.values[rows, 1].astype(int), minlength=20)
        emp_cdf = np.cumsum(counts) / rows.sum()
        ref_cdf = stats.poisson.cdf(np.arange(counts.size), 5.0)
        assert np.max(np.abs(emp_cdf - ref_cdf)) < 0.01

    def test_latent_correlation_sign(self):
        rng = np.random.default_rng(11)
        params = example_mixture()
        ds, z, y = mx.generate(100_000, params, rng)
        rows = z == 0
        r = np.corrcoef(ds.values[rows, 0], y[rows, 1])[0, 1]
        assert r < -0.3  # first component couples them negatively


class TestSerialization:
    def test_roundtrip_bitwise(self):
        params = example_mixture()
        text = mx.params_to_json(params)
        again = mx.params_from_json(text)
        assert mx.params_to_json(again) == text

    def test_roundtrip_full_precision(self):
        rng = np.random.default_rng(12)
        comp = random_component(rng, 2, 2)
        params = mx.MixtureParams(np.array([1.0]), (comp,))
        again = mx.params_from_json(mx.params_to_json(params))
        np.testing.assert_array_equal(again.components[0].correlation,
                                      comp.correlation)
        assert again.components[0].margins[0].mu == comp.margins[0].mu

    def test_homoscedastic_loads_shared(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        margins = (mg.GaussianMargin(0, 1), mg.PoissonMargin(2.0))
        params = mx.MixtureParams(
            np.array([0.5, 0.5]),
            (mx.ComponentParams(corr, margins),
             mx.ComponentParams(corr, margins)), mx.HOMOSCEDASTIC)
        again = mx.params_from_json(mx.params_to_json(params))
        assert again.components[0].correlation is \
            again.components[1].correlation

    def test_schema_of_names_and_kinds(self):
        schema = mx.schema_of(example_mixture())
        assert [k.tag for k in schema.kinds] == ["continuous", "integer",
                                                 "ordinal"]

    def test_bad_family_rejected(self):
        doc = json.loads(mx.params_to_json(example_mixture()))
        doc["components"][0]["margins"][0]["family"] = "cauchy"
        with pytest.raises(ValueError):
            mx.params_from_json(json.dumps(doc))


class TestComponentAxisReductions:
    """``model._logsumexp`` and ``model._row_sum`` reduce over the
    component axis column by column; their results must be scipy's and
    numpy's, bit for bit."""

    @staticmethod
    def special_rows(g, rng):
        a = rng.normal(scale=30.0, size=(400, g))
        a[rng.random(a.shape) < 0.1] = -np.inf
        a[rng.random(a.shape) < 0.1] = mx.LOG_DENSITY_FLOOR
        a[:4] = -np.inf
        a[4:8] = mx.LOG_DENSITY_FLOOR
        a[8:12] = a[8:12, :1]  # ties for the maximum
        a[12, -1] = np.inf
        a[13, 0] = np.nan
        a[14] = np.inf
        a[15, 0], a[15, -1] = np.inf, -np.inf
        a[16, -1] = np.nan
        return a

    def test_logsumexp_is_scipys(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(60)
        for g in (1, 2, 3, 5, 7, 8, 9):
            a = self.special_rows(g, rng)
            ours = mx._logsumexp(a)
            theirs = logsumexp(a, axis=1)
            np.testing.assert_array_equal(ours, theirs)
            np.testing.assert_array_equal(np.signbit(ours), np.signbit(theirs))

    def test_row_sum_is_numpys(self):
        rng = np.random.default_rng(61)
        for g in (1, 2, 3, 5, 7, 8, 9, 17):
            a = rng.random((300, g)) * 10.0 ** rng.uniform(-8, 8, (300, g))
            np.testing.assert_array_equal(mx._row_sum(a), a.sum(axis=1))
