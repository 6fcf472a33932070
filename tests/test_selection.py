import warnings
from dataclasses import replace

import numpy as np
import pytest

from copulamix import margins as mg, model as mx, sampler as sp, selection as sel
from copulamix.schema import MixedDataset, Schema, continuous, integer, ordinal, parse_schema_text


HEART_SCHEMA = Schema.from_pairs(parse_schema_text("""
sbp = continuous
tobacco = continuous
ldl = continuous
adiposity = continuous
famhist = ordinal:2
typea = integer
obesity = continuous
alcohol = continuous
age = integer
""").items())


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


class TestParamCount:
    def test_nine_variable_mixed_schema(self):
        # 6 continuous (2 each) + 2 integer (1 each) + 1 binary (1): 15 per
        # component; 36 pairwise correlation terms
        assert sel.param_count(HEART_SCHEMA, 3, mx.INDEPENDENT) == 47
        assert sel.param_count(HEART_SCHEMA, 3, mx.HOMOSCEDASTIC) == 83
        assert sel.param_count(HEART_SCHEMA, 3, mx.HETEROSCEDASTIC) == 155

    def test_small_schema(self):
        schema = Schema((("a", continuous()), ("b", integer()),
                         ("c", ordinal(2))))
        assert sel.param_count(schema, 2, mx.INDEPENDENT) == 9
        assert sel.param_count(schema, 2, mx.HOMOSCEDASTIC) == 12
        assert sel.param_count(schema, 2, mx.HETEROSCEDASTIC) == 15

    def test_monotone_in_g(self):
        rng = np.random.default_rng(0)
        kinds = [continuous(), integer(), ordinal(2), ordinal(5)]
        for _ in range(50):
            e = rng.integers(1, 7)
            schema = Schema.from_pairs(
                (f"v{j}", kinds[rng.integers(len(kinds))]) for j in range(e))
            for family in (mx.INDEPENDENT, mx.HOMOSCEDASTIC,
                           mx.HETEROSCEDASTIC):
                counts = [sel.param_count(schema, g, family)
                          for g in range(1, 5)]
                assert np.all(np.diff(counts) > 0)

    def test_family_ordering(self):
        rng = np.random.default_rng(1)
        kinds = [continuous(), integer(), ordinal(3)]
        for _ in range(50):
            e = rng.integers(2, 7)
            schema = Schema.from_pairs(
                (f"v{j}", kinds[rng.integers(len(kinds))]) for j in range(e))
            g = int(rng.integers(1, 5))
            loc = sel.param_count(schema, g, mx.INDEPENDENT)
            homo = sel.param_count(schema, g, mx.HOMOSCEDASTIC)
            het = sel.param_count(schema, g, mx.HETEROSCEDASTIC)
            assert loc < homo <= het
            if g > 1:
                assert homo < het

    def test_invalid_inputs(self):
        schema = Schema((("a", continuous()),))
        with pytest.raises(ValueError):
            sel.param_count(schema, 0, mx.INDEPENDENT)
        with pytest.raises(ValueError):
            sel.param_count(schema, 1, "diagonal")


class TestCriteria:
    def test_bic_formula(self):
        # -100 - 0.5 * 5 * ln(100)
        assert sel.bic(-100.0, 5, 100) == pytest.approx(
            -100.0 - 2.5 * np.log(100.0))
        assert sel.bic(-100.0, 5, 100) == pytest.approx(-111.51292546497023)

    def test_bic_needs_positive_n(self):
        with pytest.raises(ValueError):
            sel.bic(0.0, 1, 0)

    def test_entropy_zero_for_hard_partition(self):
        t = np.eye(3)[np.array([0, 1, 2, 0, 1])]
        assert sel.entropy_term(t) == 0.0
        assert sel.icl(-50.0, t) == -50.0

    def test_entropy_uniform(self):
        t = np.full((10, 2), 0.5)
        assert sel.entropy_term(t) == pytest.approx(-10 * np.log(2.0))
        assert sel.entropy_term(t) == pytest.approx(-6.931471805599453)

    def test_icl_never_exceeds_bic(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = rng.dirichlet(np.ones(3), size=50)
            assert sel.icl(0.0, t) <= 0.0

    def test_observed_loglik_additive(self):
        rng = np.random.default_rng(3)
        params = example_mixture()
        ds, _, _ = mx.generate(60, params, rng)
        double = MixedDataset(ds.schema,
                              np.concatenate([ds.values, ds.values]))
        one = mx.mixture_logpdf_rows(ds.values, params).sum()
        two = mx.mixture_logpdf_rows(double.values, params).sum()
        assert two == pytest.approx(2 * one, rel=1e-6)


class TestSweep:
    @pytest.fixture(scope="class")
    @staticmethod
    def dataset():
        rng = np.random.default_rng(4)
        ds, _, _ = mx.generate(200, example_mixture(), rng)
        return ds

    @pytest.fixture(scope="class")
    @staticmethod
    def report(dataset):
        cfg = sp.ChainConfig(g=1, iterations=60, burn_in=20, n_chains=2,
                             seed=0)
        return sel.sweep(dataset, [1, 2], [mx.INDEPENDENT, mx.HETEROSCEDASTIC],
                         cfg)

    def test_grid_complete(self, report):
        assert len(report.cells) == 4
        assert [(cell.family, cell.g) for cell in report.cells] == [
            (family, g) for family in (mx.INDEPENDENT, mx.HETEROSCEDASTIC)
            for g in (1, 2)]

    def test_cells_internally_consistent(self, report, dataset):
        for cell in report.cells:
            if not cell.available:
                continue
            assert cell.bic == pytest.approx(
                sel.bic(cell.loglik, cell.nu, dataset.n))
            assert cell.icl == pytest.approx(cell.bic + cell.entropy)
            assert cell.icl <= cell.bic + 1e-12

    def test_two_components_win(self, report):
        assert report.best("bic").g == 2
        assert report.best("icl").g == 2

    def test_degenerate_cell_is_na(self, dataset):
        # forcing far more components than the data supports at tiny n
        small = MixedDataset(dataset.schema, dataset.values[:12])
        with pytest.warns(RuntimeWarning):
            report = sel.sweep(small, [8], [mx.HETEROSCEDASTIC],
                               sp.ChainConfig(g=8, iterations=10, burn_in=5,
                                              n_chains=1, seed=0))
        (cell,) = report.cells
        assert (cell.family, cell.g) == (mx.HETEROSCEDASTIC, 8)
        assert cell.degenerate
        assert np.isnan(cell.bic) and np.isnan(cell.icl)
        with pytest.raises(ValueError):
            report.best("bic")

    def test_format_report(self, report):
        text = sel.format_report(report)
        lines = text.strip().split("\n")
        assert lines[0] == "family,g,loglik,nu,bic,icl"
        assert len(lines) == 5
        cols = lines[1].split(",")
        assert cols[0] in (mx.INDEPENDENT, mx.HETEROSCEDASTIC)
        assert int(cols[1]) in (1, 2)

    def test_format_report_na(self):
        cell = sel.CriterionCell(mx.HOMOSCEDASTIC, 3, float("nan"), 12,
                                 float("nan"), float("nan"), float("nan"),
                                 True)
        text = sel.format_report(sel.CriterionReport((cell,)))
        assert text.strip().split("\n")[1] == "homoscedastic,3,NA,12,NA,NA"

    def test_empty_grid_rejected(self, dataset):
        with pytest.raises(ValueError):
            sel.sweep(dataset, [], [mx.INDEPENDENT])


def _two_workers(n_units):
    return min(n_units, 2)


def _chain_number(rng):
    return rng.bit_generator.seed_seq.spawn_key[-1]


class TestSweepRunsOneGrid:
    """``sweep`` runs the whole grid as one set of chains: one pool, EM
    once per (g, chain seed).  Each cell must still be the standalone
    ``fit`` of its config, and its warnings must come in serial order."""

    FAMILIES = (mx.INDEPENDENT, mx.HOMOSCEDASTIC, mx.HETEROSCEDASTIC)

    def test_every_cell_is_its_standalone_fit(self, monkeypatch):
        ds, _, _ = mx.generate(120, example_mixture(),
                               np.random.default_rng(41))
        base = sp.ChainConfig(g=1, iterations=12, burn_in=3, n_chains=2,
                              seed=9)
        real_best_chain = sp._best_chain
        picked = []

        def best_chain(outcomes):
            picked.append(real_best_chain(outcomes))
            return picked[-1]

        monkeypatch.setattr(sp, "_best_chain", best_chain)
        monkeypatch.setattr(sp, "_chain_worker_count", _two_workers)
        report = sel.sweep(ds, [1, 2], self.FAMILIES, base)
        monkeypatch.setattr(sp, "_best_chain", real_best_chain)
        monkeypatch.setattr(sp, "_chain_worker_count", lambda n: 1)
        assert len(picked) == len(report.cells) == 6
        for cell, result in zip(report.cells, picked):
            alone = sp.fit(ds, replace(base, g=cell.g, family=cell.family))
            assert mx.params_to_json(result.params) == \
                mx.params_to_json(alone.params)
            np.testing.assert_array_equal(result.posterior, alone.posterior)
            assert result.loglik == alone.loglik == cell.loglik
            assert result.chain_logliks == alone.chain_logliks
            assert result.messages == alone.messages

    def test_warnings_keep_their_serial_order(self, monkeypatch):
        ds, _, _ = mx.generate(80, example_mixture(),
                               np.random.default_rng(42))
        base = sp.ChainConfig(g=1, iterations=4, burn_in=1, n_chains=2,
                              seed=3)
        real_em = sp.init_local_independent
        real_chain = sp.run_chain
        em_calls = []

        def em(dataset, g, rng):
            em_calls.append(g)
            warnings.warn(f"EM g={g} chain {_chain_number(rng)}",
                          RuntimeWarning)
            return real_em(dataset, g, rng)

        def chain(dataset, config, rng, init=None):
            number = _chain_number(rng)
            warnings.warn(f"{config.family} g={config.g} chain {number}",
                          RuntimeWarning)
            if (config.family, config.g) == (mx.HOMOSCEDASTIC, 2):
                raise sp.DegenerateFitError(f"collapsed {number}")
            return real_chain(dataset, config, rng, init=init)

        monkeypatch.setattr(sp, "init_local_independent", em)
        monkeypatch.setattr(sp, "run_chain", chain)
        expected = []
        for family in self.FAMILIES:
            for g in (1, 2):
                for number in range(2):
                    expected += [f"EM g={g} chain {number}",
                                 f"{family} g={g} chain {number}"]
            if family == mx.HOMOSCEDASTIC:
                expected.append("homoscedastic g=2: every chain failed: "
                                "collapsed 0; collapsed 1")
        for workers in (lambda n: 1, _two_workers):
            monkeypatch.setattr(sp, "_chain_worker_count", workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = sel.sweep(ds, [1, 2], self.FAMILIES, base)
            assert [str(w.message) for w in caught] == expected
            assert all(w.category is RuntimeWarning for w in caught)
            assert [cell.degenerate for cell in report.cells] == [
                False, False, False, True, False, False]
        # in-process, EM ran once per (g, chain) for all three families
        assert em_calls == [1, 1, 2, 2]
