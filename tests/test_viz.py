import numpy as np
import pytest
from scipy import stats

from conftest import random_correlation_matrix, rejection_means

from copulamix import margins as mg, model as mx, viz


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


class TestComponentPca:
    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 5):
            corr = random_correlation_matrix(dim, rng)
            pca = viz.component_pca(corr)
            recon = pca.axes @ np.diag(pca.eigenvalues) @ pca.axes.T
            np.testing.assert_allclose(recon, corr, atol=1e-10)

    def test_descending_and_normalized(self):
        rng = np.random.default_rng(1)
        corr = random_correlation_matrix(4, rng)
        pca = viz.component_pca(corr)
        assert np.all(np.diff(pca.eigenvalues) <= 1e-12)
        assert pca.eigenvalues.sum() == pytest.approx(4.0)
        assert pca.variance_explained.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(pca.axes.T @ pca.axes, np.eye(4),
                                   atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            corr = random_correlation_matrix(3, rng)
            pca = viz.component_pca(corr)
            for a in range(3):
                col = pca.axes[:, a]
                assert col[np.argmax(np.abs(col))] > 0

    def test_two_by_two_closed_form(self):
        corr = np.array([[1.0, 0.8], [0.8, 1.0]])
        pca = viz.component_pca(corr)
        np.testing.assert_allclose(pca.eigenvalues, [1.8, 0.2], atol=1e-12)
        np.testing.assert_allclose(np.abs(pca.axes),
                                   np.full((2, 2), 1 / np.sqrt(2)),
                                   atol=1e-12)

    def test_rejects_non_correlation(self):
        with pytest.raises(ValueError):
            viz.component_pca(np.array([[2.0, 0.0], [0.0, 1.0]]))


class TestCorrelationCircle:
    def test_loadings_in_unit_disk(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            corr = random_correlation_matrix(dim, rng)
            pca = viz.component_pca(corr)
            load = viz.correlation_circle(pca)
            norms = np.linalg.norm(load, axis=1)
            assert np.all(norms <= 1.0 + 1e-10)

    def test_full_loading_matrix_reproduces_correlation(self):
        rng = np.random.default_rng(4)
        corr = random_correlation_matrix(3, rng)
        pca = viz.component_pca(corr)
        full = pca.axes * np.sqrt(pca.eigenvalues)
        np.testing.assert_allclose(full @ full.T, corr, atol=1e-10)

    def test_perfect_correlation_unit_norm(self):
        corr = np.array([[1.0, 0.8], [0.8, 1.0]])
        load = viz.correlation_circle(viz.component_pca(corr))
        # with only two axes kept, each variable sits on the unit circle
        np.testing.assert_allclose(np.linalg.norm(load, axis=1), 1.0,
                                   atol=1e-12)

    def test_axis_validation(self):
        pca = viz.component_pca(np.eye(3))
        with pytest.raises(ValueError):
            viz.correlation_circle(pca, axes=(1, 1))
        with pytest.raises(ValueError):
            viz.correlation_circle(pca, axes=(0, 3))


class TestConditionalLatentMeans:
    def test_continuous_exact(self):
        comp = mx.ComponentParams(
            np.eye(2), (mg.GaussianMargin(1.0, 2.0),
                        mg.GaussianMargin(-1.0, 0.5)))
        x = np.array([[3.0, -1.5]])
        mean, err = viz.conditional_latent_means(x, comp)
        np.testing.assert_allclose(mean[0], [1.0, -1.0])
        np.testing.assert_array_equal(err, 0.0)

    def test_binary_closed_form(self):
        # standard normal truncated to (-inf, 0]: mean = -sqrt(2/pi) phi(0)
        # scaling: E[Y | Y <= 0] = -2 phi(0) = -0.7978845608
        comp = mx.ComponentParams(
            np.eye(1).reshape(1, 1), (mg.OrdinalMargin([0.5, 0.5]),))
        mean, err = viz.conditional_latent_means(np.array([[1.0]]), comp)
        assert mean[0, 0] == pytest.approx(-np.sqrt(2.0 / np.pi), abs=1e-10)
        assert err[0, 0] == 0.0

    def test_closed_form_matches_scipy_truncnorm(self):
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        comp = mx.ComponentParams(corr, (mg.GaussianMargin(0.0, 1.0),
                                         mg.PoissonMargin(4.0)))
        x = np.array([[1.2, 3.0]])
        mean, _ = viz.conditional_latent_means(x, comp)
        (lo,), (hi,) = mg.latent_bounds_arrays([3.0], mg.PoissonMargin(4.0))
        mu, sd = 0.6 * 1.2, np.sqrt(1 - 0.36)
        ref = stats.truncnorm((lo - mu) / sd, (hi - mu) / sd, mu, sd).mean()
        assert mean[0, 1] == pytest.approx(ref, abs=1e-10)

    def test_mc_matches_closed_form_under_independence(self):
        # two discrete coordinates with identity correlation: the
        # importance weights are flat, so the coordinate taken in closed
        # form is exact and the drawn one matches within its error
        comp = mx.ComponentParams(
            np.eye(2), (mg.PoissonMargin(3.0), mg.OrdinalMargin([0.3, 0.7])))
        x = np.array([[2.0, 1.0], [5.0, 2.0]])
        mean, err = viz.conditional_latent_means(x, comp)
        for i in range(2):
            for j, margin in enumerate(comp.margins):
                (lo,), (hi,) = mg.latent_bounds_arrays(x[i, j:j + 1], margin)
                ref = stats.truncnorm(lo, hi).mean()
                assert mean[i, j] == pytest.approx(ref, abs=4 * err[i, j]
                                                   + 1e-12)
            assert min(err[i]) < 1e-12

    def test_mc_error_reported(self):
        # with three discrete columns the means come from the shifted
        # lattice: the error over the shifts covers the miss against a
        # rejection-sampling reference
        corr = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, -0.4], [0.2, -0.4, 1.0]])
        comp = mx.ComponentParams(corr, (mg.PoissonMargin(2.0),
                                         mg.PoissonMargin(6.0),
                                         mg.OrdinalMargin([0.3, 0.7])))
        x = np.array([[1.0, 4.0, 2.0]])
        mean, err = viz.conditional_latent_means(x, comp)
        _, _, lo, hi, _, cov = mx.latent_geometry(
            x, mx.discrete_index(x, 0), comp)
        expected, ref_err = rejection_means(cov, lo, hi,
                                            np.random.default_rng(40))
        assert np.all(err > 0)
        tol = 4.5 * np.sqrt(err ** 2 + ref_err ** 2)
        assert np.all(np.abs(mean - expected) <= tol)


class TestProject:
    @pytest.fixture(scope="class")
    @staticmethod
    def data():
        rng = np.random.default_rng(10)
        params = example_mixture()
        ds, z, _ = mx.generate(300, params, rng)
        return ds, z, params

    def test_shapes_and_labels(self, data):
        ds, z, params = data
        proj = viz.project(ds, params, 0)
        assert proj["scores"].shape == (300, 2)
        assert proj["mc_error"].shape == (300, 2)
        # labels close to the simulation truth for well separated components
        agree = max(np.mean(proj["labels"] == z),
                    np.mean(proj["labels"] != z))
        assert agree > 0.95

    def test_identity_correlation_scores_are_latent_coords(self):
        rng = np.random.default_rng(12)
        comp = mx.ComponentParams(
            np.eye(2), (mg.GaussianMargin(0.0, 1.0),
                        mg.GaussianMargin(0.0, 2.0)))
        params = mx.MixtureParams(np.array([1.0]), (comp,), mx.INDEPENDENT)
        ds, _, _ = mx.generate(50, params, rng)
        proj = viz.project(ds, params, 0)
        latent = np.column_stack([ds.values[:, 0],
                                  ds.values[:, 1] / 2.0])
        # identity correlation: axes are coordinate directions with unit
        # eigenvalues, so scores are the standardized coordinates up to a
        # column permutation (the eigenvalues tie)
        scores = np.abs(proj["scores"])
        match = (np.allclose(scores, np.abs(latent), atol=1e-10)
                 or np.allclose(scores, np.abs(latent[:, ::-1]), atol=1e-10))
        assert match

    def test_score_cloud_roughly_centred(self, data):
        ds, _, params = data
        proj = viz.project(ds, params, 0)
        keep = proj["labels"] == proj["component"]
        if keep.mean() < 0.5:
            keep = ~keep
        centred = proj["scores"][keep].mean(axis=0)
        assert np.all(np.abs(centred) < 0.3)

    def test_scores_repeat_without_a_generator(self, data):
        # nothing is drawn: two calls give the same bytes, with two discrete
        # columns (a deterministic quadrature) and with three (the lattice
        # under fixed shifts)
        ds, _, params = data
        three = mx.MixtureParams(np.array([1.0]), (mx.ComponentParams(
            np.array([[1.0, 0.3, 0.2], [0.3, 1.0, -0.4], [0.2, -0.4, 1.0]]),
            (mg.PoissonMargin(2.0), mg.PoissonMargin(6.0),
             mg.OrdinalMargin([0.3, 0.7]))),))
        ds3, _, _ = mx.generate(60, three, np.random.default_rng(21))
        for dataset, mixture in ((ds, params), (ds3, three)):
            first = viz.project(dataset, mixture, 0)
            second = viz.project(dataset, mixture, 0)
            np.testing.assert_array_equal(first["scores"], second["scores"])
            np.testing.assert_array_equal(first["mc_error"],
                                          second["mc_error"])
        assert np.all(first["mc_error"] > 0)
        assert np.all(viz.project(ds, params, 0)["mc_error"] < 1e-8)

    def test_margins_must_match_schema(self, data):
        # a Poisson margin on the binary column, or an ordinal margin with
        # the wrong number of levels, fits another model than the data's
        ds, _, params = data
        for margin in (mg.PoissonMargin(1.0),
                       mg.OrdinalMargin([0.2, 0.3, 0.5])):
            wrong = mx.MixtureParams(params.proportions, tuple(
                mx.ComponentParams(c.correlation, c.margins[:2] + (margin,))
                for c in params.components))
            with pytest.raises(ValueError, match="schema"):
                viz.project(ds, wrong, 0)

    def test_large_count_scores_finite(self, data):
        # a count of 34 or more has a cdf that rounds to 1 under the rate 5
        # of component 1; its latent interval must stay non-empty
        ds, _, params = data
        values = np.vstack([ds.values, [[-2.0, 34.0, 1.0], [-2.0, 60.0, 2.0]]])
        ds = type(ds)(ds.schema, values)
        proj = viz.project(ds, params, 0)
        assert np.all(np.isfinite(proj["scores"]))
        assert np.all(np.isfinite(proj["mc_error"]))

    def test_axis_validation(self, data):
        ds, _, params = data
        with pytest.raises(ValueError):
            viz.project(ds, params, 0, axes=(1, 0))
        with pytest.raises(ValueError):
            viz.project(ds, params, 0, axes=(0, 3))


class TestCsvExport:
    @pytest.fixture(scope="class")
    @staticmethod
    def proj():
        rng = np.random.default_rng(14)
        params = example_mixture()
        ds, _, _ = mx.generate(20, params, rng)
        return ds, viz.project(ds, params, 1)

    def test_scores_csv(self, proj):
        _, p = proj
        lines = viz.scores_csv(p).strip().split("\n")
        assert lines[0] == ("row_id,component_k,axis_a,axis_b,score_a,"
                            "score_b,label,mc_err")
        assert len(lines) == 21
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "2"          # component printed 1-based
        assert (first[2], first[3]) == ("1", "2")
        assert int(first[6]) in (1, 2)  # labels 1-based
        # values round-trip exactly through repr
        assert float(first[4]) == p["scores"][0, 0]

    def test_circle_csv(self, proj):
        ds, p = proj
        text = viz.circle_csv(p["pca"], ds.schema.names)
        lines = text.strip().split("\n")
        assert lines[0] == "variable,axis_a,axis_b,load_a,load_b"
        assert len(lines) == 4
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == list(ds.schema.names)
        loads = np.array([[float(v) for v in ln.split(",")[3:]]
                          for ln in lines[1:]])
        np.testing.assert_allclose(loads,
                                   viz.correlation_circle(p["pca"]))

    def test_eigen_csv(self, proj):
        _, p = proj
        lines = viz.eigen_csv(p["pca"]).strip().split("\n")
        assert lines[0] == "axis,eigenvalue,pct_variance,cumulative_pct"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert float(rows[-1][3]) == pytest.approx(100.0)
        eigvals = [float(r[1]) for r in rows]
        assert eigvals == sorted(eigvals, reverse=True)
        assert sum(eigvals) == pytest.approx(3.0)
