"""Tests of the benchmark's reference code and span accounting.

    python3 -m pytest perfbench
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy.stats import norm, poisson

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


def _independent(theta):
    out = dict(theta)
    out["components"] = [
        {"margins": comp["margins"],
         "correlation": np.eye(len(comp["margins"])).tolist()}
        for comp in theta["components"]]
    return out


def _margin_logpdf(x, margin):
    if margin["family"] == "gaussian":
        return norm.logpdf(x, margin["mu"], margin["sigma"])
    if margin["family"] == "poisson":
        return poisson.logpmf(x, margin["rate"])
    return np.log(np.asarray(margin["probs"])[x.astype(int) - 1])


@pytest.mark.parametrize("truth", [inputs.EXAMPLE1, inputs.D4],
                         ids=["example1", "d4"])
def test_identity_correlations_give_sum_of_margin_logdensities(truth):
    theta = _independent(truth)
    x, _ = inputs.draw_copula(truth, 40, np.random.default_rng(3))
    total, bound, logs = reference.loglik(theta, x)
    expected = np.column_stack([
        sum(_margin_logpdf(x[:, j], m) for j, m in enumerate(comp["margins"]))
        for comp in theta["components"]])
    # d = 4 boxes go through scipy's quasi-Monte Carlo integrator
    assert np.allclose(logs, expected, rtol=0, atol=1e-4)
    mix = np.logaddexp(*(expected + np.log(theta["pi"])).T)
    assert abs(total - mix.sum()) <= bound


def test_single_row_single_component():
    theta = {"g": 1, "pi": [1.0], "columns": ["a", "b"],
             "components": [{"margins": [{"family": "gaussian", "mu": 1.0,
                                          "sigma": 2.0},
                                         {"family": "poisson", "rate": 3.0}],
                             "correlation": [[1.0, 0.0], [0.0, 1.0]]}]}
    total, _, _ = reference.loglik(theta, np.array([[0.0, 4.0]]))
    assert total == pytest.approx(norm.logpdf(0.0, 1.0, 2.0)
                                  + poisson.logpmf(4, 3.0), abs=1e-12)


@pytest.mark.parametrize("kinds,g,family,nu", [
    # example1: per component 2 + 1 + 1 margin parameters
    (["continuous", "integer", "ordinal:2"], 2, "heteroscedastic", 8 + 1 + 6),
    (["continuous", "integer", "ordinal:2"], 2, "homoscedastic", 8 + 1 + 3),
    (["continuous", "integer", "ordinal:2"], 2, "independent", 8 + 1),
    # bivariate counts, as on select-karlis
    (["integer", "integer"], 1, "independent", 2),
    (["integer", "integer"], 1, "heteroscedastic", 3),
    (["integer", "integer"], 2, "independent", 5),
    (["integer", "integer"], 2, "heteroscedastic", 7),
    # d4: 2 + 1 + 1 + 2 + 1 per component, 10 correlation pairs
    (["continuous", "integer", "integer", "ordinal:3", "ordinal:2"], 2,
     "heteroscedastic", 14 + 1 + 20),
    (["continuous"], 3, "heteroscedastic", 6 + 2),
])
def test_free_parameters_match_hand_counts(kinds, g, family, nu):
    assert reference.free_parameters(kinds, g, family) == nu


def test_eigen_of_example1_component():
    corr = np.asarray(inputs.EXAMPLE1["components"][0]["correlation"])
    vals, vecs = reference.eigen(corr)
    assert np.allclose(vals, [1.4, 1.4, 0.2])
    assert math.isclose(vals.sum(), 3.0)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.T, corr)


def test_inputs_repeat_for_a_seed():
    a = inputs.draw_copula(inputs.D4, 30, np.random.default_rng(7))
    b = inputs.draw_copula(inputs.D4, 30, np.random.default_rng(7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_self_times_add_up_to_root_span():
    spans = [("cli.main", 0.0, 10.0, -1, 0),
             ("sampler.fit", 1.0, 9.0, 0, 0),
             ("gauss.box_probabilities.qmc", 2.0, 5.0, 1, 30),
             ("gauss.box_probabilities.qmc", 5.0, 6.0, 1, 30),
             ("gauss.bvn_rectangle", 6.0, 6.5, 1, 0)]
    metrics, problems = run._layer_metrics(spans, 123, 0.0)
    value = {k: v["value"] for k, v in metrics.items()}
    assert problems == []
    assert value["cli.main.self_s"] == 2.0
    assert value["gauss.box_probabilities.qmc.self_s"] == 4.0
    assert value["gauss.box_probabilities.qmc.rows"] == 60
    assert value["layer.sampler.self_s"] == 3.5
    assert value["gauss.bvn_rectangle.self_s"] == 0.5
    assert value["cli.bundle_bytes"] == 123


def test_tracer_wraps_names_imported_from_other_modules():
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    import traced_cli
    from copulamix import model, sampler

    original = model.posterior_probs_rows
    tracer = traced_cli.Tracer()
    try:
        tracer.install()
        assert sampler.posterior_probs_rows is model.posterior_probs_rows
        assert sampler.posterior_probs_rows is not original
        sampler.posterior_probs_rows.__wrapped__  # functools.wraps marker
    finally:
        for name in list(sys.modules):
            if name == "copulamix" or name.startswith("copulamix."):
                del sys.modules[name]
