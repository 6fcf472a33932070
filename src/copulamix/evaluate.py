"""Experiment harness and oracles.

Monte-Carlo Kullback-Leibler divergence, permutation-invariant
misclassification rate, a bivariate Poisson mixture generator (trivariate
reduction) used as an out-of-model truth, and the two canned simulation
studies.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln, logsumexp

from . import margins as mg, sampler as sp
from .model import ComponentParams, MixtureParams, generate, mixture_logpdf_rows
from .schema import MixedDataset, Schema, integer

__all__ = [
    "BivPoissonMixtureParams",
    "kl_divergence_mc", "misclassification_rate",
    "bivariate_poisson_mixture_generate", "bivariate_poisson_mixture_logpmf",
    "example1_params", "karlis_params",
    "run_simulation_study", "format_study_table",
]


# ---------------------------------------------------------------------------
# metrics

def kl_divergence_mc(sample_true, logpdf_true, logpdf_est, n: int,
                     rng: np.random.Generator
                     ) -> tuple[float, float, int]:
    """Monte-Carlo Kullback-Leibler divergence KL(true || est).

    ``sample_true(n, rng)`` draws rows from the true distribution; the two
    log-density callables are vectorized over rows.  Returns (estimate,
    standard error, dropped), where ``dropped`` counts samples whose log
    ratio was non-finite.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    x = sample_true(n, rng)
    ratio = np.asarray(logpdf_true(x), float) - np.asarray(logpdf_est(x), float)
    keep = np.isfinite(ratio)
    dropped = int(n - keep.sum())
    ratio = ratio[keep]
    if ratio.size == 0:
        return float("nan"), float("nan"), dropped
    est = float(ratio.mean())
    se = float(ratio.std(ddof=1) / np.sqrt(ratio.size)) if ratio.size > 1 else 0.0
    return est, se, dropped


def _label_matching(labels_est, labels_true, g: int):
    """Confusion counts and the label matching that maximizes agreement."""
    # imported here: it is costly, and only evaluation needs it
    from scipy.optimize import linear_sum_assignment

    confusion = np.zeros((g, g))
    np.add.at(confusion, (np.asarray(labels_est, int),
                          np.asarray(labels_true, int)), 1.0)
    rows, cols = linear_sum_assignment(-confusion)
    return confusion, rows, cols


def misclassification_rate(labels_est, labels_true) -> float:
    """Fraction of misassigned rows, minimized over label permutations."""
    a = np.asarray(labels_est, dtype=int)
    b = np.asarray(labels_true, dtype=int)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-d and of equal length")
    g = int(max(a.max(), b.max())) + 1
    confusion, rows, cols = _label_matching(a, b, g)
    return float(1.0 - confusion[rows, cols].sum() / a.size)


# ---------------------------------------------------------------------------
# bivariate Poisson mixture (trivariate reduction)

@dataclass(frozen=True)
class BivPoissonMixtureParams:
    """Two-component bivariate Poisson mixture.

    ``lambdas[k]`` holds the three positive rates of component k; the
    observed pair is (w1 + w3, w2 + w3) with independent Poisson w's, so
    the within-component covariance is the shared rate lambda_3.
    """

    proportions: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.proportions, dtype=float)
        lam = np.asarray(self.lambdas, dtype=float)
        if pi.shape != (lam.shape[0],) or lam.ndim != 2 or lam.shape[1] != 3:
            raise ValueError("need one (lambda1, lambda2, lambda3) per weight")
        if np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-12 or np.any(lam <= 0):
            raise ValueError("weights must lie on the simplex, rates be positive")
        pi.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "proportions", pi)
        object.__setattr__(self, "lambdas", lam)

    @property
    def g(self) -> int:
        return self.proportions.size


def bivariate_poisson_mixture_generate(params: BivPoissonMixtureParams,
                                       n: int, rng: np.random.Generator
                                       ) -> tuple[MixedDataset, np.ndarray]:
    """Draw n pairs; returns the two-column count dataset and labels."""
    z = rng.choice(params.g, size=n, p=params.proportions)
    lam = params.lambdas[z]
    w = rng.poisson(lam)
    x = np.column_stack([w[:, 0] + w[:, 2], w[:, 1] + w[:, 2]]).astype(float)
    schema = Schema((("x1", integer()), ("x2", integer())))
    return MixedDataset(schema, x), z


def _bivariate_poisson_logpmf(x1: np.ndarray, x2: np.ndarray,
                              lam: np.ndarray) -> np.ndarray:
    """Log pmf of one bivariate Poisson component, vectorized over rows."""
    l1, l2, l3 = lam
    x1 = np.asarray(x1, dtype=int)
    x2 = np.asarray(x2, dtype=int)
    m = np.minimum(x1, x2)
    out = np.empty(x1.size)
    base = -(l1 + l2 + l3)
    for i in range(x1.size):
        s = np.arange(m[i] + 1)
        terms = ((x1[i] - s) * np.log(l1) + (x2[i] - s) * np.log(l2)
                 + s * np.log(l3)
                 - gammaln(x1[i] - s + 1) - gammaln(x2[i] - s + 1)
                 - gammaln(s + 1))
        out[i] = base + logsumexp(terms)
    return out


def bivariate_poisson_mixture_logpmf(values: np.ndarray,
                                     params: BivPoissonMixtureParams
                                     ) -> np.ndarray:
    """Mixture log pmf, vectorized over the rows of a two-column array."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    logs = np.column_stack([
        _bivariate_poisson_logpmf(values[:, 0], values[:, 1], params.lambdas[k])
        for k in range(params.g)
    ])
    return logsumexp(logs + np.log(params.proportions), axis=1)


# ---------------------------------------------------------------------------
# canned studies

def example1_params() -> MixtureParams:
    """Two well-separated mixed-data components used throughout the tests."""
    corr1 = np.array([[1.0, -0.4, 0.4], [-0.4, 1.0, 0.4], [0.4, 0.4, 1.0]])
    corr2 = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.1], [0.1, 0.1, 1.0]])
    comp1 = ComponentParams(corr1, (mg.GaussianMargin(-2.0, 1.0),
                                    mg.PoissonMargin(5.0),
                                    mg.OrdinalMargin([0.5, 0.5])))
    comp2 = ComponentParams(corr2, (mg.GaussianMargin(2.0, 1.0),
                                    mg.PoissonMargin(15.0),
                                    mg.OrdinalMargin([0.5, 0.5])))
    return MixtureParams(np.array([0.5, 0.5]), (comp1, comp2))


def karlis_params() -> BivPoissonMixtureParams:
    """Bivariate Poisson mixture truth for the robustness study."""
    return BivPoissonMixtureParams(np.array([1.0, 2.0]) / 3.0,
                                   np.array([[1.0, 2.0, 3.0],
                                             [4.0, 5.0, 6.0]]))


def _align_first_component(labels_est, labels_true, g: int) -> int:
    _, rows, cols = _label_matching(labels_est, labels_true, g)
    mapping = dict(zip(cols, rows))
    return int(mapping[0])


def _fit_metrics(dataset: MixedDataset, labels_true: np.ndarray,
                 sample_true, logpdf_true, margin_param: str,
                 config: sp.ChainConfig, rng: np.random.Generator,
                 n_kl: int) -> dict:
    """Fit ``dataset`` and score the estimate against the truth, given by
    its sampler ``sample_true(m, rng)`` and vectorized log density; the
    reported margin number is attribute ``margin_param`` of the first
    margin of the component matched to true component 1."""
    result = sp.fit(dataset, config)
    est = result.params
    kl, kl_se, dropped = kl_divergence_mc(
        sample_true, logpdf_true,
        lambda v: mixture_logpdf_rows(v, est),
        n_kl, rng)
    err = misclassification_rate(result.labels, labels_true)
    k1 = _align_first_component(result.labels, labels_true, config.g)
    comp = est.components[k1]
    return {
        "kl": kl, "kl_se": kl_se, "kl_dropped": dropped,
        "misclassification": err,
        "corr12": float(comp.correlation[0, 1]),
        "margin_param": float(getattr(comp.margins[0], margin_param)),
    }


def run_simulation_study(study: str, sample_sizes, replicates: int,
                         config: sp.ChainConfig | None = None,
                         master_seed: int = 0, n_kl: int = 10_000
                         ) -> list[dict]:
    """Run one of the canned studies and return long-format result rows.

    ``study`` is ``"example1"`` (copula truth, recovers the component-1
    Gaussian mean as the margin parameter) or ``"karlis"`` (bivariate
    Poisson truth, recovers the component-1 Poisson rate).  Each row of the
    output carries (study, n, replicate, metric, value); failed replicates
    are logged and skipped.
    """
    if study not in ("example1", "karlis"):
        raise ValueError(f"unknown study {study!r}")
    rows = []
    for n in sample_sizes:
        for rep in range(replicates):
            study_tag = {"example1": 1, "karlis": 2}[study]
            seed = np.random.SeedSequence((master_seed, study_tag,
                                           int(n), rep))
            rng = np.random.default_rng(seed)
            cfg = replace(config or sp.ChainConfig(g=2), g=2,
                          seed=int(seed.generate_state(1)[0]))
            try:
                if study == "example1":
                    truth = example1_params()
                    ds, z, _ = generate(int(n), truth, rng)
                    metrics = _fit_metrics(
                        ds, z, lambda m, r: generate(m, truth, r)[0].values,
                        lambda v: mixture_logpdf_rows(v, truth),
                        "mu", cfg, rng, n_kl)
                else:
                    truth = karlis_params()
                    ds, z = bivariate_poisson_mixture_generate(truth, int(n),
                                                               rng)
                    metrics = _fit_metrics(
                        ds, z, lambda m, r: bivariate_poisson_mixture_generate(
                            truth, m, r)[0].values,
                        lambda v: bivariate_poisson_mixture_logpmf(v, truth),
                        "rate", cfg, rng, n_kl)
            except (sp.DegenerateFitError, ArithmeticError) as exc:
                warnings.warn(f"{study} n={n} replicate {rep}: {exc}",
                              RuntimeWarning, stacklevel=2)
                continue
            for metric, value in metrics.items():
                rows.append({"study": study, "n": int(n), "replicate": rep,
                             "metric": metric, "value": float(value)})
    return rows


def format_study_table(rows) -> str:
    """Render study rows as a long-format comma-separated table."""
    buf = io.StringIO()
    buf.write(",".join(["study", "n", "replicate", "metric", "value"]) + "\n")
    for row in rows:
        buf.write(",".join([row["study"], str(row["n"]),
                            str(row["replicate"]), row["metric"],
                            repr(row["value"])]) + "\n")
    return buf.getvalue()
