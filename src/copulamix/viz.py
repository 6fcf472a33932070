"""Per-component PCA visualization export.

A component's correlation matrix is spectrally decomposed into orthogonal
latent axes; individuals are placed on those axes through their expected
latent coordinates given the observation, and variables through their
loadings (correlation-circle coordinates).  Everything is emitted as plain
CSV — rendering is a consumer concern.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import gauss
from .model import (ComponentParams, MixtureParams, latent_boxes,
                    posterior_probs_rows)
from .schema import MixedDataset

__all__ = [
    "PcaMap", "component_pca", "conditional_latent_mean",
    "conditional_latent_means", "project", "correlation_circle",
    "scores_csv", "circle_csv", "eigen_csv",
]


@dataclass(frozen=True)
class PcaMap:
    """Spectral decomposition of one component's correlation matrix.

    Eigenvalues are descending and sum to the dimension; eigenvectors are
    the columns of ``axes``, sign-normalized so the entry of largest
    magnitude in each is positive (ties broken by lowest index).
    """

    component: int
    eigenvalues: np.ndarray
    axes: np.ndarray
    variance_explained: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "axes", "variance_explained"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def component_pca(correlation: np.ndarray, component: int = 0) -> PcaMap:
    """Descending eigen-decomposition of a correlation matrix."""
    corr = np.asarray(correlation, dtype=float)
    if not gauss.is_correlation_matrix(corr, tol=1e-8):
        raise ValueError("not a valid correlation matrix")
    vals, vecs = np.linalg.eigh(corr)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for a in range(vecs.shape[1]):
        col = vecs[:, a]
        lead = np.argmax(np.abs(np.round(np.abs(col), 12)))
        if col[lead] < 0:
            vecs[:, a] = -col
    return PcaMap(component, vals, vecs, vals / vals.sum())


def _truncated_normal_mean(mu: np.ndarray, sd: np.ndarray,
                           lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of N(mu, sd^2) truncated to (lo, hi), tail-stable."""
    a = (lo - mu) / sd
    b = (hi - mu) / sd
    # ratio (phi(a) - phi(b)) / (Phi(b) - Phi(a)) in log space
    log_mass = gauss.log_gaussian_interval(a, b)
    def logphi(t):
        t = np.where(np.isinf(t), 0.0, t)
        return -0.5 * (t * t + np.log(2.0 * np.pi))
    pa = np.where(np.isinf(a), -np.inf, logphi(a))
    pb = np.where(np.isinf(b), -np.inf, logphi(b))
    hi_term = np.exp(pa - log_mass) - np.exp(pb - log_mass)
    return mu + sd * hi_term


def conditional_latent_means(values: np.ndarray, component: ComponentParams,
                             rng: np.random.Generator,
                             n_mc: int = 500
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Expected latent coordinates given each row and the component.

    Continuous coordinates are exact; discrete ones are the mean of the
    conditional truncated normal over the latent box — closed form when the
    discrete block is one-dimensional, Monte Carlo (``n_mc`` Gibbs draws)
    otherwise.  Returns (means, mc_errors) with zero error on exact
    coordinates.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[0]
    c, d = component.n_continuous, component.n_discrete
    e = component.dim
    corr = component.correlation
    out = np.zeros((n, e))
    err = np.zeros((n, e))

    if c:
        mu = np.array([m.mu for m in component.margins[:c]])
        sigma = np.array([m.sigma for m in component.margins[:c]])
        out[:, :c] = (values[:, :c] - mu) / sigma
    if d == 0:
        return out, err

    lo, hi = latent_boxes(values[:, c:], component)
    if c:
        coef = np.linalg.solve(corr[:c, :c], corr[:c, c:])
        cond_mean = out[:, :c] @ coef
        cond_cov = corr[c:, c:] - corr[c:, :c] @ coef
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
    else:
        cond_mean = np.zeros((n, d))
        cond_cov = corr

    if d == 1:
        sd = np.sqrt(cond_cov[0, 0])
        out[:, c] = _truncated_normal_mean(cond_mean[:, 0],
                                           np.full(n, sd),
                                           lo[:, 0], hi[:, 0])
        return out, err

    draws = np.zeros((n, d))
    sq = np.zeros((n, d))
    sample = None
    coefficients = gauss.gibbs_coefficients(cond_cov)
    for _ in range(n_mc):
        sample = gauss.truncated_mvn_gibbs_rows(cond_cov, cond_mean, lo, hi,
                                                rng, sweeps=2, init=sample,
                                                coefficients=coefficients)
        draws += sample
        sq += sample * sample
    mean = draws / n_mc
    var = np.maximum(sq / n_mc - mean * mean, 0.0)
    out[:, c:] = mean
    err[:, c:] = np.sqrt(var / n_mc)
    return out, err


def conditional_latent_mean(x: np.ndarray, component: ComponentParams,
                            rng: np.random.Generator, n_mc: int = 500
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Single-row convenience wrapper around conditional_latent_means."""
    mean, err = conditional_latent_means(np.asarray(x, float)[None, :],
                                         component, rng, n_mc=n_mc)
    return mean[0], err[0]


def project(dataset: MixedDataset, params: MixtureParams, k: int,
            axes: tuple[int, int] = (0, 1),
            rng: np.random.Generator | None = None, n_mc: int = 500
            ) -> dict:
    """Project every row onto two PCA axes of component ``k``.

    ``axes`` are 0-based axis indices (a < b).  Returns a dict with the
    score matrix (n, 2), maximum a posteriori labels under ``params``, the
    per-row Monte Carlo error propagated onto the two axes, and the PcaMap.
    """
    a, b = axes
    if not (0 <= a < b < params.dim):
        raise ValueError("need 0 <= first axis < second axis < dimension")
    rng = rng or np.random.default_rng(0)
    comp = params.components[k]
    pca = component_pca(comp.correlation, k)
    mean, err = conditional_latent_means(dataset.values, comp, rng, n_mc=n_mc)
    basis = pca.axes[:, [a, b]]
    scores = mean @ basis
    score_err = np.sqrt((err * err) @ (basis * basis))
    t, _ = posterior_probs_rows(dataset.values, params, rng=rng)
    return {
        "scores": scores,
        "labels": np.argmax(t, axis=1),
        "mc_error": score_err,
        "pca": pca,
        "axes": (a, b),
        "component": k,
    }


def correlation_circle(pca: PcaMap, axes: tuple[int, int] = (0, 1)
                       ) -> np.ndarray:
    """Loadings of every variable on two axes: eigvec[j, a] * sqrt(eigval[a]).

    Each row lies inside the unit disk.
    """
    a, b = axes
    if not (0 <= a < b < pca.axes.shape[0]):
        raise ValueError("need 0 <= first axis < second axis < dimension")
    load = pca.axes[:, [a, b]] * np.sqrt(pca.eigenvalues[[a, b]])
    return load


# ---------------------------------------------------------------------------
# CSV export

def scores_csv(projection: dict) -> str:
    a, b = projection["axes"]
    buf = io.StringIO()
    buf.write("row_id,component_k,axis_a,axis_b,score_a,score_b,label,mc_err\n")
    scores = projection["scores"]
    labels = projection["labels"]
    errs = projection["mc_error"]
    k = projection["component"]
    for i in range(scores.shape[0]):
        mc = float(np.max(errs[i]))
        buf.write(f"{i},{k + 1},{a + 1},{b + 1},{float(scores[i, 0])!r},"
                  f"{float(scores[i, 1])!r},{labels[i] + 1},{mc!r}\n")
    return buf.getvalue()


def circle_csv(pca: PcaMap, names, axes: tuple[int, int] = (0, 1)) -> str:
    a, b = axes
    load = correlation_circle(pca, axes)
    buf = io.StringIO()
    buf.write("variable,axis_a,axis_b,load_a,load_b\n")
    for j, name in enumerate(names):
        buf.write(f"{name},{a + 1},{b + 1},{float(load[j, 0])!r},"
                  f"{float(load[j, 1])!r}\n")
    return buf.getvalue()


def eigen_csv(pca: PcaMap) -> str:
    buf = io.StringIO()
    buf.write("axis,eigenvalue,pct_variance,cumulative_pct\n")
    cum = 0.0
    for a, (val, frac) in enumerate(zip(pca.eigenvalues,
                                        pca.variance_explained), 1):
        cum += 100.0 * float(frac)
        buf.write(f"{a},{float(val)!r},{100.0 * float(frac)!r},{cum!r}\n")
    return buf.getvalue()
