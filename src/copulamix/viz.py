"""Per-component PCA visualization export.

A component's correlation matrix is spectrally decomposed into orthogonal
latent axes; individuals are placed on those axes through their expected
latent coordinates given the observation (closed form for one discrete
column, a deterministic quadrature for two, GHK importance sampling on the
scoring lattice under its fixed shifts beyond that; nothing is drawn), and
variables through their loadings (correlation-circle coordinates).
Everything is emitted as plain CSV — rendering is a consumer concern.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import gauss
from .model import (ComponentParams, MixtureParams, discrete_index,
                    latent_geometry, posterior_probs_rows, schema_of)
from .schema import MixedDataset

__all__ = [
    "PcaMap", "component_pca", "conditional_latent_means", "project",
    "correlation_circle", "scores_csv", "circle_csv", "eigen_csv",
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


def conditional_latent_means(values: np.ndarray, component: ComponentParams
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Expected latent coordinates given each row and the component.

    Continuous coordinates are exact.  Discrete ones are the mean of the
    conditional truncated normal over the latent box, from
    ``gauss.ghk_means``: closed form when the discrete block is
    one-dimensional, a nested tanh-sinh quadrature when it is
    two-dimensional, and importance sampling on the scoring lattice under
    its 8 fixed shifts (496 integrand evaluations per row) beyond that.
    Nothing is drawn, so equal inputs give equal outputs.  Returns (means,
    errors): zero on exact coordinates, the difference between the last two
    quadrature levels at two discrete columns and the standard error over
    the shifts beyond that.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    c = component.n_continuous
    y_c, _, lo, hi, cond_mean, cond_cov = latent_geometry(
        values, discrete_index(values, c), component)
    out, err = np.zeros((2, values.shape[0], component.dim))
    out[:, :c] = y_c
    if component.n_discrete:
        mean, err[:, c:] = gauss.ghk_means(cond_cov, lo - cond_mean,
                                           hi - cond_mean)
        out[:, c:] = cond_mean + mean
    return out, err


def project(dataset: MixedDataset, params: MixtureParams, k: int,
            axes: tuple[int, int] = (0, 1)) -> dict:
    """Project every row onto two PCA axes of component ``k``.

    ``params`` must have the margin kinds of the data's schema, ordinal
    levels included (``ValueError`` otherwise).  ``axes`` are 0-based axis
    indices (a < b).  Returns a dict with the score matrix (n, 2), maximum a
    posteriori labels under ``params``, the per-row error of
    ``conditional_latent_means`` propagated onto the two axes, and the
    PcaMap.
    """
    if schema_of(params).kinds != dataset.schema.kinds:
        raise ValueError("fitted parameters do not match the data schema")
    a, b = axes
    if not (0 <= a < b < params.dim):
        raise ValueError("need 0 <= first axis < second axis < dimension")
    comp = params.components[k]
    pca = component_pca(comp.correlation, k)
    mean, err = conditional_latent_means(dataset.values, comp)
    basis = pca.axes[:, [a, b]]
    scores = mean @ basis
    score_err = np.sqrt((err * err) @ (basis * basis))
    t = posterior_probs_rows(dataset.values, params)
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
