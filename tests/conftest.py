"""Helpers shared by the test modules."""

import numpy as np

from copulamix import margins as mg, model as mx
from copulamix.gauss import normalize_to_correlation


def random_correlation_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank correlation matrix."""
    a = rng.normal(size=(dim, dim + 2))
    return normalize_to_correlation(a @ a.T / (dim + 2))


def component_logpdf(x, component) -> float:
    """Log density of one mixed observation under one component."""
    values = np.asarray(x, dtype=float)[None, :]
    index = mx.discrete_index(values, component.n_continuous)
    return float(mx.component_logpdf_rows(values, index, component)[0])


def rejection_means(cov, lower, upper, rng, n_draws=200_000):
    """Truncated means by rejection from N(0, cov), with standard errors."""
    chol = np.linalg.cholesky(cov)
    means, errors = [], []
    for lo, hi in zip(lower, upper):
        y = rng.standard_normal((n_draws, len(lo))) @ chol.T
        y = y[np.all((y > lo) & (y < hi), axis=1)]
        means.append(y.mean(axis=0))
        errors.append(y.std(axis=0) / np.sqrt(len(y)))
    return np.array(means), np.array(errors)


_ORACLE_TRUNC = 8.5
_ORACLE_NODES = 200


def oracle_logpdf_quadrature(x, component) -> float:
    """Component log density by tensor-product Gauss-Legendre quadrature.

    Deliberately independent of the production rectangle-probability code:
    the discrete-block integral is evaluated on a dense grid (infinite
    bounds truncated at 8.5 conditional standard deviations).  Supports up
    to three discrete dimensions.
    """
    x = np.asarray(x, dtype=float)
    c, d = component.n_continuous, component.n_discrete
    if d > 3:
        raise ValueError("oracle supports at most three discrete dimensions")
    corr = component.correlation

    log_cont = 0.0
    if c:
        y_c = np.array([(x[j] - m.mu) / m.sigma
                        for j, m in enumerate(component.margins[:c])])
        cov_cc = corr[:c, :c]
        chol = np.linalg.cholesky(cov_cc)
        sol = np.linalg.solve(chol, y_c)
        log_cont = (-0.5 * (sol @ sol + c * np.log(2.0 * np.pi))
                    - np.sum(np.log(np.diag(chol)))
                    - sum(np.log(m.sigma) for m in component.margins[:c]))
    if d == 0:
        return float(log_cont)

    lo = np.empty(d)
    hi = np.empty(d)
    for j, margin in enumerate(component.margins[c:]):
        (lo[j],), (hi[j],) = mg.latent_bounds_arrays(x[c + j:c + j + 1], margin)
    if c:
        coef = np.linalg.solve(corr[:c, :c], corr[:c, c:])
        mean = y_c @ coef
        cov = corr[c:, c:] - corr[c:, :c] @ coef
        cov = 0.5 * (cov + cov.T)
    else:
        mean = np.zeros(d)
        cov = corr

    sd = np.sqrt(np.diag(cov))
    lo = np.maximum(lo, mean - _ORACLE_TRUNC * sd)
    hi = np.minimum(hi, mean + _ORACLE_TRUNC * sd)
    if np.any(lo >= hi):
        return float("-inf")

    nodes, weights = np.polynomial.legendre.leggauss(_ORACLE_NODES)
    grids = []
    wgts = []
    for j in range(d):
        half = 0.5 * (hi[j] - lo[j])
        grids.append(lo[j] + half * (nodes + 1.0))
        wgts.append(weights * half)

    prec = np.linalg.inv(cov)
    logdet = np.linalg.slogdet(cov)[1]
    norm_const = -0.5 * (d * np.log(2.0 * np.pi) + logdet)

    if d == 1:
        u = grids[0] - mean[0]
        dens = np.exp(norm_const - 0.5 * prec[0, 0] * u * u)
        integral = float(wgts[0] @ dens)
    elif d == 2:
        u = grids[0] - mean[0]
        v = grids[1] - mean[1]
        quad = (prec[0, 0] * u[:, None] ** 2
                + 2.0 * prec[0, 1] * u[:, None] * v[None, :]
                + prec[1, 1] * v[None, :] ** 2)
        dens = np.exp(norm_const - 0.5 * quad)
        integral = float(wgts[0] @ dens @ wgts[1])
    else:
        integral = 0.0
        v = grids[1] - mean[1]
        t = grids[2] - mean[2]
        inner = (prec[1, 1] * v[:, None] ** 2
                 + 2.0 * prec[1, 2] * v[:, None] * t[None, :]
                 + prec[2, 2] * t[None, :] ** 2)
        for i0 in range(_ORACLE_NODES):
            u = grids[0][i0] - mean[0]
            quad = (prec[0, 0] * u * u
                    + 2.0 * prec[0, 1] * u * v[:, None]
                    + 2.0 * prec[0, 2] * u * t[None, :]
                    + inner)
            dens = np.exp(norm_const - 0.5 * quad)
            integral += wgts[0][i0] * float(wgts[1] @ dens @ wgts[2])

    if integral <= 0:
        return float("-inf")
    return float(log_cont + np.log(integral))
