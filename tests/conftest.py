"""Helpers shared by the test modules."""

import numpy as np

from copulamix import model as mx
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
