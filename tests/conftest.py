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
