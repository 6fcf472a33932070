"""Helpers shared by the test modules."""

import numpy as np

from copulamix.gauss import normalize_to_correlation


def random_correlation_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank correlation matrix."""
    a = rng.normal(size=(dim, dim + 2))
    return normalize_to_correlation(a @ a.T / (dim + 2))
