"""Seeded inputs for the benchmark workloads.

Every dataset is drawn here with numpy and scipy from a generating truth
written out below, never through ``copulamix simulate`` or
``copulamix.model.generate``, so a change to the program cannot change the
data it is measured on.  The same seed gives byte-identical files.

A truth is a plain dict in the JSON layout that ``copulamix fit`` writes to
``theta.json`` (``family``, ``g``, ``pi``, ``components`` with ``margins``
and ``correlation``, ``columns``); columns are listed continuous-first.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.special import ndtr
from scipy.stats import poisson


def _gauss(mu, sigma):
    return {"family": "gaussian", "mu": mu, "sigma": sigma}


def _pois(rate):
    return {"family": "poisson", "rate": rate}


def _mult(*probs):
    return {"family": "multinomial", "probs": list(probs)}


# The example1 truth of the copulamix test suite and paper simulation
# (copulamix.evaluate.example1_params), copied so that the program cannot
# move its own inputs.
EXAMPLE1 = {
    "family": "heteroscedastic", "g": 2, "pi": [0.5, 0.5],
    "columns": ["x1", "x2", "x3"],
    "components": [
        {"margins": [_gauss(-2.0, 1.0), _pois(5.0), _mult(0.5, 0.5)],
         "correlation": [[1.0, -0.4, 0.4], [-0.4, 1.0, 0.4],
                         [0.4, 0.4, 1.0]]},
        {"margins": [_gauss(2.0, 1.0), _pois(15.0), _mult(0.5, 0.5)],
         "correlation": [[1.0, 0.8, 0.1], [0.8, 1.0, 0.1],
                         [0.1, 0.1, 1.0]]},
    ],
}

# Bivariate Poisson mixture by trivariate reduction: the observed pair is
# (w1 + w3, w2 + w3) with independent Poisson w's of rates lambda[k]
# (copulamix.evaluate.karlis_params).  Not a copula model.
KARLIS = {"pi": [1.0 / 3.0, 2.0 / 3.0],
          "lambdas": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}

# d = 4 truth: one continuous, two count and two ordinal columns, so the
# discrete block given the continuous one is four-dimensional and every
# rectangle probability goes through the quasi-Monte Carlo path.
D4 = {
    "family": "heteroscedastic", "g": 2, "pi": [0.45, 0.55],
    "columns": ["x1", "x2", "x3", "x4", "x5"],
    "components": [
        {"margins": [_gauss(-1.5, 1.0), _pois(2.0), _pois(6.0),
                     _mult(0.6, 0.3, 0.1), _mult(0.7, 0.3)],
         "correlation": [[1.0, 0.3, 0.3, 0.3, 0.3],
                         [0.3, 1.0, 0.3, 0.3, 0.3],
                         [0.3, 0.3, 1.0, 0.3, 0.3],
                         [0.3, 0.3, 0.3, 1.0, 0.3],
                         [0.3, 0.3, 0.3, 0.3, 1.0]]},
        {"margins": [_gauss(1.5, 1.0), _pois(5.0), _pois(3.0),
                     _mult(0.1, 0.3, 0.6), _mult(0.3, 0.7)],
         "correlation": [[1.0, 0.5, -0.2, 0.2, 0.0],
                         [0.5, 1.0, 0.0, 0.3, 0.2],
                         [-0.2, 0.0, 1.0, 0.0, 0.3],
                         [0.2, 0.3, 0.0, 1.0, 0.4],
                         [0.0, 0.2, 0.3, 0.4, 1.0]]},
    ],
}


def kind_of(margin: dict) -> str:
    """Schema kind of a margin dict, as ``copulamix`` schema files spell it."""
    if margin["family"] == "gaussian":
        return "continuous"
    if margin["family"] == "poisson":
        return "integer"
    return f"ordinal:{len(margin['probs'])}"


def _quantile(u: np.ndarray, margin: dict) -> np.ndarray:
    """Smallest support value whose cdf reaches ``u``."""
    if margin["family"] == "poisson":
        return poisson.ppf(u, margin["rate"])
    cum = np.cumsum(margin["probs"])
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="left") + 1.0


def draw_copula(truth: dict, n: int, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    """n rows of a Gaussian-copula mixture, columns continuous-first, plus
    the 0-based component labels."""
    g = truth["g"]
    e = len(truth["columns"])
    z = rng.choice(g, size=n, p=truth["pi"])
    x = np.empty((n, e))
    for k, comp in enumerate(truth["components"]):
        rows = np.flatnonzero(z == k)
        chol = np.linalg.cholesky(np.asarray(comp["correlation"]))
        y = rng.standard_normal((rows.size, e)) @ chol.T
        for j, margin in enumerate(comp["margins"]):
            if margin["family"] == "gaussian":
                x[rows, j] = margin["mu"] + margin["sigma"] * y[:, j]
            else:
                x[rows, j] = _quantile(ndtr(y[:, j]), margin)
    return x, z


def draw_karlis(n: int, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    z = rng.choice(len(KARLIS["pi"]), size=n, p=KARLIS["pi"])
    w = rng.poisson(np.asarray(KARLIS["lambdas"])[z])
    x = np.column_stack([w[:, 0] + w[:, 2], w[:, 1] + w[:, 2]])
    return x.astype(float), z


def write_dataset(directory: str, names, kinds, x: np.ndarray) -> tuple[str, str]:
    """Write ``data.csv`` and ``schema.txt``; returns their paths."""
    data_path = os.path.join(directory, "data.csv")
    schema_path = os.path.join(directory, "schema.txt")
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in x:
            fh.write(",".join(repr(float(v)) if kind == "continuous"
                              else str(int(v))
                              for v, kind in zip(row, kinds)) + "\n")
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{n} = {k}\n" for n, k in zip(names, kinds)))
    return data_path, schema_path


def write_copula_dataset(directory: str, truth: dict, n: int,
                         rng: np.random.Generator):
    x, z = draw_copula(truth, n, rng)
    kinds = [kind_of(m) for m in truth["components"][0]["margins"]]
    paths = write_dataset(directory, truth["columns"], kinds, x)
    return paths, z


def write_truth(path: str, truth: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
