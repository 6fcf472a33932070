"""Reference computations the benchmark checks copulamix against.

Written with numpy and scipy only; nothing here imports copulamix, so a
fault in the program's numerics cannot hide in its own check.

* ``loglik`` - observed-data log-likelihood of a theta JSON document, built
  from ``scipy.stats`` margins, ``multivariate_normal.logpdf`` for the
  continuous block and ``multivariate_normal.cdf(..., lower_limit=...)`` for
  the rectangle probability of the discrete block given the continuous one;
* ``free_parameters`` - the number of free parameters of a (family, g) model
  on a schema;
* ``eigen`` - the descending eigendecomposition of a correlation matrix.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, norm, poisson

# Absolute error tolerance handed to scipy's rectangle integrator.  In three
# or more dimensions it is randomized quasi-Monte Carlo and stops once three
# standard errors of its batch estimates fall below this tolerance; in one
# and two dimensions it is a closed form accurate to about 1e-15.
CDF_ABSEPS = 1e-6
CLOSED_FORM_ERROR = 1e-15


def free_parameters(kinds, g: int, family: str) -> int:
    """Free-parameter count of a (family, g) copula mixture.

    ``kinds`` are schema kinds: ``continuous`` (mean, sd), ``integer``
    (rate) and ``ordinal:m`` (m - 1 free level probabilities).  Add g - 1
    proportions and the off-diagonal correlations: e(e-1)/2 per component
    (heteroscedastic), once (homoscedastic) or none (independent).
    """
    per_component = 0
    for kind in kinds:
        if kind == "continuous":
            per_component += 2
        elif kind == "integer":
            per_component += 1
        elif kind.startswith("ordinal:"):
            per_component += int(kind.split(":")[1]) - 1
        else:
            raise ValueError(f"unknown kind {kind!r}")
    e = len(kinds)
    pairs = {"independent": 0, "homoscedastic": 1,
             "heteroscedastic": g}[family] * (e * (e - 1) // 2)
    return (g - 1) + g * per_component + pairs


def eigen(correlation) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvectors as columns."""
    vals, vecs = linalg.eigh(np.asarray(correlation, dtype=float))
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def _margin_cdf(x: np.ndarray, margin: dict) -> np.ndarray:
    if margin["family"] == "poisson":
        return poisson.cdf(x, margin["rate"])
    cum = np.concatenate([[0.0], np.cumsum(margin["probs"])])
    cum[-1] = 1.0
    return cum[np.clip(x, 0, len(margin["probs"])).astype(int)]


def _component_terms(x: np.ndarray, comp: dict, rng: np.random.Generator
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row log density of the continuous block, rectangle probability
    of the discrete block given it, and the error bound on that probability.
    ``x`` is (n, e) in the continuous-first order of ``comp``."""
    margins = comp["margins"]
    corr = np.asarray(comp["correlation"], dtype=float)
    c = sum(1 for m in margins if m["family"] == "gaussian")
    n, e = x.shape
    d = e - c

    log_cont = np.zeros(n)
    cond_mean = np.zeros((n, d))
    cond_cov = corr[c:, c:]
    if c:
        mu = np.array([m["mu"] for m in margins[:c]])
        sigma = np.array([m["sigma"] for m in margins[:c]])
        y_c = (x[:, :c] - mu) / sigma
        log_cont = (np.atleast_1d(multivariate_normal(np.zeros(c), corr[:c, :c])
                                  .logpdf(y_c)) - np.log(sigma).sum())
        coef = linalg.solve(corr[:c, :c], corr[:c, c:], assume_a="pos")
        cond_mean = y_c @ coef
        cond_cov = corr[c:, c:] - corr[c:, :c] @ coef
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
    if d == 0:
        return log_cont, np.ones(n), np.zeros(n)

    lo = np.empty((n, d))
    hi = np.empty((n, d))
    for j, margin in enumerate(margins[c:]):
        lo[:, j] = norm.ppf(_margin_cdf(x[:, c + j] - 1.0, margin))
        hi[:, j] = norm.ppf(_margin_cdf(x[:, c + j], margin))
    prob = np.atleast_1d(multivariate_normal.cdf(
        hi - cond_mean, np.zeros(d), cond_cov, lower_limit=lo - cond_mean,
        abseps=CDF_ABSEPS, rng=rng))
    err = CDF_ABSEPS if d >= 3 else CLOSED_FORM_ERROR
    return log_cont, prob, np.full(n, err)


def loglik(theta: dict, x: np.ndarray, seed: int = 0
           ) -> tuple[float, float, np.ndarray]:
    """Observed log-likelihood of rows ``x`` (columns in the order of
    ``theta['columns']``) under ``theta``.

    Returns (total, error bound, per-component log density matrix).  The
    bound propagates each row's rectangle-probability error to its log
    mixture density and adds them up, plus a rounding allowance for
    summing in another order than the program does.
    """
    rng = np.random.default_rng(seed)
    log_pi = np.log(np.asarray(theta["pi"], dtype=float))
    terms = [_component_terms(x, comp, rng) for comp in theta["components"]]
    with np.errstate(divide="ignore"):
        logs = np.column_stack([lc + np.log(p) for lc, p, _ in terms])
    rows = logsumexp(logs + log_pi, axis=1)
    # d log f = sum_k pi_k exp(log_cont_k) dp_k / f
    err_rows = sum(np.exp(lp + lc - rows) * dp
                   for lp, (lc, _, dp) in zip(log_pi, terms))
    total = float(rows.sum())
    bound = float(err_rows.sum()) + 64 * np.finfo(float).eps * float(
        np.abs(rows).sum())
    return total, bound, logs
