"""One-dimensional marginal distributions per mixture component.

Three families: Gaussian for continuous columns, Poisson for integer columns,
ordered multinomial for ordinal columns.  Besides vectorized density, cdf and
quantile, each discrete family exposes the latent interval (b_lo, b_hi] that
a standard normal coordinate must fall in to reproduce a given observed
value; it is computed per element, so callers pass a column's distinct
values and gather to the rows.  ``margin_to_dict`` and ``margin_from_dict``
are the one JSON codec of a margin, shared by the parameter file, the
stored draws and the posterior-mean accumulator.

Priors follow the usual conjugate choices with empirically fixed
hyper-parameters: normal-inverse-gamma for the Gaussian margin, gamma (shape,
rate) for the Poisson rate, Jeffreys Dirichlet(1/2, ..., 1/2) for ordinal
level probabilities.  The inverse gamma uses the shape/scale convention, so
the prior variance mean C0/(c0-1) is finite for the default shape 1.28.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr, ndtri, ndtri_exp, pdtr, pdtrc, pdtrik

__all__ = [
    "GaussianMargin", "PoissonMargin", "OrdinalMargin", "MarginParams",
    "GaussianNIGPrior", "PoissonGammaPrior", "OrdinalDirichletPrior",
    "MarginPrior", "SupportError",
    "cdf_array", "logpdf_array", "quantile_array",
    "latent_bounds_arrays",
    "margin_to_dict", "margin_from_dict",
    "default_prior", "conjugate_posterior_sample",
]

LOG_PROB_FLOOR = 1e-10  # clip for ordinal log masses during MH evaluation


class SupportError(ValueError):
    """Value outside the support of a margin."""


@dataclass(frozen=True)
class GaussianMargin:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class PoissonMargin:
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")


class OrdinalMargin:
    """Probability vector over levels 1..m, m >= 2."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("need a probability vector of length >= 2")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be non-negative and sum to 1")
        p.setflags(write=False)
        self.probs = p

    @property
    def levels(self) -> int:
        return self.probs.size

    def __repr__(self):
        return f"OrdinalMargin({self.probs.tolist()})"

    def __eq__(self, other):
        return isinstance(other, OrdinalMargin) and np.array_equal(self.probs, other.probs)


MarginParams = GaussianMargin | PoissonMargin | OrdinalMargin


def is_discrete(margin: MarginParams) -> bool:
    return not isinstance(margin, GaussianMargin)


# ---------------------------------------------------------------------------
# cdf / quantile / log density

def cdf_array(x, margin: MarginParams) -> np.ndarray:
    """Vectorized cdf; values below the support minimum get cdf 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(margin, GaussianMargin):
        return ndtr((x - margin.mu) / margin.sigma)
    if isinstance(margin, PoissonMargin):
        out = np.zeros_like(x)
        m = x >= 0
        out[m] = pdtr(np.floor(x[m]), margin.rate)
        return out
    cum = np.concatenate([[0.0], np.cumsum(margin.probs)])
    cum[-1] = 1.0
    idx = np.clip(np.floor(x).astype(int), 0, margin.levels)
    out = cum[np.maximum(idx, 0)]
    out[x < 0] = 0.0
    return out


def _check_support(x, margin: MarginParams) -> None:
    x = np.asarray(x, dtype=float)
    if isinstance(margin, GaussianMargin):
        return
    if np.any(x != np.round(x)):
        raise SupportError("discrete margin evaluated at a non-integer")
    if isinstance(margin, PoissonMargin):
        if np.any(x < 0):
            raise SupportError("Poisson value must be a non-negative integer")
    elif np.any((x < 1) | (x > margin.levels)):
        raise SupportError(f"ordinal value out of range 1..{margin.levels}")


def quantile_array(u, margin: MarginParams) -> np.ndarray:
    """Generalized inverse cdf: smallest support value with cdf >= u."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0) | (u >= 1)):
        raise ValueError("probability must lie strictly in (0, 1)")
    if isinstance(margin, GaussianMargin):
        return margin.mu + margin.sigma * ndtri(u)
    if isinstance(margin, PoissonMargin):
        # scipy.stats.poisson.ppf's recipe, without importing scipy.stats
        k = np.ceil(pdtrik(u, margin.rate))
        below = np.maximum(k - 1.0, 0.0)
        return np.where(pdtr(below, margin.rate) >= u, below, k)
    cum = np.cumsum(margin.probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="left") + 1.0


def logpdf_array(x, margin: MarginParams, clip: bool = False) -> np.ndarray:
    """Vectorized log density / log mass on the support.

    With ``clip`` set, ordinal masses are floored at 1e-10 so Metropolis
    ratios stay finite; raw evaluation is unclipped.
    """
    x = np.asarray(x, dtype=float)
    _check_support(x, margin)
    if isinstance(margin, GaussianMargin):
        z = (x - margin.mu) / margin.sigma
        return -0.5 * z * z - 0.5 * np.log(2.0 * np.pi) - np.log(margin.sigma)
    if isinstance(margin, PoissonMargin):
        return x * np.log(margin.rate) - margin.rate - gammaln(x + 1.0)
    p = margin.probs[x.astype(int) - 1]
    if clip:
        p = np.maximum(p, LOG_PROB_FLOOR)
    with np.errstate(divide="ignore"):
        return np.log(p)


def _poisson_log_sf(k, rate: float) -> np.ndarray:
    """log P(X > k) for counts k far above the rate, where ``pdtrc``
    underflows: log pmf(k + 1) plus the log of the series
    1 + sum_j prod_{i <= j} rate / (k + 1 + i), summed until a term no
    longer changes the total."""
    term = np.ones_like(k)
    total = np.ones_like(k)
    i = 1
    while np.any(term > 1e-17 * total):
        term = term * rate / (k + 1.0 + i)
        total = total + term
        i += 1
    return (k + 1.0) * np.log(rate) - rate - gammaln(k + 2.0) + np.log(total)


def latent_bounds_arrays(x, margin: MarginParams) -> tuple[np.ndarray, np.ndarray]:
    """Latent intervals (b_lo, b_hi] of a discrete margin at support points x.

    The standard normal measure of each interval equals the margin mass at
    its point; the first support point opens at -inf and the last closes at
    +inf.  The work is per element of x, so a caller with a whole column
    passes its distinct values (``model.discrete_index``) and gathers.
    Poisson scores above the median come from the upper tail, in log space
    where it underflows, so a large count keeps a finite, non-empty
    interval.
    """
    if not is_discrete(margin):
        raise SupportError("latent bounds are defined for discrete margins only")
    x = np.asarray(x, dtype=float)
    _check_support(x, margin)
    if isinstance(margin, PoissonMargin):
        k = np.stack([x - 1.0, x])
        cdf = cdf_array(k, margin)
        sf = pdtrc(k, margin.rate)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(cdf > 0.5, -ndtri(sf), ndtri(cdf))
        far = sf < np.finfo(float).tiny  # there cdf rounds to 1
        if far.any():
            scores[far] = -ndtri_exp(_poisson_log_sf(k[far], margin.rate))
        return scores[0], scores[1]
    with np.errstate(divide="ignore"):
        cuts = ndtri(cdf_array(np.arange(margin.levels + 1.0), margin))
    level = x.astype(int)
    return cuts[level - 1], cuts[level]


# ---------------------------------------------------------------------------
# serialization

def margin_to_dict(margin: MarginParams) -> dict:
    """JSON-ready document of a margin: its family and its numbers."""
    if isinstance(margin, GaussianMargin):
        return {"family": "gaussian", "mu": float(margin.mu),
                "sigma": float(margin.sigma)}
    if isinstance(margin, PoissonMargin):
        return {"family": "poisson", "rate": float(margin.rate)}
    return {"family": "multinomial", "probs": margin.probs.tolist()}


def margin_from_dict(doc: dict) -> MarginParams:
    """The margin a ``margin_to_dict`` document describes."""
    fam = doc.get("family")
    if fam == "gaussian":
        return GaussianMargin(float(doc["mu"]), float(doc["sigma"]))
    if fam == "poisson":
        return PoissonMargin(float(doc["rate"]))
    if fam == "multinomial":
        return OrdinalMargin(np.asarray(doc["probs"], dtype=float))
    raise ValueError(f"unknown margin family {fam!r}")


# ---------------------------------------------------------------------------
# priors

@dataclass(frozen=True)
class GaussianNIGPrior:
    """sigma^2 ~ InvGamma(c0, C0) (shape/scale), mu | sigma^2 ~ N(b0, sigma^2/N0)."""

    b0: float
    N0: float
    c0: float
    C0: float

    def __post_init__(self):
        if min(self.N0, self.c0, self.C0) <= 0:
            raise ValueError("hyper-parameters must be positive")


@dataclass(frozen=True)
class PoissonGammaPrior:
    """rate ~ Gamma(a0, A0) in shape/rate form."""

    a0: float
    A0: float

    def __post_init__(self):
        if min(self.a0, self.A0) <= 0:
            raise ValueError("hyper-parameters must be positive")


class OrdinalDirichletPrior:
    """Dirichlet over level probabilities; default Jeffreys (all 1/2)."""

    __slots__ = ("alpha",)

    def __init__(self, levels: int | None = None, alpha=None):
        if alpha is None:
            if levels is None or levels < 2:
                raise ValueError("need >= 2 levels")
            alpha = np.full(levels, 0.5)
        alpha = np.asarray(alpha, dtype=float)
        if alpha.ndim != 1 or alpha.size < 2 or np.any(alpha <= 0):
            raise ValueError("alpha must be a positive vector of length >= 2")
        alpha.setflags(write=False)
        self.alpha = alpha

    @property
    def levels(self) -> int:
        return self.alpha.size

    def __repr__(self):
        return f"OrdinalDirichletPrior(alpha={self.alpha.tolist()})"


MarginPrior = GaussianNIGPrior | PoissonGammaPrior | OrdinalDirichletPrior


def default_prior(column: np.ndarray, kind) -> MarginPrior:
    """Empirical hyper-parameter choices from the whole observed column.

    Gaussian: c0 = 1.28, C0 = 0.36 Var(x), b0 = mean(x), N0 = 2.6 / range(x).
    Poisson: a0 = 1, A0 = a0 n / sum(x).  Ordinal: Dirichlet(1/2, ..., 1/2).
    """
    column = np.asarray(column, dtype=float)
    if kind.tag == "continuous":
        rng_ = float(np.max(column) - np.min(column))
        var = float(np.var(column, ddof=1))
        if rng_ <= 0 or var <= 0:
            raise ValueError("constant continuous column: prior scale would vanish")
        return GaussianNIGPrior(b0=float(np.mean(column)), N0=2.6 / rng_,
                                c0=1.28, C0=0.36 * var)
    if kind.tag == "integer":
        total = float(np.sum(column))
        if total <= 0:
            raise ValueError("all-zero integer column: prior rate would diverge")
        return PoissonGammaPrior(a0=1.0, A0=column.size / total)
    return OrdinalDirichletPrior(levels=kind.levels)


# ---------------------------------------------------------------------------
# conjugate posteriors (exact under local independence)

def _nig_posterior(values: np.ndarray, prior: GaussianNIGPrior):
    n = values.size
    if n == 0:
        return prior
    xbar = float(np.mean(values))
    Nn = prior.N0 + n
    bn = (prior.N0 * prior.b0 + n * xbar) / Nn
    cn = prior.c0 + 0.5 * n
    Cn = (prior.C0 + 0.5 * float(np.sum((values - xbar) ** 2))
          + 0.5 * prior.N0 * n * (xbar - prior.b0) ** 2 / Nn)
    return GaussianNIGPrior(b0=bn, N0=Nn, c0=cn, C0=Cn)


def posterior_hyperparams(values, prior: MarginPrior) -> MarginPrior:
    """Hyper-parameters of the conjugate posterior given assigned values."""
    values = np.asarray(values, dtype=float)
    if isinstance(prior, GaussianNIGPrior):
        return _nig_posterior(values, prior)
    if isinstance(prior, PoissonGammaPrior):
        return PoissonGammaPrior(a0=prior.a0 + float(np.sum(values)),
                                 A0=prior.A0 + values.size)
    counts = np.bincount(values.astype(int), minlength=prior.levels + 1)[1:]
    return OrdinalDirichletPrior(alpha=prior.alpha + counts)


def conjugate_posterior_sample(values, prior: MarginPrior,
                               rng: np.random.Generator) -> MarginParams:
    """One exact draw from the conjugate posterior (prior draw if no data)."""
    post = posterior_hyperparams(values, prior)
    if isinstance(post, GaussianNIGPrior):
        sigma2 = post.C0 / rng.gamma(post.c0)
        mu = rng.normal(post.b0, np.sqrt(sigma2 / post.N0))
        return GaussianMargin(mu=float(mu), sigma=float(np.sqrt(sigma2)))
    if isinstance(post, PoissonGammaPrior):
        return PoissonMargin(rate=float(rng.gamma(post.a0, 1.0 / post.A0)))
    alpha = post.alpha
    p = rng.dirichlet(alpha)
    p = p / p.sum()
    return OrdinalMargin(p)
