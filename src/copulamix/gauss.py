"""Multivariate normal numerics.

Conditional distributions, rectangle (box) probabilities, truncated sampling,
inverse Wishart draws and covariance-to-correlation normalization.  Rectangle
probabilities use a closed form in one dimension, a deterministic
Drezner/Genz algorithm in two, a Gauss-Legendre conditioning rule in three
and randomized quasi-Monte Carlo separation of variables beyond that.

Everything is a pure function of its inputs plus a caller-supplied
``numpy.random.Generator``; batch variants share one covariance across many
rows of bounds, which is the shape the sampler needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

__all__ = [
    "NumericalError", "Box", "BoxProb",
    "chol_spd", "conditional_gaussian", "normalize_to_correlation",
    "is_correlation_matrix", "random_correlation_matrix",
    "inverse_wishart_sample",
    "truncated_univariate_normal_sample", "truncated_normal_rows",
    "log_gaussian_interval",
    "truncated_mvn_sample", "gibbs_coefficients", "truncated_mvn_gibbs_rows",
    "box_probability", "box_probabilities",
    "bvn_rectangle", "mvn_logpdf_rows",
]

_JITTER_START = 1e-10
_JITTER_MAX = 1e-6
_TAIL_CUT = 8.5  # standard deviations; one-sided tail mass < 1e-17


class NumericalError(ArithmeticError):
    """Unrecoverable numerical degeneracy (singular or indefinite matrix)."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with possibly infinite per-dimension bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        if np.any(lo >= hi):
            raise ValueError("box needs lower < upper in every dimension")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def full(cls, dim: int) -> "Box":
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))


class BoxProb(NamedTuple):
    value: float
    error: float


# ---------------------------------------------------------------------------
# linear algebra helpers

def chol_spd(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with bounded jitter repair.

    Jitter starts at 1e-10 on the diagonal and escalates tenfold up to 1e-6
    before giving up.
    """
    matrix = np.asarray(matrix, dtype=float)
    try:
        return cholesky(matrix, lower=True)
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_START
    eye = np.eye(matrix.shape[0])
    while jitter <= _JITTER_MAX:
        try:
            return cholesky(matrix + jitter * eye, lower=True)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError("matrix is not positive definite (jitter repair failed)")


def is_correlation_matrix(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    if np.max(np.abs(matrix - matrix.T)) > tol:
        return False
    if np.max(np.abs(np.diag(matrix) - 1.0)) > tol:
        return False
    return bool(np.all(np.linalg.eigvalsh(matrix) > 0))


def normalize_to_correlation(covariance: np.ndarray) -> np.ndarray:
    """Rescale a positive definite covariance to unit diagonal."""
    covariance = np.asarray(covariance, dtype=float)
    d = np.diag(covariance)
    if np.any(d <= 0):
        raise NumericalError("covariance has a non-positive diagonal entry")
    s = 1.0 / np.sqrt(d)
    corr = covariance * np.outer(s, s)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    chol_spd(corr)  # raises if indefinite beyond repair
    return corr


def random_correlation_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank correlation matrix (test/fuzzing helper)."""
    a = rng.normal(size=(dim, dim + 2))
    return normalize_to_correlation(a @ a.T / (dim + 2))


def conditional_gaussian(cov: np.ndarray, target_idx, given_idx,
                         y_given: np.ndarray, mean: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Schur-complement conditional of a Gaussian vector.

    Returns the mean and covariance of the ``target_idx`` block conditioned
    on the ``given_idx`` block taking value ``y_given``.  The overall mean
    defaults to zero.
    """
    cov = np.asarray(cov, dtype=float)
    target_idx = np.asarray(target_idx, dtype=int)
    given_idx = np.asarray(given_idx, dtype=int)
    if np.intersect1d(target_idx, given_idx).size:
        raise ValueError("target and conditioning index sets must be disjoint")
    if mean is None:
        mean = np.zeros(cov.shape[0])
    if given_idx.size == 0:
        return mean[target_idx], cov[np.ix_(target_idx, target_idx)]

    c_gg = cov[np.ix_(given_idx, given_idx)]
    if np.linalg.cond(c_gg) > 1e12:
        raise NumericalError("conditioning block is numerically singular")
    c_tg = cov[np.ix_(target_idx, given_idx)]
    factor = cho_factor(c_gg, lower=True)
    # A = C_tg C_gg^{-1}
    coef = cho_solve(factor, c_tg.T).T
    cond_mean = mean[target_idx] + coef @ (np.asarray(y_given, float) - mean[given_idx])
    cond_cov = cov[np.ix_(target_idx, target_idx)] - coef @ c_tg.T
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    return cond_mean, cond_cov


def conditional_coefficients(cov: np.ndarray, j: int) -> tuple[np.ndarray, float]:
    """Regression coefficients and residual variance of coordinate ``j``
    given the remaining coordinates."""
    dim = cov.shape[0]
    rest = np.delete(np.arange(dim), j)
    factor = cho_factor(cov[np.ix_(rest, rest)], lower=True)
    coef = cho_solve(factor, cov[rest, j])
    var = float(cov[j, j] - cov[j, rest] @ coef)
    return coef, max(var, 1e-14)


def mvn_logpdf_rows(y: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Centred multivariate normal log density, vectorized over rows."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.shape[1] == 0:
        return np.zeros(y.shape[0])
    chol = chol_spd(cov)
    z = solve_triangular(chol, y.T, lower=True)
    quad = np.sum(z * z, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (quad + logdet + y.shape[1] * np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# inverse Wishart

def inverse_wishart_sample(df: float, scale: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw from the inverse Wishart with the given degrees of freedom and
    scale matrix, via the Bartlett decomposition.

    Requires df > dim - 1; the draw scales linearly with the scale matrix for
    a fixed generator stream.
    """
    scale = np.asarray(scale, dtype=float)
    dim = scale.shape[0]
    if df <= dim - 1:
        raise ValueError("degrees of freedom must exceed dimension - 1")
    c = chol_spd(scale)
    a = np.zeros((dim, dim))
    idx = np.tril_indices(dim, -1)
    a[idx] = rng.normal(size=idx[0].size)
    a[np.diag_indices(dim)] = np.sqrt(rng.chisquare(df - np.arange(dim)))
    # draw = C (A A^T)^{-1} C^T with A A^T ~ Wishart(df, I)
    m = solve_triangular(a, c.T, lower=True)
    draw = m.T @ m
    return 0.5 * (draw + draw.T)


# ---------------------------------------------------------------------------
# truncated normal sampling

def _upper_tail_terms(lower, upper):
    """Survival-function terms of (lower, upper) on its upper tail.

    A row whose midpoint is not positive is mirrored to (-upper, -lower),
    which has the same mass, so every element goes through one path.
    Returns ``flip`` (the mirrored rows), ``log_sf_a`` = log sf(a) and
    ``ratio`` = sf(b) / sf(a) for the (possibly mirrored) interval (a, b).
    """
    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    lo_f = np.where(finite_lo, lower, 0.0)
    hi_f = np.where(finite_hi, upper, 0.0)
    # one finite end stands in for the midpoint; none gives 0
    mid = np.where(finite_lo & finite_hi, 0.5 * (lo_f + hi_f), lo_f + hi_f)
    flip = ~((mid > 0) & (mid < np.inf))  # an overflowed midpoint counts as 0
    neg_a = np.where(flip, upper, -lower)
    neg_b = np.where(flip, lower, -upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sf_a = log_ndtr(neg_a)
        log_sf_b = np.where(np.isinf(neg_b), -np.inf, log_ndtr(neg_b))
        ratio = np.exp(log_sf_b - log_sf_a)
    return flip, log_sf_a, ratio


def _trunc_std_normal(lower, upper, u):
    """Inverse-cdf draw of a standard normal restricted to (lower, upper).

    ``u`` are uniforms of matching shape.  Evaluated in log space on the
    upper tail, mirroring lower-tail intervals, so intervals many standard
    deviations out stay exact.  The draw is the truncated quantile at ``u``
    when the interval's midpoint is positive and at ``1 - u`` otherwise.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    u = np.asarray(u, dtype=float)
    lower, upper, u = np.broadcast_arrays(lower, upper, u)

    flip, log_sf_a, ratio = _upper_tail_terms(lower, upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sf = log_sf_a + np.log1p(u * (ratio - 1.0))
        x = ndtri_exp(np.minimum(log_sf, 0.0))
    return np.clip(np.where(flip, x, -x), lower, upper)


def log_gaussian_interval(lower, upper):
    """log(Phi(upper) - Phi(lower)) for standard normal scores, stable in
    both tails; -inf for an empty interval."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    _, log_sf_a, ratio = _upper_tail_terms(lower, upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_sf_a + np.log1p(-ratio)
    return np.where(lower < upper, out, -np.inf)


def truncated_normal_rows(mean, sd, lower, upper,
                          rng: np.random.Generator) -> np.ndarray:
    """Vectorized truncated normal draws, one per row of bounds."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    a = (lower - mean) / sd
    b = (upper - mean) / sd
    u = rng.uniform(size=np.broadcast(a, b).shape)
    return mean + sd * _trunc_std_normal(a, b, u)


def truncated_univariate_normal_sample(mean: float, sd: float, lower: float,
                                       upper: float,
                                       rng: np.random.Generator) -> float:
    """One truncated normal draw in (lower, upper)."""
    if not sd > 0:
        raise ValueError("standard deviation must be positive")
    if not lower < upper:
        raise ValueError("need lower < upper")
    return float(truncated_normal_rows(mean, sd, lower, upper, rng))


def gibbs_coefficients(cov: np.ndarray
                       ) -> tuple[list[np.ndarray], list[float]]:
    """Regression coefficients and conditional standard deviations of every
    coordinate given the others, for a covariance of dimension at least 2.

    These are the full conditionals a coordinate-wise Gibbs sweep draws
    from; pass them to every ``truncated_mvn_gibbs_rows`` call that shares
    the covariance.
    """
    coefs = []
    sds = []
    for j in range(cov.shape[0]):
        coef, var = conditional_coefficients(cov, j)
        coefs.append(coef)
        sds.append(np.sqrt(var))
    return coefs, sds


def truncated_mvn_gibbs_rows(cov: np.ndarray, means: np.ndarray,
                             lower: np.ndarray, upper: np.ndarray,
                             rng: np.random.Generator, sweeps: int = 10,
                             init: np.ndarray | None = None,
                             coefficients: tuple | None = None) -> np.ndarray:
    """Coordinate-wise Gibbs sampling of a box-truncated multivariate normal,
    vectorized over rows that share one covariance.

    ``means``, ``lower`` and ``upper`` are (n, d); the return value lies
    strictly inside its box row by row, whatever the start.  The start is
    the box-clamped mean unless ``init`` gives one.  ``coefficients`` is
    ``gibbs_coefficients(cov)``, computed here when not given.
    """
    cov = np.asarray(cov, dtype=float)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    n, d = lower.shape
    if d == 0:
        return np.zeros((n, 0))
    if d == 1:
        sd = np.sqrt(cov[0, 0])
        return truncated_normal_rows(means[:, 0], sd, lower[:, 0],
                                     upper[:, 0], rng)[:, None]

    if init is None:
        sds = np.sqrt(np.diag(cov))
        lo_f = np.where(np.isfinite(lower), lower,
                        np.where(np.isfinite(upper), upper - 2.0 * sds,
                                 means - 3.0 * sds))
        hi_f = np.where(np.isfinite(upper), upper,
                        np.where(np.isfinite(lower), lower + 2.0 * sds,
                                 means + 3.0 * sds))
        y = np.clip(means, lo_f + 1e-9 * (hi_f - lo_f), hi_f - 1e-9 * (hi_f - lo_f))
    else:
        y = np.array(init, dtype=float, copy=True)

    if coefficients is None:
        coefficients = gibbs_coefficients(cov)
    coefs, sds_c = coefficients
    rest_idx = [np.delete(np.arange(d), j) for j in range(d)]

    centered = y - means
    for _ in range(max(1, sweeps)):
        for j in range(d):
            m = means[:, j] + centered[:, rest_idx[j]] @ coefs[j]
            draw = truncated_normal_rows(m, sds_c[j], lower[:, j], upper[:, j], rng)
            centered[:, j] = draw - means[:, j]
    return centered + means


def truncated_mvn_sample(mean, cov, box: Box, rng: np.random.Generator,
                         sweeps: int = 10) -> np.ndarray:
    """One draw from a box-truncated multivariate normal via Gibbs sweeps."""
    prob = box_probability(mean, cov, box, rng=rng).value
    if prob < 1e-300:
        raise NumericalError("box probability underflows; region is degenerate")
    out = truncated_mvn_gibbs_rows(np.asarray(cov, float),
                                   np.asarray(mean, float)[None, :],
                                   box.lower[None, :], box.upper[None, :],
                                   rng, sweeps=sweeps)
    return out[0]


# ---------------------------------------------------------------------------
# rectangle probabilities

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _bvn_upper(h, k, r: float):
    """P(X > h, Y > k) for a standard bivariate normal with correlation r.

    Port of Genz's deterministic algorithm: Gauss-Legendre in the angle for
    moderate |r|, tail expansion for |r| close to one.  Vectorized over h, k.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    h, k = np.broadcast_arrays(h, k)
    if r == 0.0:
        return ndtr(-h) * ndtr(-k)
    if r >= 1.0 - 1e-15:
        return ndtr(-np.maximum(h, k))
    if r <= -1.0 + 1e-15:
        return np.maximum(0.0, ndtr(-h) - ndtr(k))

    tp = 2.0 * np.pi
    if abs(r) < 0.925:
        hk = h * k
        hs = 0.5 * (h * h + k * k)
        asr = 0.5 * np.arcsin(r)
        sn = np.sin(asr * (1.0 + _GL_NODES))
        with np.errstate(over="ignore", under="ignore"):
            terms = np.exp((np.multiply.outer(sn, hk) - hs) / (1.0 - sn[:, None] ** 2))
        bvn = _GL_WEIGHTS @ terms
        return np.clip(bvn * asr / tp + ndtr(-h) * ndtr(-k), 0.0, 1.0)

    # |r| >= 0.925: Genz's expansion near the singular correlation
    sign = 1.0 if r > 0 else -1.0
    kk = -k if r < 0 else k
    hk = h * kk
    bvn = np.zeros_like(h)

    as_ = (1.0 - r) * (1.0 + r)
    a = np.sqrt(as_)
    bs = (h - kk) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -(bs / as_ + hk) / 2.0
    m1 = asr > -100.0
    with np.errstate(over="ignore", under="ignore"):
        bvn = np.where(
            m1,
            a * np.exp(asr) * (1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0
                               + c * d * as_ * as_ / 5.0),
            0.0,
        )
        m2 = -hk < 100.0
        b = np.sqrt(bs)
        sp = np.sqrt(tp) * ndtr(-b / a)
        bvn = np.where(
            m2,
            bvn - np.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            bvn,
        )
        a2 = a / 2.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            xs = (a2 * (node + 1.0)) ** 2
            rs = np.sqrt(1.0 - xs)
            asr0 = -(bs / xs + hk) / 2.0
            mi = asr0 > -100.0
            sp0 = 1.0 + c * xs * (1.0 + d * xs)
            ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
            bvn = np.where(mi, bvn + a2 * weight * np.exp(asr0) * (ep - sp0), bvn)
    bvn = -bvn / tp
    if sign > 0:
        p = bvn + ndtr(-np.maximum(h, kk))
    else:
        p = -bvn + np.maximum(0.0, ndtr(-h) - ndtr(-kk))
    return np.clip(p, 0.0, 1.0)


def bvn_rectangle(lower, upper, rho: float):
    """P(a1 < X < b1, a2 < Y < b2) for a standard bivariate normal,
    vectorized over (n, 2) bound arrays via inclusion-exclusion."""
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    a1, a2 = lower[:, 0], lower[:, 1]
    b1, b2 = upper[:, 0], upper[:, 1]
    big = 37.0  # ndtr underflows past ~37 sd anyway

    def u(x):
        return np.clip(np.where(np.isfinite(x), x, np.sign(x) * big), -big, big)

    p = (_bvn_upper(u(a1), u(a2), rho) - _bvn_upper(u(a1), u(b2), rho)
         - _bvn_upper(u(b1), u(a2), rho) + _bvn_upper(u(b1), u(b2), rho))
    return np.clip(p, 0.0, 1.0)


_TRI_NODES, _TRI_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _trivariate_rectangle(cov: np.ndarray, lower: np.ndarray,
                          upper: np.ndarray) -> np.ndarray:
    """Deterministic 3-d rectangle probability by conditioning on the first
    coordinate (Gauss-Legendre) with the conditional 2-d rectangle in closed
    form.  Bounds are (n, 3) for a shared zero-mean covariance."""

    s1 = np.sqrt(cov[0, 0])
    # conditional of dims 1,2 given dim 0
    beta = cov[1:, 0] / cov[0, 0]
    cc = cov[1:, 1:] - np.outer(beta, cov[0, 1:])
    sds = np.sqrt(np.diag(cc))
    rho = float(np.clip(cc[0, 1] / (sds[0] * sds[1]), -1.0, 1.0))

    a1 = np.maximum(lower[:, 0] / s1, -_TAIL_CUT)
    b1 = np.minimum(upper[:, 0] / s1, _TAIL_CUT)
    width = np.maximum(b1 - a1, 0.0)
    # nodes: (q, n)
    t = 0.5 * np.multiply.outer(_TRI_NODES + 1.0, width) + a1
    w = 0.5 * np.multiply.outer(_TRI_WEIGHTS, width)
    phi = np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)

    mu1 = beta[0] * s1 * t
    mu2 = beta[1] * s1 * t
    lo1 = (lower[:, 1][None, :] - mu1) / sds[0]
    hi1 = (upper[:, 1][None, :] - mu1) / sds[0]
    lo2 = (lower[:, 2][None, :] - mu2) / sds[1]
    hi2 = (upper[:, 2][None, :] - mu2) / sds[1]
    inner = bvn_rectangle(
        np.stack([lo1.ravel(), lo2.ravel()], axis=1),
        np.stack([hi1.ravel(), hi2.ravel()], axis=1),
        rho,
    ).reshape(t.shape)
    return np.clip(np.sum(w * phi * inner, axis=0), 0.0, 1.0)


_QMC_PRIMES = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                        47, 53, 59, 61, 67, 71], dtype=float)


def _mvn_qmc_batch(chol: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                   rng: np.random.Generator, n_points: int,
                   n_shifts: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Genz separation-of-variables rectangle probability with a randomly
    shifted rank-1 lattice.  Returns per-row estimates and standard errors
    for (n, d) bound arrays sharing one Cholesky factor."""
    n, d = lower.shape
    diag = np.diag(chol)
    eps = 1e-15

    gen = np.sqrt(_QMC_PRIMES[: max(d - 1, 1)])
    kvec = np.arange(1, n_points + 1)[:, None]
    base = kvec * gen[None, :]  # (q, d-1)

    estimates = np.zeros((n_shifts, n))
    for s in range(n_shifts):
        shift = rng.uniform(size=max(d - 1, 1))
        w = np.abs(2.0 * np.modf(base + shift)[0] - 1.0)  # antithetic fold
        # sequential conditioning, vectorized over (points, rows)
        dlo = ndtr(np.broadcast_to(lower[:, 0] / diag[0], (n_points, n)))
        dhi = ndtr(np.broadcast_to(upper[:, 0] / diag[0], (n_points, n)))
        f = dhi - dlo
        ys = np.zeros((d - 1, n_points, n)) if d > 1 else None
        for i in range(1, d):
            z = dlo + w[:, i - 1][:, None] * (dhi - dlo)
            ys[i - 1] = ndtri(np.clip(z, eps, 1.0 - eps))
            mu = np.tensordot(chol[i, :i], ys[:i], axes=(0, 0))
            dlo = ndtr((lower[:, i][None, :] - mu) / diag[i])
            dhi = ndtr((upper[:, i][None, :] - mu) / diag[i])
            f = f * np.maximum(dhi - dlo, 0.0)
        estimates[s] = f.mean(axis=0)

    value = estimates.mean(axis=0)
    err = estimates.std(axis=0, ddof=1) / np.sqrt(n_shifts)
    return np.clip(value, 0.0, 1.0), 3.0 * err


def box_probabilities(cov: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                      rng: np.random.Generator | None = None,
                      rel_tol: float = 1e-4,
                      max_points: int = 20000) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean rectangle probabilities for many rows sharing one covariance.

    Returns (values, error estimates); the d <= 3 paths are deterministic and
    report a small constant error bound.
    """
    cov = np.asarray(cov, dtype=float)
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    n, d = lower.shape
    if d == 0:
        return np.ones(n), np.zeros(n)
    if d == 1:
        s = np.sqrt(cov[0, 0])
        p = ndtr(upper[:, 0] / s) - ndtr(lower[:, 0] / s)
        return np.clip(p, 0.0, 1.0), np.full(n, 1e-15)
    if d == 2:
        sds = np.sqrt(np.diag(cov))
        rho = float(np.clip(cov[0, 1] / (sds[0] * sds[1]), -1.0, 1.0))
        p = bvn_rectangle(lower / sds, upper / sds, rho)
        return p, np.full(n, 5e-14)
    if d == 3:
        return _trivariate_rectangle(cov, lower, upper), np.full(n, 1e-8)

    if rng is None:
        rng = np.random.default_rng(0)
    chol = chol_spd(cov)
    pts = 512
    value, err = _mvn_qmc_batch(chol, lower, upper, rng, pts)
    while pts < max_points and np.any(err > np.maximum(rel_tol * value, 1e-12)):
        pts *= 2
        value, err = _mvn_qmc_batch(chol, lower, upper, rng, pts)
    return value, err


def box_probability(mean, cov, box: Box, rng: np.random.Generator | None = None,
                    rel_tol: float = 1e-4) -> BoxProb:
    """Probability that N(mean, cov) falls in the box, with an error estimate."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    value, err = box_probabilities(cov, (box.lower - mean)[None, :],
                                   (box.upper - mean)[None, :],
                                   rng=rng, rel_tol=rel_tol)
    return BoxProb(float(value[0]), float(err[0]))
