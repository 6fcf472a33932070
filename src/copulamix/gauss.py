"""Multivariate normal numerics.

Cholesky factors with jitter repair, correlation normalization, row-wise
normal log densities and inverse Wishart draws.  Truncated normals:
one-dimensional draws per row, log interval masses stable in both tails, the
GHK sequential draw (or score) of a box-truncated vector that the sampler's
latent move proposes, and the means of such a vector for the visualization:
closed form in one dimension, a deterministic nested tanh-sinh rule in two
and GHK importance sampling on the scoring lattice under its fixed shifts
beyond that.
Rectangle (box) probabilities score fitted mixtures, as logs: a closed form
in one dimension, the same nested tanh-sinh rule in two and three, which
keeps relative precision in both tails, and a quasi-Monte Carlo lattice
rule on Genz's separation of variables beyond that.

Everything is a pure function of its inputs, plus a caller-supplied
``numpy.random.Generator`` where it draws; batch variants share one
covariance across many rows of bounds, which is the shape the sampler needs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

__all__ = [
    "NumericalError", "chol_spd", "normalize_to_correlation",
    "is_correlation_matrix", "inverse_wishart_sample",
    "truncated_normal_rows", "log_gaussian_interval",
    "ghk_rows", "ghk_means", "box_probabilities", "mvn_logpdf_rows",
]

_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


class NumericalError(ArithmeticError):
    """Unrecoverable numerical degeneracy (singular or indefinite matrix)."""


# ---------------------------------------------------------------------------
# linear algebra helpers

def chol_spd(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with bounded jitter repair.

    Jitter starts at 1e-10 on the diagonal and escalates tenfold up to 1e-6
    before giving up.  A NaN or infinite entry raises ``ValueError``, which
    numpy's factorization would not: it returns NaNs.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must not contain infs or NaNs")
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_START
    eye = np.eye(matrix.shape[0])
    while jitter <= _JITTER_MAX:
        try:
            return np.linalg.cholesky(matrix + jitter * eye)
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


def mvn_logpdf_rows(y: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Centred multivariate normal log density, vectorized over rows."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.shape[1] == 0:
        return np.zeros(y.shape[0])
    chol = chol_spd(cov)
    # numpy, not scipy's solve_triangular: that trsm call wakes an OpenBLAS
    # helper thread, which then spins and takes a core from other chains
    z = np.linalg.solve(chol, y.T)
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
    m = np.linalg.solve(a, c.T)  # no BLAS helper thread, as in mvn_logpdf_rows
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

    ``u`` are uniforms that broadcast with the bounds; bounds shared by many
    uniforms cost once.  Evaluated in log space on the upper tail, mirroring
    lower-tail intervals, so intervals many standard deviations out stay
    exact.  The draw is the truncated quantile at ``u`` when the interval's
    midpoint is positive and at ``1 - u`` otherwise.
    """
    return _trunc_std_normal_mass(lower, upper, u)[0]


def _trunc_std_normal_mass(lower, upper, u):
    """``_trunc_std_normal`` and ``log_gaussian_interval`` of the bounds,
    from one evaluation of the tail terms."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    flip, log_sf_a, ratio = _upper_tail_terms(lower, upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sf = log_sf_a + np.log1p(u * (ratio - 1.0))
        x = ndtri_exp(np.minimum(log_sf, 0.0))
        log_mass = np.where(lower < upper, log_sf_a + np.log1p(-ratio), -np.inf)
    return np.clip(np.where(flip, x, -x), lower, upper), log_mass


def log_gaussian_interval(lower, upper):
    """log(Phi(upper) - Phi(lower)) for standard normal scores, stable in
    both tails; -inf for an empty interval."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    _, log_sf_a, ratio = _upper_tail_terms(lower, upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_sf_a + np.log1p(-ratio)
    return np.where(lower < upper, out, -np.inf)


def _interval_moments(lower, upper):
    """Log mass and mean of a standard normal on (lower, upper), from the
    one tail path of ``log_gaussian_interval``, so both stay exact far out."""
    flip, log_sf_a, ratio = _upper_tail_terms(lower, upper)
    a, b = np.where(flip, -upper, lower), np.where(flip, -lower, upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_phi = -0.5 * (np.stack([a, b]) ** 2 + np.log(2.0 * np.pi))
        mills = np.exp(log_phi - log_sf_a)
        mean = np.clip((mills[0] - mills[1]) / (1.0 - ratio), a, b)
        return log_sf_a + np.log1p(-ratio), np.where(flip, -mean, mean)


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


def ghk_rows(chol: np.ndarray, mean: np.ndarray, lower: np.ndarray,
             upper: np.ndarray, rng: np.random.Generator | None = None,
             y: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """GHK sequential draw, or score, of N(mean, chol chol^T) in a box.

    Coordinates are taken in column order: each is drawn from its normal
    conditional on the ones before it, truncated to its interval, and the
    log of that conditional interval mass is added to the row's log weight
    log w.  The draw's density is the box-truncated normal density times
    P / w, where P is the box probability.  ``mean``, ``lower`` and
    ``upper`` are (n, d) and ``chol`` is the (d, d) lower Cholesky factor.
    With ``y`` given nothing is drawn: its log weight is returned, -inf
    for a row outside its box.
    """
    n, d = lower.shape
    draw = y is None
    y = np.empty((n, d)) if draw else np.asarray(y, dtype=float)
    e = np.empty((n, d))
    log_w = np.zeros(n)
    inside = np.ones(n, dtype=bool)
    for i in range(d):
        mu = mean[:, i] + e[:, :i] @ chol[i, :i]
        a = (lower[:, i] - mu) / chol[i, i]
        b = (upper[:, i] - mu) / chol[i, i]
        if draw:
            e[:, i], log_mass = _trunc_std_normal_mass(a, b, rng.random(n))
            y[:, i] = mu + chol[i, i] * e[:, i]
        else:
            e[:, i] = (y[:, i] - mu) / chol[i, i]
            log_mass = log_gaussian_interval(a, b)
            # column by column: numpy reduces slowly along a short axis
            inside &= (y[:, i] >= lower[:, i]) & (y[:, i] <= upper[:, i])
        log_w += log_mass
    if not draw:
        log_w = np.where(inside, log_w, -np.inf)
    return y, log_w


_GHK_POINTS = 62  # lattice points per shift at d >= 3, 8 x 62 a row
_GHK_BLOCK = 8192  # working elements per block of rows; bounds peak memory
_TS_SPAN = 3.0  # tanh-sinh range |s| <= 3: the end nodes are 2e-14 from 0, 1
_TS_TOL = 1e-10  # a row refines while its last two levels differ by more
_TS_LEVELS = 7  # finest step 2^-7, 769 nodes
_TS_ROUNDING = 1e-13  # error floor, relative to a value's size (at least 1)


def _ordered_groups(cov: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """The rows of (n, d) boxes grouped by their coordinate order, ascending
    interval mass: yields (order, Cholesky factor of ``cov`` in that order,
    rows)."""
    sd = np.sqrt(np.diag(cov))
    order = np.argsort(log_gaussian_interval(lower / sd, upper / sd), axis=1,
                       kind="stable")
    for perm in np.unique(order, axis=0):
        yield (perm, chol_spd(cov[np.ix_(perm, perm)]),
               np.flatnonzero(np.all(order == perm, axis=1)))


def ghk_means(cov: np.ndarray, lower: np.ndarray, upper: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Mean of N(0, cov) restricted to each row's (n, d) box, with errors.

    Coordinates are taken in ascending order of interval mass per row: the
    first d - 1 enter at truncated-normal quantiles, the last as its
    closed-form truncated mean, and a point weighs the product of its
    conditional interval masses.  d = 1 is exact.  d = 2 is a deterministic
    nested tanh-sinh rule over the first coordinate's quantile (see
    ``_tanh_sinh``).  Beyond that, self-normalised GHK importance
    sampling on Genz's separation of variables takes the quantiles at the
    points of the scoring lattice (``_lattice``) under the fixed shifts of
    ``_QMC_SHIFT_TABLE``, ``_GHK_POINTS`` points each, with standard errors
    over the shifts.  Nothing is drawn at any d, so equal inputs give equal
    outputs.  Row blocks bound memory and do not change the result.
    """
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    n, d = lower.shape
    if d == 1:
        sd = np.sqrt(cov[0, 0])
        _, mean = _interval_moments(lower / sd, upper / sd)
        return sd * mean, np.zeros((n, 1))

    if d > 2:
        lattice = _lattice(_GHK_POINTS, _QMC_SHIFT_TABLE[:, : d - 1])
        n_shifts = lattice.shape[0]
        step = max(1, _GHK_BLOCK // (n_shifts * _GHK_POINTS))
    means, errors = np.empty((2, n, d))
    for perm, chol, rows in _ordered_groups(cov, lower, upper):
        if d == 2:
            idx = np.ix_(rows, perm)
            _, _, means[idx], errors[idx] = _tanh_sinh(chol, lower[idx],
                                                       upper[idx])
            continue
        for r in range(0, rows.size, step):
            idx = np.ix_(rows[r:r + step], perm)
            e = []                      # standard draws, (row, shift, point)
            y = np.empty((d, idx[0].size, n_shifts, _GHK_POINTS))
            log_w = 0.0                 # the first interval's mass is constant
            for i in range(d):
                mu = sum(chol[i, j] * e[j] for j in range(i))
                a = (lower[idx][:, i, None, None] - mu) / chol[i, i]
                b = (upper[idx][:, i, None, None] - mu) / chol[i, i]
                if i < d - 1:
                    draw, log_mass = _trunc_std_normal_mass(a, b,
                                                            lattice[..., i])
                    e.append(draw)
                    log_w = log_w + (log_mass if i else 0.0)
                else:
                    log_mass, mean = _interval_moments(a, b)
                    e.append(mean)
                    log_w = log_w + log_mass
                y[i] = mu + chol[i, i] * e[i]
            w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
            # reductions along the last axis: the same order for any block
            est = np.sum(w * y, axis=-1) / np.sum(w, axis=-1)  # d, row, shift
            means[idx] = est.mean(axis=-1).T
            errors[idx] = est.std(axis=-1, ddof=1).T / np.sqrt(n_shifts)
    return means, errors


def _tanh_sinh_level(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t on (0, 1) that level ``level`` (step h = 2^-level) adds to the
    nested tanh-sinh rule t = 1 / (1 + exp(-pi sinh s)), |s| <= _TS_SPAN,
    and their weights dt/ds = pi cosh(s) t (1 - t) without the factor h.
    Level 1 holds every node of step 1/2; each later level adds the odd
    multiples of its step.  t and 1 - t are each computed from an
    exponential, so neither loses relative precision near 0."""
    h = 0.5 ** level
    k = np.arange(-round(_TS_SPAN / h), round(_TS_SPAN / h) + 1)
    s = h * (k if level == 1 else k[k % 2 == 1])
    u = np.pi * np.sinh(s)
    t = 1.0 / (1.0 + np.exp(-u))
    return t, np.pi * np.cosh(s) * t / (1.0 + np.exp(u))


def _tanh_sinh(chol: np.ndarray, lower: np.ndarray, upper: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Log probability and mean of N(0, chol chol^T) on (m, k) boxes, k = 2
    or 3, taken in column order, each with its error.

    The first coordinate enters at its truncated quantile t, and the rest
    by their box given it: in closed form for one coordinate, by this rule
    again for two.  With p the rest's conditional box mass and y the
    point (the first coordinate and the rest's conditional mean), P is the
    first interval's mass times the integral of p over t, and the mean is
    the ratio of the integrals of p y and of p.  The integrals are sums of
    w p (y) over the nodes t of the nested tanh-sinh rule (Takahasi & Mori
    1974), times the step h = 2^-L of the row's last level L; the sums are
    kept in log scale, so far-out boxes keep their relative precision.  The
    rule converges exponentially despite the quantile's endpoint
    singularity on a half-line.  Every row takes levels 1 and 2 (25 nodes);
    a row whose means or log P at its last two levels differ by more than
    ``_TS_TOL`` takes the next, up to ``_TS_LEVELS``.  An error is that
    last difference plus a rounding floor of ``_TS_ROUNDING`` times the
    value's size (at least 1): the difference alone fell below the true
    error by up to 1e-15 on converged rows, where the interval moments'
    rounding, not the rule, sets the error.  At k = 3 the log P error adds
    the conditional boxes' own, averaged with the rule's weights.
    """
    m, k = lower.shape
    c = chol[0, 0]
    log_first = log_gaussian_interval(lower[:, 0] / c, upper[:, 0] / c)
    means, num = np.zeros((2, m, k))           # num: sums of w p y
    change = np.zeros((m, k + 1))              # means, then log P
    log_p, den, inner_err = np.zeros((3, m))   # inner_err: sums of w p err
    scale = np.full(m, -np.inf)
    todo = np.arange(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        for level in range(1, _TS_LEVELS + 1):
            t, w = _tanh_sinh_level(level)
            # two working elements a node: _interval_moments stacks both ends
            step = max(1, _GHK_BLOCK // (2 * t.size))
            for r in range(0, todo.size, step):
                rows = todo[r:r + step]
                lo, hi = lower[rows, :, None], upper[rows, :, None]
                e = _trunc_std_normal(lo[:, 0] / c, hi[:, 0] / c, t)
                mu = chol[1:, 0, None] * e[:, None]  # row, coordinate, node
                if k == 2:
                    log_q, mean = _interval_moments(
                        (lo[:, 1] - mu[:, 0]) / chol[1, 1],
                        (hi[:, 1] - mu[:, 0]) / chol[1, 1])
                    rest = mu[:, 0] + chol[1, 1] * mean
                    y = np.stack([c * e, rest], axis=1)
                else:
                    shape = e.shape
                    box_lo, box_hi = (np.moveaxis(b - mu, 1, 2).reshape(-1, 2)
                                      for b in (lo[:, 1:], hi[:, 1:]))
                    log_q, q_err, rest, _ = _tanh_sinh(chol[1:, 1:], box_lo,
                                                       box_hi)
                    log_q, q_err = log_q.reshape(shape), q_err.reshape(shape)
                    rest = np.moveaxis(rest.reshape(*shape, 2), 2, 1)
                    y = np.concatenate([c * e[:, None], mu + rest], axis=1)
                f = np.log(w) + log_q
                top = np.maximum(scale[rows], f.max(axis=1))
                f = np.exp(f - top[:, None])
                shrink = np.exp(scale[rows] - top)
                scale[rows] = top
                # reductions along the last axis: the same order for any block
                den[rows] = shrink * den[rows] + f.sum(axis=1)
                num[rows] = (shrink[:, None] * num[rows]
                             + (f[:, None] * y).sum(axis=2))
                if k == 3:
                    inner_err[rows] = (shrink * inner_err[rows]
                                       + (f * q_err).sum(axis=1))
                est = np.clip(num[rows] / den[rows, None], lower[rows],
                              upper[rows])
                log_est = (log_first[rows] + level * np.log(0.5)
                           + scale[rows] + np.log(den[rows]))
                change[rows] = np.abs(np.column_stack([est, log_est])
                                      - np.column_stack([means[rows],
                                                         log_p[rows]]))
                means[rows], log_p[rows] = est, log_est
            if level > 1:
                todo = todo[np.max(change[todo], axis=1) > _TS_TOL]
        log_p = np.where(log_first > -np.inf, log_p, -np.inf)
        log_err = (change[:, k] + inner_err / den
                   + _TS_ROUNDING * np.maximum(1.0, np.abs(log_p)))
    return (log_p, log_err, means,
            change[:, :k] + _TS_ROUNDING * np.maximum(1.0, np.abs(means)))


# ---------------------------------------------------------------------------
# rectangle probabilities

_QMC_PRIMES = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                        47, 53, 59, 61, 67, 71], dtype=float)
# fixed shifts s sqrt(p + 1/2), s = 1..8, not multiples of the generators
# sqrt(p), which would put every shifted lattice on the same points; the
# lattice takes them mod 1 (a % here raised every command's peak memory)
_QMC_SHIFT_TABLE = np.outer(np.arange(1, 9), np.sqrt(_QMC_PRIMES + 0.5))
_QMC_REL_TOL = 1e-4  # a row's error target, relative to its value
_QMC_MAX_POINTS = 20000  # points per shift, at most


def _lattice(n_points: int, shifts: np.ndarray) -> np.ndarray:
    """Rank-1 lattice with generators sqrt(p) over the first primes, one per
    column of ``shifts`` (..., dims): the points |2 frac(k gen + shift) - 1|,
    k = 1..n_points, folded into [0, 1] (the baker's transform), shaped
    (..., n_points, dims).  Built in the call, not at import."""
    gen = np.sqrt(_QMC_PRIMES[: shifts.shape[-1]])
    return np.abs(2.0 * np.modf(np.arange(1, n_points + 1)[:, None] * gen
                                + shifts[..., None, :])[0] - 1.0)


def _mvn_qmc_batch(chol: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                   shifts: np.ndarray, n_points: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Genz separation-of-variables rectangle probability with a rank-1
    lattice under each row of ``shifts`` (m, d - 1).  Returns per-row
    estimates and 3 standard errors over the shifts for (n, d) bounds."""
    n, d = lower.shape
    diag = np.diag(chol)
    eps = 1e-15

    estimates = np.zeros((len(shifts), n))
    for s, shift in enumerate(shifts):
        w = _lattice(n_points, shift)
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
    err = estimates.std(axis=0, ddof=1) / np.sqrt(len(shifts))
    return np.clip(value, 0.0, 1.0), 3.0 * err


def box_probabilities(cov: np.ndarray, lower: np.ndarray, upper: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Log rectangle probabilities of N(0, cov) for many rows of (n, d)
    bounds, with errors on the log scale; -inf for an empty box.

    Deterministic at every d.  d = 1 is the closed form, exact.  d = 2 and
    3 take each row's coordinates in ascending order of interval mass and
    the nested tanh-sinh rule over the first (``_tanh_sinh``), which keeps
    relative precision however far out the box lies.  Beyond that, a
    lattice rule under the 8 fixed shifts of ``_QMC_SHIFT_TABLE`` (Genz &
    Bretz 2009) starts at 512 points per shift and doubles, up to
    ``_QMC_MAX_POINTS`` (20 000), for the rows whose error (3 standard
    errors over the shifts) still exceeds ``_QMC_REL_TOL`` (1e-4) of their
    value; a row that has converged keeps its value and error.  It returns
    the log of that value and the error over the value.
    """
    cov = np.asarray(cov, dtype=float)
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    n, d = lower.shape
    if d == 0:
        return np.zeros(n), np.zeros(n)
    if d == 1:
        s = np.sqrt(cov[0, 0])
        return (log_gaussian_interval(lower[:, 0] / s, upper[:, 0] / s),
                np.zeros(n))
    if d <= 3:
        log_p, err = np.empty((2, n))
        for perm, chol, rows in _ordered_groups(cov, lower, upper):
            idx = np.ix_(rows, perm)
            log_p[rows], err[rows], _, _ = _tanh_sinh(chol, lower[idx],
                                                      upper[idx])
        return log_p, err

    chol = chol_spd(cov)
    shifts = _QMC_SHIFT_TABLE[:, : d - 1]
    pts = 512
    value, err = _mvn_qmc_batch(chol, lower, upper, shifts, pts)
    todo = np.flatnonzero(err > np.maximum(_QMC_REL_TOL * value, 1e-12))
    while todo.size and pts < _QMC_MAX_POINTS:
        pts = min(2 * pts, _QMC_MAX_POINTS)
        v, e = _mvn_qmc_batch(chol, lower[todo], upper[todo], shifts, pts)
        value[todo] = v
        err[todo] = e
        todo = todo[e > np.maximum(_QMC_REL_TOL * v, 1e-12)]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(value), err / value
