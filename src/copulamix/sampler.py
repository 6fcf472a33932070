"""Metropolis-within-Gibbs sampler for the copula mixture.

One iteration performs, in order: a latent (labels + Gaussian coordinates)
update, a per-(component, column) margin update that also refreshes the
latent column, a Dirichlet proportion draw and an inverse-Wishart
correlation draw.  The latent update is one independence
Metropolis-Hastings move per row, for every discrete dimension.  Its
proposal draws the label from the continuous block's density times the
product of the discrete coordinates' one-dimensional interval masses, and
the discrete coordinates by the GHK sequential sampler; the acceptance
ratio is the ratio of GHK weight to that product, so no rectangle
probability is computed inside a sweep and the move is exact.  Under the
locally independent family every proposal is accepted.  The margin update is
always a Metropolis-Hastings move whose proposal is the conjugate posterior
computed as if the correlation matrix were the identity, so under the
locally independent family the proposal coincides with the target and
every candidate is accepted.  Each chain indexes the data's discrete
columns once (``model.discrete_index``); the latent and margin updates
evaluate a discrete margin on its column's distinct values and gather to
the rows, so no sweep sorts or support-checks a whole column.  Under the
locally independent family the discrete latent coordinates feed nothing:
the sweep leaves them NaN and only draws the uniforms it would have used,
so the generator's stream, and every output, is that of drawing them.

Point estimation takes the elementwise mean of the post-burn-in draws
(correlations re-normalized to unit diagonal, proportions and ordinal
probabilities re-normalized to the simplex), runs several independently
seeded chains and keeps the one whose mean scores the highest observed
likelihood.  ``fit`` (one config) and ``selection.sweep`` (a grid of
them) both run their chains through ``_run_grid``: one pool of forked
worker processes per call, one per usable CPU (in-process when there is
one unit or one CPU), over (g, chain seed) units.  A unit runs the
locally independent EM once and starts every family's chain from its
estimate and a copy of the generator state after it.  Each chain keeps
its own spawned seed and the results are taken in chain order, so the
output is byte-identical to a serial run of each config alone.
"""

from __future__ import annotations

import functools
import json
import os
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import gauss, margins as mg
from .model import (
    FAMILIES, HETEROSCEDASTIC, HOMOSCEDASTIC, INDEPENDENT,
    ComponentParams, LatentState, MixtureParams, _logsumexp, _params_doc,
    _row_sum, discrete_index, latent_geometry, posterior_and_logpdf_rows,
    posterior_probs_rows,  # noqa: F401 -- perfbench's tracer test wraps it here
)
from .schema import MixedDataset, check_identifiability

__all__ = [
    "ChainConfig", "FitResult", "DegenerateFitError",
    "init_local_independent",
    "step_latent", "step_margins", "step_proportions", "step_correlation",
    "run_chain", "fit", "save_chain", "load_chain",
]


class DegenerateFitError(RuntimeError):
    """Every restart or chain collapsed numerically."""


@dataclass(frozen=True)
class ChainConfig:
    """Sampler settings.

    ``iterations`` counts the stored post-burn-in sweeps, so a chain runs
    ``burn_in + iterations`` sweeps in total.
    """

    g: int
    family: str = HETEROSCEDASTIC
    iterations: int = 1000
    burn_in: int = 100
    seed: int = 0
    n_chains: int = 10
    thin: int = 1
    keep_draws: bool = False

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("need at least one component")
        if self.iterations < 1 or self.burn_in < 0:
            raise ValueError("need iterations >= 1 and burn_in >= 0")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown correlation family {self.family!r}")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fitted chain (the best of ``n_chains``).

    ``params`` is the posterior-mean estimate, ``labels`` the maximum a
    posteriori partition under it (0-based), ``loglik`` the observed
    log-likelihood at ``params``.  ``accept_latent`` is the share of rows
    whose latent move was accepted, over all sweeps (1 under the independent
    family); ``accept_margins`` is a (g, e) matrix of margin-move acceptance
    rates.
    """

    params: MixtureParams
    labels: np.ndarray
    posterior: np.ndarray
    loglik: float
    accept_latent: float
    accept_margins: np.ndarray
    chain_logliks: tuple[float, ...]
    chain_index: int
    wall_time: float
    messages: tuple[str, ...] = ()
    draws: tuple[dict, ...] = ()


# ---------------------------------------------------------------------------
# initialization: EM for the locally independent mixture

def _independent_loglik_matrix(index, comps: list[list[mg.MarginParams]],
                               log_pi: np.ndarray) -> np.ndarray:
    """(n, g) log pi_k plus margin log densities, each margin evaluated on its
    column's distinct values: ``index`` is ``discrete_index(values, 0)``."""
    out = []
    for k, margins_k in enumerate(comps):
        acc = log_pi[k]
        for (points, rows), margin in zip(index, margins_k):
            acc = acc + mg.logpdf_array(points, margin, clip=True)[rows]
        out.append(acc)
    return np.column_stack(out)


def _weighted_margin_mle(col: np.ndarray, kind, w: np.ndarray
                         ) -> mg.MarginParams:
    wsum = w.sum()
    if wsum <= 0:
        raise DegenerateFitError("empty component during EM")
    if kind.tag == "continuous":
        mu = float(w @ col / wsum)
        var = float(w @ (col - mu) ** 2 / wsum)
        scale = max(float(np.std(col)), 1e-8)
        if var < (1e-6 * scale) ** 2:
            raise DegenerateFitError("vanishing variance during EM")
        return mg.GaussianMargin(mu, np.sqrt(var))
    if kind.tag == "integer":
        rate = float(w @ col / wsum)
        return mg.PoissonMargin(max(rate, 1e-8))
    probs = np.array([w[col == lvl].sum() for lvl in range(1, kind.levels + 1)])
    probs = np.maximum(probs / wsum, 1e-8)
    return mg.OrdinalMargin(probs / probs.sum())


_EM_RESTARTS = 5
_EM_MAX_ITER = 200
_EM_TOL = 1e-8  # relative log-likelihood gain that ends a restart


def init_local_independent(dataset: MixedDataset, g: int,
                           rng: np.random.Generator) -> MixtureParams:
    """Maximum likelihood fit of the locally independent mixture by EM.

    Several random-responsibility restarts are run and the best likelihood
    retained; a restart that collapses (empty component or vanishing
    variance) is discarded.
    """
    check = check_identifiability(dataset.schema)
    if not check.identifiable:
        raise DegenerateFitError(check.reason)
    values = dataset.values
    n = dataset.n
    kinds = dataset.schema.kinds
    eye = np.eye(len(kinds))
    index = discrete_index(values, 0)

    # standardized coordinates used by the anchor-based restarts
    scale = np.std(values, axis=0)
    scale[scale <= 0] = 1.0
    std_values = (values - values.mean(axis=0)) / scale

    best = None
    best_ll = -np.inf
    for restart in range(_EM_RESTARTS):
        try:
            if g == 1:
                resp = np.ones((n, 1))
            elif restart % 2 == 0 and n >= g:
                # soft assignment around g randomly chosen anchor rows;
                # random responsibilities alone tend to stall at the
                # symmetric merged fixed point
                anchors = rng.choice(n, size=g, replace=False)
                dist = np.array([np.sum((std_values - std_values[a]) ** 2,
                                        axis=1) for a in anchors]).T
                logs = -0.5 * dist
                resp = np.exp(logs - _logsumexp(logs)[:, None])
            else:
                resp = rng.dirichlet(np.ones(g), size=n)
            prev_ll = -np.inf
            for _ in range(_EM_MAX_ITER):
                pi = resp.mean(axis=0)
                if np.any(pi <= 1e-10):
                    raise DegenerateFitError("empty component during EM")
                comps = [[_weighted_margin_mle(values[:, j], kinds[j], resp[:, k])
                          for j in range(len(kinds))] for k in range(g)]
                logs = _independent_loglik_matrix(index, comps, np.log(pi))
                row_ll = _logsumexp(logs)
                ll = float(row_ll.sum())
                resp = np.exp(logs - row_ll[:, None])
                if (ll - prev_ll <= _EM_TOL * (1.0 + abs(ll))
                        and prev_ll > -np.inf):
                    break
                prev_ll = ll
            if ll > best_ll:
                best_ll = ll
                best = (pi, comps)
        except DegenerateFitError:
            continue
    if best is None:
        raise DegenerateFitError("all EM restarts collapsed")
    pi, comps = best
    components = tuple(ComponentParams(eye, tuple(m)) for m in comps)
    return MixtureParams(pi / pi.sum(), components, INDEPENDENT)


# ---------------------------------------------------------------------------
# step (a): labels and latent coordinates

def _latent_proposal(values: np.ndarray, index, params: MixtureParams,
                     rng: np.random.Generator):
    """Draw (z', y') for every row independently of the current state.

    z' is drawn with probability proportional to pi_k f_k(x_c) P_k, where
    f_k is the continuous block's density and P_k the product of the
    discrete coordinates' marginal interval masses; y' is the GHK draw
    given z'.  ``index`` is the ``model.discrete_index`` of ``values``.
    Returns the proposal, each row's log(w_z'(y') / P_z'), and per
    component (continuous latent block, conditional mean, Cholesky factor,
    box, log P) for scoring the current state.

    Under the independent family the discrete coordinates feed nothing:
    they are left NaN, w = P makes every log ratio 0
    (``_independent_log_ratio``), and the GHK draw's uniforms are drawn
    and dropped, so the generator's stream is that of the draw.
    """
    n = values.shape[0]
    c = params.n_continuous
    independent = params.family == INDEPENDENT
    parts = []
    log_p = np.empty((n, params.g))
    for k, comp in enumerate(params.components):
        y_c, log_cont, lo, hi, mean, cov = latent_geometry(values, index, comp)
        sd = np.sqrt(np.diag(cov))
        log_phat = np.zeros(n)
        for j in range(sd.size):
            log_phat += gauss.log_gaussian_interval(
                (lo[:, j] - mean[:, j]) / sd[j], (hi[:, j] - mean[:, j]) / sd[j])
        chol = gauss.chol_spd(cov) if sd.size else cov
        parts.append((y_c, mean, chol, lo, hi, log_phat))
        log_p[:, k] = np.log(params.proportions[k]) + log_phat + log_cont
    # a row with no component of positive weight (every box empty) takes a
    # uniform label; its proposal has log weight -inf and is not accepted.
    # The reductions over components go column by column: numpy's are slow
    # along a short axis.
    top = functools.reduce(np.maximum, log_p.T)
    finite = np.isfinite(top)
    log_p[~finite] = 0.0
    probs = np.exp(log_p - np.where(finite, top, 0.0)[:, None])
    z = _categorical_rows(probs / _row_sum(probs)[:, None], rng)
    y = np.full((n, params.dim), np.nan)
    log_ratio = np.empty(n)
    for k, (y_c, mean, chol, lo, hi, log_phat) in enumerate(parts):
        rows = np.flatnonzero(z == k)
        y[rows, :c] = y_c[rows]
        if independent:
            for _ in range(params.dim - c):
                rng.random(rows.size)
            log_ratio[rows] = _independent_log_ratio(log_phat[rows])
            continue
        y[rows, c:], log_w = gauss.ghk_rows(chol, mean[rows], lo[rows],
                                            hi[rows], rng)
        log_ratio[rows] = log_w - log_phat[rows]
    return LatentState(y, z), log_ratio, parts


def _independent_log_ratio(log_phat: np.ndarray) -> np.ndarray:
    """log(w / P) of rows under the independent family, for the proposal
    and the current state alike.  With identity correlations the GHK weight
    w of a point in its box is the product P of its interval masses, by the
    same arithmetic, so the ratio is exactly 0 and the move accepts.  Where
    a box is empty both are -inf, and the ratio NaN is never accepted.  A
    current point outside a nonempty box (ratio -inf) is accepted just as
    one at 0 is, so 0 stands in for it."""
    return np.where(np.isfinite(log_phat), 0.0, np.nan)


def initial_latent_state(values: np.ndarray, index, params: MixtureParams,
                         rng: np.random.Generator) -> LatentState:
    """A latent state consistent with the parameters: one proposal of the
    latent move, accepted outright."""
    return _latent_proposal(values, index, params, rng)[0]


def _categorical_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(probs.shape[0])
    # a running sum over the columns, as ``cumsum`` adds them; the last
    # total can round below a uniform, so it is never compared
    z = np.zeros(u.size, dtype=int)
    total = np.zeros(u.size)
    for column in probs.T[:-1]:
        total += column
        z += total < u
    return z


def step_latent(values: np.ndarray, index, params: MixtureParams,
                state: LatentState, rng: np.random.Generator
                ) -> tuple[LatentState, int, int]:
    """One independence Metropolis-Hastings move of (z, y) per row.

    The target is pi_z f_z(x_c) phi_z(y | y_c) 1[y in box_z(x)].  The
    proposal (z', y') comes from ``_latent_proposal`` and does not depend
    on the current state; its importance weight target / proposal is
    proportional to w_z(y) / P_z, so the move accepts with probability
    min(1, [w_z'(y') / P_z'] / [w_z(y) / P_z]) (Tierney 1994).  P enters
    the proposal only, so the move leaves the exact posterior invariant
    for any positive P.  A current y outside its box has weight 0 and
    always moves.  Under the independent family w = P and every proposal
    is accepted, which is then an exact draw, and no discrete coordinate
    is drawn or scored (``_latent_proposal``).  A rejected row keeps its
    state.  ``index`` is the ``model.discrete_index`` of ``values``.
    Returns the new state plus (accepted, proposed) counts.
    """
    c = params.n_continuous
    proposal, log_new, parts = _latent_proposal(values, index, params, rng)
    log_old = np.empty(values.shape[0])
    for k, (_, mean, chol, lo, hi, log_phat) in enumerate(parts):
        rows = np.flatnonzero(state.z == k)
        if params.family == INDEPENDENT:
            log_old[rows] = _independent_log_ratio(log_phat[rows])
            continue
        _, log_w = gauss.ghk_rows(chol, mean[rows], lo[rows], hi[rows],
                                  y=state.y[rows, c:])
        log_old[rows] = log_w - log_phat[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        accept = np.log(rng.random(log_new.size)) < log_new - log_old
    z = np.where(accept, proposal.z, state.z)
    y = np.where(accept[:, None], proposal.y, state.y)
    return LatentState(y, z), int(accept.sum()), accept.size


# ---------------------------------------------------------------------------
# step (b): margin parameters plus their latent column

def _cond_obs_loglik(x_col: np.ndarray, margin: mg.MarginParams, box,
                     mu_t: np.ndarray, sd_t: np.ndarray) -> np.ndarray:
    """Log density of the observation given the other latent coordinates.

    Continuous columns (``box`` is None) contribute a scaled normal density
    of the standardized value under its full conditional; discrete columns
    the normal probability of their latent interval ``box`` = (lower,
    upper) under that conditional.
    """
    if box is None:
        yj = (x_col - margin.mu) / margin.sigma
        zed = (yj - mu_t) / sd_t
        return (-0.5 * (zed * zed + np.log(2.0 * np.pi)) - np.log(sd_t)
                - np.log(margin.sigma))
    lo, hi = box
    return gauss.log_gaussian_interval((lo - mu_t) / sd_t, (hi - mu_t) / sd_t)


def _column_regressions(corr: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Each coordinate j's regression on the rest under N(0, corr), from the
    precision P: coefficients -P[j, rest] / P[j, j], variance 1 / P[j, j]."""
    return [(-np.delete(row, j) / row[j], max(1.0 / row[j], 1e-14))
            for j, row in enumerate(np.linalg.inv(corr))]


def step_margins(values: np.ndarray, index, params: MixtureParams,
                 state: LatentState, priors: list[mg.MarginPrior],
                 rng: np.random.Generator
                 ) -> tuple[MixtureParams, LatentState, np.ndarray]:
    """One sweep of margin updates, column by column within each component.

    Each candidate comes from the conjugate posterior computed as if the
    correlation matrix were the identity; the acceptance ratio reduces to
    the conditional-versus-independent likelihood ratio, which cancels
    exactly under the locally independent family (always accepted).  After
    each update the latent column is refreshed: deterministically for
    continuous columns, from its truncated full conditional for discrete
    ones.  A discrete column's latent intervals and log masses are
    evaluated on its support, from ``index`` (the ``model.discrete_index``
    of ``values``), and gathered to the rows.  Under the independent
    family the discrete latent columns feed nothing and stay NaN: no
    interval or conditional is computed, and each refresh's uniforms are
    drawn and dropped, so the generator's stream is that of the refresh.
    Returns the updated parameters, state and a (g, e) 0/1 matrix of
    acceptances.
    """
    c = params.n_continuous
    e = params.dim
    y = np.array(state.y)
    z = state.z
    independent = params.family == INDEPENDENT
    margins_by_comp = [list(comp.margins) for comp in params.components]
    accepted = np.zeros((params.g, e))
    regressions = None if independent else [
        _column_regressions(comp.correlation) for comp in params.components]

    for j in range(e):
        rest = np.delete(np.arange(e), j)
        for k in range(params.g):
            rows = np.flatnonzero(z == k)
            x_col = values[rows, j]
            old = margins_by_comp[k][j]
            cand = mg.conjugate_posterior_sample(x_col, priors[j], rng)
            take = independent
            if not independent:
                # latent intervals of a discrete column under each margin;
                # the accepted one's are reused for the refresh below
                box_old = box_cand = None
                if j >= c:
                    support, row_index = index[j - c]
                    at = row_index[rows]
                    box_old, box_cand = (
                        tuple(b[at] for b in
                              mg.latent_bounds_arrays(support, m))
                        for m in (old, cand))
                coef, var = regressions[k][j]
                mu_t = y[np.ix_(rows, rest)] @ coef
                sd_t = np.full(rows.size, np.sqrt(var))
                with np.errstate(divide="ignore", invalid="ignore"):
                    if j >= c:
                        ll_ind_old = mg.logpdf_array(support, old)[at].sum()
                        ll_ind_new = mg.logpdf_array(support, cand)[at].sum()
                    else:
                        ll_ind_old = mg.logpdf_array(x_col, old).sum()
                        ll_ind_new = mg.logpdf_array(x_col, cand).sum()
                    ll_cond_old = _cond_obs_loglik(x_col, old, box_old,
                                                   mu_t, sd_t).sum()
                    ll_cond_new = _cond_obs_loglik(x_col, cand, box_cand,
                                                   mu_t, sd_t).sum()
                log_rho = ((ll_ind_old - ll_ind_new)
                           + (ll_cond_new - ll_cond_old))
                take = (np.isfinite(ll_cond_new)
                        and np.log(rng.random()) < log_rho)
            if take:
                margins_by_comp[k][j] = cand
                accepted[k, j] = 1.0
            margin = margins_by_comp[k][j]
            if rows.size == 0:
                continue
            if j < c:
                y[rows, j] = (x_col - margin.mu) / margin.sigma
            elif independent:
                rng.uniform(size=rows.size)  # the refresh's draw, dropped
            else:
                lo, hi = box_cand if take else box_old
                y[rows, j] = gauss.truncated_normal_rows(mu_t, sd_t, lo, hi, rng)

    comps = tuple(ComponentParams(params.components[k].correlation,
                                  tuple(margins_by_comp[k]))
                  for k in range(params.g))
    new_params = MixtureParams(params.proportions, comps, params.family)
    return new_params, LatentState(y, z), accepted


# ---------------------------------------------------------------------------
# steps (c) and (d): proportions and correlations

def step_proportions(z: np.ndarray, g: int, rng: np.random.Generator
                     ) -> np.ndarray:
    """Dirichlet draw of the mixing proportions under the Jeffreys prior."""
    counts = np.bincount(np.asarray(z, dtype=int), minlength=g)
    pi = rng.dirichlet(counts + 0.5)
    pi = np.maximum(pi, 1e-12)
    return pi / pi.sum()


def step_correlation(params: MixtureParams, state: LatentState,
                     rng: np.random.Generator) -> MixtureParams:
    """Inverse-Wishart draw of the correlation structure from the latent
    Gaussian coordinates, normalized to unit diagonal.

    Heteroscedastic: one draw per component.  Homoscedastic: one pooled
    draw shared (as the same ndarray) by all components.  Independent:
    identity, untouched.
    """
    if params.family == INDEPENDENT:
        return params
    e = params.dim
    y, z = state.y, state.z
    s0 = e + 1
    scale0 = np.eye(e)
    if params.family == HOMOSCEDASTIC:
        lam = gauss.inverse_wishart_sample(s0 + y.shape[0],
                                           scale0 + y.T @ y, rng)
        corr = gauss.normalize_to_correlation(lam)
        corr.setflags(write=False)
        comps = tuple(ComponentParams(corr, comp.margins)
                      for comp in params.components)
        return MixtureParams(params.proportions, comps, params.family)
    comps = []
    for k, comp in enumerate(params.components):
        y_k = y[z == k]
        lam = gauss.inverse_wishart_sample(s0 + y_k.shape[0],
                                           scale0 + y_k.T @ y_k, rng)
        comps.append(ComponentParams(gauss.normalize_to_correlation(lam),
                                     comp.margins))
    return MixtureParams(params.proportions, tuple(comps), params.family)


# ---------------------------------------------------------------------------
# posterior-mean accumulation

class _DrawAccumulator:
    """Running elementwise sums of parameter draws; a margin's sums are
    those of the numbers in its ``margins.margin_to_dict`` document."""

    def __init__(self, params: MixtureParams):
        g, e = params.g, params.dim
        self.count = 0
        self.pi = np.zeros(g)
        self.corr = np.zeros((g, e, e))
        self.margin_sums = [
            [{key: value if key == "family" else np.zeros(np.shape(value))
              for key, value in mg.margin_to_dict(m).items()}
             for m in comp.margins]
            for comp in params.components]

    def add(self, params: MixtureParams) -> None:
        self.count += 1
        self.pi += params.proportions
        for k, comp in enumerate(params.components):
            self.corr[k] += comp.correlation
            for sums, m in zip(self.margin_sums[k], comp.margins):
                for key, value in mg.margin_to_dict(m).items():
                    if key != "family":
                        sums[key] += value

    def mean(self, family: str) -> MixtureParams:
        if self.count == 0:
            raise DegenerateFitError("no stored draws")
        r = self.count
        comps = []
        for corr, margin_sums in zip(self.corr, self.margin_sums):
            margins = []
            for sums in margin_sums:
                doc = {key: value if key == "family" else value / r
                       for key, value in sums.items()}
                if "probs" in doc:
                    doc["probs"] = doc["probs"] / doc["probs"].sum()
                margins.append(mg.margin_from_dict(doc))
            comps.append(ComponentParams(
                gauss.normalize_to_correlation(corr / r), tuple(margins)))
        return MixtureParams(self.pi / self.pi.sum(), tuple(comps), family)


# ---------------------------------------------------------------------------
# chains

def run_chain(dataset: MixedDataset, config: ChainConfig,
              rng: np.random.Generator,
              init: MixtureParams | None = None) -> FitResult:
    """Run one Metropolis-within-Gibbs chain and return its posterior-mean
    fit.  ``init`` defaults to the locally independent maximum likelihood
    estimate (with the correlation family promoted as requested)."""
    start = time.perf_counter()
    values = dataset.values
    n, e = values.shape
    priors = [mg.default_prior(values[:, j], kind)
              for j, kind in enumerate(dataset.schema.kinds)]

    params = init if init is not None else init_local_independent(
        dataset, config.g, rng)
    if params.family != config.family:
        params = MixtureParams(params.proportions, params.components,
                               config.family)
    index = discrete_index(values, params.n_continuous)
    state = initial_latent_state(values, index, params, rng)

    total = config.burn_in + config.iterations
    acc = None
    latent_accepted = 0
    latent_proposed = 0
    margin_accepted = np.zeros((config.g, e))
    margin_proposed = 0
    agreement = []
    prev_z = None
    draws = []

    for it in range(total):
        state, a, p = step_latent(values, index, params, state, rng)
        latent_accepted += a
        latent_proposed += p
        params, state, took = step_margins(values, index, params, state,
                                           priors, rng)
        margin_accepted += took
        margin_proposed += 1
        pi = step_proportions(state.z, config.g, rng)
        params = MixtureParams(pi, params.components, params.family)
        params = step_correlation(params, state, rng)

        if it >= config.burn_in:
            if acc is None:
                acc = _DrawAccumulator(params)
            acc.add(params)
            if prev_z is not None:
                agreement.append(float(np.mean(state.z == prev_z)))
            prev_z = state.z
            if config.keep_draws and (it - config.burn_in) % config.thin == 0:
                draws.append(_params_doc(params))

    estimate = acc.mean(config.family)
    posterior, log_density = posterior_and_logpdf_rows(values, estimate)
    labels = np.argmax(posterior, axis=1)
    loglik = float(log_density.sum())

    messages = []
    if agreement and float(np.mean(agreement)) < 0.5:
        msg = ("adjacent draws disagree on most labels; the chain appears to "
               "switch component labels, so posterior-mean estimates are "
               "unreliable")
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        messages.append(msg)

    return FitResult(
        params=estimate, labels=labels, posterior=posterior, loglik=loglik,
        accept_latent=latent_accepted / latent_proposed,
        accept_margins=margin_accepted / max(margin_proposed, 1),
        chain_logliks=(loglik,), chain_index=0,
        wall_time=time.perf_counter() - start,
        messages=tuple(messages), draws=tuple(draws),
    )


def _chain_worker_count(n_units: int) -> int:
    """Worker processes for a grid's (g, chain seed) units: one per usable
    CPU and at most one per unit.  1 (run in-process) where ``fork`` does
    not exist, or while other threads run: a forked child keeps only the
    calling thread, and a lock another thread held would stay locked in
    it."""
    import multiprocessing
    import threading

    if (threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(n_units, cpus)


def _attempt(step):
    """Call ``step()`` and record the warnings it raises: (its value or None,
    failure message or None, the warnings).  The warnings are returned
    rather than shown because a worker process cannot show them to the
    caller."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, failure = step(), None
        except (DegenerateFitError, gauss.NumericalError) as exc:
            value, failure = None, str(exc)
    return value, failure, [w.message for w in caught]


def _run_unit(dataset: MixedDataset, init: MixtureParams | None,
              configs: tuple[ChainConfig, ...], seed: np.random.SeedSequence
              ) -> list[tuple]:
    """The chains of one (g, chain seed) unit of a grid: one per config,
    all of one g.  EM (or ``init``) runs once, and every chain starts from
    its estimate and a copy of the generator state after it, so each chain
    sees the stream it would see alone.  Returns each chain's ``_attempt``
    outcome, the EM's warnings first."""
    rng = np.random.default_rng(seed)
    initial, failure, em_warnings = _attempt(
        lambda: init if init is not None
        else init_local_independent(dataset, configs[0].g, rng))
    if failure is not None:
        return [(None, failure, em_warnings)] * len(configs)
    after_em = rng.bit_generator.state
    outcomes = []
    for config in configs:
        rng.bit_generator.state = after_em
        result, failure, caught = _attempt(
            functools.partial(run_chain, dataset, config, rng, init=initial))
        outcomes.append((result, failure, em_warnings + caught))
    return outcomes


def _run_grid(dataset: MixedDataset, configs, init: MixtureParams | None = None
              ) -> list[list[tuple]]:
    """Run the chains of every config, each config's outcomes (see
    ``_run_unit``) in chain order.

    Configs that share g, seed and chain count share their (g, chain seed)
    units, so EM runs once per unit whatever the families.  The units run
    in one ordered pool of forked worker processes, one per usable CPU;
    the outcomes are those of a serial run.
    """
    groups = {}  # (g, seed, n_chains) -> indices of its configs
    for i, config in enumerate(configs):
        groups.setdefault((config.g, config.seed, config.n_chains),
                          []).append(i)
    units = [(members, seed)
             for (_, master, n_chains), members in groups.items()
             for seed in np.random.SeedSequence(master).spawn(n_chains)]
    jobs = ([tuple(configs[i] for i in members) for members, _ in units],
            [seed for _, seed in units])
    unit = functools.partial(_run_unit, dataset, init)
    workers = _chain_worker_count(len(units))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) as pool:
            done = list(pool.map(unit, *jobs))
    else:
        done = list(map(unit, *jobs))
    outcomes = [[] for _ in configs]
    for (members, _), unit_outcomes in zip(units, done):
        for i, outcome in zip(members, unit_outcomes):
            outcomes[i].append(outcome)
    return outcomes


def _best_chain(outcomes: list[tuple]) -> FitResult:
    """The chain among one config's ``outcomes`` whose posterior-mean
    estimate has the highest observed log-likelihood, with every chain's
    log-likelihood.  The chains' warnings are shown first, in chain order,
    attributed to the caller's caller; ``DegenerateFitError`` when every
    chain failed.
    """
    results = []
    failures = []
    for result, failure, caught in outcomes:
        for message in caught:
            warnings.warn(message, stacklevel=3)
        if failure is None:
            results.append(result)
        else:
            failures.append(failure)
    if not results:
        raise DegenerateFitError("every chain failed: " + "; ".join(failures))
    logliks = tuple(r.loglik for r in results)
    best = int(np.argmax(logliks))
    return replace(results[best], chain_logliks=logliks, chain_index=best)


def fit(dataset: MixedDataset, config: ChainConfig,
        init: MixtureParams | None = None) -> FitResult:
    """Run ``config.n_chains`` independently seeded chains and return the one
    whose posterior-mean estimate has the highest observed log-likelihood.

    The chains run through ``_run_grid``, in one pool of forked worker
    processes, one per usable CPU; the result, and the order of the
    chains' warnings, is that of a serial run.
    """
    start = time.perf_counter()
    best = _best_chain(_run_grid(dataset, [config], init)[0])
    return replace(best, wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# chain persistence

def save_chain(path, result: FitResult, config: ChainConfig) -> None:
    """Write the stored draws as newline-delimited JSON next to a manifest.

    ``path`` is the draws file; the manifest lands at ``path + '.manifest'``
    and records the configuration and acceptance diagnostics.
    """
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        for draw in result.draws:
            fh.write(json.dumps(draw) + "\n")
    manifest = {
        "g": config.g, "family": config.family,
        "iterations": config.iterations, "burn_in": config.burn_in,
        "seed": config.seed, "n_chains": config.n_chains,
        "thin": config.thin,
        "n_draws": len(result.draws),
        "loglik": result.loglik,
        "chain_index": result.chain_index,
        "accept_latent": result.accept_latent,
        "accept_margins": result.accept_margins.tolist(),
        "messages": list(result.messages),
    }
    with open(path + ".manifest", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def load_chain(path) -> tuple[list[dict], dict]:
    """Read back (draws, manifest) written by ``save_chain``."""
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        draws = [json.loads(line) for line in fh if line.strip()]
    with open(path + ".manifest", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return draws, manifest
