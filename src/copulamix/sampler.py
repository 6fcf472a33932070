"""Metropolis-within-Gibbs sampler for the copula mixture.

One iteration performs, in order: a latent (labels + Gaussian coordinates)
update, a per-(component, column) margin update that also refreshes the
latent column, a Dirichlet proportion draw and an inverse-Wishart
correlation draw.  The latent update is exact (multinomial labels plus a
truncated multivariate normal) when the discrete dimension is small and a
single Metropolis-Hastings move with an independence proposal otherwise.
In the exact update the truncated normal is drawn by Gibbs sweeps: a row
that keeps its label takes one sweep from its current coordinates, which
already follow the target because the label is drawn independently of
them; a relabelled row takes ten sweeps from a cold start; and when the
conditional covariance is diagonal (always so under the independent
family) every row takes one sweep, which is then an exact draw.  Each
component's latent boxes are computed once per update and shared by the
label probabilities and the coordinate draws.  The margin update is
always a Metropolis-Hastings move whose proposal is the conjugate posterior
computed as if the correlation matrix were the identity, so under the
locally independent family the proposal coincides with the target and
every candidate is accepted.

Point estimation takes the elementwise mean of the post-burn-in draws
(correlations re-normalized to unit diagonal, proportions and ordinal
probabilities re-normalized to the simplex), runs several independently
seeded chains and keeps the one whose mean scores the highest observed
likelihood.  The chains run in forked worker processes, one per usable CPU
(in-process when there is one chain or one CPU).  Each chain keeps its own
spawned seed and the results are taken in chain order, so the output is
byte-identical to a serial run.
"""

from __future__ import annotations

import functools
import json
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import gauss, margins as mg
from .model import (
    HETEROSCEDASTIC, HOMOSCEDASTIC, INDEPENDENT,
    ComponentParams, LatentState, MixtureParams,
    conditional_block, latent_boxes, posterior_and_logpdf_rows,
    posterior_probs_rows, standardize_continuous,
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
    ``burn_in + iterations`` sweeps in total.  ``mh_latent_threshold`` is the
    discrete dimension above which the exact latent draw is replaced by a
    Metropolis-Hastings move.
    """

    g: int
    family: str = HETEROSCEDASTIC
    iterations: int = 1000
    burn_in: int = 100
    seed: int = 0
    n_chains: int = 10
    mh_latent_threshold: int = 6
    thin: int = 1
    keep_draws: bool = False

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("need at least one component")
        if self.iterations < 1 or self.burn_in < 0:
            raise ValueError("need iterations >= 1 and burn_in >= 0")
        if self.family not in (INDEPENDENT, HOMOSCEDASTIC, HETEROSCEDASTIC):
            raise ValueError(f"unknown correlation family {self.family!r}")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fitted chain (the best of ``n_chains``).

    ``params`` is the posterior-mean estimate, ``labels`` the maximum a
    posteriori partition under it (0-based), ``loglik`` the observed
    log-likelihood at ``params``.  ``accept_latent`` is the
    Metropolis-Hastings acceptance rate of the latent move (``nan`` when the
    exact path was used throughout); ``accept_margins`` is a (g, e) matrix
    of margin-move acceptance rates.
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

def _independent_loglik_matrix(values: np.ndarray,
                               comps: list[list[mg.MarginParams]],
                               log_pi: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    out = np.empty((n, len(comps)))
    for k, margins_k in enumerate(comps):
        acc = np.full(n, log_pi[k])
        for j, margin in enumerate(margins_k):
            acc = acc + mg.logpdf_array(values[:, j], margin, clip=True)
        out[:, k] = acc
    return out


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


def init_local_independent(dataset: MixedDataset, g: int,
                           rng: np.random.Generator,
                           n_restarts: int = 5, max_iter: int = 200,
                           tol: float = 1e-8) -> MixtureParams:
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

    # standardized coordinates used by the anchor-based restarts
    scale = np.std(values, axis=0)
    scale[scale <= 0] = 1.0
    std_values = (values - values.mean(axis=0)) / scale

    best = None
    best_ll = -np.inf
    for restart in range(n_restarts):
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
                resp = np.exp(logs - logsumexp(logs, axis=1, keepdims=True))
            else:
                resp = rng.dirichlet(np.ones(g), size=n)
            prev_ll = -np.inf
            for _ in range(max_iter):
                pi = resp.mean(axis=0)
                if np.any(pi <= 1e-10):
                    raise DegenerateFitError("empty component during EM")
                comps = [[_weighted_margin_mle(values[:, j], kinds[j], resp[:, k])
                          for j in range(len(kinds))] for k in range(g)]
                logs = _independent_loglik_matrix(values, comps, np.log(pi))
                row_ll = logsumexp(logs, axis=1, keepdims=True)
                ll = float(row_ll[:, 0].sum())
                resp = np.exp(logs - row_ll)
                if ll - prev_ll <= tol * (1.0 + abs(ll)) and prev_ll > -np.inf:
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
# latent structure helpers

def _all_boxes(values: np.ndarray, params: MixtureParams) -> list:
    """Each component's latent boxes for every row, computed once and then
    shared by the label probabilities and the coordinate draws."""
    c = params.n_continuous
    return [latent_boxes(values[:, c:], comp) for comp in params.components]


def initial_latent_state(values: np.ndarray, params: MixtureParams,
                         rng: np.random.Generator) -> LatentState:
    """Draw a latent state consistent with the parameters: labels from the
    posterior, continuous coordinates deterministic, discrete coordinates
    from independent truncated standard normals inside their intervals."""
    n = values.shape[0]
    c = params.n_continuous
    e = params.dim
    boxes = _all_boxes(values, params)
    t, _ = posterior_probs_rows(values, params, rng=rng, boxes=boxes)
    z = _categorical_rows(t, rng)
    y = np.empty((n, e))
    for k, comp in enumerate(params.components):
        rows = np.flatnonzero(z == k)
        if rows.size == 0:
            continue
        if c:
            y[np.ix_(rows, np.arange(c))] = standardize_continuous(
                values[rows, :c], comp)
        if e > c:
            lo, hi = boxes[k][0][rows], boxes[k][1][rows]
            y[np.ix_(rows, np.arange(c, e))] = gauss.truncated_normal_rows(
                np.zeros_like(lo), np.ones_like(lo), lo, hi, rng)
    return LatentState(y, z)


def _categorical_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(probs.shape[0])
    return (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)


# ---------------------------------------------------------------------------
# step (a): labels and latent coordinates

def _log_q1(values: np.ndarray, params: MixtureParams, y: np.ndarray,
            z: np.ndarray) -> np.ndarray:
    """Log instrumental density of the latent proposal (up to the constant
    label factor): independent standard normal coordinates over the discrete
    block, divided by the margin probabilities."""
    n = values.shape[0]
    c = params.n_continuous
    e = params.dim
    out = np.zeros(n)
    for k, comp in enumerate(params.components):
        rows = np.flatnonzero(z == k)
        if rows.size == 0:
            continue
        acc = np.zeros(rows.size)
        for j in range(c, e):
            yd = y[rows, j]
            acc += -0.5 * (yd * yd + np.log(2.0 * np.pi))
            acc -= mg.logpdf_array(values[rows, j], comp.margins[j], clip=True)
        out[rows] = acc
    return out


def _refresh_discrete(cond_cov: np.ndarray, cond_mean: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray, y_old: np.ndarray,
                      kept: np.ndarray, rng: np.random.Generator
                      ) -> np.ndarray:
    """Discrete latent coordinates of the rows just given one component.

    The new label z' is drawn from p(z | x, theta) independently of y, so on
    the event z' = z the old y already follows p(y | z', x, theta).  A
    kernel that leaves that law invariant, such as one Gibbs sweep, keeps it
    there; these ``kept`` rows take one sweep from ``y_old``.  The other
    rows take ten sweeps from a cold start.  With a diagonal conditional
    covariance the coordinates are independent inside the box and one sweep
    is an exact draw from any start, so every row takes one.  A sweep
    redraws every coordinate inside its box, so the result is valid even
    when ``y_old`` is not.
    """
    if not np.any(cond_cov - np.diag(np.diag(cond_cov))):
        return gauss.truncated_mvn_gibbs_rows(cond_cov, cond_mean, lo, hi, rng,
                                              sweeps=1, init=y_old)
    coefficients = gauss.gibbs_coefficients(cond_cov)
    out = np.empty_like(cond_mean)
    if np.any(kept):
        out[kept] = gauss.truncated_mvn_gibbs_rows(
            cond_cov, cond_mean[kept], lo[kept], hi[kept], rng, sweeps=1,
            init=y_old[kept], coefficients=coefficients)
    cold = ~kept
    if np.any(cold):
        out[cold] = gauss.truncated_mvn_gibbs_rows(
            cond_cov, cond_mean[cold], lo[cold], hi[cold], rng, sweeps=10,
            coefficients=coefficients)
    return out


def step_latent(values: np.ndarray, params: MixtureParams, state: LatentState,
                rng: np.random.Generator, mh_threshold: int = 6
                ) -> tuple[LatentState, int, int]:
    """One update of (z, y) given the parameters.

    Exact path when the discrete dimension is at most ``mh_threshold``:
    labels from their posterior, then the discrete coordinates by Gibbs
    sweeps of their truncated conditional normal.  A row that keeps its
    label takes one sweep started from its current coordinates, a relabelled
    row ten sweeps from a cold start.  Otherwise one Metropolis-Hastings
    move per row with an independence proposal (uniform label, independent
    truncated normal coordinates).  Returns the new state plus (accepted,
    proposed) counts for the move.
    """
    n = values.shape[0]
    c = params.n_continuous
    e = params.dim
    d = e - c

    if d <= mh_threshold:
        boxes = _all_boxes(values, params)
        t, _ = posterior_probs_rows(values, params, rng=rng, boxes=boxes)
        z = _categorical_rows(t, rng)
        y = np.array(state.y)
        for k, comp in enumerate(params.components):
            rows = np.flatnonzero(z == k)
            if rows.size == 0:
                continue
            y_c = standardize_continuous(values[rows, :c], comp)
            y[np.ix_(rows, np.arange(c))] = y_c
            if d:
                lo, hi = boxes[k][0][rows], boxes[k][1][rows]
                cond_mean, cond_cov = conditional_block(comp, y_c)
                y[np.ix_(rows, np.arange(c, e))] = _refresh_discrete(
                    cond_cov, cond_mean, lo, hi, state.y[rows, c:],
                    state.z[rows] == k, rng)
        return LatentState(y, z), 0, 0

    # Metropolis-Hastings path for a large discrete block
    z_new = rng.integers(params.g, size=n)
    y_new = np.empty((n, e))
    for k, comp in enumerate(params.components):
        rows = np.flatnonzero(z_new == k)
        if rows.size == 0:
            continue
        if c:
            y_new[np.ix_(rows, np.arange(c))] = standardize_continuous(
                values[rows, :c], comp)
        lo, hi = latent_boxes(values[rows, c:], comp)
        y_new[np.ix_(rows, np.arange(c, e))] = gauss.truncated_normal_rows(
            np.zeros_like(lo), np.ones_like(lo), lo, hi, rng)

    log_pi = np.log(params.proportions)
    log_target_old = np.empty(n)
    log_target_new = np.empty(n)
    for k, comp in enumerate(params.components):
        rows = np.flatnonzero(state.z == k)
        if rows.size:
            log_target_old[rows] = log_pi[k] + gauss.mvn_logpdf_rows(
                state.y[rows], comp.correlation)
        rows = np.flatnonzero(z_new == k)
        if rows.size:
            log_target_new[rows] = log_pi[k] + gauss.mvn_logpdf_rows(
                y_new[rows], comp.correlation)
    log_rho = (_log_q1(values, params, state.y, state.z)
               - _log_q1(values, params, y_new, z_new)
               + log_target_new - log_target_old)
    accept = np.log(rng.random(n)) < log_rho
    z = np.where(accept, z_new, state.z)
    y = np.where(accept[:, None], y_new, state.y)
    return LatentState(y, z), int(accept.sum()), n


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


def step_margins(values: np.ndarray, params: MixtureParams,
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
    ones.  Returns the updated parameters, state and a (g, e) 0/1 matrix of
    acceptances.
    """
    c = params.n_continuous
    e = params.dim
    y = np.array(state.y)
    z = state.z
    independent = params.family == INDEPENDENT
    margins_by_comp = [list(comp.margins) for comp in params.components]
    accepted = np.zeros((params.g, e))

    for j in range(e):
        rest = np.delete(np.arange(e), j)
        for k, comp in enumerate(params.components):
            rows = np.flatnonzero(z == k)
            x_col = values[rows, j]
            old = margins_by_comp[k][j]
            cand = mg.conjugate_posterior_sample(x_col, priors[j], rng)
            # latent intervals of a discrete column under each margin; the
            # accepted one's are reused for the refresh below
            box_old = box_cand = None
            if j >= c:
                box_cand = mg.latent_bounds_arrays(x_col, cand)

            if independent:
                mu_t = np.zeros(rows.size)
                sd_t = np.ones(rows.size)
                take = True
            else:
                if j >= c:
                    box_old = mg.latent_bounds_arrays(x_col, old)
                coef, var = gauss.conditional_coefficients(comp.correlation, j)
                mu_t = y[np.ix_(rows, rest)] @ coef
                sd_t = np.full(rows.size, np.sqrt(var))
                with np.errstate(divide="ignore", invalid="ignore"):
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
    """Running elementwise sums of parameter draws."""

    def __init__(self, params: MixtureParams):
        g, e = params.g, params.dim
        self.count = 0
        self.pi = np.zeros(g)
        self.corr = np.zeros((g, e, e))
        self.margin_sums = [[_margin_zero(m) for m in comp.margins]
                            for comp in params.components]

    def add(self, params: MixtureParams) -> None:
        self.count += 1
        self.pi += params.proportions
        for k, comp in enumerate(params.components):
            self.corr[k] += comp.correlation
            for j, m in enumerate(comp.margins):
                _margin_accumulate(self.margin_sums[k][j], m)

    def mean(self, family: str) -> MixtureParams:
        if self.count == 0:
            raise DegenerateFitError("no stored draws")
        r = self.count
        pi = self.pi / self.pi.sum()
        comps = []
        shared = None
        for k in range(len(self.margin_sums)):
            corr = gauss.normalize_to_correlation(self.corr[k] / r)
            if family == INDEPENDENT:
                corr = np.eye(corr.shape[0])
            elif family == HOMOSCEDASTIC:
                if shared is None:
                    shared = corr
                corr = shared
            margins = tuple(_margin_mean(s, r) for s in self.margin_sums[k])
            comps.append(ComponentParams(corr, margins))
        return MixtureParams(pi, tuple(comps), family)


def _margin_zero(margin: mg.MarginParams) -> dict:
    if isinstance(margin, mg.GaussianMargin):
        return {"family": "gaussian", "mu": 0.0, "sigma": 0.0}
    if isinstance(margin, mg.PoissonMargin):
        return {"family": "poisson", "rate": 0.0}
    return {"family": "multinomial", "probs": np.zeros(margin.levels)}


def _margin_accumulate(acc: dict, margin: mg.MarginParams) -> None:
    if acc["family"] == "gaussian":
        acc["mu"] += margin.mu
        acc["sigma"] += margin.sigma
    elif acc["family"] == "poisson":
        acc["rate"] += margin.rate
    else:
        acc["probs"] += margin.probs


def _margin_mean(acc: dict, r: int) -> mg.MarginParams:
    if acc["family"] == "gaussian":
        return mg.GaussianMargin(acc["mu"] / r, acc["sigma"] / r)
    if acc["family"] == "poisson":
        return mg.PoissonMargin(acc["rate"] / r)
    probs = acc["probs"] / r
    return mg.OrdinalMargin(probs / probs.sum())


def _draw_snapshot(params: MixtureParams) -> dict:
    return {
        "pi": [float(v) for v in params.proportions],
        "components": [
            {
                "margins": [_snapshot_margin(m) for m in comp.margins],
                "correlation": [[float(v) for v in row]
                                for row in comp.correlation],
            }
            for comp in params.components
        ],
    }


def _snapshot_margin(margin: mg.MarginParams) -> dict:
    if isinstance(margin, mg.GaussianMargin):
        return {"family": "gaussian", "mu": float(margin.mu),
                "sigma": float(margin.sigma)}
    if isinstance(margin, mg.PoissonMargin):
        return {"family": "poisson", "rate": float(margin.rate)}
    return {"family": "multinomial", "probs": [float(p) for p in margin.probs]}


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
    state = initial_latent_state(values, params, rng)

    total = config.burn_in + config.iterations
    acc = None
    mh_accepted = 0
    mh_proposed = 0
    margin_accepted = np.zeros((config.g, e))
    margin_proposed = 0
    agreement = []
    prev_z = None
    draws = []

    for it in range(total):
        state, a, p = step_latent(values, params, state, rng,
                                  config.mh_latent_threshold)
        mh_accepted += a
        mh_proposed += p
        params, state, took = step_margins(values, params, state, priors, rng)
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
                draws.append(_draw_snapshot(params))

    estimate = acc.mean(config.family)
    posterior, _, log_density = posterior_and_logpdf_rows(values, estimate,
                                                          rng=rng)
    labels = np.argmax(posterior, axis=1)
    loglik = float(log_density.sum())

    messages = []
    if agreement and float(np.mean(agreement)) < 0.5:
        msg = ("adjacent draws disagree on most labels; the chain appears to "
               "switch component labels, so posterior-mean estimates are "
               "unreliable")
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        messages.append(msg)

    accept_latent = mh_accepted / mh_proposed if mh_proposed else float("nan")
    return FitResult(
        params=estimate, labels=labels, posterior=posterior, loglik=loglik,
        accept_latent=accept_latent,
        accept_margins=margin_accepted / max(margin_proposed, 1),
        chain_logliks=(loglik,), chain_index=0,
        wall_time=time.perf_counter() - start,
        messages=tuple(messages), draws=tuple(draws),
    )


def _chain_worker_count(n_chains: int) -> int:
    """Worker processes for a fit's chains: one per usable CPU and at most
    one per chain.  1 (run in-process) where ``fork`` does not exist, or
    while other threads run: a forked child keeps only the calling thread,
    and a lock another thread held would stay locked in it."""
    import multiprocessing
    import threading

    if (threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(n_chains, cpus)


def _run_seeded_chain(dataset: MixedDataset, config: ChainConfig,
                      init: MixtureParams | None,
                      seed: np.random.SeedSequence):
    """One chain of ``fit``: (result or None, failure message or None, the
    warnings it raised).  The warnings are returned rather than shown
    because a worker process cannot show them to the caller of ``fit``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run_chain(dataset, config, np.random.default_rng(seed),
                               init=init)
            failure = None
        except (DegenerateFitError, gauss.NumericalError) as exc:
            result, failure = None, str(exc)
    return result, failure, [w.message for w in caught]


def fit(dataset: MixedDataset, config: ChainConfig,
        init: MixtureParams | None = None) -> FitResult:
    """Run ``config.n_chains`` independently seeded chains and return the one
    whose posterior-mean estimate has the highest observed log-likelihood.

    The chains run in forked worker processes, one per usable CPU; the
    result, and the order of the chains' warnings, is that of a serial run.
    """
    start = time.perf_counter()
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_chains)
    chain = functools.partial(_run_seeded_chain, dataset, config, init)
    workers = _chain_worker_count(config.n_chains)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = list(pool.map(chain, seeds))
    else:
        outcomes = [chain(s) for s in seeds]
    results = []
    failures = []
    for result, failure, caught in outcomes:
        for message in caught:
            warnings.warn(message, stacklevel=2)
        if failure is None:
            results.append(result)
        else:
            failures.append(failure)
    if not results:
        raise DegenerateFitError("every chain failed: " + "; ".join(failures))
    logliks = tuple(r.loglik for r in results)
    best = int(np.argmax(logliks))
    chosen = results[best]
    return FitResult(
        params=chosen.params, labels=chosen.labels,
        posterior=chosen.posterior, loglik=chosen.loglik,
        accept_latent=chosen.accept_latent,
        accept_margins=chosen.accept_margins,
        chain_logliks=logliks, chain_index=best,
        wall_time=time.perf_counter() - start,
        messages=chosen.messages, draws=chosen.draws,
    )


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
        "mh_latent_threshold": config.mh_latent_threshold,
        "n_draws": len(result.draws),
        "loglik": result.loglik,
        "chain_index": result.chain_index,
        "accept_latent": (None if np.isnan(result.accept_latent)
                          else result.accept_latent),
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
