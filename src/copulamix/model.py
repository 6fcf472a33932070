"""Gaussian copula mixture for mixed continuous/count/ordinal data.

Each component couples its margins through a correlation matrix on a latent
Gaussian vector: continuous coordinates are an invertible rescaling of their
latent value, discrete coordinates are observed as the interval the latent
value falls into.  The component density therefore factors into a Gaussian
density on the standardized continuous block and a rectangle probability for
the discrete block conditional on it.

Three correlation families are supported: ``independent`` (every matrix is
the identity, so the model collapses to a locally independent mixture),
``homoscedastic`` (one correlation matrix shared by all components — shared
as the same ndarray object, not copies) and ``heteroscedastic`` (one matrix
per component).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp, ndtr

from . import gauss, margins as mg
from .schema import MixedDataset, Schema, VariableKind, continuous, integer, ordinal

__all__ = [
    "FAMILIES", "INDEPENDENT", "HOMOSCEDASTIC", "HETEROSCEDASTIC",
    "LOG_DENSITY_FLOOR",
    "ComponentParams", "MixtureParams", "LatentState",
    "standardize_continuous", "latent_boxes",
    "component_logpdf", "component_logpdf_rows",
    "mixture_logpdf", "mixture_logpdf_rows",
    "posterior_probs", "posterior_probs_rows", "posterior_and_logpdf_rows",
    "generate", "schema_of",
    "params_to_json", "params_from_json",
]

INDEPENDENT = "independent"
HOMOSCEDASTIC = "homoscedastic"
HETEROSCEDASTIC = "heteroscedastic"
FAMILIES = (INDEPENDENT, HOMOSCEDASTIC, HETEROSCEDASTIC)

# Smallest representable double log; used instead of -inf when a rectangle
# probability underflows, so acceptance ratios stay computable.
LOG_DENSITY_FLOOR = -745.0


def _kind_of_margin(margin: mg.MarginParams) -> VariableKind:
    if isinstance(margin, mg.GaussianMargin):
        return continuous()
    if isinstance(margin, mg.PoissonMargin):
        return integer()
    return ordinal(margin.levels)


@dataclass(frozen=True)
class ComponentParams:
    """One mixture component: a correlation matrix and one margin per column.

    Margins must be stored continuous-first (all Gaussian margins before any
    discrete margin), matching the dataset layout.
    """

    correlation: np.ndarray
    margins: tuple[mg.MarginParams, ...]

    def __post_init__(self):
        marg = tuple(self.margins)
        if not marg:
            raise ValueError("component needs at least one margin")
        corr = np.asarray(self.correlation, dtype=float)
        if corr.shape != (len(marg), len(marg)):
            raise ValueError("correlation matrix shape does not match margin count")
        if not gauss.is_correlation_matrix(corr, tol=1e-8):
            raise ValueError("not a valid correlation matrix")
        seen_discrete = False
        for m in marg:
            if mg.is_discrete(m):
                seen_discrete = True
            elif seen_discrete:
                raise ValueError("margins must be ordered continuous-first")
        corr.setflags(write=False)
        object.__setattr__(self, "correlation", corr)
        object.__setattr__(self, "margins", marg)

    @property
    def dim(self) -> int:
        return len(self.margins)

    @property
    def n_continuous(self) -> int:
        return sum(1 for m in self.margins if not mg.is_discrete(m))

    @property
    def n_discrete(self) -> int:
        return self.dim - self.n_continuous


@dataclass(frozen=True)
class MixtureParams:
    """Full mixture parameter vector.

    Invariants enforced on construction: proportions lie on the simplex,
    every component has the same margin family per column, the independent
    family forces identity correlation matrices, and the homoscedastic family
    stores one shared correlation ndarray across all components.
    """

    proportions: np.ndarray
    components: tuple[ComponentParams, ...]
    family: str = HETEROSCEDASTIC

    def __post_init__(self):
        pi = np.asarray(self.proportions, dtype=float)
        comps = tuple(self.components)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown correlation family {self.family!r}")
        if pi.ndim != 1 or pi.size != len(comps) or not comps:
            raise ValueError("proportions must be one weight per component")
        if np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("proportions must be positive and sum to one")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError("components disagree on dimension")
        for j in range(comps[0].dim):
            kinds = {str(_kind_of_margin(c.margins[j])) for c in comps}
            if len(kinds) != 1:
                raise ValueError(f"components disagree on margin family of column {j}")
        if self.family == INDEPENDENT:
            eye = np.eye(comps[0].dim)
            for c in comps:
                if np.max(np.abs(c.correlation - eye)) > 1e-12:
                    raise ValueError("independent family requires identity correlations")
        elif self.family == HOMOSCEDASTIC:
            shared = comps[0].correlation
            rebuilt = []
            for c in comps:
                if c.correlation is shared:
                    rebuilt.append(c)
                    continue
                if np.max(np.abs(c.correlation - shared)) > 1e-10:
                    raise ValueError("homoscedastic family requires equal correlations")
                rebuilt.append(ComponentParams(shared, c.margins))
            comps = tuple(rebuilt)
        pi.setflags(write=False)
        object.__setattr__(self, "proportions", pi)
        object.__setattr__(self, "components", comps)

    @property
    def g(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def n_continuous(self) -> int:
        return self.components[0].n_continuous


@dataclass(frozen=True)
class LatentState:
    """Latent Gaussian coordinates and component labels for a dataset.

    ``y`` is (n, e); ``z`` holds 0-based component indices.  Continuous
    latent coordinates equal the standardized observation exactly; discrete
    coordinates lie strictly inside the interval their observation maps to.
    """

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        z = np.asarray(self.z, dtype=int)
        if y.ndim != 2 or z.shape != (y.shape[0],):
            raise ValueError("latent state shape mismatch")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


def schema_of(params: MixtureParams, names: tuple[str, ...] | None = None) -> Schema:
    """Schema implied by the margin families (continuous-first order)."""
    kinds = [_kind_of_margin(m) for m in params.components[0].margins]
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(len(kinds)))
    return Schema(tuple(zip(names, kinds)))


# ---------------------------------------------------------------------------
# densities

def standardize_continuous(x_c: np.ndarray, component: ComponentParams) -> np.ndarray:
    """Map the continuous sub-vector to its latent value, (x - mu) / sigma."""
    x_c = np.asarray(x_c, dtype=float)
    c = component.n_continuous
    if x_c.shape[-1] != c:
        raise ValueError("continuous sub-vector length mismatch")
    if c == 0:
        return x_c
    mu = np.array([m.mu for m in component.margins[:c]])
    sigma = np.array([m.sigma for m in component.margins[:c]])
    return (x_c - mu) / sigma


def latent_boxes(x_d: np.ndarray, component: ComponentParams
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row latent intervals of the discrete sub-vectors, as (lower, upper)
    arrays of shape (n, d)."""
    x_d = np.atleast_2d(np.asarray(x_d, dtype=float))
    c = component.n_continuous
    lo = np.empty_like(x_d)
    hi = np.empty_like(x_d)
    for j, margin in enumerate(component.margins[c:]):
        lo[:, j], hi[:, j] = mg.latent_bounds_arrays(x_d[:, j], margin)
    return lo, hi


def component_logpdf_rows(values: np.ndarray, component: ComponentParams,
                          rng: np.random.Generator | None = None,
                          rel_tol: float = 1e-4,
                          boxes: tuple[np.ndarray, np.ndarray] | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Component log density for every row of ``values``.

    Returns (log densities, degenerate flags); a flagged row had its
    rectangle probability underflow and carries the log-density floor.
    ``boxes`` is ``latent_boxes`` of the rows' discrete block when the
    caller already has it.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[0]
    c, d = component.n_continuous, component.n_discrete
    corr = component.correlation

    out = np.zeros(n)
    if c:
        y_c = standardize_continuous(values[:, :c], component)
        out += gauss.mvn_logpdf_rows(y_c, corr[:c, :c])
        out -= sum(np.log(m.sigma) for m in component.margins[:c])
    if d == 0:
        return out, np.zeros(n, dtype=bool)

    lo, hi = latent_boxes(values[:, c:], component) if boxes is None else boxes
    if c:
        cond_mean = y_c @ np.linalg.solve(corr[:c, :c], corr[:c, c:])
        cond_cov = corr[c:, c:] - corr[c:, :c] @ np.linalg.solve(corr[:c, :c],
                                                                 corr[:c, c:])
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
        lo = lo - cond_mean
        hi = hi - cond_mean
    else:
        cond_cov = corr
    prob, _ = gauss.box_probabilities(cond_cov, lo, hi, rng=rng, rel_tol=rel_tol)

    degenerate = ~(prob > 0) | ~np.isfinite(prob)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = out + np.where(degenerate, 0.0, np.log(np.maximum(prob, 1e-323)))
    degenerate |= ~np.isfinite(out) | (out < LOG_DENSITY_FLOOR)
    out = np.where(degenerate, LOG_DENSITY_FLOOR, out)
    return out, degenerate


def component_logpdf(x: np.ndarray, component: ComponentParams,
                     rng: np.random.Generator | None = None,
                     rel_tol: float = 1e-4) -> float:
    """Log density of one mixed observation under one component."""
    value, _ = component_logpdf_rows(np.asarray(x, float)[None, :], component,
                                     rng=rng, rel_tol=rel_tol)
    return float(value[0])


def _component_log_matrix(values: np.ndarray, params: MixtureParams,
                          rng: np.random.Generator | None, rel_tol: float,
                          boxes: list | None = None) -> np.ndarray:
    boxes = boxes or [None] * params.g
    cols = [component_logpdf_rows(values, comp, rng=rng, rel_tol=rel_tol,
                                  boxes=box)[0]
            for comp, box in zip(params.components, boxes)]
    return np.column_stack(cols)


def mixture_logpdf_rows(values: np.ndarray, params: MixtureParams,
                        rng: np.random.Generator | None = None,
                        rel_tol: float = 1e-4) -> np.ndarray:
    """Mixture log density for every row, via log-sum-exp over components."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    logs = _component_log_matrix(values, params, rng, rel_tol)
    return logsumexp(logs + np.log(params.proportions), axis=1)


def mixture_logpdf(x: np.ndarray, params: MixtureParams,
                   rng: np.random.Generator | None = None,
                   rel_tol: float = 1e-4) -> float:
    return float(mixture_logpdf_rows(np.asarray(x, float)[None, :], params,
                                     rng=rng, rel_tol=rel_tol)[0])


def posterior_and_logpdf_rows(values: np.ndarray, params: MixtureParams,
                              rng: np.random.Generator | None = None,
                              rel_tol: float = 1e-4, boxes: list | None = None
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior membership probabilities, degeneracy flags and mixture log
    density per row, from one evaluation of the component densities.

    The probabilities are an (n, g) simplex matrix; a row where every
    component underflowed is flagged and gets the uniform vector.  The log
    density equals ``mixture_logpdf_rows``.  ``boxes`` holds each
    component's ``latent_boxes`` of the rows when the caller already has
    them.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    logs = _component_log_matrix(values, params, rng, rel_tol, boxes)
    degenerate = np.all(logs <= LOG_DENSITY_FLOOR, axis=1)
    logs = logs + np.log(params.proportions)
    log_density = logsumexp(logs, axis=1, keepdims=True)
    t = np.exp(logs - log_density)
    t /= t.sum(axis=1, keepdims=True)
    t[degenerate] = 1.0 / params.g
    return t, degenerate, log_density[:, 0]


def posterior_probs_rows(values: np.ndarray, params: MixtureParams,
                         rng: np.random.Generator | None = None,
                         rel_tol: float = 1e-4, boxes: list | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior component membership probabilities per row.

    Returns an (n, g) simplex matrix and per-row degeneracy flags; a row
    where every component underflowed gets the uniform vector.  ``boxes``
    is as in ``posterior_and_logpdf_rows``.
    """
    t, degenerate, _ = posterior_and_logpdf_rows(values, params, rng,
                                                 rel_tol, boxes)
    return t, degenerate


def posterior_probs(x: np.ndarray, params: MixtureParams,
                    rng: np.random.Generator | None = None,
                    rel_tol: float = 1e-4) -> np.ndarray:
    t, _ = posterior_probs_rows(np.asarray(x, float)[None, :], params,
                                rng=rng, rel_tol=rel_tol)
    return t[0]


# ---------------------------------------------------------------------------
# generation

def generate(n: int, params: MixtureParams, rng: np.random.Generator,
             names: tuple[str, ...] | None = None
             ) -> tuple[MixedDataset, np.ndarray, np.ndarray]:
    """Draw n observations from the mixture.

    Returns the dataset plus ground-truth labels z (0-based) and latent
    coordinates y.  Continuous coordinates are the exact affine image of
    their latent value; discrete coordinates come from the generalized
    inverse of the margin cdf applied to the latent normal score.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    schema = schema_of(params, names)
    e = params.dim
    c = params.n_continuous
    z = rng.choice(params.g, size=n, p=params.proportions)
    y = np.empty((n, e))
    x = np.empty((n, e))
    for k, comp in enumerate(params.components):
        idx = np.flatnonzero(z == k)
        if idx.size == 0:
            continue
        chol = gauss.chol_spd(comp.correlation)
        y_k = rng.standard_normal((idx.size, e)) @ chol.T
        y[idx] = y_k
        for j, margin in enumerate(comp.margins):
            if j < c:
                x[idx, j] = margin.mu + margin.sigma * y_k[:, j]
            else:
                x[idx, j] = mg.quantile_array(ndtr(y_k[:, j]), margin)
    return MixedDataset(schema, x), z, y


# ---------------------------------------------------------------------------
# serialization

def _margin_to_dict(margin: mg.MarginParams) -> dict:
    if isinstance(margin, mg.GaussianMargin):
        return {"family": "gaussian", "mu": float(margin.mu),
                "sigma": float(margin.sigma)}
    if isinstance(margin, mg.PoissonMargin):
        return {"family": "poisson", "rate": float(margin.rate)}
    return {"family": "multinomial", "probs": list(margin.probs)}


def _margin_from_dict(doc: dict) -> mg.MarginParams:
    fam = doc.get("family")
    if fam == "gaussian":
        return mg.GaussianMargin(float(doc["mu"]), float(doc["sigma"]))
    if fam == "poisson":
        return mg.PoissonMargin(float(doc["rate"]))
    if fam == "multinomial":
        return mg.OrdinalMargin(np.asarray(doc["probs"], dtype=float))
    raise ValueError(f"unknown margin family {fam!r}")


def params_to_json(params: MixtureParams,
                   names: tuple[str, ...] | None = None) -> str:
    """Serialize to JSON, round-trip stable (floats keep full precision)."""
    doc = {
        "family": params.family,
        "g": params.g,
        "pi": list(map(float, params.proportions)),
        "components": [
            {
                "margins": [_margin_to_dict(m) for m in comp.margins],
                "correlation": [list(map(float, row))
                                for row in comp.correlation],
            }
            for comp in params.components
        ],
    }
    if names is not None:
        doc["columns"] = list(names)
    return json.dumps(doc, indent=2)


def params_from_json(text: str) -> MixtureParams:
    doc = json.loads(text)
    family = doc["family"]
    comps = []
    shared: np.ndarray | None = None
    for entry in doc["components"]:
        corr = np.asarray(entry["correlation"], dtype=float)
        if family == HOMOSCEDASTIC:
            if shared is None:
                shared = corr
            corr = shared
        comps.append(ComponentParams(
            corr, tuple(_margin_from_dict(m) for m in entry["margins"])))
    params = MixtureParams(np.asarray(doc["pi"], dtype=float),
                           tuple(comps), family)
    if params.g != doc.get("g", params.g):
        raise ValueError("component count disagrees with declared g")
    return params
