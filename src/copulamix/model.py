"""Gaussian copula mixture for mixed continuous/count/ordinal data.

Each component couples its margins through a correlation matrix on a latent
Gaussian vector: continuous coordinates are an invertible rescaling of their
latent value, discrete coordinates are observed as the interval the latent
value falls into.  The component density therefore factors into a Gaussian
density on the standardized continuous block and a rectangle probability for
the discrete block conditional on it.  ``latent_geometry`` is the one
builder of that per-component geometry (standardized continuous block and
its density, discrete latent boxes, conditional discrete block) for
scoring, the sampler's latent move and the visualization.  It reads each
discrete column through ``discrete_index``, the column's sorted support
and each row's position in it, so latent bounds are computed once per
distinct value.

Scoring works on all rows at once: ``mixture_logpdf_rows``,
``posterior_probs_rows`` and ``posterior_and_logpdf_rows`` take the
distinct rows, build one ``discrete_index`` of them per call and score
every component from it with ``component_logpdf_rows``, which adds the log
rectangle probability from ``gauss.box_probabilities``: exact or
deterministic to about 1e-10 in relative terms at three or fewer discrete
columns, however far out the box lies, and a lattice estimate beyond.

Three correlation families are supported: ``independent`` (every matrix is
the identity, so the model collapses to a locally independent mixture),
``homoscedastic`` (one correlation matrix shared by all components — shared
as the same ndarray object, not copies) and ``heteroscedastic`` (one matrix
per component).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import gauss, margins as mg
from .schema import MixedDataset, Schema, VariableKind, continuous, integer, ordinal

__all__ = [
    "FAMILIES", "INDEPENDENT", "HOMOSCEDASTIC", "HETEROSCEDASTIC",
    "LOG_DENSITY_FLOOR",
    "ComponentParams", "MixtureParams", "LatentState",
    "discrete_index", "latent_geometry",
    "component_logpdf_rows", "mixture_logpdf_rows",
    "posterior_probs_rows", "posterior_and_logpdf_rows",
    "generate", "schema_of",
    "params_to_json", "params_from_json",
]

INDEPENDENT = "independent"
HOMOSCEDASTIC = "homoscedastic"
HETEROSCEDASTIC = "heteroscedastic"
FAMILIES = (INDEPENDENT, HOMOSCEDASTIC, HETEROSCEDASTIC)

# Log of the smallest positive double; a component log density of an empty
# box (-inf) or below this takes it, so log-sum-exp and the posterior's
# all-floored test stay computable.
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
    The independent family carries no discrete latent coordinates: nothing
    reads them there, so the sampler leaves them NaN.
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


def schema_of(params: MixtureParams) -> Schema:
    """Schema implied by the margin families (continuous-first order), with
    columns named x1, x2, ..."""
    kinds = [_kind_of_margin(m) for m in params.components[0].margins]
    return Schema(tuple((f"x{j + 1}", kind) for j, kind in enumerate(kinds)))


# ---------------------------------------------------------------------------
# densities

def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of an (n, g) array, bit for bit.  numpy adds fewer
    than 8 terms in order, which is much faster done column by column; from
    8 on it adds pairwise, and its own sum is kept."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    total = a[:, 0].copy()
    for column in a.T[1:]:
        total += column
    return total


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=1)`` of an (n, g) array, bit for
    bit: scipy's arithmetic, with the row maxima and sums taken column by
    column (``_row_sum``), since numpy reduces slowly along a short axis."""
    top = functools.reduce(np.maximum, a.T)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        at_top = a == top[:, None]
        count = _row_sum(at_top.astype(float))
        rest = _row_sum(np.exp(np.where(at_top, -np.inf, a) - top[:, None]))
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + top
        # an infinite or NaN result takes the direct formula, as in scipy
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(_row_sum(np.exp(a[bad])))
    return out


def discrete_index(values: np.ndarray, c: int
                   ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(sorted support, row index) of each discrete column of ``values``,
    the columns after the first ``c``: its distinct values, and per row the
    position of the row's value among them."""
    return tuple(np.unique(values[:, j], return_inverse=True)
                 for j in range(c, values.shape[1]))


def latent_geometry(values: np.ndarray, index, component: ComponentParams):
    """The latent geometry of one component at every row of ``values``.

    ``index`` is the ``discrete_index`` of ``values``; each discrete
    column's latent bounds are computed on its support and gathered to the
    rows.  Returns (y_c, log_cont, lower, upper, mean, cov): the
    standardized continuous block (n, c); its log density, Jacobian
    -sum(log sigma) included (n,); the discrete latent boxes (n, d); and
    the mean (n, d) and covariance (d, d) of the discrete latent block
    given y_c.
    """
    n = values.shape[0]
    c, d = component.n_continuous, component.n_discrete
    corr = component.correlation
    mu = np.array([m.mu for m in component.margins[:c]])
    sigma = np.array([m.sigma for m in component.margins[:c]])
    y_c = (values[:, :c] - mu) / sigma
    log_cont = np.zeros(n)
    if c:
        log_cont += gauss.mvn_logpdf_rows(y_c, corr[:c, :c])
        log_cont -= sum(np.log(m.sigma) for m in component.margins[:c])
    lower, upper = np.empty((2, n, d))
    for j, ((support, rows), margin) in enumerate(
            zip(index, component.margins[c:], strict=True)):
        lo, hi = mg.latent_bounds_arrays(support, margin)
        lower[:, j], upper[:, j] = lo[rows], hi[rows]
    if c == 0:
        return y_c, log_cont, lower, upper, np.zeros((n, d)), corr
    coef = np.linalg.solve(corr[:c, :c], corr[:c, c:])
    cov = corr[c:, c:] - corr[c:, :c] @ coef
    return y_c, log_cont, lower, upper, y_c @ coef, 0.5 * (cov + cov.T)


def component_logpdf_rows(values: np.ndarray, index, component: ComponentParams
                          ) -> np.ndarray:
    """Component log density for every row of ``values``, whose
    ``discrete_index`` is ``index``: the continuous block's log density
    plus the log rectangle probability of the discrete block given it.  A
    row with an empty box, or a log density below the floor, carries the
    floor."""
    _, out, lo, hi, cond_mean, cond_cov = latent_geometry(values, index,
                                                          component)
    if component.n_discrete == 0:
        return out
    log_p, _ = gauss.box_probabilities(cond_cov, lo - cond_mean,
                                       hi - cond_mean)
    out = out + log_p
    return np.where(out >= LOG_DENSITY_FLOOR, out, LOG_DENSITY_FLOOR)


def _component_log_matrix(values: np.ndarray, params: MixtureParams
                          ) -> np.ndarray:
    """(n, g) component log densities; each distinct row is scored once,
    which saves work on count data, whose rows repeat."""
    distinct, rows = np.unique(values, axis=0, return_inverse=True)
    index = discrete_index(distinct, params.n_continuous)
    return np.column_stack([component_logpdf_rows(distinct, index, comp)
                            for comp in params.components])[rows]


def mixture_logpdf_rows(values: np.ndarray, params: MixtureParams
                        ) -> np.ndarray:
    """Mixture log density for every row, via log-sum-exp over components."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    logs = _component_log_matrix(values, params)
    return _logsumexp(logs + np.log(params.proportions))


def posterior_and_logpdf_rows(values: np.ndarray, params: MixtureParams
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior membership probabilities and mixture log density per row,
    from one evaluation of the component densities.

    The probabilities are an (n, g) simplex matrix; a row where every
    component underflowed gets the uniform vector.  The log density equals
    ``mixture_logpdf_rows``.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    logs = _component_log_matrix(values, params)
    degenerate = np.all(logs <= LOG_DENSITY_FLOOR, axis=1)
    logs = logs + np.log(params.proportions)
    log_density = _logsumexp(logs)
    t = np.exp(logs - log_density[:, None])
    t /= _row_sum(t)[:, None]
    t[degenerate] = 1.0 / params.g
    return t, log_density


def posterior_probs_rows(values: np.ndarray, params: MixtureParams
                         ) -> np.ndarray:
    """Posterior component membership probabilities per row: an (n, g)
    simplex matrix; a row where every component underflowed gets the
    uniform vector."""
    return posterior_and_logpdf_rows(values, params)[0]


# ---------------------------------------------------------------------------
# generation

def generate(n: int, params: MixtureParams, rng: np.random.Generator
             ) -> tuple[MixedDataset, np.ndarray, np.ndarray]:
    """Draw n observations from the mixture.

    Returns the dataset plus ground-truth labels z (0-based) and latent
    coordinates y.  Continuous coordinates are the exact affine image of
    their latent value; discrete coordinates come from the generalized
    inverse of the margin cdf applied to the latent normal score.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    schema = schema_of(params)
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

def _params_doc(params: MixtureParams) -> dict:
    """Proportions and components as a JSON-ready document."""
    return {
        "pi": list(map(float, params.proportions)),
        "components": [
            {
                "margins": [mg.margin_to_dict(m) for m in comp.margins],
                "correlation": [list(map(float, row))
                                for row in comp.correlation],
            }
            for comp in params.components
        ],
    }


def params_to_json(params: MixtureParams,
                   names: tuple[str, ...] | None = None) -> str:
    """Serialize to JSON, round-trip stable (floats keep full precision)."""
    doc = {"family": params.family, "g": params.g, **_params_doc(params)}
    if names is not None:
        doc["columns"] = list(names)
    return json.dumps(doc, indent=2)


def params_from_json(text: str) -> MixtureParams:
    doc = json.loads(text)
    comps = tuple(
        ComponentParams(np.asarray(entry["correlation"], dtype=float),
                        tuple(mg.margin_from_dict(m) for m in entry["margins"]))
        for entry in doc["components"])
    params = MixtureParams(np.asarray(doc["pi"], dtype=float), comps,
                           doc["family"])
    if params.g != doc.get("g", params.g):
        raise ValueError("component count disagrees with declared g")
    return params
