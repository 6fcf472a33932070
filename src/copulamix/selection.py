"""Model selection: parameter counting, BIC, ICL and (family, g) sweeps.

Both criteria are computed at the posterior-mean estimate returned by the
sampler, on a larger-is-better scale: BIC = loglik - (nu/2) ln n and
ICL = BIC + sum of posterior entropies (a non-positive addition, so
ICL <= BIC always, with equality for a hard partition).
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import sampler as sp
from .model import HETEROSCEDASTIC, HOMOSCEDASTIC, INDEPENDENT
from .schema import MixedDataset, Schema

__all__ = [
    "CriterionCell", "CriterionReport",
    "param_count", "bic", "icl", "entropy_term",
    "sweep", "format_report",
]


def param_count(schema: Schema, g: int, family: str) -> int:
    """Number of free parameters of the (family, g) model on this schema.

    Per column: 2 for continuous, 1 for integer, levels - 1 for ordinal;
    plus g - 1 proportions; plus e(e-1)/2 correlation terms per component
    (heteroscedastic), shared once (homoscedastic) or none (independent).
    """
    if g < 1:
        raise ValueError("need g >= 1")
    per_column = 0
    for kind in schema.kinds:
        if kind.tag == "continuous":
            per_column += 2
        elif kind.tag == "integer":
            per_column += 1
        else:
            per_column += kind.levels - 1
    e = schema.n_variables
    nu = (g - 1) + g * per_column
    pairs = e * (e - 1) // 2
    if family == HETEROSCEDASTIC:
        nu += g * pairs
    elif family == HOMOSCEDASTIC:
        nu += pairs
    elif family != INDEPENDENT:
        raise ValueError(f"unknown correlation family {family!r}")
    return nu


def bic(loglik: float, nu: int, n: int) -> float:
    """Bayesian information criterion, larger is better."""
    if n < 1:
        raise ValueError("need n >= 1")
    return loglik - 0.5 * nu * np.log(n)


def entropy_term(posterior: np.ndarray) -> float:
    """Sum of posterior entropies, sum_i sum_k t_ik ln t_ik (<= 0)."""
    t = np.asarray(posterior, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(t > 0, t * np.log(t), 0.0)
    return float(contrib.sum())


def icl(bic_value: float, posterior: np.ndarray) -> float:
    """Integrated completed likelihood criterion, larger is better."""
    return bic_value + entropy_term(posterior)


@dataclass(frozen=True)
class CriterionCell:
    """Criteria of one fitted (family, g) model; NaNs mark a degenerate fit."""

    family: str
    g: int
    loglik: float
    nu: int
    bic: float
    icl: float
    entropy: float
    degenerate: bool

    @property
    def available(self) -> bool:
        return not self.degenerate


@dataclass(frozen=True)
class CriterionReport:
    """Criteria table over a (family, g) grid with per-criterion winners."""

    cells: tuple[CriterionCell, ...]

    def best(self, criterion: str = "bic") -> CriterionCell:
        usable = [c for c in self.cells if c.available]
        if not usable:
            raise ValueError("every cell in the sweep is degenerate")
        return max(usable, key=lambda c: getattr(c, criterion))


def _is_degenerate(result: sp.FitResult, n: int) -> bool:
    if not np.isfinite(result.loglik):
        return True
    weights = result.posterior.sum(axis=0) / n
    return bool(np.any(weights < 1.0 / n))


def sweep(dataset: MixedDataset, g_values, families,
          config: sp.ChainConfig | None = None) -> CriterionReport:
    """Fit every (family, g) combination and tabulate the criteria.

    A combination whose fit collapses (sampler failure, non-finite
    likelihood, or a component of effective weight below 1/n) is kept in the
    table as a degenerate NaN cell rather than aborting the sweep.
    ``config`` supplies sampler settings; its ``family`` and ``g`` fields are
    overridden per cell.
    """
    g_values = list(g_values)
    families = list(families)
    if not g_values or not families:
        raise ValueError("sweep needs at least one g and one family")
    base = config or sp.ChainConfig(g=g_values[0])
    n = dataset.n
    cells = []
    for family in families:
        for g in g_values:
            nu = param_count(dataset.schema, g, family)
            try:
                result = sp.fit(dataset, replace(base, g=g, family=family))
                degenerate = _is_degenerate(result, n)
            except (sp.DegenerateFitError, ArithmeticError) as exc:
                warnings.warn(f"{family} g={g}: {exc}", RuntimeWarning,
                              stacklevel=2)
                result = None
                degenerate = True
            if degenerate or result is None:
                cells.append(CriterionCell(family, g, float("nan"), nu,
                                           float("nan"), float("nan"),
                                           float("nan"), True))
                continue
            b = bic(result.loglik, nu, n)
            cells.append(CriterionCell(family, g, result.loglik, nu, b,
                                       icl(b, result.posterior),
                                       entropy_term(result.posterior), False))
    return CriterionReport(tuple(cells))


def format_report(report: CriterionReport, delimiter: str = ",") -> str:
    """Render the sweep as a delimited table (NA for degenerate cells)."""
    buf = io.StringIO()
    buf.write(delimiter.join(
        ["family", "g", "loglik", "nu", "bic", "icl"]) + "\n")
    for c in report.cells:
        if c.degenerate:
            row = [c.family, str(c.g), "NA", str(c.nu), "NA", "NA"]
        else:
            row = [c.family, str(c.g), f"{c.loglik:.4f}", str(c.nu),
                   f"{c.bic:.4f}", f"{c.icl:.4f}"]
        buf.write(delimiter.join(row) + "\n")
    return buf.getvalue()
