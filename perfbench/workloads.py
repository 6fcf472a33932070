"""Inputs and output checks of the benchmark workloads.

    python3 perfbench/workloads.py prepare WORKLOAD SEED DIR
    python3 perfbench/workloads.py check WORKLOAD DIR OUT...

``prepare`` writes the workload's inputs into DIR and a ``context.json``
holding the paths, the generated labels and the ``copulamix`` arguments of
one operation (``{out}`` stands for its output directory).  ``check``
prints one JSON object mapping each OUT to the list of problems found in
it, empty when the output is correct.

``run.py`` runs these in their own processes so that it stays small
itself: a child started from a large process reports the parent's peak
memory as its own in ``wait4``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

import inputs
import reference

# Misclassification allowed on fit-example1.  The Bayes rule under the
# truth misclassifies about 0.5 % of rows (README), i.e. 4 of 800 with a
# binomial spread of 2; 3 % is 24 rows.
EXAMPLE1_MAX_ERROR = 0.03


class Workload(NamedTuple):
    """Inputs, command and output checks of one workload."""

    make_inputs: Callable[[str, int], dict]
    command: Callable[[dict, str], list]
    check: Callable[[dict, str], list]


# ---------------------------------------------------------------------------
# inputs and commands

def _copula_inputs(truth, n):
    def make(directory, seed):
        rng = np.random.default_rng([seed, n])
        (data, schema), labels = inputs.write_copula_dataset(
            directory, truth, n, rng)
        theta = os.path.join(directory, "truth.json")
        inputs.write_truth(theta, truth)
        return {"data": data, "schema": schema, "labels": labels,
                "theta": theta, "seed": seed}
    return make


def _karlis_inputs(n):
    def make(directory, seed):
        x, labels = inputs.draw_karlis(n, np.random.default_rng([seed, n]))
        data, schema = inputs.write_dataset(
            directory, ["x1", "x2"], ["integer", "integer"], x)
        return {"data": data, "schema": schema, "labels": labels,
                "seed": seed}
    return make


def _fit_command(g, chains, iters, burnin):
    def command(ctx, out):
        return ["fit", ctx["data"], ctx["schema"], "--g", str(g),
                "--family", "heteroscedastic", "--chains", str(chains),
                "--iters", str(iters), "--burnin", str(burnin),
                "--seed", str(ctx["seed"]), "--out", out]
    return command


def _select_command(ctx, out):
    return ["select", ctx["data"], ctx["schema"], "--gmin", "1", "--gmax",
            "2", "--families", "independent,heteroscedastic",
            "--chains", "2", "--iters", "15", "--burnin", "5",
            "--seed", str(ctx["seed"]), "--out", out]


def _visualize_command(ctx, out):
    return ["visualize", ctx["data"], ctx["schema"], "--fit", ctx["theta"],
            "--component", "1", "--seed", str(ctx["seed"]), "--out", out]


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when correct

def _read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_data(ctx, columns):
    header, rows = _read_table(ctx["data"])
    x = np.array(rows, dtype=float)
    return x[:, [header.index(c) for c in columns]]


def _read_kinds(ctx):
    kinds = {}
    with open(ctx["schema"], encoding="utf-8") as fh:
        for line in fh:
            name, _, kind = line.partition("=")
            kinds[name.strip()] = kind.strip()
    return kinds


def _check_theta(theta, kinds):
    problems = []
    pi = np.asarray(theta["pi"], dtype=float)
    if len(theta["components"]) != theta["g"] or pi.size != theta["g"]:
        problems.append("theta: component count disagrees with g")
    if np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-12:
        problems.append(f"theta: proportions {pi.tolist()} off the simplex")
    if sorted(theta["columns"]) != sorted(kinds):
        problems.append("theta: columns differ from the schema")
    for k, comp in enumerate(theta["components"]):
        corr = np.asarray(comp["correlation"], dtype=float)
        e = len(theta["columns"])
        if corr.shape != (e, e):
            problems.append(f"theta: component {k} correlation shape")
            continue
        if (np.max(np.abs(corr - corr.T)) > 1e-12
                or np.max(np.abs(np.diag(corr) - 1.0)) > 1e-12):
            problems.append(f"theta: component {k} not a unit-diagonal "
                            "symmetric matrix")
        if reference.eigen(corr)[0][-1] <= 0:
            problems.append(f"theta: component {k} not positive definite")
        for name, margin in zip(theta["columns"], comp["margins"]):
            if inputs.kind_of(margin) != kinds.get(name):
                problems.append(f"theta: margin family of {name} disagrees "
                                "with the schema")
            elif (margin.get("sigma", 1.0) <= 0 or margin.get("rate", 1.0) <= 0
                  or (margin["family"] == "multinomial"
                      and (min(margin["probs"]) < 0
                           or abs(sum(margin["probs"]) - 1.0) > 1e-12))):
                problems.append(f"theta: invalid margin for {name}")
    return problems


def _check_partition(out, n, g):
    header, rows = _read_table(os.path.join(out, "partition.csv"))
    if header != ["row_id", "label"] + [f"t{k + 1}" for k in range(g)]:
        return [f"partition: header {header}"], None
    if len(rows) != n or [int(r[0]) for r in rows] != list(range(n)):
        return [f"partition: {len(rows)} rows for {n} data rows"], None
    labels = np.array([int(r[1]) for r in rows]) - 1
    t = np.array([r[2:] for r in rows], dtype=float)
    problems = []
    if np.any(t < 0) or np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-9:
        problems.append("partition: a row's probabilities do not sum to 1")
    if np.any(labels != np.argmax(t, axis=1)):
        problems.append("partition: a label is not its row's argmax")
    return problems, labels


def _misclassification(labels, truth):
    """Share of rows misassigned, minimized over relabellings."""
    g = int(max(labels.max(), truth.max())) + 1
    confusion = np.zeros((g, g))
    np.add.at(confusion, (labels, truth), 1.0)
    best = max(sum(confusion[k, perm[k]] for k in range(g))
               for perm in itertools.permutations(range(g)))
    return 1.0 - best / labels.size


def _check_fit(max_error=None):
    def check(ctx, out):
        kinds = _read_kinds(ctx)
        with open(os.path.join(out, "theta.json"), encoding="utf-8") as fh:
            theta = json.load(fh)
        problems = _check_theta(theta, kinds)
        if problems:
            return problems
        with open(os.path.join(out, "acceptance.json"), encoding="utf-8") as fh:
            reported = json.load(fh)["loglik"]
        x = _read_data(ctx, theta["columns"])
        ref, bound, _ = reference.loglik(theta, x)
        if not abs(reported - ref) <= bound:
            problems.append(f"loglik {reported!r} differs from the reference "
                            f"{ref!r} by more than its error {bound:.3g}")
        part_problems, labels = _check_partition(out, x.shape[0], theta["g"])
        problems += part_problems
        if max_error is not None and labels is not None:
            err = _misclassification(labels, ctx["labels"])
            if err > max_error:
                problems.append(f"misclassification {err:.4f} above "
                                f"{max_error}")
        return problems
    return check


def _check_select(ctx, out):
    with open(os.path.join(out, "criteria.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    kinds = list(_read_kinds(ctx).values())
    n = len(ctx["labels"])
    problems = []
    cells = doc["cells"]
    if sorted((c["family"], c["g"]) for c in cells) != sorted(
            (f, g) for f in ("independent", "heteroscedastic") for g in (1, 2)):
        return [f"criteria: unexpected cells {cells}"]
    for c in cells:
        tag = f"{c['family']} g={c['g']}"
        if c["degenerate"] or c["loglik"] is None:
            problems.append(f"criteria: {tag} is degenerate")
            continue
        nu = reference.free_parameters(kinds, c["g"], c["family"])
        if c["nu"] != nu:
            problems.append(f"criteria: {tag} nu {c['nu']} != {nu}")
        bic = c["loglik"] - 0.5 * nu * math.log(n)
        if abs(c["bic"] - bic) > 1e-12 * max(1.0, abs(bic)):
            problems.append(f"criteria: {tag} BIC {c['bic']!r} != {bic!r}")
        if not c["icl"] <= c["bic"]:
            problems.append(f"criteria: {tag} ICL above BIC")
    if problems:
        return problems
    best = max(cells, key=lambda c: c["bic"])
    if doc["best_bic"] != {"family": best["family"], "g": best["g"]}:
        problems.append("criteria: best_bic is not the largest BIC")
    if best["g"] != 2:
        problems.append(f"criteria: BIC picks g={best['g']}, not 2")
    return problems


def _check_visualize(ctx, out):
    with open(ctx["theta"], encoding="utf-8") as fh:
        theta = json.load(fh)
    e = len(theta["columns"])
    n = len(ctx["labels"])
    problems = []
    _, eig_rows = _read_table(os.path.join(out, "pca_eigen.csv"))
    values = np.array([r[1] for r in eig_rows], dtype=float)
    expected = reference.eigen(theta["components"][0]["correlation"])[0]
    if values.shape != expected.shape or np.max(np.abs(values - expected)) > 1e-10:
        problems.append(f"eigen: {values.tolist()} != {expected.tolist()}")
    elif abs(values.sum() - e) > 1e-10:
        problems.append(f"eigen: eigenvalues sum to {values.sum()!r}, not {e}")
    _, circle = _read_table(os.path.join(out, "pca_circle.csv"))
    loads = np.array([r[3:5] for r in circle], dtype=float)
    if loads.shape != (e, 2) or np.any(np.sum(loads ** 2, axis=1) > 1 + 1e-12):
        problems.append("circle: a loading lies outside the unit disk")
    _, scores = _read_table(os.path.join(out, "pca_scores.csv"))
    if [int(r[0]) for r in scores] != list(range(n)):
        problems.append(f"scores: {len(scores)} rows for {n} data rows")
    else:
        values = np.array([[r[4], r[5], r[7]] for r in scores], dtype=float)
        if not np.all(np.isfinite(values)) or np.any(values[:, 2] < 0):
            problems.append("scores: non-finite score or mc_err")
    return problems


# Sizes give one operation 3-6 s on two cores, so a 25 s run takes a median
# over 4-9 operations.  fit-d4 is not listed in BENCHMARK.json: at this
# commit its wall time is set by the quasi-Monte Carlo point count the
# hardest row reaches and spreads 2-23 s over seeds (README).
WORKLOADS = {
    "fit-example1": Workload(_copula_inputs(inputs.EXAMPLE1, 800),
                             _fit_command(g=2, chains=2, iters=30, burnin=10),
                             _check_fit(EXAMPLE1_MAX_ERROR)),
    "select-karlis": Workload(_karlis_inputs(1600), _select_command,
                              _check_select),
    "fit-d4": Workload(_copula_inputs(inputs.D4, 24),
                       _fit_command(g=2, chains=1, iters=2, burnin=0),
                       _check_fit()),
    "visualize-example1": Workload(_copula_inputs(inputs.EXAMPLE1, 3000),
                                   _visualize_command, _check_visualize),
}


def prepare(name: str, seed: int, directory: str) -> dict:
    ctx = WORKLOADS[name].make_inputs(directory, seed)
    labels = os.path.join(directory, "labels.json")
    with open(labels, "w", encoding="utf-8") as fh:
        json.dump(ctx.pop("labels").tolist(), fh)
    ctx["labels"] = labels
    ctx["command"] = WORKLOADS[name].command(ctx, "{out}")
    with open(os.path.join(directory, "context.json"), "w",
              encoding="utf-8") as fh:
        json.dump(ctx, fh, indent=2)
    return ctx


def check(name: str, directory: str, outs) -> dict:
    with open(os.path.join(directory, "context.json"), encoding="utf-8") as fh:
        ctx = json.load(fh)
    with open(ctx["labels"], encoding="utf-8") as fh:
        ctx["labels"] = np.asarray(json.load(fh), dtype=int)
    report = {}
    for out in outs:
        try:
            report[out] = WORKLOADS[name].check(ctx, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            report[out] = [f"unreadable output: {exc!r}"]
    return report


def main(argv) -> int:
    if len(argv) == 4 and argv[0] == "prepare" and argv[1] in WORKLOADS:
        prepare(argv[1], int(argv[2]), argv[3])
        return 0
    if len(argv) >= 3 and argv[0] == "check" and argv[1] in WORKLOADS:
        print(json.dumps(check(argv[1], argv[2], argv[3:])))
        return 0
    print(__doc__ + "workloads: " + ", ".join(WORKLOADS), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
