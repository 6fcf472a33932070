"""Command-line front end.

Subcommands: fit | select | simulate | visualize | eval.  Exit codes:
0 success, 1 usage or validation error, 2 numerical failure.  Machine
output goes to files (written atomically: temp file then rename); progress
notes go to standard error.

Start-up is part of every command's time, so each command imports the
modules only it needs (``visualize`` loads no sampler), and OpenBLAS is
asked for one thread unless the environment says otherwise: the sampler's
matrices are small, chains run in processes of their own, and starting a
BLAS thread pool costs every command time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

if "numpy" not in sys.modules:  # OpenBLAS reads it once, as numpy loads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .model import (
    FAMILIES, HETEROSCEDASTIC, generate, params_from_json, params_to_json,
)
from .schema import load_dataset, save_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class UsageError(ValueError):
    pass


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path: str, content: str) -> None:
    """Write through a temporary file and rename it into place.  The file
    gets the mode a plain ``open`` would give, not mkstemp's 0600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise UsageError(f"output directory {path!r} is not writable")
    return path


def _chain_config(args, g: int, family: str, keep_draws: bool = False,
                  thin: int = 1):
    from . import sampler as sp

    return sp.ChainConfig(
        g=g, family=family, iterations=args.iters, burn_in=args.burnin,
        seed=args.seed, n_chains=args.chains, keep_draws=keep_draws,
        thin=thin)


def _partition_csv(result) -> str:
    g = result.posterior.shape[1]
    lines = ["row_id,label," + ",".join(f"t{k + 1}" for k in range(g))]
    for i, (label, t_row) in enumerate(zip(result.labels, result.posterior)):
        probs = ",".join(repr(float(v)) for v in t_row)
        lines.append(f"{i},{label + 1},{probs}")
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    from . import sampler as sp

    dataset = load_dataset(args.data, args.schema)
    config = _chain_config(args, args.g, args.family, keep_draws=True,
                           thin=args.thin)
    out = _ensure_outdir(args.out)
    _note(f"fitting g={args.g} {args.family} model on {dataset.n} rows")
    result = sp.fit(dataset, config)
    _write_atomic(os.path.join(out, "theta.json"),
                  params_to_json(result.params, dataset.schema.names))
    _write_atomic(os.path.join(out, "partition.csv"), _partition_csv(result))
    sp.save_chain(os.path.join(out, "chain.ndjson"), result, config)
    rates = {
        "loglik": result.loglik,
        "chain_logliks": list(result.chain_logliks),
        "chain_index": result.chain_index,
        "accept_latent": result.accept_latent,
        "accept_margins": result.accept_margins.tolist(),
        "wall_time_s": result.wall_time,
        "messages": list(result.messages),
    }
    _write_atomic(os.path.join(out, "acceptance.json"),
                  json.dumps(rates, indent=2))
    _note(f"loglik {result.loglik:.4f}; wrote bundle to {out}")
    return EXIT_OK


def cmd_select(args) -> int:
    from . import selection as sel

    dataset = load_dataset(args.data, args.schema)
    if args.gmin < 1 or args.gmax < args.gmin:
        raise UsageError("need 1 <= gmin <= gmax")
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise UsageError("need at least one family")
    for family in families:
        if family not in FAMILIES:
            raise UsageError(f"unknown family {family!r}")
    out = _ensure_outdir(args.out)
    base = _chain_config(args, args.gmin, families[0])
    _note(f"sweeping g={args.gmin}..{args.gmax} over {families}")
    report = sel.sweep(dataset, range(args.gmin, args.gmax + 1), families,
                       config=base)
    _write_atomic(os.path.join(out, "criteria.csv"),
                  sel.format_report(report))
    doc = {
        "cells": [
            {"family": c.family, "g": c.g, "nu": c.nu,
             "loglik": None if c.degenerate else c.loglik,
             "bic": None if c.degenerate else c.bic,
             "icl": None if c.degenerate else c.icl,
             "degenerate": c.degenerate}
            for c in report.cells
        ],
    }
    for criterion in ("bic", "icl"):
        best = report.best(criterion)
        doc[f"best_{criterion}"] = {"family": best.family, "g": best.g}
    _write_atomic(os.path.join(out, "criteria.json"), json.dumps(doc, indent=2))
    _note(f"best BIC: {doc['best_bic']}; best ICL: {doc['best_icl']}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import evaluate as ev

    if args.n < 1:
        raise UsageError("n must be >= 1")
    rng = np.random.default_rng(args.seed)
    out = _ensure_outdir(args.out)
    if args.params:
        with open(args.params, encoding="utf-8") as fh:
            params = params_from_json(fh.read())
        label_src = "params file"
    elif args.preset == "example1":
        params = ev.example1_params()
        label_src = "preset example1"
    elif args.preset == "karlis":
        params = None
        label_src = "preset karlis"
    else:
        raise UsageError("need --preset example1|karlis or --params FILE")

    if params is None:
        dataset, labels = ev.bivariate_poisson_mixture_generate(
            ev.karlis_params(), args.n, rng)
    else:
        dataset, labels, _ = generate(args.n, params, rng)
        _write_atomic(os.path.join(out, "truth.json"),
                      params_to_json(params, dataset.schema.names))
    save_dataset(dataset, os.path.join(out, "data.csv"),
                 os.path.join(out, "schema.txt"))
    _write_atomic(os.path.join(out, "labels.csv"),
                  "row_id,label\n" + "".join(
                      f"{i},{int(z) + 1}\n" for i, z in enumerate(labels)))
    _note(f"wrote {args.n} rows from {label_src} to {out}")
    return EXIT_OK


def cmd_visualize(args) -> int:
    from . import viz

    dataset = load_dataset(args.data, args.schema)
    with open(args.fit, encoding="utf-8") as fh:
        params = params_from_json(fh.read())
    k = args.component - 1
    if not 0 <= k < params.g:
        raise UsageError(f"component must be in 1..{params.g}")
    try:
        a_str, b_str = args.axes.split(",")
        a, b = int(a_str) - 1, int(b_str) - 1
    except ValueError as exc:
        raise UsageError("axes must look like 1,2") from exc
    if a == b:
        raise UsageError("axes must differ")
    if not (0 <= a < b < params.dim):
        raise UsageError(f"axes must satisfy 1 <= a < b <= {params.dim}")
    projection = viz.project(dataset, params, k, axes=(a, b))
    out = _ensure_outdir(args.out)
    _write_atomic(os.path.join(out, "pca_scores.csv"),
                  viz.scores_csv(projection))
    _write_atomic(os.path.join(out, "pca_circle.csv"),
                  viz.circle_csv(projection["pca"], dataset.schema.names,
                                 (a, b)))
    _write_atomic(os.path.join(out, "pca_eigen.csv"),
                  viz.eigen_csv(projection["pca"]))
    _note(f"wrote PCA export for component {args.component} to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import evaluate as ev

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError("sizes must be a comma-separated list of integers") \
            from exc
    if not sizes or min(sizes) < 1 or args.replicates < 1:
        raise UsageError("need positive sizes and replicates")
    out = _ensure_outdir(args.out)
    config = _chain_config(args, 2, args.family)
    _note(f"study {args.study}: sizes {sizes}, {args.replicates} replicates")
    rows = ev.run_simulation_study(args.study, sizes, args.replicates,
                                   config=config, master_seed=args.seed)
    _write_atomic(os.path.join(out, "study.csv"), ev.format_study_table(rows))
    _note(f"wrote {len(rows)} result rows to {out}")
    return EXIT_OK


def _add_sampler_flags(parser) -> None:
    parser.add_argument("--iters", type=int, default=1000,
                        help="stored post-burn-in iterations (default 1000)")
    parser.add_argument("--burnin", type=int, default=100,
                        help="burn-in iterations (default 100)")
    parser.add_argument("--chains", type=int, default=10,
                        help="independent chains (default 10)")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copulamix",
        description="Model-based clustering of mixed data with Gaussian "
                    "copula mixtures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fit", help="fit one mixture model",
        description="Fit one mixture by Metropolis-within-Gibbs chains.  "
                    "acceptance.json records accept_latent, the share of "
                    "rows whose latent move was accepted over all sweeps.")
    p.add_argument("data")
    p.add_argument("schema")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--family", default=HETEROSCEDASTIC,
                   choices=FAMILIES)
    p.add_argument("--out", required=True)
    _add_sampler_flags(p)
    p.add_argument("--thin", type=int, default=1, help="keep every THIN-th "
                   "post-burn-in draw in chain.ndjson (default 1)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="sweep families and component counts")
    p.add_argument("data")
    p.add_argument("schema")
    p.add_argument("--gmin", type=int, default=1)
    p.add_argument("--gmax", type=int, default=5)
    p.add_argument("--families", default=",".join(FAMILIES))
    p.add_argument("--out", required=True)
    _add_sampler_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--preset", choices=["example1", "karlis"])
    p.add_argument("--params", help="JSON parameter file to sample from")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("visualize", help="export per-component PCA data")
    p.add_argument("data")
    p.add_argument("schema")
    p.add_argument("--fit", required=True, help="theta JSON from `fit`")
    p.add_argument("--component", type=int, required=True,
                   help="1-based component index")
    p.add_argument("--axes", default="1,2", help="1-based axis pair, e.g. 1,2")
    p.add_argument("--seed", type=int, default=0, help="accepted for "
                   "compatibility and ignored: the export draws no random "
                   "numbers")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("eval", help="run a canned simulation study")
    p.add_argument("--study", required=True, choices=("example1", "karlis"))
    p.add_argument("--sizes", default="100,400,1600")
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--family", default=HETEROSCEDASTIC,
                   choices=FAMILIES)
    p.add_argument("--out", required=True)
    _add_sampler_flags(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on misuse
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _numerical_errors() as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _numerical_errors() -> tuple[type[Exception], ...]:
    """The exceptions that exit with ``EXIT_NUMERICAL``: arithmetic errors
    (``gauss.NumericalError`` among them) and, if a command loaded the
    sampler, which alone raises it, ``DegenerateFitError``."""
    sampler = sys.modules.get(f"{__package__}.sampler")
    return (ArithmeticError,) + (
        (sampler.DegenerateFitError,) if sampler is not None else ())


if __name__ == "__main__":
    sys.exit(main())
