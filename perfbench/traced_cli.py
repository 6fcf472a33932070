"""Run the copulamix command line with its public functions wrapped in spans.

    python3 perfbench/traced_cli.py SPANS_JSON COPULAMIX_ARGS...

Before ``copulamix.cli.main`` runs, every public function of the layer
modules (``cli.main`` alone for ``cli``) is replaced by a wrapper in every
``copulamix`` module namespace that binds it, so calls made through a
name imported with ``from .model import ...`` are caught too.  Each call
appends one span (name, start, end, parent, amount) to a list in memory;
the list is written to SPANS_JSON when ``main`` returns or raises.  ``amount`` is the
work a call did, in the unit ``AMOUNTS`` gives for that function.  Nothing
is changed inside the package's files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

from run import LAYERS


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _rows(args, kwargs, position: int, name: str) -> int:
    return np.atleast_2d(np.asarray(_arg(args, kwargs, position, name))).shape[0]


# function -> amount of work in one call, from (args, kwargs, result)
AMOUNTS = {
    "model.posterior_probs_rows": lambda a, kw, r: _rows(a, kw, 0, "values"),
    "model.mixture_logpdf_rows": lambda a, kw, r: _rows(a, kw, 0, "values"),
    "model.component_logpdf_rows": lambda a, kw, r: _rows(a, kw, 0, "values"),
    "gauss.box_probabilities": lambda a, kw, r: _rows(a, kw, 1, "lower"),
    "gauss.truncated_mvn_gibbs_rows": lambda a, kw, r: _rows(a, kw, 2, "lower"),
    "gauss.truncated_normal_rows": lambda a, kw, r: np.size(r),
    "margins.latent_bounds_arrays": lambda a, kw, r: np.size(r[0]),
    "sampler.step_margins": lambda a, kw, r: float(np.mean(r[2])),
    "selection.sweep": lambda a, kw, r: len(r.cells),
}


def _box_dim(args, kwargs) -> str:
    d = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "lower"))).shape[1]
    return "qmc" if d >= 4 else f"d{d}"


class Tracer:
    """Span recorder; spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        amount = AMOUNTS.get(name)
        by_dim = name == "gauss.box_probabilities"
        clock = time.perf_counter
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                label = f"{name}.{_box_dim(args, kwargs)}" if by_dim else name
                work = amount(args, kwargs, result) if amount and result is not None else 0
                spans[index] = (label, start, end, parent, work)

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"copulamix.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and (layer != "cli" or attr == "main")):
                    wrapped[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "copulamix" or mod_name.startswith("copulamix."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        setattr(module, attr, wrapped[id(value)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import copulamix.cli

    tracer = Tracer()
    tracer.install()
    try:
        return copulamix.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
