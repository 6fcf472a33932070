"""Model-based clustering of mixed continuous/count/ordinal data with
Gaussian copula mixtures.

The names below are re-exported lazily (PEP 562): ``import copulamix``
loads no submodule, and each name loads its module on first use, so a
command pays only for the modules it needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "schema": ("DataError", "MixedDataset", "Schema", "SchemaError",
               "VariableKind", "check_identifiability", "continuous",
               "integer", "load_dataset", "ordinal", "parse_schema_text",
               "save_dataset"),
    "margins": ("GaussianMargin", "OrdinalMargin", "PoissonMargin"),
    "model": ("ComponentParams", "MixtureParams", "generate",
              "params_from_json", "params_to_json"),
    "sampler": ("ChainConfig", "DegenerateFitError", "FitResult", "fit"),
    "selection": ("CriterionReport", "param_count", "sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
