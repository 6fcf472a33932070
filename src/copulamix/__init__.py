"""Model-based clustering of mixed continuous/count/ordinal data with
Gaussian copula mixtures."""

from .schema import (  # noqa: F401
    DataError, MixedDataset, Schema, SchemaError, VariableKind,
    check_identifiability, continuous, integer, load_dataset, ordinal,
    parse_schema_text, save_dataset,
)
from .margins import (  # noqa: F401
    GaussianMargin, OrdinalMargin, PoissonMargin,
)
from .model import (  # noqa: F401
    ComponentParams, MixtureParams, generate, params_from_json,
    params_to_json,
)
from .sampler import ChainConfig, DegenerateFitError, FitResult, fit  # noqa: F401
from .selection import CriterionReport, param_count, sweep  # noqa: F401

__version__ = "0.1.0"
