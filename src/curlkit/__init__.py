"""curlkit: analysis of position-dependent force fields with nonzero curl.

Provides an expression language with symbolic derivatives, scalar and
vector field definitions over box domains, canonical classification of
force fields by their generalized-potential structure, particle dynamics
with work-energy diagnostics, line/surface work integrals, zero-work
reachability constructions, and the conservative auxiliary system of a
curl force.
"""

__version__ = "0.1.0"

import importlib

from .errors import (
    CurlkitError,
    DimensionMismatchError,
    EvalDomainError,
    NumericalError,
    OutOfDomainError,
    ParseError,
    ProblemFileError,
)

__all__ = [
    "__version__",
    "CurlkitError",
    "DimensionMismatchError",
    "EvalDomainError",
    "NumericalError",
    "OutOfDomainError",
    "ParseError",
    "ProblemFileError",
]

# A command imports its analysis modules on first use, so the package does
# not import them; reading ``curlkit.darboux`` imports it (PEP 562), so code
# handed the package, such as the benchmark's tracer, needs no import of its own.
_SUBMODULES = frozenset({
    "accessibility", "auxiliary", "cli", "darboux", "dynamics", "errors", "exprlang",
    "fieldkit", "pathwork", "problemfile",
})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
