"""curlkit: analysis of position-dependent force fields with nonzero curl.

Provides an expression language with symbolic derivatives, scalar and
vector field definitions over box domains, canonical classification of
force fields by their generalized-potential structure, particle dynamics
with work-energy diagnostics, line/surface work integrals, zero-work
reachability constructions, and the conservative auxiliary system of a
curl force.
"""

__version__ = "0.1.0"

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
