"""Exception hierarchy shared across the package, and the check of a
parameter that must be positive and finite."""

import math


class CurlkitError(Exception):
    """Base class for all curlkit errors."""


class ParseError(CurlkitError):
    """Syntax, unknown-identifier, or arity error in an expression.

    Carries the byte span (start, end) of the offending source text.
    """

    def __init__(self, message, span=(0, 0), source=None):
        self.span = span
        self.source = source
        if source is not None:
            message = f"{message} (at bytes {span[0]}..{span[1]}: {source[span[0]:span[1]]!r})"
        else:
            message = f"{message} (at bytes {span[0]}..{span[1]})"
        super().__init__(message)


class EvalDomainError(CurlkitError):
    """Expression evaluated outside a function's domain (log of a
    non-positive value, division by zero, non-finite result, ...)."""

    def __init__(self, message, span=(0, 0)):
        self.span = span
        super().__init__(f"{message} (expression bytes {span[0]}..{span[1]})")


class DimensionMismatchError(CurlkitError):
    """Operation applied to a field of the wrong dimension."""


class OutOfDomainError(CurlkitError):
    """A point lies outside a field's domain box."""

    def __init__(self, message, point=None):
        self.point = point
        if point is not None:
            message = f"{message}: {tuple(float(c) for c in point)}"
        super().__init__(message)


class NumericalError(CurlkitError):
    """Runtime numerical failure: step-size underflow, quadrature
    non-convergence, rescaling potential below its floor, equilibrium
    reached, frame flip during a kernel flow, and similar."""


class ProblemFileError(CurlkitError):
    """Problem file failed to parse or validate; carries diagnostics."""

    def __init__(self, message, diagnostics=()):
        self.diagnostics = list(diagnostics)
        if self.diagnostics:
            message = message + "\n  - " + "\n  - ".join(self.diagnostics)
        super().__init__(message)


# what evaluating a field can raise: the package's errors, and the math
# domain errors and overflow of the pointwise evaluator
EVAL_ERRORS = (CurlkitError, ArithmeticError, ValueError)


def require_positive(name, value):
    """Raise ValueError naming ``name`` unless ``value`` is positive and finite."""
    # written so that NaN compares false and is rejected with inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
