"""Exception hierarchy for the library.

Every error raised on purpose derives from :class:`RenyiVarError`, so callers
can catch one type at an API boundary (the command-line driver does exactly
that and maps it to a nonzero exit code).  Subclasses are semantic: they say
what was wrong with the input or what stage of a computation gave up, not
which module raised them.
"""

from __future__ import annotations

__all__ = [
    "RenyiVarError",
    "InputValidationError",
    "DimensionMismatchError",
    "InvalidDistributionError",
    "InvalidAlphaError",
    "BalanceError",
    "AbsoluteContinuityError",
    "InfeasiblePointError",
    "PathSpaceError",
    "ExtRealArithmeticError",
    "PerronConvergenceError",
    "ClassStructureError",
]


class RenyiVarError(Exception):
    """Base class for all library errors."""


class InputValidationError(RenyiVarError, ValueError):
    """Malformed or out-of-domain input (shapes, signs, NaN, schema)."""


class DimensionMismatchError(InputValidationError):
    """Operands live on alphabets of different sizes."""


class InvalidDistributionError(InputValidationError):
    """Weights that cannot be normalized into a probability vector."""


class InvalidAlphaError(InputValidationError):
    """A divergence order too close to the excluded points 0 and 1, or absurdly large."""


class BalanceError(InvalidDistributionError):
    """A square array whose row and column marginals disagree beyond tolerance."""


class AbsoluteContinuityError(InputValidationError):
    """A required domination relation between measures does not hold."""


class InfeasiblePointError(InputValidationError):
    """A candidate optimizer violates the support constraint of its regime."""


class PathSpaceError(InputValidationError):
    """A path-space request whose explicit alphabet would be too large."""


class ExtRealArithmeticError(RenyiVarError, ArithmeticError):
    """An undefined extended-real combination, e.g. (+inf) + (-inf)."""


class PerronConvergenceError(RenyiVarError, RuntimeError):
    """Power iteration failed to certify an eigenpair within its budget."""


class ClassStructureError(InputValidationError):
    """A vertex set that is not the irreducible cyclic class an operation requires."""
