"""Exception types and input caps shared across the package.

The caps bound how much work one call may ask for; a value past one is
an ``InvalidInputError``.  They live here, beside that error, so that
the command line validates its configuration against them without
importing the array modules that enforce them.
"""

__all__ = [
    "BCOrliczError",
    "InvalidInputError",
    "NotInvertibleError",
    "UnsupportedInstanceError",
    "InvalidMapError",
    "NotInSpaceError",
    "NotSummableError",
]

# default truncation window n_max of a lazy space
DEFAULT_N_MAX = 10**6
# a space's n_max is not capped, but every lazy read is: a scan reads at
# most this many atoms, into an array as long as its window, and a march
# at most this many past its first
MAX_BUDGET = 10 * DEFAULT_N_MAX
# each empirical trial applies the operator to a fresh sample, so their
# number is capped
MAX_TRIALS = 1000


class BCOrliczError(Exception):
    """Base class for errors raised by this package."""


class InvalidInputError(BCOrliczError, ValueError):
    """Malformed, inconsistent, or non-finite input."""


class NotInvertibleError(BCOrliczError, ArithmeticError):
    """Inversion requested for a zero / zero-divisor element or operator.

    ``classification`` carries the diagnosis that triggered the error when
    one is available (see :class:`bcorlicz.bicomplex.Classification`).
    """

    def __init__(self, message: str, classification=None):
        super().__init__(message)
        self.classification = classification


class UnsupportedInstanceError(BCOrliczError, ValueError):
    """Problem instance outside the hypotheses an algorithm needs."""


class InvalidMapError(BCOrliczError, ValueError):
    """Index map whose images fall outside the atom index set."""


class NotInSpaceError(BCOrliczError, ArithmeticError):
    """No finite gauge scale exists: the sequence is outside the space."""


class NotSummableError(BCOrliczError, ArithmeticError):
    """A summation probe certified divergence."""
