"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: invalid input -> 2, numeric/internal
failures -> 3.
"""

from __future__ import annotations

import numbers


class MinctrlError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(MinctrlError, ValueError):
    """Rejected input: bad dimensions, malformed files, violated invariants."""


class BackendPreconditionError(InvalidInputError):
    """A rank backend was asked to operate outside its supported regime."""


class EnumerationGuardError(InvalidInputError):
    """A brute-force size guard was exceeded (override explicitly to proceed)."""


class NumericBackendError(MinctrlError, RuntimeError):
    """Numeric factorization failure (the eigensolver did not converge)."""


class InternalVerificationError(MinctrlError):
    """A construction failed its own exact self-check; indicates a bug."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer input: ``numbers.Integral`` but not ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real-number input: ``numbers.Real`` but not ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
