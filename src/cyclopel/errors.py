"""Exception taxonomy shared by all modules."""

from __future__ import annotations

__all__ = [
    "CyclopelError",
    "UnsupportedModulus",
    "ZeroInertia",
    "UnbalancedInertia",
    "DisconnectedCover",
    "NonCompactType",
    "NonMaximalOrder",
    "SignatureNotBinary",
    "NotRealElement",
    "Unsatisfiable",
    "Indeterminate",
    "PrecisionExhausted",
    "NonIntegralForm",
    "InvariantViolation",
    "ParseError",
    "MalformedDatum",
]


class CyclopelError(Exception):
    """Base class for all library errors."""


class UnsupportedModulus(CyclopelError):
    """Modulus outside the whitelist of the operation in question."""


class ZeroInertia(CyclopelError):
    """Some local inertia a(i) is divisible by m."""


class UnbalancedInertia(CyclopelError):
    """The inertia values do not sum to 0 mod m."""


class DisconnectedCover(CyclopelError):
    """gcd(a(1), ..., a(N), m) > 1: the cover curve is not connected."""


class NonCompactType(CyclopelError):
    """No admissible degeneration into a tree of 3-point covers exists."""


class NonMaximalOrder(CyclopelError):
    """A degenerate component's endomorphism algebra has non-maximal order
    (some proper divisor of m divides no inertia value of the triple)."""


class SignatureNotBinary(CyclopelError):
    """A CM-type was requested from a signature with values outside {0, 1}."""


class NotRealElement(CyclopelError):
    """A real (conjugation-fixed) element was required."""


class Unsatisfiable(CyclopelError):
    """No product of the available units has the required sign pattern."""

    def __init__(self, message: str, cokernel_dim: int = 0):
        super().__init__(message)
        self.cokernel_dim = cokernel_dim


class Indeterminate(CyclopelError):
    """The implemented criterion is only sufficient for this modulus and
    did not hold; no verdict either way."""


class PrecisionExhausted(CyclopelError):
    """Interval refinement hit the precision cap without certifying a sign.
    Indicates an internal bug: exact zero tests run first."""


class NonIntegralForm(CyclopelError):
    """A Gram matrix entry that must be a rational integer is not."""


class InvariantViolation(CyclopelError, AssertionError):
    """An internal invariant of a computed result failed, e.g. a Gram
    determinant that is not a unit.  Raised explicitly rather than by
    assert, so the check also runs under python -O."""


class ParseError(CyclopelError, ValueError):
    """An element string does not parse, nests too deeply or asks for too
    wide a power."""


class MalformedDatum(CyclopelError, ValueError):
    """Input of the wrong shape: a monodromy datum with fewer than 3 points
    or unreduced inertia values, or a corpus that is not a list of complete
    fixture records."""
