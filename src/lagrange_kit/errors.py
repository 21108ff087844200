"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that tests and the CLI can distinguish "bad input" from "not enough stored
precision" from genuine bugs.
"""


class LagrangeKitError(Exception):
    """Base class for all errors raised by this package."""


class OrderMismatch(LagrangeKitError):
    """Two series with different truncation orders were mixed in one operation."""


class DivisionByNonUnit(LagrangeKitError):
    """Division requires an invertible leading/constant coefficient."""


class DivisionByZeroSeries(LagrangeKitError):
    """The divisor is identically zero (through its truncation order)."""


class NonIntegrableResidue(LagrangeKitError):
    """A Laurent series with nonzero residue has no Laurent antiderivative."""


class BadConstantTerm(LagrangeKitError):
    """The constant term does not satisfy the operation's requirement."""


class InadmissibleComposition(LagrangeKitError):
    """Substitution is not defined for these operands."""


class NotReversible(LagrangeKitError):
    """Compositional inverse needs c0 = 0 and invertible c1."""


class OutOfPrecision(LagrangeKitError):
    """A coefficient beyond the stored truncation window was requested."""


class UnguardedCoefficient(LagrangeKitError):
    """An implicit equation f = R(f) has a coefficient r_n (n > 0) with a
    parameter-free term, so the fixed point is not determined degree by degree."""


class FormAUndefined(LagrangeKitError):
    """The 1/n extraction form is undefined at n = 0."""


class InsufficientRange(LagrangeKitError):
    """Not enough sample values were supplied for the requested difference."""


class InvalidCode(LagrangeKitError):
    """A code sequence does not encode a forest of the requested shape."""


class BadSequence(LagrangeKitError):
    """A sequence fails the preconditions of the cycle count."""


class NotATree(LagrangeKitError):
    """The given edge set is not a tree on the stated vertex set."""


class SizeLimit(LagrangeKitError):
    """A size argument lies outside the range its routine accepts, such as
    an exhaustive enumeration beyond its safe bound, or a result is too
    large to print."""


class SelfCheckFailed(LagrangeKitError):
    """A result failed the package's own check of it, such as a fixed point
    that does not satisfy its equation: a fault in the package, not in
    the input."""


class ParseError(LagrangeKitError):
    """A literal could not be parsed; the message includes the position."""


class UnknownIdentity(LagrangeKitError):
    """No identity with the requested name is registered."""
