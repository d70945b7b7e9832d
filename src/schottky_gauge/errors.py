"""Exception types shared across the package."""


class SchottkyGaugeError(Exception):
    """Base class for all package errors."""


class DomainError(SchottkyGaugeError):
    """A formula was evaluated outside its geometric domain.

    Raised instead of clamping: an arccosh argument below 1 means the
    corresponding hyperbolic configuration does not exist, and the caller
    decides whether that makes a constraint vacuous.
    """


class ValidationError(SchottkyGaugeError):
    """Base class for Gram-matrix validation failures.

    ``name`` is the stable identifier surfaced by the CLI on exit code 3.
    """

    name = "ValidationError"


class MalformedGram(ValidationError):
    name = "MalformedGram"


class NotSymmetric(ValidationError):
    name = "NotSymmetric"


class NotPositiveDefinite(ValidationError):
    name = "NotPositiveDefinite"


class OddDimension(ValidationError):
    name = "OddDimension"


class DeterminantNotOne(ValidationError):
    name = "DeterminantNotOne"


class NumericalBreakdown(SchottkyGaugeError):
    """Lattice reduction failed to converge within its swap budget, or the
    minima search found no k independent vectors at b_k^2."""


class BudgetExceeded(SchottkyGaugeError):
    """Enumeration exceeded its node budget. (Certification does not raise
    it: a spent cell budget makes its report Undecided.)"""
