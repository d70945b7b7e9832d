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

    The class name is the stable identifier surfaced by the CLI on exit
    code 3.
    """


class MalformedGram(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class NotPositiveDefinite(ValidationError):
    pass


class OddDimension(ValidationError):
    pass


class DeterminantNotOne(ValidationError):
    pass


class NumericalBreakdown(SchottkyGaugeError):
    """Lattice reduction failed to converge within its swap budget, or the
    minima search found no k independent vectors at b_k^2."""


class BudgetExceeded(SchottkyGaugeError):
    """Enumeration exceeded its node budget. (Certification does not raise
    it: a spent cell budget makes its report Undecided.)"""
