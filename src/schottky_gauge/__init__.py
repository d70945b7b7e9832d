"""Hyperbolic-geometry bounds, lattice successive minima, and certified
inequality verification for the Jacobian exclusion problem."""

from . import bounds, certify, collar, interval, lattice
from .errors import (
    BudgetExceeded,
    DeterminantNotOne,
    DomainError,
    MalformedGram,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalBreakdown,
    OddDimension,
    SchottkyGaugeError,
    ValidationError,
)
from .interval import Interval

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DeterminantNotOne",
    "DomainError",
    "Interval",
    "MalformedGram",
    "NotPositiveDefinite",
    "NotSymmetric",
    "NumericalBreakdown",
    "OddDimension",
    "SchottkyGaugeError",
    "ValidationError",
    "__version__",
    "bounds",
    "certify",
    "collar",
    "interval",
    "lattice",
]
