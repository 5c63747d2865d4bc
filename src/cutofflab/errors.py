"""Exception types shared across the package.

Every validation failure raises a subclass of ChainError so callers (and the
CLI) can distinguish bad input (exit code 2) from a failed search
(NoConvergence, exit code 3).
"""
from __future__ import annotations


class ChainError(Exception):
    """Base class for all input-validation and search failures."""


class BadShape(ChainError):
    """Malformed array or file: wrong dimensions, lengths, or missing fields."""


class NotStochastic(ChainError):
    """A kernel row has negative mass or does not sum to one."""


class NotIrreducible(ChainError):
    """The transition graph is not strongly connected."""


class BadDelta(ChainError):
    """Laziness parameter outside the admissible range."""


class TolTooLoose(ChainError):
    """Truncation tolerance outside (0, 1e-6]."""


class NonIntegerTime(ChainError):
    """Discrete-time query with a non-integer time."""


class NoConvergence(ChainError):
    """Distance stays above the target: it did through the search cap of
    10**7 steps or time units, or a periodic chain's exact distance floor
    lies above it.
    """


class NotReversible(ChainError):
    """Detailed balance fails; spectral reductions are unavailable."""


class NotBirthDeath(ChainError):
    """Operation requires the birth-death form."""


class BadEpsilon(ChainError):
    """Threshold epsilon outside the admissible open interval."""


class LengthMismatch(ChainError):
    """Two distributions of different lengths were compared."""


class BadFamily(ChainError):
    """Unknown family name or invalid family parameters."""


class NumericalFailure(ChainError, ArithmeticError):
    """A computed quantity failed its own consistency check, or floating
    point cannot evaluate it to the stated accuracy."""
