"""Exception types shared across the package.

Every domain error raised by the library is one of these names, so callers
(and the command-line front end) can report failures by class name alone.
Each derives from `BlottoError`, so one `except` catches them all, and keeps
the builtin parent that describes its kind of failure.
"""

from __future__ import annotations


class BlottoError(Exception):
    """Base of every error the package raises on purpose."""


class ZeroDenominator(BlottoError, ZeroDivisionError):
    """A rational number was given a zero denominator."""


class BadIndex(BlottoError, ValueError):
    """A base-vector family index j lies outside its legal range."""


class BadM(BlottoError, ValueError):
    """A size parameter m is outside the domain of the requested family."""


class BadWeights(BlottoError, ValueError):
    """Mixture weights are negative or do not sum to one."""


class DimensionMismatch(BlottoError, ValueError):
    """Matrix composition with incompatible shapes or budgets."""


class InfeasibleParity(BlottoError, ValueError):
    """The requested implementation violates the parity feasibility law."""


class InfeasibleRange(BlottoError, ValueError):
    """A budget lies outside the range covered by the construction."""


class BadCase(BlottoError, ValueError):
    """Builder parameters select no defined assembly case."""


class ExcludedCase(BlottoError, ValueError):
    """Parameters fall in the construction's explicitly excluded set."""


class BadAlpha(BlottoError, ValueError):
    """The fractional part of the budget selects the wrong builder point."""


class MeanMismatch(BlottoError, ValueError):
    """A target distribution's mean is incompatible with budget/battlefields."""


class SearchExceeded(BlottoError, RuntimeError):
    """Backtracking search exceeded its row-count budget."""


class ConstructionMismatch(BlottoError, AssertionError):
    """A builder produced a matrix that fails its own cardinality self-check."""


class OutOfTheoremScope(BlottoError, ValueError):
    """The requested game lies outside the scope of the closed-form results."""


class UnsolvedCase(BlottoError, ValueError):
    """The game is classified but has no known value or construction."""


class CertificationFailed(BlottoError, AssertionError):
    """Best-response certification contradicts the claimed equilibrium."""


class TooLarge(BlottoError, ValueError):
    """An exhaustive expansion was requested beyond its size bound."""


class MalformedJSON(BlottoError, ValueError):
    """A JSON document lacks a required key or holds a value of the wrong form."""


class InexactNumber(BlottoError, TypeError):
    """An exact-arithmetic helper was given a number that is not an int or a Fraction."""
