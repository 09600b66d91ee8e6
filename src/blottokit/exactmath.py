"""Exact rational arithmetic helpers.

Rationals are `fractions.Fraction` values throughout the package; this module
pins the constructor and the "p/q" text form used by every external
interface (no floats anywhere), the one form in which text is read back, and
the exact-input rule of every entry point.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .errors import InexactNumber, ZeroDenominator

Rat = Fraction


def is_int(value: object) -> bool:
    """Whether `value` is an `int` proper: a `bool`, a `float` or an `IntEnum` is not."""
    return type(value) is int


def is_rat(value: object) -> bool:
    """Whether `value` is an exact integer or a `Fraction` (not a subclass)."""
    return type(value) in (int, Fraction)


def all_int(values: Iterable[object]) -> bool:
    """`is_int` of every one of `values` (true of none), in one C-level pass."""
    return set(map(type, values)) <= {int}


def all_rat(values: Iterable[object]) -> bool:
    """`is_rat` of every one of `values` (true of none), in one C-level pass."""
    return set(map(type, values)) <= {int, Fraction}


def rat(numerator: Rat | int, denominator: Rat | int = 1) -> Rat:
    """Return the normalized rational numerator/denominator.

    Both must pass `is_rat`; anything else raises InexactNumber.
    """
    if not (is_rat(numerator) and is_rat(denominator)):
        raise InexactNumber(f"rat takes ints or Fractions, got ({numerator!r}, {denominator!r})")
    if denominator == 0:
        raise ZeroDenominator(f"rat({numerator}, 0)")
    return Fraction(numerator, denominator)


def format_rat(value: Rat | int) -> str:
    """Render a rational as "p/q" (denominator kept even when it is 1).

    The value must pass `is_rat`; anything else raises InexactNumber.
    """
    if not is_rat(value):
        raise InexactNumber(f"format_rat takes an int or a Fraction, got {value!r}")
    return f"{value.numerator}/{value.denominator}"


def parse_int(text: str) -> int:
    """Read an integer written as `str(int)` writes it: ASCII digits after
    an optional "-", with no leading zero, space, "+" or "_" ("-0" is not
    such a form).  Anything else raises ValueError."""
    value = int(text)
    if text != str(value):
        raise ValueError(f"{text!r} is not written as {value}")
    return value


def parse_rat(text: str) -> Rat:
    """Parse "p/q" or a bare integer string into a rational, each part read
    by `parse_int` and q positive: q = 0 raises ZeroDenominator, any other
    form ValueError.  So every text that `format_rat` writes parses."""
    parts = text.split("/")
    if len(parts) == 1:
        return Fraction(parse_int(parts[0]))
    if len(parts) == 2:
        num, den = parse_int(parts[0]), parse_int(parts[1])
        if den == 0:
            raise ZeroDenominator(f"parse_rat({text!r})")
        if den > 0:
            return Fraction(num, den)
    raise ValueError(f"not a rational: {text!r}")
