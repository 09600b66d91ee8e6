"""Exact rational arithmetic helpers.

Rationals are `fractions.Fraction` values throughout the package; this module
pins the constructor and the "p/q" text form used by every external
interface (no floats anywhere).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroDenominator

Rat = Fraction


def rat(numerator: int, denominator: int = 1) -> Rat:
    """Return the normalized rational numerator/denominator."""
    if denominator == 0:
        raise ZeroDenominator(f"rat({numerator}, 0)")
    return Fraction(numerator, denominator)


def format_rat(value: Rat | int) -> str:
    """Render a rational as "p/q" (denominator kept even when it is 1)."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def parse_rat(text: str) -> Rat:
    """Parse "p/q" or a bare integer string into a rational."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    if len(parts) == 2:
        num, den = int(parts[0]), int(parts[1])
        if den == 0:
            raise ZeroDenominator(f"parse_rat({text!r})")
        return Fraction(num, den)
    raise ValueError(f"not a rational: {text!r}")
