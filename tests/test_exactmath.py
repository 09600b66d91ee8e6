"""Exact rational arithmetic helpers."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blottokit.errors import ZeroDenominator
from blottokit.exactmath import format_rat, parse_rat, rat


def test_rat_normalizes():
    assert rat(2, 4) == Fraction(1, 2)
    assert rat(-3, -6) == Fraction(1, 2)
    assert rat(7, 1) == Fraction(7)


def test_rat_sign_carried_by_numerator():
    value = rat(3, -6)
    assert value == Fraction(-1, 2)
    assert value.denominator > 0


def test_rat_zero_denominator():
    with pytest.raises(ZeroDenominator):
        rat(1, 0)


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
)
def test_rat_addition_matches_cross_multiplication(a, b, c, d):
    if b == 0 or d == 0:
        return
    assert rat(a, b) + rat(c, d) == rat(a * d + c * b, b * d)


def test_format_rat_always_slashes():
    assert format_rat(Fraction(5, 18)) == "5/18"
    assert format_rat(Fraction(7)) == "7/1"
    assert format_rat(Fraction(-1, 2)) == "-1/2"


def test_parse_rat_accepts_fraction_and_integer_forms():
    assert parse_rat("5/18") == Fraction(5, 18)
    assert parse_rat("7/1") == Fraction(7)
    assert parse_rat("7") == Fraction(7)
    assert parse_rat("-3/6") == Fraction(-1, 2)


def test_parse_rat_rejects_bad_input():
    with pytest.raises(ZeroDenominator):
        parse_rat("1/0")
    with pytest.raises(ValueError):
        parse_rat("one half")


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_format_parse_round_trip(n, d):
    value = Fraction(n, d)
    assert parse_rat(format_rat(value)) == value
