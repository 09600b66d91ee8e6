"""Exact rational arithmetic helpers."""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blottokit.errors import InexactNumber, ZeroDenominator
from blottokit.exactmath import (
    all_int,
    all_rat,
    format_rat,
    is_int,
    is_rat,
    parse_int,
    parse_rat,
    rat,
)


class Count(IntEnum):
    TWO = 2


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
    assert format_rat(-3) == "-3/1"


@pytest.mark.parametrize("value", [0.1, True, 2.0, Count.TWO, "1/2", None])
def test_format_rat_rejects_a_value_that_is_not_exact(value):
    # 0.1 used to print its binary expansion and True to print "1/1".
    with pytest.raises(InexactNumber, match="format_rat"):
        format_rat(value)


@pytest.mark.parametrize(
    "args", [(True, 2), (1, True), (0.5, 1), (1, 2.0), (Count.TWO, 3), ("1", 2), (0.5, 0)]
)
def test_rat_rejects_an_argument_that_is_not_exact(args):
    # rat(True, 2) used to return 1/2 and rat(0.5, 1) to raise a bare TypeError.
    with pytest.raises(InexactNumber, match="rat takes") as caught:
        rat(*args)
    assert isinstance(caught.value, TypeError)


def test_rat_takes_fractions():
    assert rat(Fraction(1, 2), Fraction(3, 4)) == Fraction(2, 3)
    assert rat(Fraction(3, 2)) == Fraction(3, 2)


def test_parse_rat_accepts_fraction_and_integer_forms():
    assert parse_rat("5/18") == Fraction(5, 18)
    assert parse_rat("7/1") == Fraction(7)
    assert parse_rat("7") == Fraction(7)
    assert parse_rat("-3/6") == Fraction(-1, 2)


def test_parse_rat_rejects_bad_input():
    with pytest.raises(ZeroDenominator):
        parse_rat("1/0")
    # After "one half", forms that `int()` reads but `format_rat` never writes.
    for text in ("one half", "1_0/3", " +1 / 2 ", "\u0663/4", "1/-2", "+7", " 7", "07", "-0"):
        with pytest.raises(ValueError):
            parse_rat(text)


def test_parse_int_reads_the_form_str_writes():
    assert [parse_int(text) for text in ("0", "7", "-12")] == [0, 7, -12]
    for text in ("1_0", "+1", " 1", "1 ", "01", "-0", "\u0663", "1.0", ""):
        with pytest.raises(ValueError):
            parse_int(text)


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_format_parse_round_trip(n, d):
    value = Fraction(n, d)
    assert parse_rat(format_rat(value)) == value


@pytest.mark.parametrize(
    "value, integer, rational",
    [
        (2, True, True),
        (-3, True, True),
        (Fraction(1, 2), False, True),
        (Fraction(2), False, True),
        (True, False, False),
        (2.0, False, False),
        (Count.TWO, False, False),
        ("2", False, False),
        (None, False, False),
    ],
)
def test_exact_input_rule(value, integer, rational):
    assert is_int(value) is integer
    assert is_rat(value) is rational
    assert all_int([1, value, 3]) is integer
    assert all_rat((Fraction(1, 3), value)) is rational


def test_collection_forms_hold_of_no_values_and_read_keys_of_a_mapping():
    assert all_int([]) and all_rat(iter(()))
    assert all_int({0: 1.5}) and not all_int({0: 1.5}.values())
