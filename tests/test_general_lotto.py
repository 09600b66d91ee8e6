"""Mean-budget game values, optimal strategies, and the envelope oracle."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from blottokit.distributions import (
    U_EVEN,
    U_ODD,
    Dist,
    base_dist,
    mean,
    mix,
    normalized,
    payoff_H,
    point_mass,
)
from blottokit.errors import OutOfTheoremScope
from blottokit.general_lotto import (
    LottoSpec,
    envelope_best_response,
    lotto_optimal_A,
    lotto_optimal_B,
    lotto_value,
)


def two_point(rng: random.Random, budget: Fraction) -> Dist:
    floor = math.floor(budget)
    i = rng.randint(0, floor)
    j = rng.randint(floor + 1, floor + 4)
    high = (budget - i) / (j - i)
    return mix([(1 - high, point_mass(i)), (high, point_mass(j))])


def random_mean_dist(rng: random.Random, budget: Fraction) -> Dist:
    parts = [two_point(rng, budget) for _ in range(rng.randint(1, 3))]
    share = Fraction(1, len(parts))
    return mix([(share, part) for part in parts])


def odd_mass(dist: Dist) -> Fraction:
    return sum((w for p, w in dist.items if p % 2), Fraction(0))


def test_spec_validation():
    spec = LottoSpec(Fraction(7, 3), 1, Fraction(1, 3))
    assert (spec.m, spec.alpha) == (2, Fraction(1, 3))
    with pytest.raises(OutOfTheoremScope):
        LottoSpec(2, 3)
    with pytest.raises(OutOfTheoremScope):
        LottoSpec(2, 0)
    with pytest.raises(OutOfTheoremScope):
        LottoSpec(Fraction(7, 3), 1, 0)
    with pytest.raises(OutOfTheoremScope):
        LottoSpec(Fraction(7, 3), 1, Fraction(1, 2))


def test_value_examples():
    assert lotto_value(LottoSpec(Fraction(7, 2), 3)) == Fraction(1, 8)
    assert lotto_value(LottoSpec(3, 2)) == Fraction(1, 3)
    # 1 - 2/3 - 1/6 + (1/3)(1/3)/2: the floor on odd mass contributes the
    # smaller of alpha and 1 - alpha, as the oracle check below confirms.
    spec = LottoSpec(Fraction(4, 3), 1, Fraction(1, 3))
    assert lotto_value(spec) == Fraction(2, 9)
    assert envelope_best_response(lotto_optimal_B(spec), spec.a) == Fraction(2, 9)
    assert -envelope_best_response(
        lotto_optimal_A(spec), spec.b, odd_floor=spec.c
    ) == Fraction(2, 9)


def test_value_scope_errors():
    with pytest.raises(OutOfTheoremScope):
        lotto_value(LottoSpec(3, 2, Fraction(1, 4)))
    with pytest.raises(OutOfTheoremScope):
        lotto_value(LottoSpec(Fraction(7, 2), Fraction(13, 4)))


def test_optimal_strategy_examples():
    assert lotto_optimal_B(LottoSpec(Fraction(7, 2), 3)) == base_dist(U_EVEN, 3)
    constrained = LottoSpec(Fraction(4, 3), 1, Fraction(1, 3))
    assert lotto_optimal_B(constrained) == normalized({0: 1, 1: 1, 2: 1})
    assert lotto_optimal_A(LottoSpec(3, 2)) == base_dist(U_ODD, 3)


def test_integer_budget_family_members():
    spec = LottoSpec(3, 2)
    grid_member = lotto_optimal_B(spec)
    assert grid_member == mix(
        [(Fraction(1, 3), point_mass(0)), (Fraction(2, 3), base_dist(U_EVEN, 3))]
    )
    flat_member = lotto_optimal_B(spec, uniform_member=True)
    assert flat_member == mix(
        [(Fraction(1, 3), point_mass(0)), (Fraction(2, 3), normalized({v: 1 for v in range(1, 6)}))]
    )
    for member in (grid_member, flat_member):
        assert envelope_best_response(member, spec.a) == lotto_value(spec)
    with pytest.raises(OutOfTheoremScope):
        lotto_optimal_B(LottoSpec(Fraction(7, 2), 3), uniform_member=True)


def test_envelope_examples():
    assert envelope_best_response(point_mass(0), Fraction(1, 2)) == Fraction(1, 2)
    high = LottoSpec(Fraction(7, 2), 3)
    assert envelope_best_response(lotto_optimal_B(high), high.a) == Fraction(1, 8)
    low = LottoSpec(3, 2)
    assert envelope_best_response(lotto_optimal_A(low), low.b) == Fraction(-1, 3)
    with pytest.raises(OutOfTheoremScope):
        envelope_best_response(point_mass(0), 0)


def test_envelope_reply_is_always_a_fraction():
    # Integral optima come straight off the integer gain table; the result
    # must still be an exact Fraction, never an int or a float.
    thirds = normalized({0: 1, 2: 1, 4: 1})
    for opponent, budget, floor, want in (
        (point_mass(0), 1, None, Fraction(1)),
        (point_mass(0), 2, Fraction(1, 2), Fraction(1)),
        (point_mass(1), 1, None, Fraction(0)),
        (thirds, 2, None, Fraction(0)),
        (thirds, Fraction(5, 2), Fraction(1, 2), Fraction(1, 6)),
    ):
        got = envelope_best_response(opponent, budget, floor)
        assert type(got) is Fraction
        assert got == want


def test_constrained_increment_uses_smaller_mass_share():
    # The floor on odd mass raises the value by c*min(alpha, 1-alpha)/(m(m+1));
    # the envelope oracle pins the minimum (not the maximum) on both sides of
    # alpha = 1/2.
    for a, b in ((Fraction(7, 3), 2), (Fraction(8, 3), 2), (Fraction(7, 2), 2)):
        c = Fraction(1, 4)
        spec = LottoSpec(a, b, c)
        plain = LottoSpec(a, b)
        bump = c * min(spec.alpha, 1 - spec.alpha) / (spec.m * (spec.m + 1))
        assert lotto_value(spec) - lotto_value(plain) == bump
        y = lotto_optimal_B(spec)
        x = lotto_optimal_A(spec)
        assert envelope_best_response(y, spec.a) == lotto_value(spec)
        assert -envelope_best_response(x, spec.b, odd_floor=c) == lotto_value(spec)
        assert odd_mass(y) >= c


def test_oracle_equivalence_spot_grid():
    for m in range(1, 4):
        for K in range(2, 5):
            for r in range(1, K):
                a = Fraction(m * K + r, K)
                for B in range(1, m * K + 1):
                    b = Fraction(B, K)
                    spec = LottoSpec(a, b)
                    value = lotto_value(spec)
                    assert envelope_best_response(lotto_optimal_B(spec), a) == value
                    assert -envelope_best_response(lotto_optimal_A(spec), b) == value


def test_security_against_randomized_feasible_opponents():
    rng = random.Random(5)
    spec = LottoSpec(Fraction(7, 3), Fraction(5, 3), Fraction(1, 3))
    value = lotto_value(spec)
    x = lotto_optimal_A(spec)
    y = lotto_optimal_B(spec)
    constrained_hits = 0
    for _ in range(60):
        challenger_y = random_mean_dist(rng, spec.b)
        if odd_mass(challenger_y) >= spec.c:
            constrained_hits += 1
            assert payoff_H(x, challenger_y) >= value
        challenger_x = random_mean_dist(rng, spec.a)
        assert payoff_H(challenger_x, y) <= value
    assert constrained_hits >= 10


def test_unconstrained_security_randomized():
    rng = random.Random(6)
    for a, b in ((Fraction(5, 2), 2), (3, 2), (Fraction(7, 3), 1)):
        spec = LottoSpec(a, b)
        value = lotto_value(spec)
        x = lotto_optimal_A(spec)
        y = lotto_optimal_B(spec)
        for _ in range(25):
            assert payoff_H(x, random_mean_dist(rng, spec.b)) >= value
            assert payoff_H(random_mean_dist(rng, spec.a), y) <= value
