"""Mean-budget game values, optimal strategies, and the envelope oracle."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blottokit.distributions import (
    U_EVEN,
    U_ODD,
    Dist,
    base_dist,
    gain_table,
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


@pytest.mark.parametrize(
    "args",
    [
        (2.5, 1.0),
        (Fraction(5, 2), 1.0),
        (2.1, 0.1),
        (True, Fraction(1, 2)),
        (3, False),
        (3, 1, 0.25),
        (3, 2, True),
        ("3", 1),
    ],
)
def test_spec_rejects_non_rational_budgets(args):
    with pytest.raises(OutOfTheoremScope, match="must be an int or a Fraction"):
        LottoSpec(*args)


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


@pytest.mark.parametrize(
    "spec, message",
    [
        (LottoSpec(3, 2, Fraction(1, 4)), "solved only for fractional a, got a=3"),
        (LottoSpec(2, 1, Fraction(1, 3)), "solved only for fractional a, got a=2"),
        (LottoSpec(Fraction(7, 2), Fraction(13, 4)), "solved only for b <= 3, got b=13/4"),
        (
            LottoSpec(Fraction(7, 2), Fraction(13, 4), Fraction(1, 2)),
            "solved only for b <= 3, got b=13/4",
        ),
        (LottoSpec(Fraction(5, 2), Fraction(9, 4)), "solved only for b <= 2, got b=9/4"),
    ],
)
def test_scope_errors_agree_across_value_and_strategies(spec, message):
    raised = []
    for function in (lotto_value, lotto_optimal_A, lotto_optimal_B):
        with pytest.raises(OutOfTheoremScope) as info:
            function(spec)
        raised.append(str(info.value))
    assert raised == [raised[0]] * 3
    assert raised[0].endswith(message)


def test_uniform_member_error_precedes_the_budget_range():
    with pytest.raises(OutOfTheoremScope, match="uniform member exists only"):
        lotto_optimal_B(LottoSpec(Fraction(7, 2), Fraction(13, 4)), uniform_member=True)


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
    # A float budget used to return a binary fraction (0.1 gave
    # -22818238112010513/36028797018963968), and True acted as 1.
    even = base_dist(U_EVEN, 2)
    for budget, floor in ((0.1, None), (True, None), (2.0, None), (Fraction(3, 2), 0.5),
                          (Fraction(3, 2), True)):
        with pytest.raises(OutOfTheoremScope, match="must be an int or a Fraction"):
            envelope_best_response(even, budget, floor)


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


def _solve_three(points, budget, floor):
    """Weights on three points with total 1, mean `budget`, odd-mass `floor`."""
    i, j, k = points
    oi, oj, ok = i % 2, j % 2, k % 2
    det = (j - i) * (ok - oi) - (k - i) * (oj - oi)
    if det == 0:
        return None
    # Eliminate w_i via the total, then solve the remaining 2x2 system.
    rhs_mean = budget - i
    rhs_odd = floor - oi
    wj = Fraction(rhs_mean * (ok - oi) - rhs_odd * (k - i), det)
    wk = Fraction(rhs_odd * (j - i) - rhs_mean * (oj - oi), det)
    wi = 1 - wj - wk
    if wi < 0 or wj < 0 or wk < 0:
        return None
    return wi, wj, wk


def enumerated_best_response(opponent: Dist, budget, odd_floor=None) -> Fraction:
    """The O(top^3) oracle: every vertex of the feasible set, one by one.

    The optimum over distributions on [0, top] sits on a support of one or
    two points, or of three points with odd mass exactly the floor; all of
    them are tried, in Fraction arithmetic, over the same range and gain
    table as `envelope_best_response`.
    """
    budget = Fraction(budget)
    if budget <= 0:
        raise OutOfTheoremScope(f"the oracle needs a positive budget, got {budget}")
    top = opponent.max_support() + 1
    if odd_floor is not None:
        odd_floor = Fraction(odd_floor)
        top += 1
    top = max(top, math.floor(budget) + 2)
    scale = math.lcm(*(weight.denominator for _, weight in opponent.items))
    gain = gain_table({p: int(w * scale) for p, w in opponent.items}, top)
    candidates = []
    if budget.denominator == 1 and (odd_floor is None or int(budget) % 2 >= odd_floor):
        candidates.append(Fraction(gain[int(budget)]))
    for i in range(math.floor(budget) + 1):
        for j in range(max(i + 1, math.ceil(budget)), top + 1):
            weight_j = (budget - i) / (j - i)
            weight_i = 1 - weight_j
            if odd_floor is None or weight_i * (i % 2) + weight_j * (j % 2) >= odd_floor:
                candidates.append(weight_i * gain[i] + weight_j * gain[j])
    if odd_floor is not None:
        for points in combinations(range(top + 1), 3):
            weights = _solve_three(points, budget, odd_floor)
            if weights is not None:
                candidates.append(sum(w * gain[p] for w, p in zip(weights, points)))
    if not candidates:
        raise OutOfTheoremScope(
            f"no feasible strategy with mean {budget} and odd-mass floor {odd_floor}"
        )
    return max(candidates) / scale


def outcome(oracle, *args):
    try:
        return oracle(*args)
    except OutOfTheoremScope:
        return OutOfTheoremScope


floors = st.one_of(
    st.none(),
    st.fractions(min_value=-1, max_value=0, max_denominator=6),
    st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda c: 0 < c < 1),
    st.just(Fraction(1)),
    st.fractions(min_value=1, max_value=2, max_denominator=6).filter(lambda c: c > 1),
)


@settings(deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=1, max_value=6),
        min_size=1,
        max_size=12,
    ),
    st.fractions(min_value=0, max_value=18, max_denominator=7).filter(lambda b: b > 0),
    floors,
)
def test_envelope_matches_enumerated_supports(counts, budget, floor):
    opponent = normalized(counts)
    want = outcome(enumerated_best_response, opponent, budget, floor)
    got = outcome(envelope_best_response, opponent, budget, floor)
    assert got == want
    assert type(got) is type(want)


def test_envelope_ties_where_the_hull_reply_misses_the_floor():
    # Against a point mass at 0 every positive value wins, so the hull is
    # flat from 1 to top and an all-odd reply of mean 8/3 (on 1 and 3)
    # is as good as any.
    assert envelope_best_response(point_mass(0), Fraction(8, 3), 1) == 1
    # Mean 1 with all mass on odd values is the point mass at 1; the hull
    # passes through (1, -1/2) on its way from 0 to 2.
    assert envelope_best_response(normalized({1: 2, 4: 2}), 1, 1) == Fraction(-1, 2)
    for opponent, budget in ((point_mass(0), Fraction(8, 3)), (normalized({1: 2, 4: 2}), 1)):
        assert envelope_best_response(opponent, budget, 1) == enumerated_best_response(
            opponent, budget, 1
        )


def test_envelope_binding_floor_peaks_at_either_hulls_vertex():
    # Against a point mass at 1, the best mean-2 reply with odd mass 1/2
    # puts its even half on 2, a vertex of the even hull, and splits its odd
    # half between 1 and 3.
    assert envelope_best_response(point_mass(1), 2, Fraction(1, 2)) == Fraction(3, 4)
    # Against {3, 5} the best mean-9/2 reply puts its odd half on 5, a vertex
    # of the odd hull, and its even half on 0 and 6 at mean 4.
    pair = normalized({3: 1, 5: 1})
    assert envelope_best_response(pair, Fraction(9, 2), Fraction(1, 2)) == Fraction(5, 12)
    half = Fraction(1, 2)
    for opponent, budget in ((point_mass(1), 2), (pair, Fraction(9, 2))):
        got = envelope_best_response(opponent, budget, half)
        assert got < envelope_best_response(opponent, budget)
        assert got == enumerated_best_response(opponent, budget, half)


def test_envelope_floor_edges():
    thirds = normalized({0: 1, 2: 1, 4: 1})
    plain = envelope_best_response(thirds, Fraction(5, 2))
    # A floor at or below zero never binds.
    assert envelope_best_response(thirds, Fraction(5, 2), 0) == plain
    assert envelope_best_response(thirds, Fraction(5, 2), -1) == plain
    # Odd mass above one, or all odd mass at a mean below 1, is infeasible.
    with pytest.raises(OutOfTheoremScope):
        envelope_best_response(thirds, Fraction(5, 2), Fraction(3, 2))
    with pytest.raises(OutOfTheoremScope):
        envelope_best_response(thirds, Fraction(1, 2), 1)
    # Odd mass 3/4 needs mean at least 3/4.
    with pytest.raises(OutOfTheoremScope):
        envelope_best_response(thirds, Fraction(1, 2), Fraction(3, 4))
    c = Fraction(3, 4)
    assert envelope_best_response(thirds, c, c) == enumerated_best_response(thirds, c, c)


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
