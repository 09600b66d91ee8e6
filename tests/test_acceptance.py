"""Acceptance suite: seven exact, oracle-backed criteria, one test each.

Every check is exact rational arithmetic with zero tolerance.  Targets and
oracles are recomputed here from first principles (distribution algebra,
partition enumeration, envelope replies) rather than read back from the
modules under test.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Iterator

import pytest

from blottokit import blotto
from blottokit.blotto import (
    GameSpec,
    blotto_value,
    classify,
    is_solved,
    payoff_blotto_exhaustive,
    payoff_lotto,
    solve,
    sweep_certify,
    symmetrize,
)
from blottokit.constructions import (
    E,
    O,
    P1,
    P2,
    RE,
    RO,
    PartitionMatrix,
    build_EO,
    build_prop3_B,
    build_prop4_A,
    build_prop5_A,
    build_prop6_B,
    build_prop7_B,
    build_prop10_B,
    generic_implement,
    implement_u,
)
from blottokit.distributions import (
    U_EVEN,
    U_ODD,
    U_ODD_UP,
    Dist,
    base_dist,
    mix,
    point_mass,
    vbar,
)
from blottokit.errors import (
    BadAlpha,
    BadCase,
    BadM,
    ConstructionMismatch,
    ExcludedCase,
    InfeasibleParity,
    InfeasibleRange,
    MeanMismatch,
    OutOfTheoremScope,
)
from blottokit.general_lotto import (
    LottoSpec,
    envelope_best_response,
    lotto_optimal_A,
    lotto_optimal_B,
    lotto_value,
)
from blottokit.verify import best_response_value


def random_partition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def test_criterion_1_certified_value_sweep():
    started = time.monotonic()
    rows = sweep_certify(5, 20)
    solved = unsolved = 0
    for row in rows:
        spec = GameSpec(row.A, row.B, row.K)
        if not is_solved(classify(spec)):
            unsolved += 1
            assert row.certified is None
            continue
        solved += 1
        value = blotto_value(spec)
        assert row.certified is True
        assert row.secured_A == value
        assert row.secured_B == value
        assert row.value == value
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"sweep took {elapsed:.1f}s, budget is 120s"
    print(
        f"[PRIMARY 1] PASS: {solved} solved instances certified at exact "
        f"equality ({unsolved} unsolved skipped) in {elapsed:.1f}s"
    )


# Values of B(A, B; K) as the stronger player's payoff, the battlefield average
# of +1/0/-1.  Each is pinned with a witness pair: the sorted rows of each
# side's mixed strategy, drawn uniformly, each played in a uniformly random
# order.  (4,3,3) and (7,2,3) were once pinned at 5/18 and 1/9, which are
# values of other payoffs: 5/18 is what the weaker player can guarantee at
# (4,3,3) when only battlefields won count (ties score 0), and 1/9 is the
# weaker player's share at (7,2,3) when ties are split in half.
SPOT_VALUES = [
    (
        (7, 6, 2),
        Fraction(1, 8),
        [(6, 1), (6, 1), (6, 1), (5, 2), (4, 3), (4, 3)],
        [(6, 0), (4, 2)],
    ),
    ((6, 4, 2), Fraction(1, 3), [(5, 1), (5, 1), (3, 3)], [(4, 0), (4, 0), (2, 2)]),
    ((4, 3, 3), Fraction(2, 9), [(2, 1, 1)], [(2, 1, 0)]),
    ((7, 2, 3), Fraction(7, 9), [(3, 2, 2)], [(2, 0, 0)]),
]


def ordered_allocations(total: int, parts: int) -> list[tuple[int, ...]]:
    return [
        alloc
        for alloc in itertools.product(range(total + 1), repeat=parts)
        if sum(alloc) == total
    ]


def orderings(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every ordering of every row: one drawn uniformly plays the rows with
    equal weight, each in a uniformly random order."""
    return [p for row in rows for p in itertools.permutations(row)]


def sign_payoff(x: tuple[int, ...], y: tuple[int, ...]) -> Fraction:
    return Fraction(sum((a > b) - (a < b) for a, b in zip(x, y)), len(x))


def witness_security_levels(
    A: int, B: int, K: int, rows_A: list[tuple[int, ...]], rows_B: list[tuple[int, ...]]
) -> tuple[Fraction, Fraction]:
    """The least A's witness gets against any reply of B, and the most any
    reply of A gets against B's witness."""
    plays_A, plays_B = orderings(rows_A), orderings(rows_B)
    secured_A = min(
        sum(sign_payoff(x, y) for x in plays_A) / len(plays_A)
        for y in ordered_allocations(B, K)
    )
    secured_B = max(
        sum(sign_payoff(x, y) for y in plays_B) / len(plays_B)
        for x in ordered_allocations(A, K)
    )
    return secured_A, secured_B


def test_criterion_2_spot_values():
    for (A, B, K), pinned, rows_A, rows_B in SPOT_VALUES:
        assert all(sum(row) == A and len(row) == K for row in rows_A)
        assert all(sum(row) == B and len(row) == K for row in rows_B)
        secured_A, secured_B = witness_security_levels(A, B, K, rows_A, rows_B)
        assert secured_A == pinned == secured_B, (
            f"({A},{B},{K}): witnesses secure [{secured_A}, {secured_B}], "
            f"pinned {pinned}"
        )
        spec = GameSpec(A, B, K)
        assert blotto_value(spec) == pinned, (A, B, K)
        cert = solve(spec).certificate
        assert cert.secured_by_A == cert.secured_by_B == pinned, (A, B, K)
    print(
        "[PRIMARY 2] PASS: 4 spot values pinned with witness pairs checked by "
        "enumerating every ordered reply; closed form and certificate agree"
    )


def u_odd_up_part(m: int, weight: Fraction) -> list[tuple[Fraction, Dist]]:
    return [(weight, base_dist(U_ODD_UP, m))] if m > 1 else []


def feasible_builds(m: int, K: int) -> Iterator[tuple[str, PartitionMatrix, Dist, int]]:
    """Yield (label, matrix, externally recomputed target, budget) for all
    feasible budgets of every named builder at this (m, K)."""
    Km = K * m
    C = Km
    if C % 2 == 0:
        yield ("implement_u/E", implement_u(U_EVEN, m, C, K), base_dist(U_EVEN, m), C)
    if (C - K) % 2 == 0:
        yield ("implement_u/O", implement_u(U_ODD, m, C, K), base_dist(U_ODD, m), C)
    for B in range(2 * m, Km + 1, 2):
        target = mix(
            [
                (Fraction(Km - B, Km), point_mass(0)),
                (Fraction(B, Km), base_dist(U_EVEN, m)),
            ]
        )
        yield (f"prop3_B B={B}", build_prop3_B(m, K, B), target, B)
    for r in range(1, K):
        A = Km + r
        alpha = Fraction(r, K)
        if (A - K) % 2 == 0:
            target = mix(
                [
                    (1 - alpha, base_dist(U_ODD, m)),
                    (alpha, base_dist(U_ODD, m + 1)),
                ]
            )
            yield (f"prop4_A A={A}", build_prop4_A(m, K, A), target, A)
        delta = Fraction(2 * m + 1, m + 1)
        if 2 * r <= K and not (K == 3 and m in (2, 4, 6)):
            target = mix(
                [
                    (alpha * delta, vbar(m)),
                    (1 - alpha * delta, base_dist(U_ODD, m)),
                ]
            )
            yield (f"prop5_A/P1 A={A}", build_prop5_A(m, K, A, P1), target, A)
        if 2 * r > K:
            target = mix(
                [
                    ((1 - alpha) * delta, vbar(m)),
                    ((1 - alpha) / (m + 1), base_dist(U_ODD, m)),
                    (2 * alpha - 1, base_dist(U_ODD, m + 1)),
                ]
            )
            yield (f"prop5_A/P2 A={A}", build_prop5_A(m, K, A, P2), target, A)
    B = 2 * m - 1
    target = mix(
        [
            (Fraction(Km - B, Km), point_mass(0)),
            (Fraction(1, K), base_dist(U_ODD, m)),
        ]
        + u_odd_up_part(m, Fraction(B - m, Km))
    )
    yield (f"prop6_B B={B}", build_prop6_B(m, K), target, B)
    for B in range(2 * m + 1, Km + 1, 2):
        target = mix(
            [
                (Fraction(Km - B, Km), point_mass(0)),
                (Fraction(1, K), base_dist(U_ODD, m)),
                (Fraction(B - m, Km), base_dist(U_EVEN, m)),
            ]
        )
        yield (f"prop7_B B={B}", build_prop7_B(m, K, B), target, B)
        target = mix(
            [
                (Fraction(Km - B + 1, Km), point_mass(0)),
                (Fraction(1, K), base_dist(U_ODD, m + 1)),
                (Fraction(B - 1 - m, Km), base_dist(U_EVEN, m)),
            ]
        )
        yield (f"prop10_B B={B}", build_prop10_B(m, K, B), target, B)


def assert_documented_errors(m: int, K: int) -> None:
    Km = K * m
    if Km % 2:
        with pytest.raises(InfeasibleParity):
            implement_u(U_EVEN, m, Km, K)
    if (Km - K) % 2:
        with pytest.raises(InfeasibleParity):
            implement_u(U_ODD, m, Km, K)
    with pytest.raises(MeanMismatch):
        implement_u(U_EVEN, m, Km + 1, K)
    for B in range(2 * m - 2, Km + 3):
        if B < 0 or 2 * m <= B <= Km and B % 2 == 0:
            continue
        expected = InfeasibleParity if B % 2 else InfeasibleRange
        with pytest.raises(expected):
            build_prop3_B(m, K, B)
    for B in range(2 * m - 1, Km + 3, 2):
        if not 2 * m < B <= Km:
            with pytest.raises(InfeasibleRange):
                build_prop7_B(m, K, B)
        if not 2 * m + 1 <= B <= Km:
            with pytest.raises(InfeasibleRange):
                build_prop10_B(m, K, B)
    with pytest.raises(InfeasibleParity):
        build_prop7_B(m, K, 2 * m + 2)
    with pytest.raises(InfeasibleParity):
        build_prop10_B(m, K, 2 * m + 2)
    with pytest.raises(BadCase):
        build_prop4_A(m, K, Km)
    for r in range(1, K):
        A = Km + r
        if (A - K) % 2:
            with pytest.raises(InfeasibleParity):
                build_prop4_A(m, K, A)
        if 2 * r > K:
            with pytest.raises(BadAlpha):
                build_prop5_A(m, K, A, P1)
        else:
            with pytest.raises(BadAlpha):
                build_prop5_A(m, K, A, P2)
            if K == 3 and m in (2, 4, 6):
                with pytest.raises(ExcludedCase):
                    build_prop5_A(m, K, A, P1)


def test_criterion_3_construction_self_check_sweep():
    built = 0
    fallbacks: list[str] = []
    for m in range(1, 9):
        matrix = build_EO(E, m)
        assert matrix.to_dist() == base_dist(U_EVEN, m) and matrix.budget == 2 * m
        matrix = build_EO(O, m)
        assert matrix.to_dist() == base_dist(U_ODD, m) and matrix.budget == 2 * m
        if m % 2 == 0:
            matrix = build_EO(RE, m)
            assert matrix.to_dist() == base_dist(U_EVEN, m) and matrix.budget == 3 * m
            with pytest.raises(BadM):
                build_EO(RO, m)
        else:
            matrix = build_EO(RO, m)
            assert matrix.to_dist() == base_dist(U_ODD, m) and matrix.budget == 3 * m
            if m > 1:
                with pytest.raises(BadM):
                    build_EO(RE, m)
        built += 3
        for K in range(2, 8):
            generator = feasible_builds(m, K)
            while True:
                try:
                    item = next(generator)
                except StopIteration:
                    break
                except ConstructionMismatch as exc:
                    # A defective block family is repaired by direct search,
                    # logged, and still held to the exact target.
                    fallbacks.append(str(exc))
                    continue
                label, matrix, target, budget = item
                assert matrix.budget == budget, label
                for row in matrix.rows:
                    assert sum(row) == budget, label
                assert matrix.battlefields == K, label
                assert matrix.to_dist() == target, label
                built += 1
            assert_documented_errors(m, K)
    assert not fallbacks, f"{len(fallbacks)} construction fallbacks: {fallbacks}"
    assert blotto.fallback_events == [], blotto.fallback_events
    print(
        f"[PRIMARY 3] PASS: {built} builds matched externally recomputed "
        f"targets over m in [1,8], K in [2,7]; 0 fallbacks; documented "
        f"infeasible combinations all raised their documented errors"
    )


def test_criterion_4_lotto_oracle_equivalence():
    checked = 0
    for K in range(2, 7):
        floor = Fraction(1, K)
        for m in range(1, 9):
            for r in range(1, K):
                a = Fraction(m * K + r, K)
                for B in range(1, K * m + 1):
                    b = Fraction(B, K)
                    spec = LottoSpec(a, b)
                    value = lotto_value(spec)
                    assert envelope_best_response(lotto_optimal_B(spec), a) == value
                    assert envelope_best_response(lotto_optimal_A(spec), b) == -value
                    checked += 1
                    if B < m + 1:
                        # The odd-mass floor 1/K exceeds b/(m+1): out of scope.
                        with pytest.raises(OutOfTheoremScope):
                            LottoSpec(a, b, floor)
                        continue
                    constrained = LottoSpec(a, b, floor)
                    value = lotto_value(constrained)
                    assert (
                        envelope_best_response(lotto_optimal_B(constrained), a) == value
                    )
                    assert (
                        envelope_best_response(
                            lotto_optimal_A(constrained), b, odd_floor=floor
                        )
                        == -value
                    )
                    checked += 1
    print(
        f"[PRIMARY 4] PASS: {checked} value/envelope equivalences at exact "
        f"equality over m <= 8, K <= 6, both variants"
    )


def test_criterion_5_feasibility_law_reproduction():
    checked = 0
    for m in range(1, 5):
        for K in range(2, 5):
            C = m * K
            even = generic_implement(base_dist(U_EVEN, m), C, K)
            assert (even is not None) == (C % 2 == 0), (m, K, "even grid")
            if even is not None:
                assert even.to_dist() == base_dist(U_EVEN, m)
            odd = generic_implement(base_dist(U_ODD, m), C, K)
            assert (odd is not None) == ((C - K) % 2 == 0), (m, K, "odd grid")
            if odd is not None:
                assert odd.to_dist() == base_dist(U_ODD, m)
            checked += 2
    print(
        f"[PRIMARY 5] PASS: direct search reproduced the parity feasibility "
        f"law on {checked} grid targets (C = mK, m <= 4, K <= 4)"
    )


def test_criterion_6_uniform_matching_reduction():
    rng = random.Random(4021)
    for _ in range(200):
        K = rng.randint(2, 4)
        budget_x = rng.randint(1, 10)
        rows = tuple(
            random_partition(rng, budget_x, K) for _ in range(rng.randint(1, 3))
        )
        x = PartitionMatrix(budget_x, K, rows)
        y_row = random_partition(rng, rng.randint(1, 10), K)
        y = PartitionMatrix(sum(y_row), K, (y_row,))
        share = Fraction(1, len(rows))
        lottery_x = [
            (ordering, share * weight)
            for row in rows
            for ordering, weight in symmetrize(row, K)
        ]
        lottery_y = symmetrize(y_row, K)
        assert payoff_blotto_exhaustive(lottery_x, lottery_y) == payoff_lotto(x, y)
    print(
        "[PRIMARY 6] PASS: symmetrized play reproduced the uniform-matching "
        "payoff on 200 randomized instances at exact equality"
    )


def enumerate_partitions(total: int, parts: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """All non-increasing tuples of `parts` non-negative integers summing to `total`."""
    if cap is None:
        cap = total
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap), -1, -1):
        for rest in enumerate_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def brute_force_reply_value(opponent: PartitionMatrix, budget: int, K: int) -> Fraction:
    entries = Counter(v for row in opponent.rows for v in row)
    total = opponent.row_count * opponent.battlefields
    weights = {v: Fraction(n, total) for v, n in entries.items()}

    def gain(t: int) -> Fraction:
        return sum(
            (w if t > v else -w if t < v else Fraction(0))
            for v, w in weights.items()
        )

    best = max(
        sum(gain(t) for t in partition)
        for partition in enumerate_partitions(budget, K)
    )
    return Fraction(best, K)


def test_criterion_7_dp_matches_brute_force():
    rng = random.Random(907)
    checked = 0
    for _ in range(50):
        K = rng.randint(2, 4)
        opp_budget = rng.randint(0, 12)
        rows = tuple(
            random_partition(rng, opp_budget, K) for _ in range(rng.randint(1, 4))
        )
        opponent = PartitionMatrix(opp_budget, K, rows)
        for budget in range(0, 13):
            got = best_response_value(opponent, budget, K)
            want = brute_force_reply_value(opponent, budget, K)
            assert got == want, (rows, budget, K, got, want)
            checked += 1
    print(
        f"[PRIMARY 7] PASS: dynamic program matched exhaustive partition "
        f"enumeration on {checked} (opponent, budget) pairs at exact equality"
    )
