"""Classification, closed-form values, equilibrium assembly, and payoffs."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from blottokit import blotto, constructions
from blottokit.blotto import (
    EquilibriumReport,
    GameCase,
    GameSpec,
    blotto_value,
    classify,
    is_solved,
    payoff_blotto_exhaustive,
    payoff_lotto,
    report_to_json,
    solve,
    symmetrize,
)
from blottokit.constructions import PartitionMatrix, build_EO, E
from blottokit.distributions import (
    U_EVEN,
    U_ODD,
    U_ODD_UP,
    base_dist,
    mix,
    normalized,
    point_mass,
)
from blottokit.errors import (
    BadWeights,
    DimensionMismatch,
    OutOfTheoremScope,
    TooLarge,
    UnsolvedCase,
)
from blottokit.general_lotto import LottoSpec, lotto_value


def rows_multiset(matrix: PartitionMatrix) -> Counter:
    return Counter(tuple(row) for row in matrix.rows)


def random_partition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def test_game_spec_validation():
    spec = GameSpec(7, 2, 3)
    assert (spec.m, spec.R, spec.alpha) == (2, 1, Fraction(1, 3))
    with pytest.raises(OutOfTheoremScope):
        GameSpec(3, 3, 2)
    with pytest.raises(OutOfTheoremScope):
        GameSpec(3, 0, 2)
    with pytest.raises(OutOfTheoremScope):
        GameSpec(3, 1, 1)


def test_classify_examples():
    assert classify(GameSpec(7, 6, 2)) is GameCase.HIGH_B_NDIV_EVEN
    assert classify(GameSpec(6, 4, 2)) is GameCase.HIGH_B_DIV
    assert classify(GameSpec(7, 2, 3)) is GameCase.LOW_B_EQUAL
    assert classify(GameSpec(8, 1, 3)) is GameCase.LOW_B_TRIVIAL
    assert classify(GameSpec(7, 5, 3)) is GameCase.UNSOLVED_EXCLUDED
    assert classify(GameSpec(8, 7, 3)) is GameCase.UNSOLVED_HART_REGIME
    assert classify(GameSpec(12, 7, 3)) is GameCase.UNSOLVED_HART_REGIME
    assert classify(GameSpec(8, 3, 3)) is GameCase.UNSOLVED_INTERMEDIATE
    assert classify(GameSpec(9, 7, 3)) is GameCase.HIGH_B_DIV
    assert classify(GameSpec(4, 3, 3)) is GameCase.HIGH_B_NDIV_ODD


def test_classify_equal_budget_scope():
    # The concentration defence stops being optimal once the stronger player
    # can fund two one-unit upgrades from a single sacrificed battlefield,
    # which needs three spare battlefields and a level of at least three.
    assert classify(GameSpec(9, 3, 3)) is GameCase.UNSOLVED_INTERMEDIATE
    assert classify(GameSpec(12, 3, 4)) is GameCase.UNSOLVED_INTERMEDIATE
    assert classify(GameSpec(13, 3, 4)) is GameCase.UNSOLVED_INTERMEDIATE
    assert classify(GameSpec(10, 3, 3)) is GameCase.LOW_B_EQUAL
    assert classify(GameSpec(15, 3, 4)) is GameCase.LOW_B_EQUAL
    assert classify(GameSpec(9, 4, 2)) is GameCase.LOW_B_EQUAL
    assert classify(GameSpec(6, 2, 3)) is GameCase.LOW_B_EQUAL


def test_classify_is_total():
    for K in range(2, 6):
        for A in range(K + 1, 16):
            for B in range(1, A):
                assert isinstance(classify(GameSpec(A, B, K)), GameCase)


def test_is_solved_partition():
    solved = {
        GameCase.LOW_B_TRIVIAL,
        GameCase.LOW_B_EQUAL,
        GameCase.HIGH_B_NDIV_EVEN,
        GameCase.HIGH_B_DIV,
        GameCase.HIGH_B_NDIV_ODD,
    }
    for case in GameCase:
        assert is_solved(case) is (case in solved)


def test_value_examples():
    assert blotto_value(GameSpec(7, 6, 2)) == Fraction(1, 8)
    assert blotto_value(GameSpec(6, 4, 2)) == Fraction(1, 3)
    assert blotto_value(GameSpec(8, 1, 3)) == 1
    # Independently certified equal-budget and odd-budget values; see the
    # certificates asserted in the solve tests below.
    assert blotto_value(GameSpec(7, 2, 3)) == Fraction(7, 9)
    assert blotto_value(GameSpec(10, 3, 3)) == Fraction(7, 9)
    assert blotto_value(GameSpec(4, 3, 3)) == Fraction(2, 9)
    assert blotto_value(GameSpec(5, 3, 3)) == Fraction(7, 18)


def test_value_unsolved_cases_raise():
    for A, B, K in ((9, 3, 3), (7, 5, 3), (8, 7, 3), (8, 3, 3)):
        with pytest.raises(UnsolvedCase):
            blotto_value(GameSpec(A, B, K))
        with pytest.raises(UnsolvedCase):
            solve(GameSpec(A, B, K))


def test_value_reduction_identities():
    for K in (2, 3, 4):
        for A in range(K + 1, 18):
            for B in range(1, A):
                spec = GameSpec(A, B, K)
                case = classify(spec)
                a, b = Fraction(A, K), Fraction(B, K)
                if case is GameCase.HIGH_B_NDIV_EVEN:
                    assert blotto_value(spec) == lotto_value(LottoSpec(a, b))
                elif case is GameCase.HIGH_B_NDIV_ODD:
                    assert blotto_value(spec) == lotto_value(
                        LottoSpec(a, b, Fraction(1, K))
                    )


def test_solve_high_even_example():
    report = solve(GameSpec(7, 6, 2))
    assert report.case is GameCase.HIGH_B_NDIV_EVEN
    assert report.value == Fraction(1, 8)
    assert report.certificate.secured_by_A == Fraction(1, 8)
    assert report.certificate.secured_by_B == Fraction(1, 8)
    assert report.certificate.equilibrium
    assert report.strategy_B.to_dist() == build_EO(E, 3).to_dist()


def test_solve_equal_budget_example():
    report = solve(GameSpec(7, 2, 3))
    assert rows_multiset(report.strategy_A) == Counter(
        {(3, 2, 2): 1, (2, 3, 2): 1, (2, 2, 3): 1}
    )
    assert rows_multiset(report.strategy_B) == Counter(
        {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    )
    assert report.value == Fraction(7, 9)
    assert report.certificate.equilibrium


def test_solve_odd_budget_example():
    report = solve(GameSpec(4, 3, 3))
    assert rows_multiset(report.strategy_A) == Counter({(1, 1, 2): 2})
    assert report.strategy_B.to_dist() == normalized({0: 1, 1: 1, 2: 1})
    assert report.value == Fraction(2, 9)
    assert report.certificate.equilibrium


def test_solve_divisible_dispatch():
    report = solve(GameSpec(6, 4, 2))
    assert report.strategy_A.to_dist() == base_dist(U_ODD, 3)
    assert report.strategy_B.to_dist() == base_dist(U_EVEN, 2)
    assert report.value == Fraction(1, 3)

    staircase = solve(GameSpec(8, 7, 2))
    assert staircase.value == Fraction(1, 8)
    assert staircase.strategy_B.to_dist() == mix(
        [
            (Fraction(1, 8), point_mass(0)),
            (Fraction(7, 8) * Fraction(4, 7), base_dist(U_ODD, 4)),
            (Fraction(7, 8) * Fraction(3, 7), base_dist(U_ODD_UP, 4)),
        ]
    )

    tall_odd = solve(GameSpec(9, 7, 3))
    assert tall_odd.value == Fraction(2, 9)
    assert tall_odd.strategy_B.to_dist() == mix(
        [
            (Fraction(2, 9), point_mass(0)),
            (Fraction(1, 3), base_dist(U_ODD, 3)),
            (Fraction(4, 9), base_dist(U_EVEN, 3)),
        ]
    )


def test_solve_low_trivial():
    report = solve(GameSpec(8, 1, 3))
    assert report.value == 1
    assert report.certificate.secured_by_A == 1
    assert rows_multiset(report.strategy_A) == Counter(
        {(3, 3, 2): 1, (3, 2, 3): 1, (2, 3, 3): 1}
    )
    assert report.strategy_B.rows == ((1, 0, 0),)


def test_sweep_solved_instances_certify():
    for K in (2, 3):
        for A in range(K + 1, 11):
            for B in range(1, A):
                spec = GameSpec(A, B, K)
                if not is_solved(classify(spec)):
                    continue
                report = solve(spec)
                assert report.certificate.equilibrium
                assert report.certificate.secured_by_A == report.value


def test_odd_full_width_solves_without_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("solve searched")

    monkeypatch.setattr(blotto, "generic_implement", no_search)
    monkeypatch.setattr(constructions, "generic_implement", no_search)
    for (A, B, K), value in (
        ((34, 33, 3), Fraction(17, 594)),
        ((40, 39, 3), Fraction(20, 819)),
        ((106, 105, 5), Fraction(53, 5775)),
        ((148, 147, 7), Fraction(74, 11319)),
    ):
        report = solve(GameSpec(A, B, K))
        assert report.case is GameCase.HIGH_B_NDIV_ODD
        assert report.value == value
        assert report.certificate.equilibrium
        assert report.certificate.secured_by_A == value


def test_report_json_shape():
    report = solve(GameSpec(7, 6, 2))
    blob = report_to_json(report)
    assert set(blob) == {"A", "B", "value", "secured_A", "secured_B", "case"}
    assert blob["value"] == "1/8"
    assert blob["secured_A"] == "1/8"
    assert blob["case"] == "HIGH_B_NDIV_EVEN"
    assert blob["B"]["budget"] == 6


def test_payoff_lotto_examples():
    x = PartitionMatrix(2, 2, ((2, 0),))
    y = PartitionMatrix(2, 2, ((1, 1),))
    assert payoff_lotto(x, y) == 0
    assert payoff_lotto(x, x) == 0
    report = solve(GameSpec(7, 6, 2))
    assert payoff_lotto(report.strategy_B, report.strategy_A) == Fraction(-1, 8)
    with pytest.raises(DimensionMismatch):
        payoff_lotto(x, PartitionMatrix(2, 3, ((1, 1, 0),)))


def test_payoff_blotto_exhaustive_examples():
    assert payoff_blotto_exhaustive((2, 0), (1, 1)) == 0
    assert payoff_blotto_exhaustive((3, 2, 2), (2, 0, 0)) == 1
    mixed = [((2, 0), Fraction(1, 2)), ((0, 2), Fraction(1, 2))]
    assert payoff_blotto_exhaustive(mixed, (1, 1)) == 0
    with pytest.raises(BadWeights):
        payoff_blotto_exhaustive([((2, 0), Fraction(1, 2))], (1, 1))
    with pytest.raises(TooLarge):
        payoff_blotto_exhaustive(tuple(range(7)), tuple(range(7)))


def test_symmetrize_examples():
    assert symmetrize((2, 2), 2) == [((2, 2), Fraction(1))]
    assert symmetrize((1, 0), 2) == [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 2))]
    three = symmetrize((3, 2, 2), 3)
    assert len(three) == 3
    assert all(weight == Fraction(1, 3) for _, weight in three)
    with pytest.raises(DimensionMismatch):
        symmetrize((1, 0), 3)
    with pytest.raises(TooLarge):
        symmetrize(tuple(range(7)), 7)


def test_uniform_matching_reduction_randomized():
    rng = random.Random(17)
    for _ in range(30):
        K = rng.randint(2, 4)
        rows = tuple(
            random_partition(rng, rng.randint(1, 8), K) for _ in range(rng.randint(1, 3))
        )
        budget = sum(rows[0])
        rows = tuple(row for row in rows if sum(row) == budget) or rows[:1]
        x = PartitionMatrix(budget, K, rows)
        y_row = random_partition(rng, rng.randint(1, 8), K)
        y = PartitionMatrix(sum(y_row), K, (y_row,))
        share = Fraction(1, len(rows))
        lottery = [
            (ordering, share * weight)
            for row in rows
            for ordering, weight in symmetrize(row, K)
        ]
        assert payoff_blotto_exhaustive(lottery, y_row) == payoff_lotto(x, y)
