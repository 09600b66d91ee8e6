"""Partition-matrix builders, composition operators, and the exhaustive search."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from blottokit import constructions
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
    cardinality,
    generic_implement,
    hcat,
    implement_u,
    matrix_from_json,
    matrix_to_json,
    vcat,
)
from blottokit.distributions import (
    U_EVEN,
    U_ODD,
    U_ODD_UP,
    Dist,
    base_dist,
    mean,
    mix,
    normalized,
    point_mass,
    vbar,
    vec_add,
)
from blottokit.errors import (
    BadAlpha,
    BadM,
    ConstructionMismatch,
    DimensionMismatch,
    ExcludedCase,
    InfeasibleParity,
    InfeasibleRange,
    MeanMismatch,
    SearchExceeded,
)


def rows_multiset(matrix: PartitionMatrix) -> Counter:
    return Counter(tuple(row) for row in matrix.rows)


def delta0(weight: Fraction, rest: list[tuple[Fraction, Dist]]) -> Dist:
    return mix([(weight, point_mass(0))] + rest)


def test_build_E_and_O():
    e2 = build_EO(E, 2)
    assert rows_multiset(e2) == Counter({(0, 4): 1, (2, 2): 1, (4, 0): 1})
    assert (e2.budget, e2.battlefields) == (4, 2)
    o2 = build_EO(O, 2)
    assert rows_multiset(o2) == Counter({(1, 3): 1, (3, 1): 1})
    assert cardinality(build_EO(E, 3)) == {0: 2, 2: 2, 4: 2, 6: 2}


def test_build_RE_matches_displayed_rows():
    re2 = build_EO(RE, 2)
    assert rows_multiset(re2) == Counter({(0, 2, 4): 1, (2, 4, 0): 1, (0, 4, 2): 1})
    assert cardinality(re2) == {0: 3, 2: 3, 4: 3}
    assert re2.budget == 6


def test_build_RO_shifts_RE():
    ro3 = build_EO(RO, 3)
    assert cardinality(ro3) == {1: 3, 3: 3, 5: 3}
    assert ro3.budget == 9
    assert ro3.to_dist() == base_dist(U_ODD, 3)


def test_build_EO_rejects_bad_m():
    with pytest.raises(BadM):
        build_EO(E, 0)
    with pytest.raises(BadM):
        build_EO(RE, 3)
    with pytest.raises(BadM):
        build_EO(RO, 2)


def test_cardinality_examples():
    m = PartitionMatrix(4, 2, ((0, 4), (2, 2), (4, 0)))
    assert cardinality(m) == {0: 2, 2: 2, 4: 2}
    assert cardinality(PartitionMatrix(3, 3, ((0, 1, 2),))) == {0: 1, 1: 1, 2: 1}


def test_hcat_vcat():
    e2 = build_EO(E, 2)
    wide = hcat([e2, e2])
    assert (wide.budget, wide.battlefields, wide.row_count) == (8, 4, 3)
    assert cardinality(wide) == vec_add(cardinality(e2), cardinality(e2))
    tall = vcat([PartitionMatrix(2, 2, ((0, 2),)), PartitionMatrix(2, 2, ((2, 0),))])
    assert tall.rows == ((0, 2), (2, 0))
    with pytest.raises(DimensionMismatch):
        hcat([e2, build_EO(E, 3)])
    with pytest.raises(DimensionMismatch):
        vcat([e2, build_EO(E, 3)])


def test_composition_cardinality_additivity_randomized():
    rng = random.Random(23)
    pool = [build_EO(E, m) for m in range(1, 5)] + [build_EO(O, m) for m in range(1, 5)]
    for _ in range(25):
        left, right = rng.choice(pool), rng.choice(pool)
        if left.row_count == right.row_count:
            joined = hcat([left, right])
            assert cardinality(joined) == vec_add(cardinality(left), cardinality(right))
        if left.budget == right.budget:
            stacked = vcat([left, right])
            assert cardinality(stacked) == vec_add(cardinality(left), cardinality(right))


def test_check_target_accepts_any_positive_multiple():
    matrix = build_prop3_B(2, 3, 4)
    assert cardinality(matrix) == {0: 5, 2: 2, 4: 2}
    for factor in (1, 2, 7):
        constructions._check_target("t", matrix, {0: 5 * factor, 2: 2 * factor, 4: 2 * factor})
    # The matrix's counts may be a multiple of the target's, too.
    constructions._check_target("t", vcat([matrix] * 3), {0: 5, 2: 2, 4: 2})


def test_check_target_ignores_zero_counts():
    constructions._check_target("t", build_EO(E, 2), {0: 1, 2: 1, 4: 1, 6: 0})


@pytest.mark.parametrize(
    "target",
    [
        {0: 3, 2: 1, 4: 2},  # one unit moved from 2 to 0
        {0: 2, 2: 2, 4: 2, 6: 1},  # a target point the matrix lacks
        {0: 2, 2: 2},  # a matrix point the target lacks
        {1: 2, 2: 2, 4: 2},  # the same shape on another support
    ],
)
def test_check_target_rejects_other_counts(target):
    with pytest.raises(ConstructionMismatch):
        constructions._check_target("t", build_EO(E, 2), target)


def test_implement_u_even_grid():
    matrix = implement_u(U_EVEN, 2, 4, 2)
    assert rows_multiset(matrix) == rows_multiset(build_EO(E, 2))
    assert matrix.to_dist() == base_dist(U_EVEN, 2)


def test_implement_u_odd_grid_small():
    assert implement_u(U_ODD, 1, 2, 2).rows == ((1, 1),)


def test_implement_u_parity_laws():
    # The odd grid needs budget and battlefield count of equal parity, so
    # m=2, K=3 (budget 6) is infeasible; the even grid needs an even budget.
    with pytest.raises(InfeasibleParity):
        implement_u(U_ODD, 2, 6, 3)
    with pytest.raises(InfeasibleParity):
        implement_u(U_EVEN, 3, 9, 3)
    assert implement_u(U_ODD, 3, 9, 3).to_dist() == base_dist(U_ODD, 3)


def test_implement_u_budget_mismatch():
    with pytest.raises(MeanMismatch):
        implement_u(U_EVEN, 2, 5, 2)


def test_prop3_full_budget_collapses_to_grid():
    matrix = build_prop3_B(3, 2, 6)
    assert matrix.to_dist() == base_dist(U_EVEN, 3)
    assert cardinality(matrix) == {0: 2, 2: 2, 4: 2, 6: 2}


def test_prop3_padded_case():
    matrix = build_prop3_B(2, 3, 4)
    assert cardinality(matrix) == {0: 5, 2: 2, 4: 2}
    assert matrix.to_dist() == delta0(
        Fraction(1, 3), [(Fraction(2, 3), base_dist(U_EVEN, 2))]
    )
    assert mean(matrix.to_dist()) == Fraction(4, 3)


def test_prop3_block_case():
    matrix = build_prop3_B(3, 4, 8)
    assert matrix.to_dist() == delta0(
        Fraction(1, 3), [(Fraction(2, 3), base_dist(U_EVEN, 3))]
    )
    assert all(sum(row) == 8 for row in matrix.rows)


def test_prop3_rejects_bad_budgets():
    with pytest.raises(InfeasibleParity):
        build_prop3_B(2, 3, 5)
    with pytest.raises(InfeasibleRange):
        build_prop3_B(3, 3, 4)
    with pytest.raises(InfeasibleRange):
        build_prop3_B(2, 2, 6)


def test_prop4_parity_gate():
    with pytest.raises(InfeasibleParity):
        build_prop4_A(2, 2, 5)


def test_prop4_odd_K_case():
    matrix = build_prop4_A(1, 3, 5)
    assert matrix.to_dist() == mix(
        [(Fraction(1, 3), base_dist(U_ODD, 1)), (Fraction(2, 3), base_dist(U_ODD, 2))]
    )
    assert (matrix.budget, matrix.battlefields) == (5, 3)


def test_prop4_even_K_case():
    matrix = build_prop4_A(2, 4, 10)
    assert matrix.to_dist() == mix(
        [(Fraction(1, 2), base_dist(U_ODD, 2)), (Fraction(1, 2), base_dist(U_ODD, 3))]
    )


def test_prop5_point1_small():
    matrix = build_prop5_A(1, 3, 4, P1)
    assert rows_multiset(matrix) == Counter({(1, 1, 2): 2})
    assert cardinality(matrix) == {1: 4, 2: 2}
    assert matrix.to_dist() == mix(
        [(Fraction(1, 2), vbar(1)), (Fraction(1, 2), base_dist(U_ODD, 1))]
    )


def test_prop5_point1_staircase():
    matrix = build_prop5_A(3, 2, 7, P1)
    delta = Fraction(7, 4)
    alpha = Fraction(1, 2)
    assert matrix.to_dist() == mix(
        [(alpha * delta, vbar(3)), (1 - alpha * delta, base_dist(U_ODD, 3))]
    )


def test_prop5_point1_m8_matches_target():
    m = 8
    delta = Fraction(2 * m + 1, m + 1)
    for K in (5, 7, 9, 11):
        for r in range(2, (K - 1) // 2 + 1):
            matrix = build_prop5_A(m, K, K * m + r, P1)
            alpha = Fraction(r, K)
            assert (matrix.budget, matrix.battlefields) == (K * m + r, K)
            assert matrix.to_dist() == mix(
                [(alpha * delta, vbar(m)), (1 - alpha * delta, base_dist(U_ODD, m))]
            ), (K, r)


def test_prop5_point2_small():
    matrix = build_prop5_A(1, 3, 5, P2)
    delta = Fraction(3, 2)
    alpha = Fraction(2, 3)
    assert matrix.to_dist() == mix(
        [
            ((1 - alpha) * delta, vbar(1)),
            ((1 - alpha) * (2 - delta), base_dist(U_ODD, 1)),
            (2 * alpha - 1, base_dist(U_ODD, 2)),
        ]
    )


def test_prop5_scope_errors():
    with pytest.raises(ExcludedCase):
        build_prop5_A(2, 3, 7, P1)
    with pytest.raises(BadAlpha):
        build_prop5_A(1, 3, 5, P1)
    with pytest.raises(BadAlpha):
        build_prop5_A(1, 3, 4, P2)


def test_prop6_staircase():
    assert build_prop6_B(1, 2).rows == ((0, 1),)
    assert rows_multiset(build_prop6_B(2, 2)) == Counter({(0, 3): 1, (1, 2): 1})
    assert rows_multiset(build_prop6_B(3, 3)) == Counter(
        {(0, 5, 0): 1, (1, 4, 0): 1, (2, 3, 0): 1}
    )
    assert build_prop6_B(1, 2).to_dist() == delta0(
        Fraction(1, 2), [(Fraction(1, 2), base_dist(U_ODD, 1))]
    )
    assert build_prop6_B(3, 3).to_dist() == delta0(
        Fraction(4, 9),
        [
            (Fraction(5, 9) * Fraction(3, 5), base_dist(U_ODD, 3)),
            (Fraction(5, 9) * Fraction(2, 5), base_dist(U_ODD_UP, 3)),
        ],
    )
    with pytest.raises(BadM):
        build_prop6_B(0, 2)


def test_prop7_delegated_uniform_case():
    matrix = build_prop7_B(1, 3, 3)
    assert matrix.to_dist() == normalized({0: 1, 1: 1, 2: 1})
    assert sorted(matrix.rows[0]) == [0, 1, 2]


def test_prop7_decrement_case():
    matrix = build_prop7_B(2, 3, 5)
    assert matrix.to_dist() == delta0(
        Fraction(1, 6),
        [
            (Fraction(1, 3), base_dist(U_ODD, 2)),
            (Fraction(1, 2), base_dist(U_EVEN, 2)),
        ],
    )


def test_prop7_rejects_bad_budgets():
    with pytest.raises(InfeasibleRange):
        build_prop7_B(3, 2, 7)
    with pytest.raises(InfeasibleParity):
        build_prop7_B(2, 3, 6)


def test_prop10_increment_cases():
    matrix = build_prop10_B(1, 3, 3)
    assert matrix.to_dist() == delta0(
        Fraction(1, 3),
        [
            (Fraction(1, 3), base_dist(U_ODD, 2)),
            (Fraction(1, 3), base_dist(U_EVEN, 1)),
        ],
    )
    other = build_prop10_B(2, 4, 5)
    assert other.to_dist() == delta0(
        Fraction(1, 2),
        [
            (Fraction(1, 4), base_dist(U_ODD, 3)),
            (Fraction(1, 4), base_dist(U_EVEN, 2)),
        ],
    )


def test_prop10_rejects_bad_budgets():
    with pytest.raises(InfeasibleRange):
        build_prop10_B(2, 2, 5)
    with pytest.raises(InfeasibleParity):
        build_prop10_B(2, 4, 6)


def test_generic_implement_finds_uniform_row():
    found = generic_implement(normalized({0: 1, 1: 1, 2: 1}), 3, 3)
    assert found is not None
    assert found.row_count == 1
    assert sorted(found.rows[0]) == [0, 1, 2]


def test_generic_implement_point_mass():
    found = generic_implement(point_mass(2), 4, 2)
    assert found is not None
    assert found.rows == ((2, 2),)


def test_generic_implement_checks_mean():
    with pytest.raises(MeanMismatch):
        generic_implement(base_dist(U_ODD, 2), 3, 2)


def test_generic_implement_respects_parity_law():
    # Odd grid with even budget over even battlefields is feasible; the
    # mismatched-parity variant admits no matrix and returns None.
    assert generic_implement(base_dist(U_ODD, 2), 4, 2) is not None
    assert generic_implement(base_dist(U_ODD, 2), 6, 3) is None


def test_generic_implement_row_cap():
    with pytest.raises(SearchExceeded):
        generic_implement(base_dist(U_EVEN, 2), 6, 3, max_rows=2)


def test_node_budget_counts_rejected_completions(monkeypatch):
    # The search for the Prop-7 full-width target at (m, K, B) = (9, 3, 27)
    # generates 17,614 completions, fewer than half of which pass the
    # row-order bound; the budget must count all of them.
    target = mix([(Fraction(1, 3), base_dist(U_ODD, 9)), (Fraction(2, 3), base_dist(U_EVEN, 9))])
    monkeypatch.setattr(constructions, "_NODE_BUDGET", 10_000)
    with pytest.raises(SearchExceeded):
        generic_implement(target, 27, 3)


def test_prop7_full_width_needs_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("build_prop7_B searched")

    monkeypatch.setattr(constructions, "generic_implement", no_search)
    for m in range(1, 42, 2):
        for K in (3, 5, 7, 9):
            # The builder checks the matrix against its exact target itself.
            matrix = build_prop7_B(m, K, K * m)
            assert (matrix.row_count, matrix.battlefields) == (m * (m + 1), K)


def test_matrix_json_round_trip():
    matrix = build_prop3_B(2, 3, 4)
    blob = matrix_to_json(matrix)
    assert blob["budget"] == 4
    assert blob["battlefields"] == 3
    assert matrix_from_json(blob).rows == matrix.rows
