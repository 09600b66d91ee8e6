"""Partition-matrix builders, composition operators, and the exhaustive search."""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from hashlib import sha256
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blottokit import constructions, distributions
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
    V,
    Dist,
    base_dist,
    base_vector,
    mean,
    mix,
    normalized,
    point_mass,
    vbar,
    vbar_counts,
    vec_add,
    vec_scale,
)
from blottokit.general_lotto import LottoSpec, lotto_optimal_A, lotto_optimal_B
from blottokit.errors import (
    BadAlpha,
    BadM,
    ConstructionMismatch,
    DimensionMismatch,
    ExcludedCase,
    InfeasibleParity,
    InfeasibleRange,
    MalformedJSON,
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
    for m in range(1, 40, 2):
        shifted = tuple(tuple(x + 1 for x in row) for row in build_EO(RE, m - 1).rows)
        assert build_EO(RO, m).rows == shifted


def test_build_EO_rejects_bad_m():
    with pytest.raises(BadM):
        build_EO(E, 0)
    with pytest.raises(BadM):
        build_EO(RE, 3)
    with pytest.raises(BadM):
        build_EO(RO, 2)


NON_INT_SIZES = [
    (build_EO, (E, 2.0), "m must be an int, got 2.0"),
    (build_EO, (E, True), "m must be an int, got True"),
    (build_prop3_B, (2.0, 3, 4), "m must be an int, got 2.0"),
    (build_prop6_B, (2.0, 3), "m must be an int, got 2.0"),
    (build_prop6_B, (True, 3), "m must be an int, got True"),
    (implement_u, (U_ODD, 1.0, 3, 3), "m must be an int, got 1.0"),
    (build_prop10_B, (2, 3, 5.0), "B must be an int, got 5.0"),
    (build_prop4_A, (2, 3, 7.0), "A must be an int, got 7.0"),
    (build_prop5_A, (2, 3.0, 7, P1), "K must be an int, got 3.0"),
    (build_prop7_B, (2, 3, True), "B must be an int, got True"),
]


@pytest.mark.parametrize(
    "build, args, message",
    NON_INT_SIZES,
    ids=[f"{build.__name__}{args}" for build, args, _ in NON_INT_SIZES],
)
def test_builders_reject_sizes_that_are_not_ints(build, args, message):
    # These raised a bare TypeError, returned a result, or reported the
    # caller's float as a ConstructionMismatch.
    with pytest.raises(DimensionMismatch) as excinfo:
        build(*args)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "build, args",
    [
        (implement_u, (U_ODD, 0, 0, 2)),
        (build_prop3_B, (0, 3, 4)),
        (build_prop4_A, (2, 1, 7)),
        (build_prop5_A, (0, 3, 7, P1)),
        (build_prop6_B, (1, 1)),
        (build_prop7_B, (0, 3, 3)),
        (build_prop10_B, (0, 3, 5)),
    ],
)
def test_builders_keep_their_range_message(build, args):
    with pytest.raises(BadM, match=r"^need m >= 1 and K >= 2, got m=\d+, K=\d+$"):
        build(*args)


def test_cardinality_examples():
    m = PartitionMatrix(4, 2, ((0, 4), (2, 2), (4, 0)))
    assert cardinality(m) == {0: 2, 2: 2, 4: 2}
    assert cardinality(PartitionMatrix(3, 3, ((0, 1, 2),))) == {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize(
    "args",
    [
        (7.0, 3, ((3, 2, 2),)),
        (7, 3.0, ((3, 2, 2),)),
        (True, 1, ((1,),)),
        (2, True, ((2,),)),
        (7, 3, ((3.0, 2, 2),)),
        (7, 3, ((3, 2, 2), (Fraction(3), 2, 2))),
        (7, 3, ((True, 4, 2),)),
    ],
)
def test_partition_matrix_rejects_non_int_fields(args):
    with pytest.raises(DimensionMismatch, match="must be an int|non-integer entry"):
        PartitionMatrix(*args)


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


@st.composite
def equal_height_parts(draw):
    """One to five matrices of one height, each of its own budget and width."""
    height = draw(st.integers(1, 4))
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        width = draw(st.integers(1, 4))
        budget = draw(st.integers(0, 6))
        rows = []
        for _ in range(height):
            cuts = sorted(
                draw(st.lists(st.integers(0, budget), min_size=width - 1, max_size=width - 1))
            )
            rows.append(tuple(b - a for a, b in zip([0, *cuts], [*cuts, budget])))
        parts.append(PartitionMatrix(budget, width, rows))
    return parts


@given(equal_height_parts())
def test_hcat_glues_each_row_of_its_parts(parts):
    glued = hcat(parts)
    assert glued.rows == tuple(
        tuple(chain(*(part.rows[i] for part in parts))) for i in range(parts[0].row_count)
    )
    assert (glued.budget, glued.battlefields) == (
        sum(part.budget for part in parts),
        sum(part.battlefields for part in parts),
    )
    assert glued == PartitionMatrix(glued.budget, glued.battlefields, glued.rows)


def test_hcat_glues_hundreds_of_parts():
    # More parts than hcat streams before it materializes the glued rows.
    parts = [PartitionMatrix(j % 3, 1, ((j % 3,), (j % 3,))) for j in range(200)]
    glued = hcat(parts)
    row = tuple(j % 3 for j in range(200))
    assert glued.rows == (row, row)
    assert (glued.budget, glued.battlefields) == (sum(row), 200)


def test_partition_matrix_stores_rows_as_tuples():
    from_lists = PartitionMatrix(2, 2, [[1, 1], [2, 0]])
    from_tuples = PartitionMatrix(2, 2, ((1, 1), (2, 0)))
    assert from_lists.rows == ((1, 1), (2, 0))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    wide = hcat([from_lists, PartitionMatrix(3, 1, [[3], [3]])])
    assert wide == PartitionMatrix(5, 3, ((1, 1, 3), (2, 0, 3)))
    assert vcat([from_lists, from_tuples]).rows == ((1, 1), (2, 0)) * 2


@pytest.mark.parametrize("rows", [5, (5,), [[1, 1], None]])
def test_partition_matrix_rejects_non_iterable_rows(rows):
    with pytest.raises(DimensionMismatch, match="iterable of rows"):
        PartitionMatrix(2, 2, rows)


@pytest.mark.parametrize(
    "budget, good, bad, message",
    [
        (2, (1, 1), (1, True), "row (1, True) has a non-integer entry"),
        (4, (2, 2), (2.0, 2), "row (2.0, 2) has a non-integer entry"),
        (4, (2, 2), (5, -1), "row (5, -1) has a negative entry"),
        (4, (2, 2), (4,), "row (4,) has 1 entries, expected 2"),
        (4, (2, 2), (3, 2), "row (3, 2) sums to 5, expected budget 4"),
    ],
    ids=["bool-entry", "float-entry", "negative-entry", "wrong-length", "wrong-sum"],
)
@pytest.mark.parametrize("layout", ["bad-row-repeated", "bad-row-after-repeated-good-rows"])
def test_partition_matrix_names_its_first_bad_row(budget, good, bad, message, layout):
    # A row repeated as one object is checked once; a bad one must still be
    # named, and so must a bad row that follows many copies of a good one.
    rows = [bad] * 3 if layout == "bad-row-repeated" else [good] * 5 + [bad]
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        PartitionMatrix(budget, 2, rows)
    # Of two bad rows the first is named, whatever the later one breaks.
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        PartitionMatrix(budget, 2, [good] * 2 + [bad] + [(budget, 0, 0)] * 2)


def test_only_leaves_are_validated(monkeypatch):
    validated = []
    check = PartitionMatrix.__post_init__

    def recording(self):
        validated.append(self.battlefields)
        check(self)

    monkeypatch.setattr(PartitionMatrix, "__post_init__", recording)
    matrix = build_prop7_B(13, 7, 91)
    assert matrix.battlefields == 7
    # The 3-column core and the 2-column grid E(13), never a glued block.
    assert validated and 7 not in validated
    assert set(validated) <= {2, 3}


def test_each_leaf_is_counted_once(monkeypatch):
    scanned = []
    count = constructions.cardinality

    def scanning(matrix):
        scanned.append(matrix.row_count * matrix.battlefields)
        return count(matrix)

    monkeypatch.setattr(constructions, "cardinality", scanning)
    matrix = build_prop7_B(13, 7, 91)
    assert matrix.row_count * matrix.battlefields == 1274
    # The core's 13 * 14 rows of 3, then the 14 rows of 2 of one E(13);
    # counting the glued matrix too would scan 1274 entries more.
    assert sum(scanned) <= 546 + 28


def test_each_grid_is_counted_once_where_it_is_built(monkeypatch):
    scanned = []
    count = constructions.cardinality

    def scanning(matrix):
        scanned.append(matrix.row_count * matrix.battlefields)
        return count(matrix)

    monkeypatch.setattr(constructions, "cardinality", scanning)
    build_prop5_A(13, 7, 92, P1)
    # The staircase R(13) (182 rows of 2), RO(13) (13 rows of 3) and O(13)
    # (13 rows of 2); counting RO(13) again, or an RE(12) to shift into it,
    # would add 39.
    assert sum(scanned) <= 364 + 39 + 26


def test_prop6_validates_and_counts_only_its_two_column_leaves(monkeypatch):
    validated, scanned = [], []
    check = PartitionMatrix.__post_init__
    count = constructions.cardinality

    def recording(self):
        validated.append(self.battlefields)
        check(self)

    def scanning(matrix):
        scanned.append(matrix.battlefields)
        return count(matrix)

    monkeypatch.setattr(PartitionMatrix, "__post_init__", recording)
    monkeypatch.setattr(constructions, "cardinality", scanning)
    matrix = build_prop6_B(5, 4)
    assert matrix.battlefields == 4
    # The (j, 9 - j) core and the 2-column zero block, never the glued matrix.
    assert set(validated) == {2}
    assert scanned == [2]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_prop3_B(4, 6, 18),
        lambda: build_prop5_A(13, 7, 93, P1),
        lambda: build_prop5_A(8, 7, 61, P2),
        lambda: build_prop7_B(13, 7, 91),
    ],
    ids=["prop3", "prop5-P1", "prop5-P2", "prop7"],
)
def test_counts_from_leaves_still_catch_an_extra_grid(monkeypatch, build):
    grids = constructions._grids
    monkeypatch.setattr(
        constructions,
        "_grids",
        lambda kind, m, height, copies: grids(kind, m, height, copies + 1),
    )
    with pytest.raises(ConstructionMismatch):
        build()


@pytest.mark.parametrize(
    "builder, args, leaves",
    [
        (build_prop3_B, (4, 6, 14), ["S(4,2)"]),
        (build_prop3_B, (4, 6, 18), ["T(4,2)", "E(4)"]),
        (build_prop7_B, (4, 6, 15), ["tilde-S(4,3)"]),
        (build_prop7_B, (4, 6, 17), ["tilde-T(4,1)", "E(4)"]),
        (build_prop7_B, (5, 5, 25), ["full-width core(5)", "E(5)"]),
        (build_prop10_B, (4, 6, 15), ["tilde-S(4,2)"]),
        (build_prop10_B, (4, 6, 19), ["tilde-T(4,2)", "E(4)"]),
        (build_prop10_B, (4, 6, 17), ["tilde-T(4,0)", "E(4)"]),
        (build_prop5_A, (7, 7, 51, P1), ["R(7)", "RO(7)"]),
        (build_prop5_A, (7, 7, 52, P1), ["S2(7)", "R(7)"]),
        (build_prop5_A, (8, 7, 57, P1), ["S3(8)", "O(8)"]),
        (build_prop5_A, (4, 7, 31, P1), ["T4(4)", "R(4)"]),
        (build_prop5_A, (8, 7, 59, P1), ["S5(8)", "R(8)"]),
        (build_prop5_A, (7, 7, 54, P2), ["Y3(7)", "R(7)", "O(8)"]),
        (build_prop5_A, (8, 7, 60, P2), ["Y2(8)", "R(8)"]),
    ],
)
def test_each_branch_builds_its_named_leaves(monkeypatch, builder, args, leaves):
    # The labels name the family and, for the S/T cores, the budget mod m
    # (B - 1 mod m for Prop. 10); error messages carry them.
    built = []
    core = constructions._core

    def recording(family, *rest):
        built.append(family)
        return core(family, *rest)

    monkeypatch.setattr(constructions, "_core", recording)
    builder(*args)
    assert built == leaves


@pytest.mark.parametrize(
    "build",
    [lambda: implement_u(U_EVEN, 2, 8, 4), lambda: build_prop3_B(2, 4, 8)],
    ids=["implement_u", "prop3-full-width"],
)
def test_glue_catches_a_dropped_block(monkeypatch, build):
    # Two E(2) grids less one still have the even grid's counts in proportion;
    # only the glued matrix's budget and width show the loss.
    pieces = constructions._uniform_pieces
    monkeypatch.setattr(
        constructions, "_uniform_pieces", lambda kind, m, K: pieces(kind, m, K)[:-1]
    )
    with pytest.raises(ConstructionMismatch, match="expected 8 over 4"):
        build()


def test_glue_names_the_builder_when_heights_differ(monkeypatch):
    grids = constructions._grids
    monkeypatch.setattr(
        constructions,
        "_grids",
        lambda kind, m, height, copies: grids(kind, m, height + 1, copies),
    )
    with pytest.raises(ConstructionMismatch, match="build_prop7_B: hcat needs equal row counts"):
        build_prop7_B(13, 7, 91)


def test_vsigma_is_the_sum_of_the_two_spike_vectors():
    for m in range(1, 30):
        spikes = [base_vector(V, m, j) for j in range(1, m + 1)]
        assert distributions.vbar_counts(m) == vec_add(*spikes), m


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
        constructions._check_target(
            "t", cardinality(matrix), {0: 5 * factor, 2: 2 * factor, 4: 2 * factor}
        )
    # The matrix's counts may be a multiple of the target's, too.
    constructions._check_target("t", cardinality(vcat([matrix] * 3)), {0: 5, 2: 2, 4: 2})


def test_check_target_ignores_zero_counts():
    constructions._check_target("t", cardinality(build_EO(E, 2)), {0: 1, 2: 1, 4: 1, 6: 0})


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
        constructions._check_target("t", cardinality(build_EO(E, 2)), target)


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


@pytest.mark.parametrize(
    "target, budget, battlefields, max_rows, name",
    [
        (point_mass(1), 2, 2.0, 5040, "battlefields"),
        (point_mass(1), 2, 2, 10.0, "max_rows"),
        (base_dist(U_ODD, 1), 2, True, 5040, "battlefields"),
        (base_dist(U_ODD, 2), 6.0, 3, 5040, "budget"),
        # Before the range check: "2" raised a bare TypeError, 0.5 the range message.
        (point_mass(1), 2, "2", 5040, "battlefields"),
        (point_mass(1), 2, 0.5, 5040, "battlefields"),
    ],
)
def test_generic_implement_rejects_a_size_that_is_not_an_int(
    target, budget, battlefields, max_rows, name
):
    with pytest.raises(DimensionMismatch, match=f"{name} must be an int"):
        generic_implement(target, budget, battlefields, max_rows=max_rows)


def test_generic_implement_respects_parity_law():
    # Odd grid with even budget over even battlefields is feasible; the
    # mismatched-parity variant admits no matrix and returns None.
    assert generic_implement(base_dist(U_ODD, 2), 4, 2) is not None
    assert generic_implement(base_dist(U_ODD, 2), 6, 3) is None


def test_generic_implement_says_no_before_searching_when_the_support_tops_the_budget(
    monkeypatch,
):
    def no_search(*args):
        raise AssertionError("generic_implement searched")

    monkeypatch.setattr(constructions, "_attempt", no_search)
    target = Dist.from_weights({0: Fraction(3, 4), 4: Fraction(1, 4)})
    assert generic_implement(target, 2, 2) is None


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


def _prop7_full_width_target() -> Dist:
    return mix([(Fraction(1, 3), base_dist(U_ODD, 9)), (Fraction(2, 3), base_dist(U_EVEN, 9))])


def test_search_rows_are_pinned():
    # The rows and their order come from the search order alone.
    found = generic_implement(_prop7_full_width_target(), 27, 3)
    assert found.row_count == 45
    assert (
        sha256(repr(found.rows).encode()).hexdigest()
        == "6fede09343fa74d66d53b3e287ae677420022ca40b365aa85e8f3e8591f4cdb5"
    )


def test_node_budget_boundary_is_exact(monkeypatch):
    # The (9, 3, 27) search draws exactly 17,614 completions.
    target = _prop7_full_width_target()
    monkeypatch.setattr(constructions, "_NODE_BUDGET", 17_614)
    assert generic_implement(target, 27, 3).row_count == 45
    monkeypatch.setattr(constructions, "_NODE_BUDGET", 17_613)
    with pytest.raises(SearchExceeded):
        generic_implement(target, 27, 3)


def test_deep_search_leaves_recursion_limit_alone(monkeypatch):
    def no_setter(limit):
        raise AssertionError(f"search set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", no_setter)
    # 2,519 rows, one per search level: 2.5 times the default recursion limit.
    target = normalized({0: 1259, 1: 1, 2: 1259})
    found = generic_implement(target, 2, 2)
    assert found.row_count == 2519
    assert found.to_dist() == target


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


@pytest.mark.parametrize(
    "blob",
    [
        {"budget": 3.0, "battlefields": 2, "rows": [[1, 2]]},
        {"budget": 3, "battlefields": True, "rows": [[3]]},
        {"budget": 3, "battlefields": "2", "rows": [[1, 2]]},
        {"budget": 3, "battlefields": 2, "rows": [[1.5, 1.5]]},
        {"budget": 3, "battlefields": 2, "rows": [[2.9, 1]]},
        {"budget": 1, "battlefields": 2, "rows": [[True, 0]]},
        {"budget": 1, "battlefields": 2, "rows": [["0", 1]]},
        {"budget": 1, "battlefields": 2, "rows": ["01"]},
    ],
    ids=[
        "float-budget",
        "bool-width",
        "string-width",
        "float-entries",
        "truncatable-float",
        "bool-entry",
        "numeric-string-entry",
        "string-row",
    ],
)
def test_matrix_from_json_accepts_only_integers(blob):
    with pytest.raises(MalformedJSON):
        matrix_from_json(blob)


def test_counts_functions_are_the_lotto_closed_forms():
    # Each proposition's counts, normalized, are the mean-budget game's
    # optimal strategy at a = A/K, b = B/K; Props. 5, 7 and 10 are the games
    # with odd-mass floor 1/K.  The defender's side depends on A only through
    # m and whether 2r < K, so r = 1 and r = K - 1 stand for every r.
    checked = 0
    for m in range(1, 9):
        for K in range(2, 8):
            for r in range(1, K):
                A = K * m + r
                spec = LottoSpec(Fraction(A, K), m)
                floored = LottoSpec(Fraction(A, K), m, Fraction(1, K))
                assert normalized(constructions._prop4_counts(m, K, A)) == (
                    lotto_optimal_A(spec)
                ), (m, K, A)
                assert normalized(constructions._prop5_counts(m, K, A)) == (
                    lotto_optimal_A(floored)
                ), (m, K, A)
                checked += 2
                if r not in (1, K - 1):
                    continue
                odd = constructions._prop7_counts if 2 * r < K else (
                    constructions._prop10_counts
                )
                for B in range(2 * m, K * m + 1):
                    spec = LottoSpec(Fraction(A, K), Fraction(B, K))
                    floored = LottoSpec(Fraction(A, K), Fraction(B, K), Fraction(1, K))
                    assert normalized(constructions._prop3_counts(m, K, B)) == (
                        lotto_optimal_B(spec)
                    ), (m, K, B)
                    assert normalized(odd(m, K, B)) == lotto_optimal_B(floored), (
                        m, K, A, B,
                    )
                    checked += 2
    assert checked == 2672


def _composed_counts(prop: int, m: int, K: int, budget: int) -> dict[int, int]:
    """Each proposition's counts as its sum of scaled base vectors: the
    reference that `_propN_counts`' direct formulas must equal exactly."""
    if prop in (3, 7, 10):
        base = budget - 1 if prop == 10 else budget
        spike = (K * m - base) * (m + 1)
        delta = {0: spike} if spike else {}
        even = vec_scale(base if prop == 3 else base - m, base_vector(U_EVEN, m))
        if prop == 3:
            return vec_add(delta, even)
        if prop == 7:
            return vec_add(delta, vec_scale(m + 1, base_vector(U_ODD, m)), even)
        return vec_add(delta, vec_scale(m, base_vector(U_ODD, m + 1)), even)
    if prop == 6:
        counts = vec_add({0: K * m - 2 * m + 1}, base_vector(U_ODD, m))
        return vec_add(counts, base_vector(U_ODD_UP, m)) if m > 1 else counts
    r = budget - K * m
    if prop == 4:
        return vec_add(
            vec_scale((K - r) * (m + 1), base_vector(U_ODD, m)),
            vec_scale(r * m, base_vector(U_ODD, m + 1)),
        )
    if 2 * r <= K:
        return vec_add(
            vec_scale(r, vbar_counts(m)),
            vec_scale(K * (m + 1) - r * (2 * m + 1), base_vector(U_ODD, m)),
        )
    return vec_add(
        vec_scale(K - r, vec_add(vbar_counts(m), base_vector(U_ODD, m))),
        vec_scale((2 * r - K) * m, base_vector(U_ODD, m + 1)),
    )


def test_counts_formulas_equal_the_base_vector_compositions():
    # Exact counts, not only their normalized distributions: a core is
    # checked against these maps entry for entry.  The budgets are those
    # each proposition's builder accepts (Prop. 5's at both points).
    checked = 0
    for m in range(1, 13):
        for K in range(2, 11):
            budgets = {
                3: range(2 * m, K * m + 1, 2),
                4: [K * m + r for r in range(1, K) if (K * m + r - K) % 2 == 0],
                5: range(K * m + 1, K * m + K),
                7: range(2 * m + 1, K * m + 1, 2),
                10: range(2 * m + 1, K * m + 1, 2),
            }
            for prop, each in budgets.items():
                counts = getattr(constructions, f"_prop{prop}_counts")
                for budget in each:
                    assert counts(m, K, budget) == _composed_counts(prop, m, K, budget), (
                        prop, m, K, budget,
                    )
                    checked += 1
            assert constructions._prop6_counts(m, K) == _composed_counts(6, m, K, 0), (m, K)
            checked += 1
    assert checked == 5220


@pytest.mark.parametrize(
    "rows",
    [((1, 2, 0), (4, -1, 0)), ((1, 2, 0), (1, 1, 0))],
    ids=["negative-entry", "wrong-sum"],
)
def test_bad_core_row_raises_construction_mismatch(rows):
    with pytest.raises(ConstructionMismatch, match=r"^tilde-T\(2,1\): row "):
        constructions._core("tilde-T(2,1)", 3, 3, rows, {})


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("fault", ["missing-row", "duplicated-row"])
def test_core_row_count_is_fixed_by_its_counts(m, fault):
    # R2 serves even m only.  With no row count passed in, exact equality
    # with the proposition's counts at the core's width and budget is what
    # rejects a wrong height.
    rows = list(constructions._family_rows(constructions._r2_blocks(m)))
    counts = constructions._prop4_counts(m, 3, 3 * m + 1)
    core, _ = constructions._core(f"R2({m})", 3 * m + 1, 3, rows, counts)
    assert core.row_count == m * (m + 1)
    bad = rows[1:] if fault == "missing-row" else rows + rows[:1]
    with pytest.raises(ConstructionMismatch, match=rf"^R2\({m}\): cardinality "):
        constructions._core(f"R2({m})", 3 * m + 1, 3, bad, counts)


def test_negative_repeat_count_raises_construction_mismatch():
    blocks = [
        constructions._Block(
            "T-II",
            (constructions._Part(0, (1, 2), 1), constructions._Part(1, (3, 0), -1)),
            tag=2,
        )
    ]
    with pytest.raises(ConstructionMismatch, match="T-II,2: negative repeat count -1"):
        list(constructions._family_rows(blocks))
    with pytest.raises(ConstructionMismatch, match="negative repeat count"):
        list(constructions._family_rows(blocks, 1, lambda *_: (0, 0, 0)))


def test_family_rows_moves_the_chosen_entry_of_every_row():
    blocks = [
        constructions._Block(
            "X", (constructions._Part(0, (4, 4), 2), constructions._Part(1, (6, 2), 1))
        ),
        constructions._Block("Y", (constructions._Part(0, (2, 6), 3),)),
        constructions._Block("Z", (constructions._Part(0, (5, 5), 2),)),
    ]
    # X,0 splits inside the part, X,1 and Z,0 have split >= reps (every row
    # takes `first`), Y,0 has split 0 (every row takes `rest`).
    rules = {
        ("X", 0): (1, 0, 1),
        ("X", 1): (1, 1, 0),
        ("Y", 0): (0, 0, 1),
        ("Z", 0): (5, 1, 0),
    }
    asked = []

    def moves(block, part):
        asked.append((block.name, part.index))
        return rules[block.name, part.index]

    rows = constructions._family_rows(blocks, -1, moves)
    assert rows == [(3, 4), (4, 3), (6, 1), (2, 5), (2, 5), (2, 5), (5, 4), (5, 4)]
    # One question per part, none per row.
    assert asked == [("X", 0), ("X", 1), ("Y", 0), ("Z", 0)]
    unmoved = [(4, 4), (4, 4), (6, 2), (2, 6), (2, 6), (2, 6), (5, 5), (5, 5)]
    assert constructions._family_rows(blocks) == unmoved


def test_t1_reps_closed_form_matches_the_four_branch_table():
    def table(m, r, i):
        low, high = r // 2 - 2, m - r + 3
        branches = []
        if i <= low - 1 and i <= high - 1:
            branches.append(m - r + i + 4)
        if high <= i <= low - 1:
            branches.append(2 * m - 2 * r + 6)
        if low <= i <= high - 1:
            branches.append(m - r // 2 + 2)
        if i >= low and i >= high:
            branches.append(2 * m - 3 * (r // 2) - i + 4)
        assert len(branches) == 1, (m, r, i)
        return branches[0]

    checked = 0
    for m in range(2, 80):
        for r in range(2, m + 1, 2):
            for i in range(m - r // 2 + 1):
                assert constructions._t1_reps(m, r, i) == table(m, r, i), (m, r, i)
                checked += 1
    assert checked == 63180
