"""Classification, closed-form values, equilibrium assembly, and payoffs."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from blottokit import blotto, cli, constructions
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
    sweep_certify,
    symmetrize,
)
from blottokit.constructions import (
    P1,
    P2,
    PartitionMatrix,
    build_EO,
    build_prop5_A,
    cardinality,
    E,
    matrix_to_json,
    prop5_point,
)
from blottokit.distributions import (
    U_EVEN,
    U_ODD,
    U_ODD_UP,
    base_dist,
    gain_table,
    mix,
    normalized,
    point_mass,
    upper_hull,
)
from blottokit.errors import (
    BadAlpha,
    BadWeights,
    CertificationFailed,
    DimensionMismatch,
    ExcludedCase,
    OutOfTheoremScope,
    TooLarge,
    UnsolvedCase,
)
from blottokit.general_lotto import LottoSpec, lotto_value
from blottokit.verify import Certificate, SweepRow, certify, rows_to_csv
from test_acceptance import feasible_builds


def rows_multiset(matrix: PartitionMatrix) -> Counter:
    return Counter(tuple(row) for row in matrix.rows)


def arrangements(high: int, low: int, count: int, K: int) -> PartitionMatrix:
    """Every row with `high` on `count` of the K battlefields and `low` elsewhere."""
    rows = tuple(
        tuple(high if i in chosen else low for i in range(K))
        for chosen in itertools.combinations(range(K), count)
    )
    return PartitionMatrix(sum(rows[0]), K, rows)


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


@pytest.mark.parametrize(
    "args",
    [
        (7, 2.0, 3),
        (7.0, 2, 3),
        (7, 2, 3.0),
        (7, True, 3),
        (True, False, 2),
        (7, 2, True),
        (Fraction(7), 2, 3),
        ("7", 2, 3),
        (7, None, 3),
    ],
)
def test_game_spec_rejects_non_int_values(args):
    with pytest.raises(OutOfTheoremScope, match="must be an int"):
        GameSpec(*args)


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


def test_classify_excludes_exactly_the_instances_prop5_cannot_build():
    # Over 2 <= K <= 8, K < A <= 40: the builder takes the point that the
    # rule names and refuses the other, and `classify` excludes exactly the
    # odd-B HIGH_B_NDIV instances whose Prop. 5 plan raises ExcludedCase.
    refused, excluded = [], []
    for K in range(2, 9):
        for A in range(K + 1, 41):
            m, r = divmod(A, K)
            excluded += [
                (A, B, K)
                for B in range(1, A)
                if classify(GameSpec(A, B, K)) is GameCase.UNSOLVED_EXCLUDED
            ]
            if r == 0:
                continue
            point = prop5_point(K, r)
            assert point == (P1 if 2 * r <= K else P2)
            with pytest.raises(BadAlpha):
                build_prop5_A(m, K, A, P2 if point == P1 else P1)
            try:
                build_prop5_A(m, K, A, point)
            except ExcludedCase:
                refused += [(A, B, K) for B in range(2 * m + 1, K * m + 1, 2)]
    assert excluded == refused
    assert excluded == [(7, 5, 3), (13, 9, 3), (13, 11, 3), (19, 13, 3), (19, 15, 3), (19, 17, 3)]


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
    # Over K <= 8, A <= 40, A <= K included (m = 0, where the fractional
    # value formula would divide by zero), an unsolved instance raises
    # UnsolvedCase with its case and budgets before any value arithmetic.
    unsolved = narrow = 0
    for K in range(2, 9):
        for A in range(2, 41):
            for B in range(1, A):
                spec = GameSpec(A, B, K)
                case = classify(spec)
                if is_solved(case):
                    continue
                unsolved += 1
                narrow += A <= K
                want = f"{case.value}: no exact value is known for (A={A}, B={B}, K={K})"
                for call in (solve, blotto_value):
                    with pytest.raises(UnsolvedCase) as info:
                        call(spec)
                    assert type(info.value) is UnsolvedCase
                    assert str(info.value) == want
    assert narrow > 0 and unsolved > narrow


def test_nine_three_three_is_worth_three_quarters():
    # The README's pair at (9, 3, 3), where B = m = 3 and K - R = 3: A mixes
    # (3,3,3) once and (4,4,1) three times, B (3,0,0) three times and
    # (2,1,0) once.  Both sides secure 3/4, so the equal-budget constant
    # (K^2 - K + R)/K^2 = 2/3 fails there and `classify` leaves it unsolved.
    spec = GameSpec(9, 3, 3)
    assert classify(spec) is GameCase.UNSOLVED_INTERMEDIATE
    attack = PartitionMatrix(9, 3, ((3, 3, 3),) + ((4, 4, 1),) * 3)
    defense = PartitionMatrix(3, 3, ((3, 0, 0),) * 3 + ((2, 1, 0),))
    cert = certify(attack, defense, 9, 3, 3)
    assert cert == Certificate(Fraction(3, 4), Fraction(3, 4), True, "bound")
    equal_budget = Fraction(3 * 3 - 3 + spec.R, 3 * 3)
    assert equal_budget == Fraction(2, 3) and cert.secured_by_A != equal_budget


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
    assert report.strategy_A.rows == ((3, 2, 2),)
    assert report.strategy_B.rows == ((2, 0, 0),)
    assert report.strategy_A.to_dist() == arrangements(3, 2, 1, 3).to_dist()
    assert report.strategy_B.to_dist() == arrangements(2, 0, 1, 3).to_dist()
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
    assert report.strategy_A.rows == ((3, 3, 2),)
    assert report.strategy_A.to_dist() == arrangements(3, 2, 2, 3).to_dist()
    assert report.strategy_B.rows == ((1, 0, 0),)


def test_low_b_solves_with_one_row_per_side():
    # All C(K, R) arrangements of A's row would be 184,756 rows at (70, 1, 20)
    # and C(40, 20) rows at (100, 2, 40).
    for (A, B, K), case, value, proof in (
        ((70, 1, 20), GameCase.LOW_B_TRIVIAL, Fraction(1), "bound"),
        ((100, 2, 40), GameCase.LOW_B_EQUAL, Fraction(40 * 40 - 40 + 20, 40 * 40), "bound"),
    ):
        m, R = divmod(A, K)
        report = solve(GameSpec(A, B, K))
        assert report.case is case
        assert report.strategy_A.rows == ((m + 1,) * R + (m,) * (K - R),)
        assert report.strategy_B.rows == ((B,) + (0,) * (K - 1),)
        assert report.value == value
        assert report.certificate == Certificate(value, value, True, proof)


def test_low_b_rows_play_as_all_their_arrangements():
    """Over the sweep grid, each one-row LOW_B side has the entry distribution
    and the certificate of the matrix of all its arrangements."""
    checked = 0
    for K in range(2, 7):
        for A in range(K + 1, 31):
            for B in range(1, A):
                spec = GameSpec(A, B, K)
                if classify(spec) not in (GameCase.LOW_B_TRIVIAL, GameCase.LOW_B_EQUAL):
                    continue
                report = solve(spec)
                every_a = arrangements(spec.m + 1, spec.m, spec.R, K)
                every_b = arrangements(B, 0, 1, K)
                assert report.strategy_A.row_count == report.strategy_B.row_count == 1
                assert report.strategy_A.to_dist() == every_a.to_dist()
                assert report.strategy_B.to_dist() == every_b.to_dist()
                assert certify(every_a, every_b, A, B, K) == report.certificate
                checked += 1
    assert checked == 579


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


def scope_table(rows: list[SweepRow]) -> list[str]:
    """README's per-case table of `rows`: instances and certified solves."""
    instances = Counter(row.case for row in rows)
    certified = Counter(row.case for row in rows if row.certified)
    lines = ["| Case | Instances | Certified |", "| --- | ---: | ---: |"]
    for case in GameCase:
        done = f"{certified[case.value]:,}" if is_solved(case) else "—"
        lines.append(f"| `{case.value}` | {instances[case.value]:,} | {done} |")
    lines.append(f"| All | {len(rows):,} | {sum(certified.values()):,} |")
    return lines


def test_readme_scope_table_is_the_generated_one():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Case | Instances | Certified |")
    end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
    expected = scope_table(sweep_certify(8, 40))
    assert lines[start:end] == expected, "\n".join(expected)


def test_solve_json_bytes_are_pinned():
    """Every solved instance with K <= 6, A <= 30 (the sweep grid), byte for byte."""
    digest = hashlib.sha256()
    solved = 0
    for K in range(2, 7):
        for A in range(K + 1, 31):
            for B in range(1, A):
                spec = GameSpec(A, B, K)
                if is_solved(classify(spec)):
                    blob = json.dumps(report_to_json(solve(spec)), sort_keys=True)
                    digest.update((blob + "\n").encode())
                    solved += 1
    assert solved == 1504
    assert (
        digest.hexdigest()
        == "c5cf6282328cd114bf9586bf63c65748efac8065e0c7f4cce72fd9df3196084a"
    )


def test_builder_matrix_bytes_are_pinned():
    """Every criterion-3 build over m <= 8, K <= 7, the S5 core at m = 8 included."""
    digest = hashlib.sha256()
    built = 0
    for m in range(1, 9):
        for K in range(2, 8):
            for _, matrix, _, _ in feasible_builds(m, K):
                blob = json.dumps(matrix_to_json(matrix), sort_keys=True)
                digest.update((blob + "\n").encode())
                built += 1
    assert built == 1221
    assert (
        digest.hexdigest()
        == "a94a43178c3640b11075d7058e859dfb25199df842e628201d75edc6e6d1c8e9"
    )


def test_large_m_builder_matrix_bytes_are_pinned():
    """Every criterion-3 build at m in {16, 17}, K in {3, 5, 9}: large enough
    that T-I's two-row split parts, T-VII and S5's R-V/R-VI blocks all fire."""
    digest = hashlib.sha256()
    built = 0
    for m in (16, 17):
        for K in (3, 5, 9):
            for _, matrix, _, _ in feasible_builds(m, K):
                blob = json.dumps(matrix_to_json(matrix), sort_keys=True)
                digest.update((blob + "\n").encode())
                built += 1
    assert built == 606
    assert (
        digest.hexdigest()
        == "5bfdbd977366cab0a16e708e82aab2794f5bb2c84862711a0812b6fe806dd29a"
    )


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


def test_a_tampered_matrix_fails_certification_loudly(monkeypatch, capsys):
    build = blotto.build_prop7_B

    def one_unit_moved(*args):
        # The first row's last entry gives one unit to its middle entry.
        matrix = build(*args)
        first = matrix.rows[0]
        moved = (first[0], first[1] + 1, first[2] - 1) + first[3:]
        return PartitionMatrix(matrix.budget, matrix.battlefields, (moved,) + matrix.rows[1:])

    monkeypatch.setattr(blotto, "build_prop7_B", one_unit_moved)
    message = (
        "(A=22, B=21, K=3) HIGH_B_NDIV_ODD: claimed value 11/252, "
        "certificate secured (11/252, 1/21)"
    )
    with pytest.raises(CertificationFailed) as excinfo:
        solve(GameSpec(22, 21, 3))
    assert str(excinfo.value) == message
    assert cli.main(["solve", "--a", "22", "--b", "21", "--k", "3"]) == 1
    assert capsys.readouterr() == ("", f"CertificationFailed: {message}\n")
    with pytest.raises(CertificationFailed, match=r"^\(A=4, B=3, K=3\) "):
        sweep_certify(3, 22)


def test_sweep_csv_bytes_are_pinned():
    rows = sweep_certify(6, 30)
    assert len(rows) == 2140
    assert (
        hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
        == "a592b8ebac8a93efa4a5f044a5a69f887cf076feddec41503050bbace2075434"
    )


def test_sweep_builds_each_plan_once_per_block(monkeypatch):
    """A matrix depends on K, m = A // K and its own budgets, so a (K, m) block builds each once."""
    builds = Counter()
    block = None
    classify_orig = blotto.classify

    def classify_noting_block(spec):
        nonlocal block
        block = (spec.K, spec.A // spec.K)
        return classify_orig(spec)

    def counting(name, builder):
        def build(*args):
            builds[block, name, args] += 1
            return builder(*args)

        return build

    monkeypatch.setattr(blotto, "classify", classify_noting_block)
    for name in (
        "implement_u",
        "build_prop3_B",
        "build_prop4_A",
        "build_prop5_A",
        "build_prop6_B",
        "build_prop7_B",
        "build_prop10_B",
    ):
        monkeypatch.setattr(blotto, name, counting(name, getattr(blotto, name)))
    sweep_certify(6, 30)
    assert max(builds.values()) == 1
    # `solve` on each of the 1,504 solved instances makes 1,850 builder calls.
    assert sum(builds.values()) == 546


def test_sweep_tabulates_each_plan_once_per_block(monkeypatch):
    """Each plan's certifier record is made once per (K, m) block, beside its
    matrix, and still holds a fresh tabulation after every instance used it."""
    records = Counter()
    block = None
    classify_orig = blotto.classify
    tabulate_orig = blotto.tabulate

    def classify_noting_block(spec):
        nonlocal block
        block = (spec.K, spec.A // spec.K)
        return classify_orig(spec)

    def tabulate_counting(matrix):
        record = tabulate_orig(matrix)
        records[block, record.matrix] += 1
        return record

    def certify_noting_record(strategy_A, strategy_B, A, B, K):
        # Every instance of a block that plays a matrix gets the same record.
        for side in (strategy_A, strategy_B):
            assert shared.setdefault((block, side.matrix), side) is side
        return certify(strategy_A, strategy_B, A, B, K)

    shared = {}
    monkeypatch.setattr(blotto, "classify", classify_noting_block)
    monkeypatch.setattr(blotto, "tabulate", tabulate_counting)
    monkeypatch.setattr(blotto, "certify", certify_noting_record)
    sweep_certify(6, 30)
    # Certifying each instance on its own recounted a matrix 3,008 times for
    # the hull bounds and 898 times more for the fallback DPs.
    assert max(records.values()) == 1
    assert sum(records.values()) == 912
    assert set(shared) == set(records)
    for record in shared.values():
        counts = cardinality(record.matrix)
        top = max(counts) + 1
        assert record.gain == gain_table(counts, top)
        assert record.hull == upper_hull(gain_table(counts, top), range(top + 1))


def test_shared_tables_change_no_sweep_row_or_certificate(monkeypatch):
    """Every `sweep_certify(5, 20)` row and certificate is the one a fresh
    `solve` of that instance gives."""
    certificates = {}

    def certify_noting(strategy_A, strategy_B, A, B, K):
        cert = certificates[A, B, K] = certify(strategy_A, strategy_B, A, B, K)
        return cert

    monkeypatch.setattr(blotto, "certify", certify_noting)
    rows = sweep_certify(5, 20)
    monkeypatch.undo()
    solved = 0
    for row in rows:
        spec = GameSpec(row.A, row.B, row.K)
        case = classify(spec)
        if not is_solved(case):
            assert row == SweepRow(row.K, row.A, row.B, case.value, None, None, None, None)
            continue
        report = solve(spec)
        cert = report.certificate
        assert row == SweepRow(
            row.K, row.A, row.B, case.value, report.value,
            cert.secured_by_A, cert.secured_by_B, True,
        )
        assert certificates[spec.A, spec.B, spec.K] == cert
        solved += 1
    assert solved == len(certificates) == 513


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
    # Probabilities are ints or Fractions and allocation entries ints; a
    # bool is neither, and a float is never rounded into an exact weight.
    for lottery in ([((2, 2), True)], [((2, 2), 0.5), ((2, 2), 0.5)]):
        with pytest.raises(BadWeights):
            payoff_blotto_exhaustive(lottery, (3, 1))
    # A lottery entry is an (allocation, probability) pair, and allocation
    # entries are never negative.
    for allocation in (
        (1.5, 2.5),
        (True, 3),
        [((2, 2.0), 1)],
        [(2, 2)],
        [((2, 2),)],
        [((2, 2), 1, 0)],
        (-1, 3),
        [((-1, 3), 1)],
    ):
        with pytest.raises(DimensionMismatch):
            payoff_blotto_exhaustive(allocation, (3, 1))
        with pytest.raises(DimensionMismatch):
            payoff_blotto_exhaustive((3, 1), allocation)


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
    for allocation in ((1.5, 2.5), (True, 3), (2, 2.0), (-1, 3)):
        with pytest.raises(DimensionMismatch):
            symmetrize(allocation, 2)


@pytest.mark.parametrize(
    "allocation, battlefields", [((1, 2), 2.0), ((1,), True), ((1, 2), "2"), ((1, 2), 2.5)]
)
def test_symmetrize_rejects_a_width_that_is_not_an_int(allocation, battlefields):
    # Before the length check, which said "allocation has 2 entries for 2
    # battlefields" of "2".
    with pytest.raises(DimensionMismatch, match="battlefields must be an int"):
        symmetrize(allocation, battlefields)


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
