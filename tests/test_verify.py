"""Independent certification: best-response DP, certificates, and sweeps."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blottokit import verify
from blottokit.blotto import GameCase, GameSpec, classify, is_solved, solve, sweep_certify
from blottokit.constructions import PartitionMatrix, build_EO, E
from blottokit.distributions import hull_height, payoff_H, point_mass
from blottokit.errors import DimensionMismatch, InfeasibleRange
from blottokit.verify import (
    Certificate,
    SweepRow,
    best_response_value,
    certify,
    rows_to_csv,
)


def random_partition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def random_matrix(rng: random.Random, budget: int, parts: int) -> PartitionMatrix:
    rows = tuple(random_partition(rng, budget, parts) for _ in range(rng.randint(1, 4)))
    return PartitionMatrix(budget, parts, rows)


def test_best_response_against_zero_opponent():
    # Every battlefield granted a single unit is an outright win, so the
    # reply value is the share of battlefields the budget can cover.
    for K in (2, 3, 4):
        zeros = PartitionMatrix(0, K, ((0,) * K,))
        for budget in range(0, 2 * K + 1):
            expected = Fraction(min(budget, K), K)
            got = best_response_value(zeros, budget, K)
            assert got == expected
            assert type(got) is Fraction


def uncapped_reply_value(opponent: PartitionMatrix, budget: int, K: int) -> Fraction:
    """The O(K * budget^2) Fraction DP over budget-exact placements, with no cap."""
    dist = opponent.to_dist()
    gain = [payoff_H(point_mass(t), dist) for t in range(budget + 1)]
    best = list(gain)
    for _ in range(K - 1):
        best = [max(gain[t] + best[c - t] for t in range(c + 1)) for c in range(budget + 1)]
    return best[budget] / K


@st.composite
def opponents_and_budgets(draw):
    K = draw(st.integers(min_value=2, max_value=6))
    total = draw(st.integers(min_value=0, max_value=8))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        cuts = sorted(draw(st.integers(min_value=0, max_value=total)) for _ in range(K - 1))
        bounds = [0, *cuts, total]
        rows.append(tuple(bounds[i + 1] - bounds[i] for i in range(K)))
    opponent = PartitionMatrix(total, K, tuple(rows))
    # Up to four times the largest entry, so that the per-battlefield cap binds.
    largest = max(max(row) for row in rows)
    budget = draw(st.integers(min_value=0, max_value=4 * max(largest, 1)))
    return opponent, budget, K


@given(opponents_and_budgets())
def test_capped_integer_dp_matches_uncapped_fraction_dp(case):
    opponent, budget, K = case
    got = best_response_value(opponent, budget, K)
    assert type(got) is Fraction
    assert got == uncapped_reply_value(opponent, budget, K)
    assert best_response_value(verify.tabulate(opponent), budget, K) == got


@st.composite
def opponents_and_any_budgets(draw):
    """`opponents_and_budgets`, with reply budgets up to (K + 1) * (max + 1)."""
    opponent, _, K = draw(opponents_and_budgets())
    largest = max(max(row) for row in opponent.rows)
    return opponent, draw(st.integers(min_value=0, max_value=(K + 1) * (largest + 1))), K


@given(opponents_and_any_budgets())
@example((PartitionMatrix(4, 3, ((2, 2, 0),)), 0, 3))
@example((PartitionMatrix(4, 3, ((2, 2, 0),)), 7, 3))
@example((PartitionMatrix(4, 3, ((2, 2, 0),)), 8, 3))
@example((PartitionMatrix(4, 3, ((2, 2, 0),)), 13, 3))
@example((PartitionMatrix(6, 6, ((1,) * 6,)), 14, 6))
def test_hull_bound_caps_the_best_response(case):
    # Budget 0, odd and even budgets, and budgets past K * (max + 1), where
    # every battlefield can outbid the opponent's largest entry.
    opponent, budget, K = case
    num, den = verify._reply_bound(verify.tabulate(opponent), budget, K)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) >= best_response_value(opponent, budget, K)


def ordered_partitions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in ordered_partitions(total - first, parts - 1):
            yield (first, *rest)


def enumerated_reply_value(opponent: PartitionMatrix, budget: int, K: int) -> Fraction:
    """Best reply over every ordered K-partition of the budget, each battlefield
    scored against every opponent entry (uniform rows, uniform matching)."""
    entries = [x for row in opponent.rows for x in row]
    gain = [sum((t > x) - (t < x) for x in entries) for t in range(budget + 1)]
    best = max(sum(map(gain.__getitem__, reply)) for reply in ordered_partitions(budget, K))
    return Fraction(best, opponent.row_count * K * K)


def test_trimmed_dp_matches_enumerated_replies():
    # Budgets up to 3K against opponents with entries up to 6 cover the
    # uncapped case (budget <= cap) and the case where even the first layer is
    # trimmed (budget > (K - 1) * cap), on K = 2 up to 6 battlefields.
    rng = random.Random(41)
    covered = {"K = 2": False, "budget <= cap": False, "budget > (K - 1) * cap": False}
    for K in range(2, 7):
        for _ in range(3):
            opponent = random_matrix(rng, rng.randint(0, 6), K)
            largest = max(max(row) for row in opponent.rows)
            for budget in range(3 * K + 1):
                cap = min(budget, largest + 1)
                covered["K = 2"] |= K == 2
                covered["budget <= cap"] |= budget <= cap
                covered["budget > (K - 1) * cap"] |= budget > (K - 1) * cap
                got = best_response_value(opponent, budget, K)
                assert got == enumerated_reply_value(opponent, budget, K), (opponent, budget)
    assert all(covered.values()), covered


def test_best_response_reproduces_game_value():
    report = solve(GameSpec(6, 4, 2))
    assert best_response_value(report.strategy_B, 6, 2) == Fraction(1, 3)
    assert best_response_value(report.strategy_A, 4, 2) == Fraction(-1, 3)


def test_best_response_validation():
    opponent = PartitionMatrix(2, 2, ((1, 1),))
    with pytest.raises(DimensionMismatch):
        best_response_value(opponent, 3, 3)
    with pytest.raises(InfeasibleRange):
        best_response_value(opponent, -1, 2)
    with pytest.raises(DimensionMismatch):
        best_response_value(PartitionMatrix(5, 1, ((5,),)), 3, 1)
    # A float slice bound used to raise a bare TypeError, and True acted as 1.
    for budget in (3.0, True, Fraction(3), "3"):
        with pytest.raises(InfeasibleRange):
            best_response_value(opponent, budget, 2)
    for K in (2.0, True, Fraction(2)):
        with pytest.raises(DimensionMismatch):
            best_response_value(opponent, 1, K)


def test_certify_equilibrium_pairs():
    report = solve(GameSpec(7, 6, 2))
    cert = certify(report.strategy_A, report.strategy_B, 7, 6, 2)
    assert cert == Certificate(Fraction(1, 8), Fraction(1, 8), True, "bound")

    report = solve(GameSpec(7, 2, 3))
    cert = certify(report.strategy_A, report.strategy_B, 7, 2, 3)
    assert cert.secured_by_A == Fraction(7, 9)
    assert cert.secured_by_B == Fraction(7, 9)
    assert cert.equilibrium


def test_hull_first_certificates_match_the_dp_over_the_solved_grid():
    proofs = Counter()
    for K in range(2, 9):
        for A in range(K + 1, 41):
            for B in range(1, A):
                spec = GameSpec(A, B, K)
                case = classify(spec)
                if not is_solved(case):
                    continue
                report = solve(spec)
                cert = report.certificate
                secured_by_A = -best_response_value(report.strategy_A, B, K)
                secured_by_B = best_response_value(report.strategy_B, A, K)
                assert (cert.secured_by_A, cert.secured_by_B, cert.equilibrium) == (
                    secured_by_A,
                    secured_by_B,
                    secured_by_A == secured_by_B,
                ), spec
                kind = "HIGH_B" if case.value.startswith("HIGH_B_") else case.value
                proofs[kind, cert.proof] += 1
    # Every HIGH_B_* and LOW_B_TRIVIAL instance certifies from the bounds.
    assert proofs == {
        ("HIGH_B", "bound"): 2692,
        ("LOW_B_TRIVIAL", "bound"): 1051,
        ("LOW_B_EQUAL", "bound"): 70,
        ("LOW_B_EQUAL", "dp"): 89,
    }


def full_hull_bound(opponent: verify.Opponent, budget: int, K: int) -> Fraction:
    """The General Lotto bound on the opponent's full hull, over every entry
    of the gain table whatever the reply's budget."""
    gain, hull = opponent.gain, opponent.hull
    top = len(gain) - 1
    scale = opponent.matrix.row_count * K * K
    if budget % 2 == 0:
        return K * Fraction(*hull_height(hull, budget, K)) / scale
    return max(
        gain[min(t, top)] + (K - 1) * Fraction(*hull_height(hull, budget - t, K - 1))
        for t in range(1, min(budget, top + 1) + 1, 2)
    ) / scale


def test_reply_bound_lies_between_the_dp_and_both_earlier_bounds_over_the_solved_grid():
    # Each side of every solved instance, K <= 8 and A <= 40: the hull over
    # the entries a reply can hold is never below the DP, nor above the full
    # hull's bound or, when budget < top, the largest-entry bound K *
    # gain[budget].  It is below the full hull's bound on 964 of the 7,804
    # side/budget pairs and below the smaller of the two on 130.
    sides = {}
    for K in range(2, 9):
        for A in range(K + 1, 41):
            for B in range(1, A):
                spec = GameSpec(A, B, K)
                if is_solved(classify(spec)):
                    report = solve(spec)
                    sides[report.strategy_A, B] = sides[report.strategy_B, A] = None
    below_full = below_both = 0
    for matrix, budget in sides:
        opponent = verify.tabulate(matrix)
        K = matrix.battlefields
        bound = Fraction(*verify._reply_bound(opponent, budget, K))
        full = ceiling = full_hull_bound(opponent, budget, K)
        if budget < len(opponent.gain) - 1:
            ceiling = min(full, Fraction(opponent.gain[budget], matrix.row_count * K))
        assert best_response_value(opponent, budget, K) <= bound <= ceiling, (matrix, budget)
        below_full += bound < full
        below_both += bound < ceiling
    assert (len(sides), below_full, below_both) == (7804, 964, 130)


def test_restricted_hull_pins_low_b_trivial_replies():
    # With B < m = A // K, every entry of A's one row is above B's whole
    # budget, so each of B's replies loses every battlefield: the hull of
    # the gain table up to B is flat there and caps the reply at -1 exactly.
    # The full hull is above -1 on 371 of these 486 instances.
    seen = above = 0
    for K in range(2, 7):
        for A in range(2 * K, 31):
            for B in range(1, A // K):
                spec = GameSpec(A, B, K)
                assert classify(spec) is GameCase.LOW_B_TRIVIAL, spec
                row = verify.tabulate(solve(spec).strategy_A)
                assert row.matrix.row_count == 1
                assert Fraction(*verify._reply_bound(row, B, K)) == -1
                above += full_hull_bound(row, B, K) > -1
                seen += 1
    assert (seen, above) == (486, 371)
    assert solve(GameSpec(6, 2, 2)).certificate.proof == "bound"


def test_certify_runs_both_dps_when_the_bounds_differ(monkeypatch):
    # Meeting bounds certify with no DP; otherwise each side's level comes
    # from its own DP, A's (reply budget B) first.
    budgets = []
    dp = verify.best_response_value

    def counted(opponent, budget, K):
        budgets.append(budget)
        return dp(opponent, budget, K)

    monkeypatch.setattr(verify, "best_response_value", counted)
    report = solve(GameSpec(4, 2, 2))
    assert budgets == []
    assert report.certificate == Certificate(Fraction(1, 2), Fraction(1, 2), True, "bound")
    report = solve(GameSpec(6, 3, 2))
    assert budgets == [3, 6]
    dp_A = dp(report.strategy_A, 3, 2)
    dp_B = dp(report.strategy_B, 6, 2)
    assert report.certificate == Certificate(-dp_A, dp_B, -dp_A == dp_B, "dp")


def test_sweep_runs_106_dps_over_the_tier_one_grid(monkeypatch):
    # Of sweep_certify(6, 30)'s 1,504 solved rows, 53 fall back to the DP,
    # two runs each.
    calls = []
    dp = verify.best_response_value
    monkeypatch.setattr(
        verify, "best_response_value", lambda *args: calls.append(args) or dp(*args)
    )
    rows = sweep_certify(6, 30)
    assert (sum(row.certified is not None for row in rows), len(calls)) == (1504, 106)


def test_certify_falls_back_to_the_dp_when_the_bounds_differ():
    # One unit moved from the largest to the smallest entry of one B row
    # breaks the equilibrium; the hull bound on A's reply (797/3360) is then
    # above the DP's exact 113/480 = 791/3360, so the DP must decide.
    A, B, K = 21, 16, 4
    report = solve(GameSpec(A, B, K))
    rows = list(report.strategy_B.rows)
    assert rows[0] == (2, 4, 0, 10)
    rows[0] = (2, 4, 1, 9)
    moved = PartitionMatrix(B, K, tuple(rows))
    assert Fraction(*verify._reply_bound(verify.tabulate(moved), A, K)) == Fraction(797, 3360)
    cert = certify(report.strategy_A, moved, A, B, K)
    assert cert == Certificate(
        -best_response_value(report.strategy_A, B, K),
        best_response_value(moved, A, K),
        False,
        "dp",
    )
    assert (cert.secured_by_A, cert.secured_by_B) == (Fraction(7, 30), Fraction(113, 480))


def test_certify_rejects_concentrated_attack():
    # Piling the whole budget on one battlefield leaves the rest undefended;
    # the weak side's inherited half-win/half-loss reply drags the floor to 0.
    stacked = PartitionMatrix(7, 2, ((7, 0),))
    cert = certify(stacked, build_EO(E, 3), 7, 6, 2)
    assert cert.secured_by_A == 0
    assert cert.secured_by_B == Fraction(1, 8)
    assert not cert.equilibrium


def test_certify_dimension_checks():
    good = solve(GameSpec(7, 6, 2))
    with pytest.raises(DimensionMismatch):
        certify(good.strategy_A, good.strategy_B, 8, 6, 2)
    with pytest.raises(DimensionMismatch):
        certify(good.strategy_A, good.strategy_B, 7, 5, 2)
    with pytest.raises(DimensionMismatch):
        certify(PartitionMatrix(7, 1, ((7,),)), PartitionMatrix(6, 1, ((6,),)), 7, 6, 1)
    # 4.0 == 4 and True == 1 would pass the budget checks.
    attack = PartitionMatrix(4, 2, ((2, 2),))
    for A, B, K in ((4.0, 2, 2), (4, 2.0, 2), (4, 2, 2.0), (4, True, 2), (Fraction(4), 2, 2)):
        defense = PartitionMatrix(int(B), 2, ((int(B), 0),))
        with pytest.raises(DimensionMismatch, match="must be ints"):
            certify(attack, defense, A, B, K)


def test_weak_duality_on_random_pairs():
    rng = random.Random(29)
    for _ in range(40):
        K = rng.randint(2, 4)
        budget_B = rng.randint(1, 9)
        budget_A = rng.randint(budget_B + 1, budget_B + 9)
        cert = certify(
            random_matrix(rng, budget_A, K),
            random_matrix(rng, budget_B, K),
            budget_A,
            budget_B,
            K,
        )
        assert cert.secured_by_A <= cert.secured_by_B
        assert cert.equilibrium is (cert.secured_by_A == cert.secured_by_B)


def test_sweep_small_grid_fully_certified():
    rows = sweep_certify(2, 8)
    assert [(row.K, row.A, row.B) for row in rows] == [
        (2, A, B) for A in range(3, 9) for B in range(1, A)
    ]
    for row in rows:
        if row.certified is not None:
            assert row.certified
            assert row.secured_A == row.value == row.secured_B


def test_sweep_reports_unsolved_rows_without_certificates():
    rows = sweep_certify(3, 12)
    by_key = {(row.K, row.A, row.B): row for row in rows}
    excluded = by_key[(3, 7, 5)]
    assert excluded.case == "UNSOLVED_EXCLUDED"
    assert excluded.value is None
    assert excluded.secured_A is None
    assert excluded.secured_B is None
    assert excluded.certified is None
    hart = by_key[(3, 8, 7)]
    assert hart.case == "UNSOLVED_HART_REGIME"
    assert hart.certified is None


def test_sweep_rejects_bad_bounds():
    with pytest.raises(InfeasibleRange):
        sweep_certify(1, 8)
    with pytest.raises(InfeasibleRange):
        sweep_certify(2, 2)


@pytest.mark.parametrize("kmax, amax", [(3.0, 6), (3, 6.0), ("3", 6), (4, "6"), (1.5, 6)])
def test_sweep_rejects_bounds_that_are_not_ints(kmax, amax):
    # The type is checked before the range: "3" raised a bare TypeError and
    # 1.5 the range message.
    with pytest.raises(InfeasibleRange, match="needs int kmax and amax"):
        sweep_certify(kmax, amax)


def test_csv_rendering():
    text = rows_to_csv(sweep_certify(2, 4))
    lines = text.splitlines()
    assert lines[0] == "K,A,B,case,value,secured_A,secured_B,certified"
    assert lines[1] == "2,3,1,LOW_B_EQUAL,3/4,3/4,3/4,true"
    assert lines[2] == "2,3,2,HIGH_B_NDIV_EVEN,1/4,1/4,1/4,true"
    empty = rows_to_csv([SweepRow(3, 7, 5, "UNSOLVED_EXCLUDED", None, None, None, None)])
    assert empty.splitlines()[1] == "3,7,5,UNSOLVED_EXCLUDED,,,,"
