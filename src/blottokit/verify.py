"""Independent equilibrium certification by exact best-reply bounds.

The certifier never trusts the closed forms.  For each claimed strategy it
bounds the best payoff a pure reply can extract by the upper concave hull
of the reply's per-battlefield gain against the strategy's entry counts
(the General Lotto relaxation of uniform battlefield matching, Hart 2008),
taken over the entries a reply can hold: none exceeds its budget.  When the
two players' bounds meet, weak duality pins both security levels to that
value and certifies an equilibrium.  Otherwise an exact dynamic program
over battlefields and remaining budget computes each player's level; the
pair is an equilibrium exactly when the levels coincide.  The gain table
and its hull depend on the matrix alone, so `tabulate` recounts a matrix
once into an `Opponent` record that serves every reply budget.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .constructions import PartitionMatrix, cardinality
from .distributions import Hull, gain_table, hull_height, upper_hull
from .errors import DimensionMismatch, InfeasibleRange
from .exactmath import Rat, format_rat, is_int


@dataclass(frozen=True)
class Certificate:
    """Security levels of a strategy pair, in the stronger player's payoff.

    `secured_by_A` is the floor A's strategy guarantees against any reply;
    `secured_by_B` is the ceiling B's strategy imposes; weak duality gives
    secured_by_A <= secured_by_B, with equality certifying an equilibrium.
    `proof` is "bound" when the two reply bounds met and "dp" when both
    levels come from the best-response dynamic program.
    """

    secured_by_A: Rat
    secured_by_B: Rat
    equilibrium: bool
    proof: str


@dataclass(frozen=True)
class Opponent:
    """A matrix with the certifier's tables against it.

    `gain` is the gain table of the matrix's own entry counts for t in
    [0, top], top = s + 1 for its largest entry s, and `hull` is the upper
    concave hull of that table, the reply bound of every budget >= top
    (a smaller budget bounds by the hull of the table up to that budget).
    Both depend on the matrix alone, so one record serves every reply
    budget and every instance that plays it.
    """

    matrix: PartitionMatrix
    gain: list[int]
    hull: Hull


def tabulate(matrix: PartitionMatrix) -> Opponent:
    """The certifier's record of `matrix`, from its own recounted entries."""
    counts = cardinality(matrix)
    top = max(counts) + 1
    gain = gain_table(counts, top)
    return Opponent(matrix, gain, upper_hull(gain, range(top + 1)))


def _tabulated(strategy: PartitionMatrix | Opponent) -> Opponent:
    return strategy if isinstance(strategy, Opponent) else tabulate(strategy)


def best_response_value(
    opponent: PartitionMatrix | Opponent, budget: int, K: int
) -> Rat:
    """Best average gain any K-partition of `budget` gets against `opponent`.

    The opponent's rows are mixed uniformly and matched to battlefields
    uniformly at random, so every battlefield independently faces the
    opponent's aggregate per-entry distribution; the reply is then a
    budget-exact maximization of the per-battlefield gain, solved by
    dynamic programming in integer arithmetic on the gain scaled by the
    opponent's L*K entries, with one division at the end.  The gain is
    non-decreasing and flat above the opponent's largest entry s, so
    spending exactly the budget is worth as much as spending at most it,
    and no battlefield needs more than s + 1 units.  Layer j (j = 0 for the
    first battlefield) fills only the cells within (K - 1 - j) * cap of the
    budget, where cap = min(budget, s + 1), and the last layer fills the one
    cell at the budget: the program runs in at most
    O(K * budget * min(budget, s + 1)) integer steps.  A matrix is tabulated
    first; an `Opponent` record brings its table, of which the DP reads the
    entries up to cap.
    """
    opponent = _tabulated(opponent)
    if not is_int(K) or opponent.matrix.battlefields != K:
        raise DimensionMismatch(
            f"opponent plays on {opponent.matrix.battlefields} battlefields, reply on {K!r}"
        )
    if not is_int(budget) or budget < 0:
        raise InfeasibleRange(f"reply budget must be a non-negative int, got {budget!r}")
    if K < 2:
        raise DimensionMismatch(f"the game needs K >= 2 battlefields, got {K}")
    # Each entry depends on t alone, so gain[:cap + 1] is the table up to cap.
    gain = opponent.gain
    cap = min(budget, len(gain) - 1)
    # best[c - low]: largest scaled gain on the battlefields so far with at
    # most c units.  With r battlefields still to place, only the cells
    # c >= low = budget - r * cap can reach the budget, so the last layer is
    # the single cell c = budget.  With h = min(c, cap), descending[cap - h:]
    # is gain[h], ..., gain[0] and lines up each placement t with cell c - t.
    descending = gain[cap::-1]
    low = max(budget - (K - 1) * cap, 0)
    best = [gain[min(c, cap)] for c in range(low, budget + 1)]
    for r in range(K - 2, -1, -1):
        shift, low = low, max(budget - r * cap, 0)
        best = [
            max(
                map(
                    add,
                    descending[max(cap - c, 0) :],
                    best[max(c - cap, 0) - shift : c + 1 - shift],
                )
            )
            for c in range(low, budget + 1)
        ]
    return Fraction(best[-1], opponent.matrix.row_count * K * K)


def _reply_bound(opponent: Opponent, budget: int, K: int) -> tuple[int, int]:
    """An upper bound on `best_response_value(opponent, budget, K)`, as an
    integer pair (num, den) with den > 0.

    No entry of a reply exceeds its budget, and the gain table is flat from
    top = s + 1 on for the opponent's largest entry s, so the reply's K
    entries score sum(gain[t]) over t <= min(budget, top): at most the sum
    of the upper concave hull H of those points of the table (the
    `Opponent`'s own hull when budget >= top), and by Jensen K * H(budget /
    K).  H is non-decreasing and at most gain[budget].  A reply to an odd
    budget has an odd entry t, so the bound is then the best gain[t] + (K -
    1) * H((budget - t) / (K - 1)) over odd t; an odd t past top + 1 gains
    nothing more and leaves the others less.
    """
    gain = opponent.gain
    top = len(gain) - 1
    hull = opponent.hull if budget >= top else upper_hull(gain, range(budget + 1))
    if budget % 2 == 0:
        num, den = hull_height(hull, budget, K)
        num *= K
    else:
        num, den = -1, 0  # below every pair with a positive den
        for t in range(1, min(budget, top + 1) + 1, 2):
            n, d = hull_height(hull, budget - t, K - 1)
            n = n * (K - 1) + gain[min(t, top)] * d
            if n * den > num * d:
                num, den = n, d
    return num, den * opponent.matrix.row_count * K * K


def certify(
    strategy_A: PartitionMatrix | Opponent,
    strategy_B: PartitionMatrix | Opponent,
    A: int,
    B: int,
    K: int,
) -> Certificate:
    """Security levels of the claimed pair.

    Each strategy is a matrix, tabulated here, or its `Opponent` record.
    The reply bounds squeeze secured_by_A from below and secured_by_B from
    above; when they meet, weak duality makes both levels equal to them.
    Otherwise one best-response run per side computes secured_by_A and
    secured_by_B exactly.
    """
    if not (is_int(A) and is_int(B) and is_int(K)):
        raise DimensionMismatch(f"A, B and K must be ints, got ({A!r}, {B!r}, {K!r})")
    side_A, side_B = _tabulated(strategy_A), _tabulated(strategy_B)
    for name, matrix, budget in (("A", side_A.matrix, A), ("B", side_B.matrix, B)):
        if matrix.budget != budget or matrix.battlefields != K:
            raise DimensionMismatch(
                f"{name}-strategy is a {matrix.budget}-budget matrix on "
                f"{matrix.battlefields} battlefields, expected ({budget}, {K})"
            )
    if K < 2:
        raise DimensionMismatch(f"the game needs K >= 2 battlefields, got {K}")
    ceiling_num, ceiling_den = _reply_bound(side_B, A, K)
    floor_num, floor_den = _reply_bound(side_A, B, K)
    if -floor_num * ceiling_den == ceiling_num * floor_den:
        ceiling = Fraction(ceiling_num, ceiling_den)
        return Certificate(ceiling, ceiling, True, "bound")
    secured_by_A = -best_response_value(side_A, B, K)
    secured_by_B = best_response_value(side_B, A, K)
    return Certificate(secured_by_A, secured_by_B, secured_by_A == secured_by_B, "dp")


@dataclass(frozen=True)
class SweepRow:
    """One sweep instance; rational fields are None for unsolved cases."""

    K: int
    A: int
    B: int
    case: str
    value: Rat | None
    secured_A: Rat | None
    secured_B: Rat | None
    certified: bool | None


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as a deterministic CSV table."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["K", "A", "B", "case", "value", "secured_A", "secured_B", "certified"]
    )
    for row in rows:
        writer.writerow(
            [
                row.K,
                row.A,
                row.B,
                row.case,
                format_rat(row.value) if row.value is not None else "",
                format_rat(row.secured_A) if row.secured_A is not None else "",
                format_rat(row.secured_B) if row.secured_B is not None else "",
                "" if row.certified is None else str(row.certified).lower(),
            ]
        )
    return buffer.getvalue()
