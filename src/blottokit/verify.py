"""Independent equilibrium certification by exact best-response search.

The certifier never trusts the closed forms: it computes, by dynamic
programming over battlefields and remaining budget, the best payoff a pure
reply can extract from each claimed strategy, and certifies an equilibrium
exactly when the two security levels coincide.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .constructions import PartitionMatrix, cardinality
from .distributions import gain_table
from .errors import DimensionMismatch, InfeasibleRange
from .exactmath import Rat, format_rat


@dataclass(frozen=True)
class Certificate:
    """Security levels of a strategy pair, in the stronger player's payoff.

    `secured_by_A` is the floor A's strategy guarantees against any reply;
    `secured_by_B` is the ceiling B's strategy imposes; weak duality gives
    secured_by_A <= secured_by_B, with equality certifying an equilibrium.
    """

    secured_by_A: Rat
    secured_by_B: Rat
    equilibrium: bool


def best_response_value(opponent: PartitionMatrix, budget: int, K: int) -> Rat:
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
    O(K * budget * min(budget, s + 1)) integer steps.
    """
    if opponent.battlefields != K:
        raise DimensionMismatch(
            f"opponent plays on {opponent.battlefields} battlefields, reply on {K}"
        )
    if budget < 0:
        raise InfeasibleRange(f"reply budget must be non-negative, got {budget}")
    if K < 2:
        raise DimensionMismatch(f"the game needs K >= 2 battlefields, got {K}")
    counts = cardinality(opponent)
    cap = min(budget, max(counts) + 1)
    gain = gain_table(counts, cap)
    # best[c - low]: largest scaled gain on the battlefields so far with at
    # most c units.  With r battlefields still to place, only the cells
    # c >= low = budget - r * cap can reach the budget, so the last layer is
    # the single cell c = budget.  With h = min(c, cap), descending[cap - h:]
    # is gain[h], ..., gain[0] and lines up each placement t with cell c - t.
    descending = gain[::-1]
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
    return Fraction(best[-1], opponent.row_count * K * K)


def certify(
    strategy_A: PartitionMatrix,
    strategy_B: PartitionMatrix,
    A: int,
    B: int,
    K: int,
) -> Certificate:
    """Security levels of the claimed pair, from two best-response runs."""
    if strategy_A.budget != A or strategy_A.battlefields != K:
        raise DimensionMismatch(
            f"A-strategy is a {strategy_A.budget}-budget matrix on "
            f"{strategy_A.battlefields} battlefields, expected ({A}, {K})"
        )
    if strategy_B.budget != B or strategy_B.battlefields != K:
        raise DimensionMismatch(
            f"B-strategy is a {strategy_B.budget}-budget matrix on "
            f"{strategy_B.battlefields} battlefields, expected ({B}, {K})"
        )
    secured_by_A = -best_response_value(strategy_A, B, K)
    secured_by_B = best_response_value(strategy_B, A, K)
    return Certificate(secured_by_A, secured_by_B, secured_by_A == secured_by_B)


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
