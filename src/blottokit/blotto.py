"""Classification, exact values, and certified equilibria of the allocation game.

A game instance is a pair of integer budgets A > B >= 1 spread over K >= 2
battlefields; each battlefield scores sign(allocation difference) and the
payoff to the stronger player is the per-battlefield average.  This module
classifies every instance into its solved or open regime, evaluates the
exact value where one is known, and assembles an equilibrium as a pair of
partition matrices (uniform row-mixtures, matched to battlefields uniformly
at random).  Every report embeds an independent best-response certificate,
and `solve` fails loudly rather than return an uncertified strategy pair.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Sequence

from .constructions import (
    P1,
    P2,
    PartitionMatrix,
    build_prop3_B,
    build_prop4_A,
    build_prop5_A,
    build_prop6_B,
    build_prop7_B,
    build_prop10_B,
    implement_u,
    matrix_to_json,
)
from .distributions import U_ODD, payoff_H
from .errors import (
    BadWeights,
    CertificationFailed,
    DimensionMismatch,
    InfeasibleRange,
    OutOfTheoremScope,
    TooLarge,
    UnsolvedCase,
)
from .exactmath import Rat, format_rat
from .verify import Certificate, SweepRow, certify

# `solve` neither searches nor builds target distributions.  These four names
# and `fallback_events` stay only because the benchmark harness looks them up
# in this module; they go once it stops doing so.
from .constructions import generic_implement
from .distributions import mix
from .general_lotto import lotto_optimal_A, lotto_optimal_B

fallback_events = ()

_EXCLUDED_A_FOR_K3 = frozenset({7, 13, 19})


class GameCase(str, enum.Enum):
    """Regime tags; UNSOLVED_* instances have no known value or strategy."""

    LOW_B_TRIVIAL = "LOW_B_TRIVIAL"
    LOW_B_EQUAL = "LOW_B_EQUAL"
    HIGH_B_NDIV_EVEN = "HIGH_B_NDIV_EVEN"
    HIGH_B_DIV = "HIGH_B_DIV"
    HIGH_B_NDIV_ODD = "HIGH_B_NDIV_ODD"
    UNSOLVED_INTERMEDIATE = "UNSOLVED_INTERMEDIATE"
    UNSOLVED_EXCLUDED = "UNSOLVED_EXCLUDED"
    UNSOLVED_HART_REGIME = "UNSOLVED_HART_REGIME"


_SOLVED_CASES = frozenset(
    {
        GameCase.LOW_B_TRIVIAL,
        GameCase.LOW_B_EQUAL,
        GameCase.HIGH_B_NDIV_EVEN,
        GameCase.HIGH_B_DIV,
        GameCase.HIGH_B_NDIV_ODD,
    }
)


@dataclass(frozen=True)
class GameSpec:
    """Integer budgets A > B >= 1 over K >= 2 battlefields."""

    A: int
    B: int
    K: int

    def __post_init__(self) -> None:
        if not self.A > self.B >= 1:
            raise OutOfTheoremScope(
                f"the asymmetric game needs A > B >= 1, got A={self.A}, B={self.B}"
            )
        if self.K < 2:
            raise OutOfTheoremScope(f"the game needs K >= 2 battlefields, got {self.K}")

    @property
    def m(self) -> int:
        return self.A // self.K

    @property
    def R(self) -> int:
        return self.A % self.K

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.R, self.K)


@dataclass(frozen=True)
class EquilibriumReport:
    """A certified equilibrium: strategies, exact value, security levels."""

    strategy_A: PartitionMatrix
    strategy_B: PartitionMatrix
    value: Rat
    certificate: Certificate
    case: GameCase


def classify(spec: GameSpec) -> GameCase:
    """Total dispatch of an instance into its solved or open regime."""
    A, B, K = spec.A, spec.B, spec.K
    m, R = spec.m, spec.R
    if B < m:
        return GameCase.LOW_B_TRIVIAL
    if B == m:
        # The one-battlefield concentration defence holds the stronger
        # player to (K^2 - K + R)/K^2 only while the surplus cannot fund
        # two upgrades from one sacrifice, i.e. while m <= 2 or K - R <= 2.
        # Beyond that the weaker side has no known optimal strategy: at
        # (A=9, B=3, K=3) the true value is 3/4, not 2/3.
        if m <= 2 or K - R <= 2:
            return GameCase.LOW_B_EQUAL
        return GameCase.UNSOLVED_INTERMEDIATE
    if R == 0:
        if (A - K) % 2 == 0:
            if B >= 2 * m - 2:
                return GameCase.HIGH_B_DIV
            return GameCase.UNSOLVED_INTERMEDIATE
        return GameCase.UNSOLVED_HART_REGIME
    if B > K * m:
        return GameCase.UNSOLVED_HART_REGIME
    if B % 2 == 0:
        if B >= 2 * m:
            return GameCase.HIGH_B_NDIV_EVEN
        return GameCase.UNSOLVED_INTERMEDIATE
    if B > 2 * m:
        if K == 3 and A in _EXCLUDED_A_FOR_K3:
            return GameCase.UNSOLVED_EXCLUDED
        return GameCase.HIGH_B_NDIV_ODD
    return GameCase.UNSOLVED_INTERMEDIATE


def is_solved(case: GameCase) -> bool:
    """Whether the regime has a known value and equilibrium construction."""
    return case in _SOLVED_CASES


def blotto_value(spec: GameSpec) -> Rat:
    """Exact value of a solved instance for the stronger player."""
    return _closed_form_value(spec, classify(spec))


def _closed_form_value(spec: GameSpec, case: GameCase) -> Rat:
    """The value formula of the regime `case` that `classify` gave `spec`."""
    A, B, K = spec.A, spec.B, spec.K
    m, R = spec.m, spec.R
    if case is GameCase.LOW_B_TRIVIAL:
        return Fraction(1)
    if case is GameCase.LOW_B_EQUAL:
        return Fraction(K * K - K + R, K * K)
    if case is GameCase.HIGH_B_DIV:
        return Fraction(A - B, A)
    if case in (GameCase.HIGH_B_NDIV_EVEN, GameCase.HIGH_B_NDIV_ODD):
        scale = (A - R) * (A + K - R)
        value = Fraction(A - B, A) - Fraction(B * R * (K - R), A * scale)
        if case is GameCase.HIGH_B_NDIV_ODD:
            value += Fraction(min(R, K - R), scale)
        return value
    raise UnsolvedCase(
        f"{case.value}: no exact value is known for (A={A}, B={B}, K={K})"
    )


def _spread_matrix(spec: GameSpec) -> PartitionMatrix:
    """All rows giving R battlefields m+1 units and the remaining K-R exactly m."""
    rows = []
    for chosen in itertools.combinations(range(spec.K), spec.R):
        bumped = set(chosen)
        rows.append(
            tuple(spec.m + 1 if i in bumped else spec.m for i in range(spec.K))
        )
    return PartitionMatrix(spec.A, spec.K, tuple(rows))


def _concentration_matrix(budget: int, battlefields: int) -> PartitionMatrix:
    """One row per battlefield, each concentrating the whole budget there."""
    rows = tuple(
        tuple(budget if i == k else 0 for i in range(battlefields))
        for k in range(battlefields)
    )
    return PartitionMatrix(budget, battlefields, rows)


def _single_row_matrix(budget: int, battlefields: int) -> PartitionMatrix:
    """The canonical pure row: the whole budget on the first battlefield."""
    row = tuple(budget if i == 0 else 0 for i in range(battlefields))
    return PartitionMatrix(budget, battlefields, (row,))


def _attack_plan(spec: GameSpec, case: GameCase) -> PartitionMatrix:
    """The stronger player's matrix in a non-trivial solved regime."""
    A, K = spec.A, spec.K
    m, R = spec.m, spec.R
    if case is GameCase.HIGH_B_DIV:
        return implement_u(U_ODD, A // K, A, K)
    if case is GameCase.HIGH_B_NDIV_EVEN and (A - K) % 2 == 0:
        return build_prop4_A(m, K, A)
    # The two-point family realizes the strategy that also secures the
    # odd-B value, so it is used for every remaining fractional case.
    return build_prop5_A(m, K, A, P1 if 2 * R <= K else P2)


def _defense_plan(spec: GameSpec, case: GameCase) -> PartitionMatrix:
    """The weaker player's matrix in a non-trivial solved regime."""
    A, B, K = spec.A, spec.B, spec.K
    m, R = spec.m, spec.R
    if case is GameCase.HIGH_B_NDIV_EVEN:
        return build_prop3_B(m, K, B)
    if case is GameCase.HIGH_B_NDIV_ODD:
        if 2 * R < K:
            return build_prop7_B(m, K, B)
        return build_prop10_B(m, K, B)
    # Divisible case: pick the member of the optimal family that has an
    # exact matrix implementation at this parity of B.
    level = A // K
    if B % 2 == 0:
        return build_prop3_B(level if B >= 2 * level else level - 1, K, B)
    if B == 2 * level - 1:
        return build_prop6_B(level, K)
    return build_prop7_B(level, K, B)


def solve(spec: GameSpec) -> EquilibriumReport:
    """Certified equilibrium of a solved instance."""
    case = classify(spec)
    value = _closed_form_value(spec, case)
    if case is GameCase.LOW_B_TRIVIAL:
        strategy_a = _spread_matrix(spec)
        strategy_b = _single_row_matrix(spec.B, spec.K)
    elif case is GameCase.LOW_B_EQUAL:
        strategy_a = _spread_matrix(spec)
        strategy_b = _concentration_matrix(spec.B, spec.K)
    else:
        strategy_a = _attack_plan(spec, case)
        strategy_b = _defense_plan(spec, case)
    cert = certify(strategy_a, strategy_b, spec.A, spec.B, spec.K)
    if not cert.equilibrium or cert.secured_by_A != value:
        raise CertificationFailed(
            f"(A={spec.A}, B={spec.B}, K={spec.K}) {case.value}: "
            f"claimed value {format_rat(value)}, certificate secured "
            f"({format_rat(cert.secured_by_A)}, {format_rat(cert.secured_by_B)})"
        )
    return EquilibriumReport(strategy_a, strategy_b, value, cert, case)


def sweep_certify(kmax: int, amax: int) -> list[SweepRow]:
    """Solve and certify every instance with 2 <= K <= kmax, K < A <= amax, B < A.

    Unsolved instances are classified and emitted without certification.
    The first failed certification aborts the sweep with a diagnostic.
    Results are ordered by (K, A, B).
    """
    if kmax < 2 or amax < 3:
        raise InfeasibleRange(f"sweep needs kmax >= 2 and amax >= 3, got ({kmax}, {amax})")
    rows = []
    for K in range(2, kmax + 1):
        for A in range(K + 1, amax + 1):
            for B in range(1, A):
                spec = GameSpec(A, B, K)
                case = classify(spec)
                if not is_solved(case):
                    rows.append(SweepRow(K, A, B, case.value, None, None, None, None))
                    continue
                report = solve(spec)
                cert = report.certificate
                rows.append(
                    SweepRow(
                        K,
                        A,
                        B,
                        case.value,
                        report.value,
                        cert.secured_by_A,
                        cert.secured_by_B,
                        True,
                    )
                )
    return rows


def report_to_json(report: EquilibriumReport) -> dict:
    """JSON form with "p/q" rationals and the case tag."""
    return {
        "A": matrix_to_json(report.strategy_A),
        "B": matrix_to_json(report.strategy_B),
        "value": format_rat(report.value),
        "secured_A": format_rat(report.certificate.secured_by_A),
        "secured_B": format_rat(report.certificate.secured_by_B),
        "case": report.case.value,
    }


def payoff_lotto(x: PartitionMatrix, y: PartitionMatrix) -> Rat:
    """Expected payoff under uniform row choice and uniform matching.

    With battlefields matched uniformly at random, each player's play reduces
    to its aggregate per-entry distribution, so the expectation is the sign
    kernel of the two normalized cardinalities.
    """
    if x.battlefields != y.battlefields:
        raise DimensionMismatch(
            f"matrices play on {x.battlefields} vs {y.battlefields} battlefields"
        )
    return payoff_H(x.to_dist(), y.to_dist())


Lottery = tuple[tuple[tuple[int, ...], Fraction], ...]


def _as_lottery(side) -> Lottery:
    entries = list(side)
    if not entries:
        raise DimensionMismatch("a lottery needs at least one allocation")
    if isinstance(entries[0], int):
        entries = [(tuple(entries), 1)]
    out = tuple((tuple(alloc), Fraction(prob)) for alloc, prob in entries)
    total = sum(prob for _, prob in out)
    if total != 1 or any(prob < 0 for _, prob in out):
        raise BadWeights(f"lottery probabilities must be non-negative and sum to 1, got {total}")
    return out


def payoff_blotto_exhaustive(x, y) -> Rat:
    """Exact per-battlefield sign average of two allocation lotteries.

    Each argument is a sequence of (ordered allocation, probability) pairs,
    or a bare allocation standing for a pure strategy.
    """
    lottery_x, lottery_y = _as_lottery(x), _as_lottery(y)
    battlefields = len(lottery_x[0][0])
    if battlefields > 6:
        raise TooLarge(f"exhaustive payoff is bounded to K <= 6, got {battlefields}")
    for alloc, _ in lottery_x + lottery_y:
        if len(alloc) != battlefields:
            raise DimensionMismatch("all allocations must use the same battlefields")
    total = Fraction(0)
    for alloc_x, prob_x in lottery_x:
        for alloc_y, prob_y in lottery_y:
            signs = sum(
                (1 if ax > ay else 0) - (1 if ax < ay else 0)
                for ax, ay in zip(alloc_x, alloc_y)
            )
            total += prob_x * prob_y * Fraction(signs, battlefields)
    return total


def symmetrize(allocation: Sequence[int], battlefields: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """Uniform lottery over the distinct orderings of one allocation."""
    if len(allocation) != battlefields:
        raise DimensionMismatch(
            f"allocation has {len(allocation)} entries for {battlefields} battlefields"
        )
    if battlefields > 6:
        raise TooLarge(f"symmetrization is bounded to K <= 6, got {battlefields}")
    orderings = sorted(set(itertools.permutations(allocation)), reverse=True)
    share = Fraction(1, len(orderings))
    return [(ordering, share) for ordering in orderings]
