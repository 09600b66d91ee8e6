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
from collections.abc import Callable, Iterable, Sequence

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
from .verify import Certificate, Opponent, SweepRow, certify, tabulate

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

_LOW_B_CASES = frozenset({GameCase.LOW_B_TRIVIAL, GameCase.LOW_B_EQUAL})


@dataclass(frozen=True)
class GameSpec:
    """Integer budgets A > B >= 1 over K >= 2 battlefields."""

    A: int
    B: int
    K: int

    def __post_init__(self) -> None:
        for name in ("A", "B", "K"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise OutOfTheoremScope(f"{name} must be an int, got {value!r}")
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
    return _regime(spec, classify(spec))[0]


Plan = tuple[Callable[..., PartitionMatrix], tuple]


def _regime(spec: GameSpec, case: GameCase) -> tuple[Rat, Plan, Plan]:
    """Value and the (builder, args) plans of the stronger and the weaker
    player's matrices in the regime `case` that `classify` gave `spec`."""
    A, B, K = spec.A, spec.B, spec.K
    m, R = spec.m, spec.R
    if case not in _SOLVED_CASES:
        raise UnsolvedCase(
            f"{case.value}: no exact value is known for (A={A}, B={B}, K={K})"
        )
    if case in _LOW_B_CASES:
        # Battlefields are matched uniformly at random, so the sorted row
        # with R entries m + 1 plays the same as all C(K, R) of its
        # arrangements, and the whole budget on one battlefield as the K
        # rows that each pick a battlefield.
        trivial = case is GameCase.LOW_B_TRIVIAL
        return (
            Fraction(1) if trivial else Fraction(K * K - K + R, K * K),
            (PartitionMatrix, (A, K, ((m + 1,) * R + (m,) * (K - R),))),
            (PartitionMatrix, (B, K, ((B,) + (0,) * (K - 1),))),
        )
    if case is GameCase.HIGH_B_DIV:
        # The defence is the member of the optimal family that has an exact
        # matrix implementation at this parity of B.
        if B % 2 == 0:
            defense = build_prop3_B, (m if B >= 2 * m else m - 1, K, B)
        elif B == 2 * m - 1:
            defense = build_prop6_B, (m, K)
        else:
            defense = build_prop7_B, (m, K, B)
        return Fraction(A - B, A), (implement_u, (U_ODD, m, A, K)), defense
    # (A - B)/A - B R (K - R)/(A scale), plus min(R, K - R)/scale at odd B,
    # over the one denominator A scale.
    scale = (A - R) * (A + K - R)
    numerator = (A - B) * scale - B * R * (K - R)
    # The two-point family realizes the strategy that also secures the
    # odd-B value, so it is used for every fractional case but Prop. 4's.
    attack = build_prop5_A, (m, K, A, P1 if 2 * R <= K else P2)
    if case is GameCase.HIGH_B_NDIV_EVEN:
        if (A - K) % 2 == 0:
            attack = build_prop4_A, (m, K, A)
        return Fraction(numerator, A * scale), attack, (build_prop3_B, (m, K, B))
    value = Fraction(numerator + A * min(R, K - R), A * scale)
    return value, attack, (build_prop7_B if 2 * R < K else build_prop10_B, (m, K, B))


def _built(plan: Plan, opponents: dict[Plan, Opponent]) -> Opponent:
    """The certifier's record of `plan`'s matrix, built and tabulated only
    if `opponents` does not hold it yet."""
    record = opponents.get(plan)
    if record is None:
        builder, args = plan
        record = opponents[plan] = tabulate(builder(*args))
    return record


def _solve(
    spec: GameSpec, case: GameCase, opponents: dict[Plan, Opponent]
) -> EquilibriumReport:
    """Certified equilibrium of `spec` in the solved regime `case`, taking
    matrices and their certifier records from and adding them to
    `opponents`."""
    value, attack, defense = _regime(spec, case)
    side_a = _built(attack, opponents)
    side_b = _built(defense, opponents)
    cert = certify(side_a, side_b, spec.A, spec.B, spec.K)
    if not cert.equilibrium or cert.secured_by_A != value:
        raise CertificationFailed(
            f"(A={spec.A}, B={spec.B}, K={spec.K}) {case.value}: "
            f"claimed value {format_rat(value)}, certificate secured "
            f"({format_rat(cert.secured_by_A)}, {format_rat(cert.secured_by_B)})"
        )
    return EquilibriumReport(side_a.matrix, side_b.matrix, value, cert, case)


def solve(spec: GameSpec) -> EquilibriumReport:
    """Certified equilibrium of a solved instance."""
    return _solve(spec, classify(spec), {})


def sweep_certify(kmax: int, amax: int) -> list[SweepRow]:
    """Solve and certify every instance with 2 <= K <= kmax, K < A <= amax, B < A.

    Unsolved instances are classified and emitted without certification.
    The first failed certification aborts the sweep with a diagnostic.
    Results are ordered by (K, A, B).  Each plan's matrix depends only on
    K, m = A // K and its own budgets, so it is built and tabulated once per
    (K, m) block, and its certifier record (gain table and hull) is kept
    beside it for every instance that uses it: `sweep_certify(6, 30)`
    tabulates 912 times.  Builders are pure and matrices frozen, so this is
    the matrix and the table `solve` would make.
    """
    if kmax < 2 or amax < 3:
        raise InfeasibleRange(f"sweep needs kmax >= 2 and amax >= 3, got ({kmax}, {amax})")
    rows = []
    for K in range(2, kmax + 1):
        block = None
        for A in range(K + 1, amax + 1):
            if A // K != block:
                # Only one block's matrices are alive at a time.
                block, opponents = A // K, {}
            for B in range(1, A):
                spec = GameSpec(A, B, K)
                case = classify(spec)
                if not is_solved(case):
                    rows.append(SweepRow(K, A, B, case.value, None, None, None, None))
                    continue
                report = _solve(spec, case, opponents)
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


def _check_allocation_entries(entries: Iterable, shown: object) -> None:
    """DimensionMismatch unless `entries` are all non-negative ints."""
    entries = list(entries)
    if set(map(type, entries)) != {int} or min(entries) < 0:
        raise DimensionMismatch(f"allocation entries must be non-negative ints, got {shown!r}")


def _as_lottery(side) -> Lottery:
    entries = list(side)
    if not entries:
        raise DimensionMismatch("a lottery needs at least one allocation")
    if not isinstance(entries[0], (tuple, list)):
        entries = [(entries, 1)]
    for entry in entries:
        if not (
            isinstance(entry, (tuple, list))
            and len(entry) == 2
            and isinstance(entry[0], (tuple, list))
        ):
            raise DimensionMismatch(
                f"a lottery entry must be an (allocation, probability) pair, got {entry!r}"
            )
    allocations = [tuple(alloc) for alloc, _ in entries]
    _check_allocation_entries(itertools.chain.from_iterable(allocations), allocations)
    probabilities = [prob for _, prob in entries]
    if not set(map(type, probabilities)) <= {int, Fraction}:
        raise BadWeights(f"probabilities must be ints or Fractions, got {probabilities!r}")
    out = tuple(zip(allocations, map(Fraction, probabilities)))
    total = sum(prob for _, prob in out)
    if total != 1 or any(prob < 0 for _, prob in out):
        raise BadWeights(f"lottery probabilities must be non-negative and sum to 1, got {total}")
    return out


def payoff_blotto_exhaustive(x, y) -> Rat:
    """Exact per-battlefield sign average of two allocation lotteries.

    Each argument is a sequence of (ordered allocation, probability) pairs,
    or a bare allocation standing for a pure strategy.  Allocation entries
    must be non-negative ints and every lottery entry such a pair
    (DimensionMismatch otherwise), and probabilities ints or Fractions
    (BadWeights otherwise); a bool is neither.
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
    """Uniform lottery over the distinct orderings of one allocation of
    non-negative ints."""
    if len(allocation) != battlefields:
        raise DimensionMismatch(
            f"allocation has {len(allocation)} entries for {battlefields} battlefields"
        )
    if battlefields > 6:
        raise TooLarge(f"symmetrization is bounded to K <= 6, got {battlefields}")
    _check_allocation_entries(allocation, allocation)
    orderings = sorted(set(itertools.permutations(allocation)), reverse=True)
    share = Fraction(1, len(orderings))
    return [(ordering, share) for ordering in orderings]
