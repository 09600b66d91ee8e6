"""Closed-form values and optimal strategies of the mean-budget game.

In the one-battlefield reduction each player commits to a distribution over
non-negative integers with a prescribed mean, and the stronger player scores
P(X > Y) - P(X < Y).  This module evaluates the exact game value and one
canonical optimal strategy per player for all solved budget regimes — with
an optional floor on the weaker player's odd-value mass — and provides an
independent best-response oracle used to certify the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .distributions import (
    Dist,
    U_EVEN,
    U_ODD,
    base_dist,
    gain_table,
    mix,
    normalized,
    point_mass,
    vbar,
)
from .errors import OutOfTheoremScope
from .exactmath import Rat


@dataclass(frozen=True)
class LottoSpec:
    """Budgets of a mean-budget game: a > b > 0, optional odd-mass floor c."""

    a: Rat
    b: Rat
    c: Rat | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.c is not None:
            object.__setattr__(self, "c", Fraction(self.c))
        if not self.a > self.b > 0:
            raise OutOfTheoremScope(f"budgets need a > b > 0, got a={self.a}, b={self.b}")
        if self.c is not None and not 0 < self.c <= self.b / (self.m + 1):
            raise OutOfTheoremScope(
                f"odd-mass floor must lie in (0, b/(m+1)] = (0, {self.b / (self.m + 1)}], "
                f"got {self.c}"
            )

    @property
    def m(self) -> int:
        return math.floor(self.a)

    @property
    def alpha(self) -> Fraction:
        return self.a - self.m


def _require_fractional(spec: LottoSpec) -> None:
    if spec.alpha == 0:
        raise OutOfTheoremScope(
            f"the odd-mass-floor game is solved only for fractional a, got a={spec.a}"
        )


def _require_b_in_range(spec: LottoSpec, strict: bool) -> None:
    if strict:
        if not spec.b < spec.m:
            raise OutOfTheoremScope(
                f"integer budget a={spec.a} is solved only for b < {spec.m}, got b={spec.b}"
            )
    elif not spec.b <= spec.m:
        raise OutOfTheoremScope(
            f"budget a={spec.a} is solved only for b <= {spec.m}, got b={spec.b}"
        )


def lotto_value(spec: LottoSpec) -> Rat:
    """Exact value of the game for the stronger player."""
    m, alpha, b = spec.m, spec.alpha, spec.b
    if alpha == 0:
        if spec.c is not None:
            _require_fractional(spec)
        _require_b_in_range(spec, strict=True)
        return 1 - Fraction(b, m)
    _require_b_in_range(spec, strict=False)
    value = 1 - (1 - alpha) * b / m - alpha * b / (m + 1)
    if spec.c is not None:
        value += spec.c * min(alpha, 1 - alpha) / (m * (m + 1))
    return value


def lotto_optimal_A(spec: LottoSpec) -> Dist:
    """Canonical optimal strategy of the stronger player."""
    m, alpha = spec.m, spec.alpha
    if alpha == 0:
        if spec.c is not None:
            _require_fractional(spec)
        _require_b_in_range(spec, strict=True)
        return base_dist(U_ODD, m)
    _require_b_in_range(spec, strict=False)
    if spec.c is None:
        return mix(
            [(1 - alpha, base_dist(U_ODD, m)), (alpha, base_dist(U_ODD, m + 1))]
        )
    scale = Fraction(2 * m + 1, m + 1)
    if 2 * alpha <= 1:
        return mix(
            [
                (alpha * scale, vbar(m)),
                (1 - alpha * scale, base_dist(U_ODD, m)),
            ]
        )
    return mix(
        [
            ((1 - alpha) * scale, vbar(m)),
            ((1 - alpha) * (2 - scale), base_dist(U_ODD, m)),
            (2 * alpha - 1, base_dist(U_ODD, m + 1)),
        ]
    )


def lotto_optimal_B(spec: LottoSpec, uniform_member: bool = False) -> Dist:
    """Canonical optimal strategy of the weaker player.

    For an integer budget a the optimal strategies form a family
    (1 - b/m) at zero plus (b/m) times any mean-m distribution from the
    solved set; `uniform_member` selects the member uniform on [1, 2m-1]
    instead of the even-grid default.
    """
    m, alpha, b = spec.m, spec.alpha, spec.b
    if alpha == 0:
        if spec.c is not None:
            _require_fractional(spec)
        _require_b_in_range(spec, strict=True)
        if uniform_member:
            inner = normalized({value: 1 for value in range(1, 2 * m)})
        else:
            inner = base_dist(U_EVEN, m)
        return mix([(1 - Fraction(b, m), point_mass(0)), (Fraction(b, m), inner)])
    if uniform_member:
        raise OutOfTheoremScope(
            f"the uniform member exists only for integer budgets, got a={spec.a}"
        )
    _require_b_in_range(spec, strict=False)
    if spec.c is None:
        return mix(
            [(1 - b / m, point_mass(0)), (b / m, base_dist(U_EVEN, m))]
        )
    if 2 * alpha < 1:
        return mix(
            [
                (1 - b / m, point_mass(0)),
                (spec.c, base_dist(U_ODD, m)),
                (b / m - spec.c, base_dist(U_EVEN, m)),
            ]
        )
    return mix(
        [
            (1 - (b - spec.c) / m, point_mass(0)),
            (spec.c, base_dist(U_ODD, m + 1)),
            ((b - spec.c) / m - spec.c, base_dist(U_EVEN, m)),
        ]
    )


def _solve_three(
    points: tuple[int, int, int], budget: Fraction, floor: Fraction
) -> tuple[Fraction, Fraction, Fraction] | None:
    """Weights on three points with total 1, mean `budget`, odd-mass `floor`."""
    i, j, k = points
    oi, oj, ok = i % 2, j % 2, k % 2
    det = (
        (j - i) * (ok - oi)
        - (k - i) * (oj - oi)
    )
    if det == 0:
        return None
    # Eliminate w_i via the total, then solve the remaining 2x2 system.
    rhs_mean = budget - i
    rhs_odd = floor - oi
    wj = Fraction(rhs_mean * (ok - oi) - rhs_odd * (k - i), det)
    wk = Fraction(rhs_odd * (j - i) - rhs_mean * (oj - oi), det)
    wi = 1 - wj - wk
    if wi < 0 or wj < 0 or wk < 0:
        return None
    return wi, wj, wk


def envelope_best_response(
    opponent: Dist, budget: Rat, odd_floor: Rat | None = None
) -> Rat:
    """Best payoff any mean-`budget` strategy can get against `opponent`.

    Exact maximum of the expected gain over all distributions with the given
    mean (and, when `odd_floor` is set, odd-value mass at least that floor).
    The optimum is attained on a support of at most two points, or three when
    the odd-mass constraint binds, all within one step of the opponent's
    support range, so those supports are enumerated exhaustively.
    """
    budget = Fraction(budget)
    if budget <= 0:
        raise OutOfTheoremScope(f"the oracle needs a positive budget, got {budget}")
    top = opponent.max_support() + 1
    if odd_floor is not None:
        odd_floor = Fraction(odd_floor)
        top += 1
    top = max(top, math.floor(budget) + 2)
    # Integer counts with the same shape as the opponent, so the table holds
    # scale * g and the optimum is divided by scale once.
    scale = math.lcm(*(weight.denominator for _, weight in opponent.items))
    gain = gain_table({p: int(w * scale) for p, w in opponent.items}, top)
    best: Fraction | int | None = None

    def offer(candidate: Fraction | int) -> None:
        nonlocal best
        if best is None or candidate > best:
            best = candidate

    if budget.denominator == 1 and budget <= top:
        point = int(budget)
        if odd_floor is None or point % 2 >= odd_floor:
            offer(gain[point])
    for i in range(top + 1):
        if i > budget:
            break
        for j in range(i + 1, top + 1):
            if j < budget:
                continue
            weight_j = (budget - i) / (j - i)
            weight_i = 1 - weight_j
            if odd_floor is not None:
                if weight_i * (i % 2) + weight_j * (j % 2) < odd_floor:
                    continue
            offer(weight_i * gain[i] + weight_j * gain[j])
    if odd_floor is not None:
        for points in combinations(range(top + 1), 3):
            weights = _solve_three(points, budget, odd_floor)
            if weights is None:
                continue
            offer(sum(w * gain[p] for w, p in zip(weights, points)))
    if best is None:
        raise OutOfTheoremScope(
            f"no feasible strategy with mean {budget} and odd-mass floor {odd_floor}"
        )
    return Fraction(best) / scale
