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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .distributions import (
    Dist,
    U_EVEN,
    U_ODD,
    base_dist,
    gain_table,
    hull_height,
    mix,
    normalized,
    point_mass,
    upper_hull,
    vbar,
)
from .errors import OutOfTheoremScope
from .exactmath import Rat


def _exact(name: str, value: Rat) -> Fraction:
    """`value` as a Fraction; OutOfTheoremScope unless it is an int or a
    Fraction (a `bool` or a `float` is neither)."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise OutOfTheoremScope(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class LottoSpec:
    """Budgets of a mean-budget game: a > b > 0, optional odd-mass floor c."""

    a: Rat
    b: Rat
    c: Rat | None = None

    def __post_init__(self) -> None:
        for name in ("a", "b") if self.c is None else ("a", "b", "c"):
            object.__setattr__(self, name, _exact(name, getattr(self, name)))
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


def _check_scope(spec: LottoSpec) -> None:
    """Raise OutOfTheoremScope unless the value theorem covers `spec`.

    At an integer a, m = a and the spec's own a > b already gives b < m.
    """
    if spec.alpha == 0:
        if spec.c is not None:
            raise OutOfTheoremScope(
                f"the odd-mass-floor game is solved only for fractional a, got a={spec.a}"
            )
    elif not spec.b <= spec.m:
        raise OutOfTheoremScope(
            f"budget a={spec.a} is solved only for b <= {spec.m}, got b={spec.b}"
        )


def lotto_value(spec: LottoSpec) -> Rat:
    """Exact value of the game for the stronger player."""
    m, alpha, b = spec.m, spec.alpha, spec.b
    _check_scope(spec)
    value = 1 - (1 - alpha) * b / m - alpha * b / (m + 1)
    if spec.c is not None:
        value += spec.c * min(alpha, 1 - alpha) / (m * (m + 1))
    return value


def lotto_optimal_A(spec: LottoSpec) -> Dist:
    """Canonical optimal strategy of the stronger player."""
    m, alpha = spec.m, spec.alpha
    _check_scope(spec)
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
    if alpha and uniform_member:
        raise OutOfTheoremScope(
            f"the uniform member exists only for integer budgets, got a={spec.a}"
        )
    _check_scope(spec)
    if spec.c is None:
        if uniform_member:
            inner = normalized({value: 1 for value in range(1, 2 * m)})
        else:
            inner = base_dist(U_EVEN, m)
        return mix([(1 - b / m, point_mass(0)), (b / m, inner)])
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


def _floor_binds(
    gain: list[int], top: int, budget: Fraction, floor: Fraction
) -> Fraction | None:
    """Best gain over [0, top] at mean `budget` with odd mass exactly `floor`.

    None when no such distribution exists.  A reply with odd mass c splits
    into c times an odd-valued reply of mean x and (1 - c) times an
    even-valued reply of mean y, with c*x + (1 - c)*y = budget; each part is
    worth its parity hull's height, so the objective is concave and
    piecewise linear in x and peaks at an end of the feasible interval or at
    a break: an odd vertex, or the x at which y meets an even vertex.
    """
    if floor > 1:
        return None
    odd = upper_hull(gain, range(1, top + 1, 2))
    if floor == 1:
        if not odd.xs[0] <= budget <= odd.xs[-1]:
            return None
        return Fraction(*hull_height(odd, budget.numerator, budget.denominator))
    even = upper_hull(gain, range(0, top + 1, 2))
    rest = 1 - floor
    low = max(Fraction(odd.xs[0]), (budget - rest * even.xs[-1]) / floor)
    high = min(Fraction(odd.xs[-1]), (budget - rest * even.xs[0]) / floor)
    if low > high:
        return None
    breaks = {low, high}
    breaks.update(x for x in odd.xs if low < x < high)
    for y in even.xs:
        x = (budget - rest * y) / floor
        if low < x < high:
            breaks.add(x)
    return max(
        floor * Fraction(*hull_height(odd, x.numerator, x.denominator))
        + rest * Fraction(*hull_height(even, y.numerator, y.denominator))
        for x, y in ((x, (budget - floor * x) / rest) for x in breaks)
    )


def envelope_best_response(
    opponent: Dist, budget: Rat, odd_floor: Rat | None = None
) -> Rat:
    """Best payoff any mean-`budget` strategy can get against `opponent`.

    Exact maximum of the expected gain over all distributions on [0, top]
    with the given mean (and, when `odd_floor` is set, odd-value mass at
    least that floor), where top lies one step beyond the opponent's support
    (two with a floor) and above the budget.  The gain is tabulated in
    integers, scaled by the LCM of the opponent's denominators, and divided
    once at the end.  Without a floor the maximum is the height at `budget`
    of the upper concave hull of (t, gain[t]), met by the two hull vertices
    around it.  The best value at odd mass s is concave in s, so when that
    two-point reply's odd mass falls short of the floor c, the constrained
    optimum has odd mass exactly c, and it is found on the separate hulls of
    the odd and the even points (see `_floor_binds`).  Building the hulls
    takes O(top) steps and each of the O(top) breakpoints is evaluated by
    bisection: O(top log top) in all, in place of the O(top^3) supports of
    two or three points that an exhaustive search would visit.  The budget
    and the floor are ints or Fractions, as in `LottoSpec`.
    """
    budget = _exact("budget", budget)
    if budget <= 0:
        raise OutOfTheoremScope(f"the oracle needs a positive budget, got {budget}")
    top = opponent.max_support() + 1
    if odd_floor is not None:
        odd_floor = _exact("odd_floor", odd_floor)
        top += 1
    top = max(top, math.floor(budget) + 2)
    # Integer counts with the same shape as the opponent, so the table holds
    # scale * g and the optimum is divided by scale once.
    scale = math.lcm(*(weight.denominator for _, weight in opponent.items))
    gain = gain_table(
        {p: w.numerator * (scale // w.denominator) for p, w in opponent.items}, top
    )
    hull = upper_hull(gain, range(top + 1))
    if odd_floor is not None:
        # The two hull vertices around the budget (top, a vertex, lies above
        # it) mix to the unconstrained optimum; the floor binds only when
        # that reply's odd mass falls short of it.
        xs = hull.xs
        i = bisect_right(xs, budget) - 1
        upper = (budget - xs[i]) / (xs[i + 1] - xs[i])
        if (1 - upper) * (xs[i] % 2) + upper * (xs[i + 1] % 2) < odd_floor:
            best = _floor_binds(gain, top, budget, odd_floor)
            if best is None:
                raise OutOfTheoremScope(
                    f"no feasible strategy with mean {budget} and odd-mass floor {odd_floor}"
                )
            return best / scale
    num, den = hull_height(hull, budget.numerator, budget.denominator)
    return Fraction(num, den * scale)
