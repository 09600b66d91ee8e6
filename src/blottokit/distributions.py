"""Exact distributions on non-negative integers and the base vector families.

IntVec is a plain counts map (support point -> multiplicity); Dist is an
immutable exact probability distribution. The five base families (odd grid,
even grid, interior-even grid, and the two two-spike patterns) are the
building blocks of every optimal strategy emitted by the solver.
`gain_table` and `upper_hull` tabulate a reply's gain against a counts map
and its concave envelope, and `hull_height` reads that envelope's height,
for the best-reply oracles and the certifier.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Mapping, NamedTuple, Sequence

from .errors import BadIndex, BadM, BadWeights, MalformedJSON
from .exactmath import Rat, all_int, all_rat, format_rat, is_int, parse_int, parse_rat

IntVec = dict[int, int]

U_ODD = "U_ODD"
U_EVEN = "U_EVEN"
U_ODD_UP = "U_ODD_UP"
W = "W"
V = "V"


@dataclass(frozen=True)
class Dist:
    """Exact probability distribution on non-negative integers."""

    items: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_weights(cls, weights: Mapping[int, Rat | int]) -> "Dist":
        """Build a Dist, dropping zero weights and validating the rest.

        Points must be `int`s and weights `int`s or `Fraction`s; a `bool` or
        a `float` is neither, and raises BadWeights.
        """
        if not all_int(weights):
            raise BadWeights(f"support points must be ints, got {list(weights)!r}")
        _check_exact(weights.values())
        cleaned: dict[int, Fraction] = {}
        for point, weight in weights.items():
            if weight == 0:
                continue
            if weight < 0:
                raise BadWeights(f"negative weight {weight} at {point}")
            if point < 0:
                raise BadWeights(f"negative support point {point}")
            cleaned[point] = Fraction(weight)
        if sum(cleaned.values(), Fraction(0)) != 1:
            raise BadWeights(f"weights sum to {sum(cleaned.values())}, not 1")
        return cls(tuple(sorted(cleaned.items())))

    def support(self) -> tuple[int, ...]:
        return tuple(point for point, _ in self.items)

    def max_support(self) -> int:
        return self.items[-1][0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{p}: {w}" for p, w in self.items)
        return f"Dist({{{inner}}})"


def _check_exact(weights) -> None:
    """Raise BadWeights unless every weight is an `int` or a `Fraction`."""
    if not all_rat(weights):
        raise BadWeights(f"weights must be ints or Fractions, got {list(weights)!r}")


def point_mass(point: int) -> Dist:
    """The distribution concentrated on a single point."""
    return Dist.from_weights({point: 1})


def _check_m(name: str, m: int, least: int) -> None:
    """Raise BadM unless m is an `int` (a `bool` is not) of at least `least`."""
    if not is_int(m):
        raise BadM(f"{name} needs an int m, got {m!r}")
    if m < least:
        raise BadM(f"{name} needs m >= {least}, got {m}")


def base_vector(kind: str, m: int, j: int | None = None) -> IntVec:
    """Counts map of the requested base family member over [0, 2m(+1)].

    m must be an `int` (BadM otherwise) and j, for W and V, an `int`
    (BadIndex otherwise).
    """
    if kind in (U_ODD, U_EVEN, U_ODD_UP):
        if j is not None:
            raise BadIndex(f"{kind} takes no index j")
        if kind == U_ODD:
            _check_m(U_ODD, m, 1)
            return {2 * i + 1: 1 for i in range(m)}
        if kind == U_EVEN:
            _check_m(U_EVEN, m, 1)
            return {2 * i: 1 for i in range(m + 1)}
        _check_m(U_ODD_UP, m, 2)
        return {2 * i: 1 for i in range(1, m)}
    if kind == W:
        _check_m(W, m, 2)
        if not is_int(j) or not 1 <= j <= m - 1:
            raise BadIndex(f"W needs 1 <= j <= m-1, got j={j}, m={m}")
        counts: IntVec = {0: 1, 2 * j: 1}
        for even in range(2, 2 * j - 1, 2):
            counts[even] = 2
        for odd in range(2 * j + 1, 2 * m, 2):
            counts[odd] = 2
        return counts
    if kind == V:
        _check_m(V, m, 1)
        if not is_int(j) or not 1 <= j <= m:
            raise BadIndex(f"V needs 1 <= j <= m, got j={j}, m={m}")
        counts = {2 * j - 1: 1}
        for odd in range(1, 2 * j - 2, 2):
            counts[odd] = 2
        for even in range(2 * j, 2 * m + 1, 2):
            counts[even] = 2
        return counts
    raise BadIndex(f"unknown base vector kind {kind!r}")


def base_dist(kind: str, m: int, j: int | None = None) -> Dist:
    """The base vector normalized to a probability distribution."""
    return normalized(base_vector(kind, m, j))


def vbar_counts(m: int) -> IntVec:
    """Summed counts of the V(j, m) family over j = 1..m.

    2i - 1 appears once in V(i, m) and twice in each V(j, m) with j > i, so
    2(m - i) + 1 times; 2i appears twice in each V(j, m) with j <= i, so 2i
    times.
    """
    _check_m("vbar", m, 1)
    return {v: 2 * m - v if v % 2 else v for v in range(1, 2 * m + 1)}


def vbar(m: int) -> Dist:
    """Uniform mixture of the V(j, m) family over j = 1..m.

    Every V(j, m) has total 2m + 1, so the mixture is the normalized sum of
    their counts.
    """
    return normalized(vbar_counts(m))


def mix(parts: Sequence[tuple[Rat | int, Dist]]) -> Dist:
    """Convex combination of distributions; a zero-weight part adds no point."""
    weights = [weight for weight, _ in parts]
    _check_exact(weights)
    total = sum(weights, Fraction(0))
    if total != 1:
        raise BadWeights(f"mixture weights sum to {total}, not 1")
    combined: dict[int, Fraction] = {}
    for weight, dist in parts:
        if weight < 0:
            raise BadWeights(f"negative mixture weight {weight}")
        for point, prob in dist.items:
            combined[point] = combined.get(point, Fraction(0)) + weight * prob
    return Dist.from_weights(combined)


def mean(dist: Dist) -> Rat:
    """Expected value of the distribution."""
    return sum((Fraction(p) * w for p, w in dist.items), Fraction(0))


def payoff_H(x: Dist, y: Dist) -> Rat:
    """P(X > Y) - P(X < Y) for independent X ~ x, Y ~ y."""
    total = Fraction(0)
    for px, wx in x.items:
        for py, wy in y.items:
            if px > py:
                total += wx * wy
            elif px < py:
                total -= wx * wy
    return total


def gain_table(counts: Mapping[int, int], top: int) -> list[int]:
    """total * g(t) for t in [0, top], with g(t) = P(t > Y) - P(t < Y).

    Y follows the normalized counts map and `total` is the sum of its counts,
    so every entry is the integer 2*#{Y < t} + #{Y = t} - total: the sign
    kernel of `payoff_H` with a point mass on t, scaled to integers and
    tabulated from the dense counts #{Y = t} and their running sums.  g is
    non-decreasing and constant from max(support) + 1 on.  Counts and their
    points must be non-negative, with a positive total, and they and `top`
    must be `int`s, not a `bool` or a `float` (BadWeights otherwise).
    """
    if not (all_int(counts) and all_int(counts.values()) and is_int(top)):
        raise BadWeights(f"a gain table needs int points, counts and top, got {counts!r}, {top!r}")
    total = sum(counts.values())
    if total <= 0 or min(counts.values()) < 0 or min(counts) < 0:
        raise BadWeights(
            "a gain table needs non-negative counts at non-negative points with a positive total"
        )
    dense = list(map(counts.get, range(top + 1), repeat(0)))
    # accumulate yields #{Y < t} for t = 0, 1, ...: the counts below t.
    return [
        2 * below + count - total for below, count in zip(accumulate(dense, initial=0), dense)
    ]


class Hull(NamedTuple):
    """Vertices of an upper concave hull, by increasing x."""

    xs: list[int]
    ys: list[int]


def upper_hull(gain: Sequence[int], points: range) -> Hull:
    """Upper concave hull of (t, gain[t]) for t in the increasing `points`.

    Collinear points are dropped, so consecutive vertices bound its faces.
    """
    xs: list[int] = []
    ys: list[int] = []
    for x in points:
        y = gain[x]
        # Pop the last vertex while it lies on or below the chord to (x, y).
        while len(xs) >= 2 and (
            (ys[-1] - ys[-2]) * (x - xs[-2]) <= (y - ys[-2]) * (xs[-1] - xs[-2])
        ):
            xs.pop()
            ys.pop()
        xs.append(x)
        ys.append(y)
    return Hull(xs, ys)


def hull_height(hull: Hull, num: int, den: int) -> tuple[int, int]:
    """The hull's height at num/den >= xs[0], den > 0, as an integer pair
    (n, d) with d > 0: linear between vertices, flat past the last one."""
    xs, ys = hull
    i = bisect_right(xs, num // den) - 1
    if i == len(xs) - 1:
        return ys[i], 1
    run = (xs[i + 1] - xs[i]) * den
    return ys[i] * run + (ys[i + 1] - ys[i]) * (num - xs[i] * den), run


def normalized(counts: Mapping[int, int]) -> Dist:
    """Counts map scaled by the reciprocal of its total.

    Counts must be `int`s; a `bool`, a `float` or a `Fraction` raises
    BadWeights.
    """
    if not all_int(counts.values()):
        raise BadWeights(f"counts must be ints, got {list(counts.values())!r}")
    total = sum(counts.values())
    if total <= 0:
        raise BadWeights("cannot normalize an empty counts map")
    return Dist.from_weights({p: Fraction(c, total) for p, c in counts.items()})


def vec_add(*vecs: Mapping[int, int]) -> IntVec:
    """Pointwise sum of counts maps."""
    out: IntVec = dict(vecs[0]) if vecs else {}
    for vec in vecs[1:]:
        for point, count in vec.items():
            out[point] = out.get(point, 0) + count
    return {p: c for p, c in out.items() if c != 0}


def vec_scale(factor: int, vec: Mapping[int, int]) -> IntVec:
    """Counts map multiplied by a non-negative integer factor."""
    if factor == 0:
        return {}
    return {p: factor * c for p, c in vec.items()}


def dist_to_json(dist: Dist) -> dict:
    """JSON form: {"weights": {"point": "p/q", ...}}."""
    return {"weights": {str(p): format_rat(w) for p, w in dist.items}}


def _json_point(key: str) -> int:
    """The point a JSON key names, read only in the form `dist_to_json` writes,
    so that no two keys name one point."""
    try:
        return parse_int(key)
    except ValueError as exc:
        raise ValueError(f"point key {exc}") from None


def dist_from_json(obj: Mapping) -> Dist:
    """Inverse of dist_to_json: a point key other than the int's own decimal
    form (such as "01", " 2 " or "+1") raises MalformedJSON."""
    try:
        weights = {_json_point(p): parse_rat(w) for p, w in obj["weights"].items()}
    except KeyError as exc:
        raise MalformedJSON(f"distribution JSON lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedJSON(f"distribution JSON is malformed: {exc}") from None
    return Dist.from_weights(weights)
