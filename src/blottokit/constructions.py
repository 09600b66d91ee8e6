"""Integer partition matrices that realize prescribed unit distributions.

An optimal mixed strategy for either player is carried by an L x K matrix
of non-negative integers whose rows all sum to that player's budget: the
strategy picks a row uniformly at random and assigns its entries to the K
battlefields.  The share of each integer among the L*K entries (the
normalized cardinality) is the marginal distribution of units on a single
battlefield.  This module supplies the matrix algebra (composition and
cardinality counts), closed-form block families covering every solved
budget regime (odd full-width defender budgets B = K*m included, through a
3-column core of m(m+1) rows), and an exhaustive row search that serves
only explicit requests, never the solver.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from math import gcd, lcm
from operator import add, is_not
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .distributions import (
    Dist,
    IntVec,
    U_EVEN,
    U_ODD,
    base_vector,
    mean,
    normalized,
    vec_add,
    vec_scale,
)
from .errors import (
    BadAlpha,
    BadCase,
    BadIndex,
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

# Unused here; `mix` stays only because the benchmark harness looks it up.
from .distributions import mix

E = "E"
O = "O"
RE = "RE"
RO = "RO"
P1 = "P1"
P2 = "P2"

_NODE_BUDGET = 2_000_000


def _require_ints(**values: object) -> None:
    """Raise DimensionMismatch naming the first value that is not an `int`
    (a `bool` is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise DimensionMismatch(f"{name} must be an int, got {value!r}")


def _check_sizes(m: int, K: int, **budget: int) -> None:
    """Raise DimensionMismatch unless m, K and the named budget are `int`s,
    then BadM unless m >= 1 and K >= 2."""
    _require_ints(m=m, K=K, **budget)
    if m < 1 or K < 2:
        raise BadM(f"need m >= 1 and K >= 2, got m={m}, K={K}")


@dataclass(frozen=True)
class PartitionMatrix:
    """L x K matrix of non-negative integers whose rows all sum to `budget`."""

    budget: int
    battlefields: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _require_ints(budget=self.budget, battlefields=self.battlefields)
        try:
            rows = tuple(map(tuple, self.rows))
        except TypeError:
            raise DimensionMismatch(
                f"rows must be an iterable of rows, got {self.rows!r}"
            ) from None
        if self.battlefields < 1 or not rows:
            raise DimensionMismatch("need at least one row and one battlefield")
        # One C-level pass per rule over the rows that are not the same object
        # as the row before, so a part's rows (one tuple repeated) are checked
        # once.  A row equal to the one before but another object, such as
        # (True, 2) after (1, 2), is still checked.  A failing matrix alone is
        # walked row by row, to name its first bad row.
        distinct = tuple(compress(rows, map(is_not, rows, chain((None,), rows))))
        if (
            set(map(len, distinct)) != {self.battlefields}
            or set(map(type, chain.from_iterable(distinct))) != {int}
            or min(chain.from_iterable(distinct)) < 0
            or set(map(sum, distinct)) != {self.budget}
        ):
            for row in rows:
                if len(row) != self.battlefields:
                    raise DimensionMismatch(
                        f"row {row} has {len(row)} entries, expected {self.battlefields}"
                    )
                if set(map(type, row)) != {int}:
                    raise DimensionMismatch(f"row {row} has a non-integer entry")
                if min(row) < 0:
                    raise DimensionMismatch(f"row {row} has a negative entry")
                if sum(row) != self.budget:
                    raise DimensionMismatch(
                        f"row {row} sums to {sum(row)}, expected budget {self.budget}"
                    )
        # Tuples make equal matrices compare and hash equal, whatever
        # containers the caller passed; the rows are stored only once checked.
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, *values: object) -> PartitionMatrix:
        """A matrix from field values that already hold, with no check: the
        one constructor that skips `__post_init__`.  `hcat`, `vcat` and
        `_stacked` use it for rows glued from matrices that were checked when
        built."""
        matrix = object.__new__(cls)
        for name, value in zip(("budget", "battlefields", "rows"), values, strict=True):
            object.__setattr__(matrix, name, value)
        return matrix

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def to_dist(self) -> Dist:
        """Normalized cardinality: per-battlefield marginal of the row-uniform strategy."""
        return normalized(cardinality(self))


def matrix_to_json(matrix: PartitionMatrix) -> dict:
    """JSON form: {"budget": C, "battlefields": K, "rows": [[...], ...]}."""
    return {
        "budget": matrix.budget,
        "battlefields": matrix.battlefields,
        "rows": list(map(list, matrix.rows)),
    }


def _json_int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedJSON(
            f"partition matrix JSON needs integer {field}, got {value!r}"
        )
    return value


def matrix_from_json(obj: Mapping) -> PartitionMatrix:
    """Inverse of matrix_to_json; every number must be a JSON integer."""
    try:
        budget = _json_int(obj["budget"], "budget")
        battlefields = _json_int(obj["battlefields"], "battlefields")
        rows = tuple(tuple(_json_int(x, "entries") for x in row) for row in obj["rows"])
    except KeyError as exc:
        raise MalformedJSON(f"partition matrix JSON lacks key {exc}") from None
    except TypeError as exc:
        raise MalformedJSON(f"partition matrix JSON is malformed: {exc}") from None
    return PartitionMatrix(budget, battlefields, rows)


def cardinality(matrix: PartitionMatrix) -> IntVec:
    """Counts of each integer across all L*K entries of the matrix."""
    return dict(Counter(chain.from_iterable(matrix.rows)))


def hcat(parts: Sequence[PartitionMatrix]) -> PartitionMatrix:
    """Rows glued side by side; budgets add, row counts must agree.

    The parts were checked when built, so the result is not checked again,
    and a single part is the result itself.
    """
    if not parts:
        raise DimensionMismatch("hcat needs at least one matrix")
    if len(parts) == 1:
        return parts[0]
    height = parts[0].row_count
    if any(p.row_count != height for p in parts):
        raise DimensionMismatch(
            f"hcat needs equal row counts, got {[p.row_count for p in parts]}"
        )
    # Each glued row is its parts' rows added as tuples, one streamed
    # `map(add, ...)` per part; the rows are materialized every 64 parts, so
    # that the nested iterators stay shallow whatever the number of parts.
    rows = parts[0].rows
    for index, part in enumerate(parts[1:], 1):
        rows = map(add, rows, part.rows)
        if index % 64 == 0:
            rows = tuple(rows)
    return PartitionMatrix._trusted(
        sum(p.budget for p in parts), sum(p.battlefields for p in parts), tuple(rows)
    )


def vcat(parts: Sequence[PartitionMatrix]) -> PartitionMatrix:
    """Rows stacked; budgets and battlefield counts must agree.

    The parts were checked when built, so the result is not checked again.
    """
    if not parts:
        raise DimensionMismatch("vcat needs at least one matrix")
    first = parts[0]
    for p in parts:
        if p.budget != first.budget or p.battlefields != first.battlefields:
            raise DimensionMismatch(
                f"vcat needs equal budgets and widths, got ({p.budget}, {p.battlefields})"
                f" vs ({first.budget}, {first.battlefields})"
            )
    return PartitionMatrix._trusted(
        first.budget,
        first.battlefields,
        tuple(chain.from_iterable(p.rows for p in parts)),
    )


# A block of a glued matrix with its entry counts, known without a count of
# the glued result: a leaf's counts are the ones `_core` checked.
_Piece = tuple[PartitionMatrix, IntVec]


def _grids(kind: str, m: int, height: int, copies: int) -> list[_Piece]:
    """`copies` references to the grid matrix of `kind` and size m with its rows
    repeated `height` times; none, and nothing built, when copies <= 0.  The
    grid is counted once, when built, whatever `height` and `copies` are."""
    if copies <= 0:
        return []
    grid, counts = _grid(kind, m)
    return [(_stacked(grid, height), vec_scale(height, counts))] * copies


def _zeros(height: int, width: int) -> list[_Piece]:
    """A block of zeros `width` columns wide; none when width <= 0.  Its one
    row is checked once, as a leaf of one row."""
    if width <= 0:
        return []
    return [(_stacked(PartitionMatrix(0, width, ((0,) * width,)), height), {0: height * width})]


def _stacked(leaf: PartitionMatrix, height: int) -> PartitionMatrix:
    """`vcat([leaf] * height)` in one tuple repetition, with no shapes to compare."""
    return PartitionMatrix._trusted(leaf.budget, leaf.battlefields, leaf.rows * height)


# --- proposition targets ------------------------------------------------------
#
# Each proposition's target, written once: the entry counts of an m(m+1)-row
# matrix with K columns and row budget `budget`, where r = budget - Km for
# the attacker.


def _prop3_counts(m: int, K: int, budget: int) -> IntVec:
    """Zero spike blended with the even grid (even defender budgets)."""
    counts = dict.fromkeys(range(0, 2 * m + 1, 2), budget)
    counts[0] += (K * m - budget) * (m + 1)
    return counts


def _prop4_counts(m: int, K: int, budget: int) -> IntVec:
    """Odd grids of sizes m and m + 1 in the ratio K - r to r."""
    r = budget - K * m
    counts = dict.fromkeys(range(1, 2 * m, 2), K * (m + 1) - r)
    counts[2 * m + 1] = r * m
    return counts


def _prop5_counts(m: int, K: int, budget: int) -> IntVec:
    """Spike-sum and odd grids: point P1 when 2r <= K, P2 otherwise.

    The spike-sum (`vbar_counts(m)`) holds 2m - v copies of each odd v and
    v copies of each even v in [1, 2m].  P1 is r spike-sums plus
    K(m + 1) - r(2m + 1) odd grids of size m; P2 is K - r spike-sums and odd
    grids of size m plus (2r - K)m odd grids of size m + 1.
    """
    r = budget - K * m
    if 2 * r <= K:
        return {v: K * (m + 1) - r * (v + 1) if v % 2 else r * v for v in range(1, 2 * m + 1)}
    odd = (2 * r - K) * m
    counts = {
        v: (K - r) * (2 * m + 1 - v) + odd if v % 2 else (K - r) * v
        for v in range(1, 2 * m + 1)
    }
    counts[2 * m + 1] = odd
    return counts


def _prop6_counts(m: int, K: int) -> IntVec:
    """Zero spike, odd grid and interior even grid (defender budget 2m - 1)."""
    return {0: (K - 2) * m + 1, **dict.fromkeys(range(1, 2 * m), 1)}


def _prop7_counts(m: int, K: int, budget: int) -> IntVec:
    """Zero spike, odd grid and even grid (odd defender budgets, 2r < K)."""
    counts = dict.fromkeys(range(0, 2 * m + 1, 2), budget - m)
    counts[0] += (K * m - budget) * (m + 1)
    counts.update(dict.fromkeys(range(1, 2 * m, 2), m + 1))
    return counts


def _prop10_counts(m: int, K: int, budget: int) -> IntVec:
    """Zero spike, enlarged odd grid and even grid (odd defender budgets, 2r >= K)."""
    base = budget - 1
    counts = dict.fromkeys(range(0, 2 * m + 1, 2), base - m)
    counts[0] += (K * m - base) * (m + 1)
    counts.update(dict.fromkeys(range(1, 2 * m + 2, 2), m))
    return counts


# --- block machinery -------------------------------------------------------
#
# Every matrix is one `_glue` of a flat list of pieces: a core, then copies of
# stacked grid blocks, staircases and zeros (`_grids`, `_staircases` and
# `_zeros` give an empty list, and build nothing, for zero copies, so no
# caller guards a count).  The core is its proposition at its own width and
# budget, the Blotto-to-General-Lotto reduction (Hart 2008) at K = the core's
# width, so `_core` checks it exactly against the same counts function that
# `_check_target` applies to the whole matrix up to scale; exact counts also
# fix the core's m(m+1) rows.  Grids are checked the same way when built.
# Each piece carries its counts, so the whole matrix is checked from its
# leaves without being counted again.
#
# A family is a list of blocks; a block is a named list of parts; a part is a
# formula row repeated a computed number of times.  Empty index ranges and
# zero repeat counts contribute no rows.  The odd-budget cores (`_st_core`'s
# tilde-S and tilde-T, and T4) are even families with one unit moved in
# every row: with `step` set, `_family_rows`
# asks `moves(block, part)` for (split, first, rest) and adds the step to
# entry `first` of the part's first `split` rows and to entry `rest` of the
# others.


class _Part(NamedTuple):
    index: int
    row: tuple[int, ...]
    reps: int


class _Block(NamedTuple):
    name: str
    parts: tuple[_Part, ...]
    tag: int = 0


def _moved(row: tuple[int, ...], column: int, step: int) -> tuple[int, ...]:
    return row[:column] + (row[column] + step,) + row[column + 1 :]


def _family_rows(
    blocks: Sequence[_Block],
    step: int = 0,
    moves: Callable[[_Block, _Part], tuple[int, int, int]] | None = None,
) -> list[tuple[int, ...]]:
    rows: list[tuple[int, ...]] = []
    for block in blocks:
        for part in block.parts:
            if part.reps < 0:
                raise ConstructionMismatch(
                    f"{block.name},{block.tag}: negative repeat count {part.reps}"
                )
            if not step:
                rows += [part.row] * part.reps
                continue
            split, first, rest = moves(block, part)
            head = min(split, part.reps)
            rows += [_moved(part.row, first, step)] * head
            rows += [_moved(part.row, rest, step)] * (part.reps - head)
    return rows


def _core(
    family: str, budget: int, width: int, rows: Iterable[tuple[int, ...]], counts: IntVec
) -> _Piece:
    """A leaf matrix and its entry counts, which must be exactly `counts`."""
    try:
        matrix = PartitionMatrix(budget, width, rows)
    except DimensionMismatch as exc:
        raise ConstructionMismatch(f"{family}: {exc}") from exc
    got = cardinality(matrix)
    if got != counts:
        raise ConstructionMismatch(
            f"{family}: cardinality {got} differs from target {counts}"
        )
    return matrix, counts


def _check_target(builder: str, got: IntVec, target: IntVec) -> None:
    """Raise unless a matrix's entry counts `got` are proportional to `target`.

    With N = L*K entries (the total of `got`) and T the target's total,
    got[p]*T == target[p]*N at every point of a common support is exact
    equality of the two normalized distributions; zero target counts are
    ignored.
    """
    want = {p: c for p, c in target.items() if c}
    entries = sum(got.values())
    total = sum(want.values())
    if got.keys() != want.keys() or any(
        got[p] * total != c * entries for p, c in want.items()
    ):
        raise ConstructionMismatch(
            f"{builder}: counts {got} over {entries} entries are not proportional "
            f"to target counts {want} over {total}"
        )


def _glue(
    builder: str, pieces: Sequence[_Piece], target: IntVec, budget: int, K: int
) -> PartitionMatrix:
    """The pieces side by side, checked against `target` through their counts
    and against the builder's `budget` and K, which catch a lost block; pieces
    of unequal heights raise `ConstructionMismatch` naming the builder."""
    try:
        matrix = hcat([block for block, _ in pieces])
    except DimensionMismatch as exc:
        raise ConstructionMismatch(f"{builder}: {exc}") from exc
    if (matrix.budget, matrix.battlefields) != (budget, K):
        raise ConstructionMismatch(
            f"{builder}: glued matrix has budget {matrix.budget} over "
            f"{matrix.battlefields} columns, expected {budget} over {K}"
        )
    _check_target(builder, vec_add(*(counts for _, counts in pieces)), target)
    return matrix


# --- grid matrices ----------------------------------------------------------


def build_EO(kind: str, m: int) -> PartitionMatrix:
    """Two-column (E/O) or three-column (RE/RO) grid matrix of size parameter m."""
    _require_ints(m=m)
    return _grid(kind, m)[0]


def _grid(kind: str, m: int) -> _Piece:
    """`build_EO`'s matrix with the entry counts it was checked against: every
    even (E, RE) or odd (O, RO) level of the grid twice (E, O) or three times
    (RE, RO)."""
    if kind == E:
        if m < 1:
            raise BadM(f"E needs m >= 1, got {m}")
        rows = [(2 * i, 2 * (m - i)) for i in range(m + 1)]
        return _core(f"E({m})", 2 * m, 2, rows, {2 * i: 2 for i in range(m + 1)})
    if kind == O:
        if m < 1:
            raise BadM(f"O needs m >= 1, got {m}")
        rows = [(2 * i + 1, 2 * (m - i) - 1) for i in range(m)]
        return _core(f"O({m})", 2 * m, 2, rows, {2 * i + 1: 2 for i in range(m)})
    if kind == RE:
        if m < 0 or m % 2:
            raise BadM(f"RE needs even m >= 0, got {m}")
        rows = [(2 * i, m + 2 * i, 2 * m - 4 * i) for i in range(m // 2 + 1)]
        rows += [(2 * i, m + 2 * i + 2, 2 * m - 4 * i - 2) for i in range(m // 2)]
        return _core(f"RE({m})", 3 * m, 3, rows, {2 * i: 3 for i in range(m + 1)})
    if kind == RO:
        if m < 1 or m % 2 == 0:
            raise BadM(f"RO needs odd m >= 1, got {m}")
        # RE(m - 1) shifted up by one in every entry.
        rows = [(2 * i + 1, m + 2 * i, 2 * m - 1 - 4 * i) for i in range((m + 1) // 2)]
        rows += [(2 * i + 1, m + 2 * i + 2, 2 * m - 3 - 4 * i) for i in range((m - 1) // 2)]
        return _core(f"RO({m})", 3 * m, 3, rows, {2 * i + 1: 3 for i in range(m)})
    raise BadIndex(f"unknown grid matrix kind {kind!r}")


def implement_u(kind: str, m: int, C: int, K: int) -> PartitionMatrix:
    """Matrix whose normalized cardinality is the odd or even grid distribution."""
    if kind not in (U_ODD, U_EVEN):
        raise BadIndex(f"implement_u needs U_ODD or U_EVEN, got {kind!r}")
    _check_sizes(m, K, C=C)
    if C != m * K:
        raise MeanMismatch(
            f"grid mean is {m}, so budget {C} over {K} battlefields needs C = {m * K}"
        )
    if kind == U_EVEN and C % 2:
        raise InfeasibleParity(f"even grid needs an even budget, got C={C}")
    if kind == U_ODD and (C - K) % 2:
        raise InfeasibleParity(
            f"odd grid needs budget and battlefield count of equal parity, "
            f"got C={C}, K={K}"
        )
    return _glue("implement_u", _uniform_pieces(kind, m, K), base_vector(kind, m), C, K)


def _uniform_pieces(kind: str, m: int, K: int) -> list[_Piece]:
    """K columns of two-column grids of size m, led by one three-column grid
    when K is odd."""
    single, triple = (E, RE) if kind == U_EVEN else (O, RO)
    if K % 2 == 0:
        return _grids(single, m, 1, K // 2)
    return _grids(triple, m, 1, 1) + _grids(single, m, 1, (K - 3) // 2)


# --- the 4-column S and 3-column T families (even defender budgets) ---------


def _s_blocks(m: int, r: int) -> list[_Block]:
    if not 0 <= r <= m or (m + r) % 2:
        raise BadCase(f"S(m, r) needs 0 <= r <= m with m + r even, got ({m}, {r})")
    q = (m + r) // 2
    p = (m - r) // 2
    return [
        _Block(
            "S-I",
            tuple(_Part(i, (2 * i, m + r - 2 * i, 0, 2 * m), 2) for i in range(1, q)),
        ),
        _Block(
            "S-II",
            tuple(
                _Part(i, (2 * i, m + r - 2 * i, 2 * i, 2 * m - 2 * i), q - i - 1)
                for i in range(1, q - 1)
            ),
        ),
        _Block(
            "S-III",
            tuple(
                _Part(i, (m + r - 2 * i, 2 * i, 2 * i, 2 * m - 2 * i), q - i - 1)
                for i in range(1, q - 1)
            ),
        ),
        _Block(
            "S-IV",
            tuple(
                _Part(i, (m + r + 2 * i, 2 * m - 2 * i, 0, 0), p - i + 1)
                for i in range(p + 1)
            ),
        ),
        _Block(
            "S-V",
            tuple(
                _Part(i, (2 * m - 2 * i, m + r + 2 * i, 0, 0), p - i + 1)
                for i in range(p + 1)
            ),
        ),
        _Block(
            "S-VI",
            tuple(
                _Part(i, (2 * i, 2 * m - 2 * j - 2 * i + 2, 0, m + r + 2 * j - 2), 1)
                for j in range(1, p + 2)
                for i in range(1, q)
            ),
        ),
        _Block(
            "S-VII",
            tuple(
                _Part(i, (m + r + 2 * j - 2, 0, 2 * m - 2 * j - 2 * i + 2, 2 * i), 1)
                for j in range(1, p + 2)
                for i in range(1, q)
            ),
        ),
    ]


def _t1_reps(m: int, r: int, i: int) -> int:
    """Rows of T-I part i: the paper's four-branch table, split at
    i = r/2 - 2 and i = m - r + 3, in one closed form."""
    return m - r + 4 + min(i, r // 2 - 2) + min(0, m - r + 2 - i)


def _t_blocks(m: int, r: int) -> list[_Block]:
    if r % 2 or not 2 <= r <= m:
        raise BadCase(f"T(m, r) needs even r in [2, m], got ({m}, {r})")
    half = r // 2
    blocks = [
        _Block(
            "T-I",
            tuple(
                _Part(i, (0, r + 2 * i, 2 * m - 2 * i), _t1_reps(m, r, i))
                for i in range(m - half + 1)
            ),
        )
    ]
    for j in range(1, half):
        blocks.append(
            _Block(
                "T-II",
                tuple(
                    _Part(i, (2 * j, r + 2 * i, 2 * m - 2 * j - 2 * i), 2)
                    for i in range(m - half + 1)
                ),
                tag=j,
            )
        )
    for j in range(1, half):
        blocks.append(
            _Block(
                "T-III",
                tuple(
                    _Part(i, (2 * j, r - 2 * j + 2 * i, 2 * m - 2 * i), 2)
                    for i in range(-(-j // 2))
                ),
                tag=j,
            )
        )
    for j in range(1, r // 4):
        blocks.append(
            _Block(
                "T-IV",
                tuple(
                    _Part(i, (r + 2 * i, 2 * m - 2 * j - 2 * i, 2 * j), 2)
                    for i in range(half - 2 * j - 1)
                ),
                tag=j,
            )
        )
    for j in range(1, -(-r // 4)):
        blocks.append(
            _Block(
                "T-V",
                tuple(
                    _Part(i, (2 * j, r + 2 * i, 2 * m - 2 * j - 2 * i), 2)
                    for i in range(half - 2 * j)
                ),
                tag=j,
            )
        )
        blocks.append(
            _Block(
                "T-VI",
                tuple(
                    _Part(i, (r - 2 * j + 2 * i, 2 * m - 2 * i, 2 * j), 2)
                    for i in range(j)
                ),
                tag=j,
            )
        )
    for j in range(-(-r // 4), half - 1):
        blocks.append(
            _Block(
                "T-VII",
                tuple(
                    _Part(i, (r - 2 * j + 2 * i, 2 * m - 2 * i, 2 * j), 2)
                    for i in range(half - j - 1)
                ),
                tag=j,
            )
        )
    return blocks


def _defence(core: _Piece, m: int, K: int, L: int) -> list[_Piece]:
    """The core, (L - 2)/2 copies of E(m) stacked m times, then K - L - 1 zeros."""
    return [core] + _grids(E, m, m, (L - 2) // 2) + _zeros(m * (m + 1), K - L - 1)


def _st_core(
    m: int, L: int, r: int, step: int, counts: Callable[[int, int, int], IntVec]
) -> _Piece:
    """The defender core of Props. 3, 7 and 10: S(m, r), 4 columns, when L is
    odd, T(m, r), 3 columns, when L is even, with `step` (0, +1 or -1)
    added to one entry of every row, checked against its proposition's
    `counts`.  A tilde core's name keeps its builder's r: B mod m for
    Prop. 7, whose family is taken at r + 1, and (B - 1) mod m for Prop. 10.
    """
    if L % 2:
        name, blocks, width = "S", _s_blocks(m, r), 4
        moves = _s_up_moves if step > 0 else _s_down_moves
    else:
        name, blocks, width = "T", _t_blocks(m, r), 3
        moves = _t_up_moves(r) if step > 0 else _t_down_moves
    budget = (width - 1) * m + r + step
    label = f"tilde-{name}({m},{r + min(step, 0)})" if step else f"{name}({m},{r})"
    return _core(
        label, budget, width, _family_rows(blocks, step, moves), counts(m, width, budget)
    )


def build_prop3_B(m: int, K: int, B: int) -> PartitionMatrix:
    """Defender matrix for even B in [2m, Km]: zero spike blended with the even grid."""
    _check_sizes(m, K, B=B)
    if B % 2:
        raise InfeasibleParity(f"this family needs an even budget, got B={B}")
    if not 2 * m <= B <= K * m:
        raise InfeasibleRange(f"budget {B} outside [{2 * m}, {K * m}]")
    L, r = divmod(B, m)
    if L == K:
        pieces = _uniform_pieces(U_EVEN, m, K)
    elif L % 2 == 0 and r == 0:
        pieces = _grids(E, m, 1, L // 2) + _zeros(m + 1, K - L)
    else:
        pieces = _defence(_st_core(m, L, r, 0, _prop3_counts), m, K, L)
    return _glue("build_prop3_B", pieces, _prop3_counts(m, K, B), B, K)


# --- attacker matrices for budgets of matching parity -----------------------


def _r2_blocks(m: int) -> list[_Block]:
    half = m // 2
    # Blocks R-IV and R-VI hold the same parts.
    ones = tuple(_Part(i, (1, 2 * m - 2 * i - 1, m + 2 * i + 1), 2) for i in range(half))
    return [
        _Block(
            "R-I",
            tuple(
                _Part(i, (2 * i + 1, 2 * m - 4 * i - 1, m + 2 * i + 1), m - 2)
                for i in range(half)
            ),
        ),
        _Block(
            "R-II",
            tuple(
                _Part(i, (2 * i + 3, 2 * m - 4 * i - 3, m + 2 * i + 1), m - 2)
                for i in range(half - 1)
            ),
        ),
        _Block(
            "R-III",
            tuple(
                _Part(i, (2 * i + 3, m - 2 * i - 1, 2 * m - 1), 2)
                for i in range(half - 1)
            ),
        ),
        _Block("R-IV", ones),
        _Block(
            "R-V",
            tuple(
                _Part(i, (2 * i + 1, m - 2 * i - 1, 2 * m + 1), 2)
                for i in range(half)
            ),
        ),
        _Block("R-VI", ones),
    ]


def _r3_blocks(m: int) -> list[_Block]:
    return [
        _Block(
            "R-I",
            tuple(
                _Part(i, (2 * i + 1, 2 * m - 4 * i - 1, m + 2 * i + 2), m - 1)
                for i in range((m + 1) // 2)
            ),
        ),
        _Block(
            "R-II",
            tuple(
                _Part(i, (2 * i + 3, 2 * m - 4 * i - 3, m + 2 * i + 2), m - 1)
                for i in range((m - 1) // 2)
            ),
        ),
        _Block(
            "R-III",
            tuple(
                _Part(i, (2 * i + 3, m - 2 * i - 2, 2 * m + 1), 2)
                for i in range((m - 1) // 2)
            ),
        ),
        _Block(
            "R-IV",
            tuple(
                _Part(i, (1, 2 * m - 2 * i - 1, m + 2 * i + 2), 2)
                for i in range((m + 1) // 2)
            ),
        ),
    ]


def build_prop4_A(m: int, K: int, A: int) -> PartitionMatrix:
    """Attacker matrix for K-indivisible A of the same parity as K."""
    _check_sizes(m, K, A=A)
    if A <= K or A % K == 0 or A // K != m:
        raise BadCase(f"need A > K, K not dividing A and m = A // K, got ({m}, {K}, {A})")
    if (A - K) % 2:
        raise InfeasibleParity(
            f"this family needs A and K of equal parity, got A={A}, K={K}"
        )
    r = A % K
    if K % 2 == 0:
        core, width, carry = [], 0, 0
    else:
        # The 3-column core takes budget 3m + 1 (R2) when r is odd, 3m + 2
        # (R3) when r is even; pairs of odd grids hold the rest.
        width, carry = 3, 2 - r % 2
        name, blocks = ("R2", _r2_blocks) if carry == 1 else ("R3", _r3_blocks)
        budget = 3 * m + carry
        core = [
            _core(
                f"{name}({m})",
                budget,
                width,
                _family_rows(blocks(m)),
                _prop4_counts(m, width, budget),
            )
        ]
    pieces = (
        core
        + _grids(O, m, m + 1, (K - width - (r - carry)) // 2)
        + _grids(O, m + 1, m, (r - carry) // 2)
    )
    return _glue("build_prop4_A", pieces, _prop4_counts(m, K, A), A, K)


# --- attacker matrices for budgets of mismatched parity ----------------------


def _staircases(m: int, copies: int) -> list[_Piece]:
    """`copies` references to the two-column block whose cardinality is the
    spike-sum plus the odd grid; none, and nothing built, when copies <= 0."""
    if copies <= 0:
        return []
    blocks = [
        _Block(
            "R",
            tuple(
                _Part(i, (2 * i, 2 * m - 2 * i + 1), 2 * i) for i in range(1, m + 1)
            ),
        )
    ]
    return [
        _core(f"R({m})", 2 * m + 1, 2, _family_rows(blocks), _prop5_counts(m, 2, 2 * m + 1))
    ] * copies


def _p1_tied_blocks(m: int) -> list[_Block]:
    half = (m - 1) // 2
    return [
        _Block(
            "S-I",
            tuple(
                _Part(i, (2 * m - 2 * i - 1, m - 2 * i, 4 * i + 2), 2 * i)
                for i in range(1, half + 1)
            ),
        ),
        _Block(
            "S-II",
            tuple(
                _Part(i, (2 * m - 2 * i + 1, m - 2 * i, 4 * i), 2 * i)
                for i in range(1, half + 1)
            ),
        ),
        _Block(
            "S-III",
            tuple(
                _Part(i, (2 * m - 2 * j - 1, m - 2 * j - 2 * i, 4 * j + 2 * i + 2), 2)
                for j in range(half + 1)
                for i in range(half - j + 1)
            ),
        ),
        _Block(
            "S-IV",
            tuple(
                _Part(i, (m - 2 * i + 2, 2 * j + 2 * i - 1, 2 * m - 2 * j), 2)
                for j in range(half)
                for i in range(1, half - j + 1)
            ),
        ),
    ]


def _p1_single_blocks(m: int) -> list[_Block]:
    return [
        _Block(
            "S-I",
            tuple(
                _Part(i, (1, 2 * m - 1, 1, 2 * m - 2 * i - 1, m + 2 * i + 1), 2)
                for i in range(m // 2)
            ),
        ),
        _Block(
            "S-II",
            tuple(
                _Part(i, (2 * m, 1, 2 * i + 1, m - 2 * i - 1, 2 * m), 2)
                for i in range(m // 2)
            ),
        ),
        _Block(
            "S-III",
            tuple(
                _Part(
                    i,
                    (2 * m - 4 * i - 1, 4 * i + 1, 2 * i + 1, 2 * m - 4 * i - 1, m + 2 * i + 1),
                    2 * i + 1,
                )
                for i in range(m // 2)
            ),
        ),
        _Block(
            "S-IV",
            tuple(
                _Part(
                    i,
                    (2 * m - 4 * i - 2, 4 * i + 3, 2 * i + 1, 2 * m - 4 * i - 2, m + 2 * i + 1),
                    m - 2 * i - 3,
                )
                for i in range((m - 2) // 2)
            ),
        ),
        _Block(
            "S-V",
            tuple(
                _Part(
                    i,
                    (2 * m - 4 * i - 3, 4 * i + 3, 2 * i + 3, 2 * m - 4 * i - 3, m + 2 * i + 1),
                    2 * i + 2,
                )
                for i in range((m - 2) // 2)
            ),
        ),
        _Block(
            "S-VI",
            tuple(
                _Part(
                    i,
                    (2 * m - 4 * i - 4, 4 * i + 5, 2 * i + 3, 2 * m - 4 * i - 4, m + 2 * i + 1),
                    m - 2 * i - 4,
                )
                for i in range((m - 4) // 2)
            ),
        ),
        _Block(
            "S-VII",
            tuple(
                _Part(
                    i,
                    (2 * i + 2, 2 * m - 2 * i - 1, m - 2 * i - 1, 2 * i + 2, 2 * m - 1),
                    1 if i == 0 else 2,
                )
                for i in range(m // 2)
            ),
        ),
        _Block(
            "S-VIII",
            tuple(
                _Part(
                    i,
                    (m + 2 * i + 2, m - 2 * i - 1, 1, m + 2 * i + 2, 2 * m - 2 * i - 3),
                    2,
                )
                for i in range((m - 2) // 2)
            ),
        ),
    ]


_P1_WIDE_COLUMN = {
    "S-I": 1,
    "S-II": 2,
    "S-III": 4,
    "S-IV": 4,
    "S-V": 4,
    "S-VI": 1,
    "S-VII": 1,
    "S-VIII": 1,
}


def _p1_wide_moves(block: _Block, part: _Part) -> tuple[int, int, int]:
    """T4 is S3 with one unit added to a fixed column of each block."""
    column = _P1_WIDE_COLUMN[block.name]
    return 0, column, column


def _p1_split_blocks(m: int) -> list[_Block]:
    half = m // 2
    quarter_up = -(-m // 4)
    quarter = m // 4
    last_even = 2 - (m % 4) // 2
    last_odd = (m % 4) // 2
    blocks = [
        _Block(
            "P-I",
            tuple(
                _Part(i, (2 * j + 2 * i + 2, 2 * m - 2 * i, m - 2 * j - 1), 4)
                for j in range(1, half)
                for i in range(j)
            ),
        ),
        _Block(
            "P-II",
            tuple(
                _Part(
                    i,
                    (6 + 4 * i, 2 * m - 2 * i, m - 2 * i - 5),
                    last_even if i == quarter_up - 1 else 2,
                )
                for i in range(quarter_up)
            ),
        ),
        _Block(
            "P-III",
            tuple(
                _Part(
                    i,
                    (m + 2 * i + 2, 2 * m - 2 * i - 2, 1),
                    last_even if i == quarter_up - 1 else 2,
                )
                for i in range(quarter_up)
            ),
        ),
        _Block(
            "P-IV",
            tuple(
                _Part(
                    i,
                    (m + 2 * i + 2, 2 * m - 4 * i - 2, 2 * i + 1),
                    last_odd if i == quarter - 1 else 2,
                )
                for i in range(quarter)
            ),
        ),
        _Block("P-V", (_Part(0, (2, 2 * m, m - 1), 2),)),
    ]
    for j in range(3, half + 1):
        blocks.append(
            _Block(
                "R-I",
                tuple(
                    _Part(i, (m - 2 * j + 1, m + 2 * i + 1, m + 2 * j - 2 * i - 1), 1)
                    for i in range(j)
                ),
                tag=j,
            )
        )
    for j in range(3, half + 1):
        blocks.append(
            _Block(
                "R-II",
                tuple(
                    _Part(i, (m - 2 * j + 3, m + 2 * i - 1, m + 2 * j - 2 * i - 1), 1)
                    for i in range(j + 1)
                ),
                tag=j,
            )
        )
    for j in range(3, half + 1):
        blocks.append(
            _Block(
                "R-III",
                tuple(
                    _Part(i, (m + 2 * j - 1, m - 2 * j + 2 * i + 3, m - 2 * i - 1), 1)
                    for i in range(j - 1)
                ),
                tag=j,
            )
        )
    for j in range(3, half + 1):
        blocks.append(
            _Block(
                "R-IV",
                tuple(
                    _Part(i, (m + 2 * j - 1, m - 2 * j + 2 * i + 3, m - 2 * i - 1), 1)
                    for i in range(1, j - 2)
                ),
                tag=j,
            )
        )
    blocks += [
        _Block(
            "R-V",
            tuple(
                _Part(i, (2 * i + 1, m + 2 * i + 1, 2 * m - 4 * i - 1), 1)
                for i in range(quarter_up - 2)
            ),
        ),
        _Block(
            "R-VI",
            tuple(
                _Part(i, (2 * i + 1, m + 2 * i + 3, 2 * m - 4 * i - 3), 1)
                for i in range(quarter - 2)
            ),
        ),
        _Block(
            "R-VII",
            tuple(
                _Part(i, (m - 2 * i - 1, 2 * m - 2 * i - 1, 4 * i + 3), 1)
                for i in range(quarter_up + 1)
            ),
        ),
        _Block(
            "R-VIII",
            tuple(
                _Part(i, (m - 2 * i + 1, 2 * m - 2 * i - 1, 4 * i + 1), 1)
                for i in range(quarter + 2)
            ),
        ),
        _Block(
            "R-IX",
            (
                _Part(0, (m - 1, m - 1, m + 3), 2),
                _Part(1, (m - 1, m + 1, m + 1), 2),
                _Part(2, (m - 3, m + 1, m + 3), 2),
                _Part(3, (m - 3, m - 3, m + 7), 1),
            ),
        ),
    ]
    return blocks


def _p2_even_blocks(m: int) -> list[_Block]:
    half = m // 2
    blocks = [
        _Block(
            "S-I",
            tuple(
                _Part(i, (2 * m - 2 * i + 3, m - 2 * i + 1, 4 * i - 2), 2 * i)
                for i in range(1, half + 1)
            ),
        ),
        _Block(
            "S-II",
            tuple(
                _Part(i, (2 * m - 2 * i + 1, m - 2 * i + 1, 4 * i), 2 * i)
                for i in range(1, half + 1)
            ),
        ),
    ]
    for j in range(half - 1):
        blocks.append(
            _Block(
                "S-III",
                tuple(
                    _Part(i, (2 * m - 2 * j + 1, m - 2 * j - 2 * i - 1, 4 * j + 2 * i + 2), 2)
                    for i in range(1, half - j)
                ),
                tag=j + 1,
            )
        )
    for j in range(half):
        blocks.append(
            _Block(
                "S-IV",
                tuple(
                    _Part(i, (m - 2 * i + 1, 2 * j + 2 * i + 1, 2 * m - 2 * j), 2)
                    for i in range(half - j)
                ),
                tag=j + 1,
            )
        )
    return blocks


def _p2_odd_blocks(m: int) -> list[_Block]:
    half = (m - 1) // 2
    blocks = [
        _Block(
            "S-I",
            tuple(
                _Part(i, (2 * m - 4 * i, 4 * i + 2, m), 1) for i in range(half + 1)
            ),
        )
    ]
    for j in range(1, half + 1):
        blocks.append(
            _Block(
                "S-II",
                tuple(
                    _Part(i, (2 * m - 2 * j + 2, 4 * j + 2 * i, m - 2 * j - 2 * i), 4)
                    for i in range(half - j + 1)
                ),
                tag=j,
            )
        )
    blocks.append(
        _Block(
            "S-III",
            tuple(
                _Part(i, (2 * m - 2 * i + 1, 2 * i + 1, m), 1) for i in range(half + 1)
            ),
        )
    )
    for j in range(half):
        blocks.append(
            _Block(
                "S-IV",
                tuple(
                    _Part(i, (2 * m - 2 * j + 1, m - 2 * i, 2 * j + 2 * i + 1), 2)
                    for i in range(half - j)
                ),
                tag=j + 1,
            )
        )
    for j in range(half):
        blocks.append(
            _Block(
                "S-V",
                tuple(
                    _Part(i, (2 * m - 2 * j - 2 * i - 1, 2 * j + 1, m + 2 * i + 2), 2)
                    for i in range(half - j)
                ),
                tag=j + 1,
            )
        )
    return blocks


def _prop5_core(m: int, K: int, r: int, point: str) -> tuple[list[_Piece], int, int]:
    """The core that leads an odd-K Prop. 5 matrix with no RO grid, its width
    w and the number of staircases it stands in for."""
    if point == P2:
        name, blocks = ("Y3", _p2_odd_blocks) if m % 2 else ("Y2", _p2_even_blocks)
        width, staircases, rows = 3, 1, _family_rows(blocks(m))
    elif m % 2:
        name, width, staircases, rows = "S2", 3, 1, _family_rows(_p1_tied_blocks(m))
    elif K >= 5 and r == 1:
        name, width, staircases, rows = "S3", 5, 1, _family_rows(_p1_single_blocks(m))
    elif K >= 5 and m <= 6:
        # The S5 split family fails its self-check at m = 2, 4 and 6.
        name, width, staircases = "T4", 5, 2
        rows = _family_rows(_p1_single_blocks(m), 1, _p1_wide_moves)
    else:
        name, width, staircases, rows = "S5", 3, 1, _family_rows(_p1_split_blocks(m))
    # The core carries the units above the mean m of the columns it replaces:
    # one per staircase, and at P2 one per column of O(m + 1) grid.
    budget = width * m + (staircases if point == P1 else width - staircases)
    core = _core(f"{name}({m})", budget, width, rows, _prop5_counts(m, width, budget))
    return [core], width, staircases


def _prop5_pieces(m: int, K: int, r: int, point: str) -> list[_Piece]:
    """Prop. 5's ladder: s staircases beside O(g) grids h rows high, with
    (s, g, h) = (r, m, m + 1) at P1 and (K - r, m + 1, m) at P2.  An odd K
    puts one RO(g) grid between them when g is odd and K != 2s + 1, and
    otherwise leads with a core of width w in place of rho staircases."""
    s, g, h = (r, m, m + 1) if point == P1 else (K - r, m + 1, m)
    lead, width, rho, middle = [], 0, 0, 0
    if K % 2 and g % 2 and K != 2 * s + 1:
        width, middle = 3, 1
    elif K % 2:
        lead, width, rho = _prop5_core(m, K, r, point)
    stairs = s - rho
    return (
        lead
        + _staircases(m, stairs)
        + _grids(RO, g, h, middle)
        + _grids(O, g, h, (K - width) // 2 - stairs)
    )


def build_prop5_A(m: int, K: int, A: int, point: str) -> PartitionMatrix:
    """Attacker matrix for K-indivisible A; P1 for small remainders, P2 for large."""
    _check_sizes(m, K, A=A)
    if A <= K or A % K == 0 or A // K != m:
        raise BadCase(f"need A > K, K not dividing A and m = A // K, got ({m}, {K}, {A})")
    r = A % K
    if point == P1:
        if 2 * r > K:
            raise BadAlpha(f"P1 needs A mod K at most K/2, got {r} over K={K}")
        if K == 3 and m in (2, 4, 6):
            raise ExcludedCase(f"no P1 construction for K=3 with m={m}")
    elif point == P2:
        if 2 * r <= K:
            raise BadAlpha(f"P2 needs A mod K above K/2, got {r} over K={K}")
    else:
        raise BadCase(f"point must be P1 or P2, got {point!r}")
    pieces = _prop5_pieces(m, K, r, point)
    return _glue("build_prop5_A", pieces, _prop5_counts(m, K, A), A, K)


# --- defender matrices for odd budgets ---------------------------------------


def build_prop6_B(m: int, K: int) -> PartitionMatrix:
    """Defender staircase for budget 2m-1: each level below 2m equally represented."""
    _check_sizes(m, K)
    rows = [(j, 2 * m - 1 - j) for j in range(m)]
    core = _core(f"prop6({m})", 2 * m - 1, 2, rows, _prop6_counts(m, 2))
    return _glue(
        "build_prop6_B", [core] + _zeros(m, K - 2), _prop6_counts(m, K), 2 * m - 1, K
    )


def _full_width_rows(m: int) -> list[tuple[int, ...]]:
    """The m(m+1) rows (2i+1, 2a, 2b), a + b = m + h - i, of the odd-m core.

    With h = (m-1)/2, each i <= h takes every ordered pair with a, b > h
    twice, and for k = 0..i/2 the pairs (h-i+k, m-k) and (m-k, h-i+k), twice
    each or once each when 2k = i.  The rows for i > h are those for i < h
    under x -> 2m - x.  Each odd entry then appears m+1 times, each even
    entry in [0, 2m] 2m times.
    """
    h = (m - 1) // 2
    lower: list[tuple[int, ...]] = []
    for i in range(h + 1):
        s = m + h - i
        for a in range(h + 1, s - h):
            lower += [(2 * i + 1, 2 * a, 2 * (s - a))] * 2
        for k in range(i // 2 + 1):
            reps = 1 if 2 * k == i else 2
            lower += [(2 * i + 1, 2 * (h - i + k), 2 * (m - k))] * reps
            lower += [(2 * i + 1, 2 * (m - k), 2 * (h - i + k))] * reps
    top = 2 * m
    return lower + [(top - a, top - b, top - c) for a, b, c in lower if a < m]


def _s_down_moves(block: _Block, part: _Part) -> tuple[int, int, int]:
    """tilde-S (L odd) takes its unit from the first entry of every row."""
    return 0, 0, 0


def _t_down_moves(block: _Block, part: _Part) -> tuple[int, int, int]:
    """tilde-T (L even) takes its unit from the middle entry of every T-I row;
    every other part has two rows and gives it from the first entry of the
    first row and the middle entry of the second."""
    return (0, 1, 1) if block.name == "T-I" else (1, 0, 1)


def build_prop7_B(m: int, K: int, B: int) -> PartitionMatrix:
    """Defender matrix for odd B in (2m, Km]: zero spike plus odd/even grid blend.

    Below full width the core is S or T with one unit taken from every row
    (tilde-S, tilde-T); at B = Km (K and m odd, so no zero spike) it is the
    3-column `_full_width_rows` core.
    """
    _check_sizes(m, K, B=B)
    if B % 2 == 0:
        raise InfeasibleParity(f"this family needs an odd budget, got B={B}")
    if not 2 * m < B <= K * m:
        raise InfeasibleRange(f"budget {B} outside ({2 * m}, {K * m}]")
    L, r = divmod(B, m)
    if L == K:
        rows = _full_width_rows(m)
        core = _core(f"full-width core({m})", 3 * m, 3, rows, _prop7_counts(m, 3, 3 * m))
    else:
        core = _st_core(m, L, r + 1, -1, _prop7_counts)
    return _glue("build_prop7_B", _defence(core, m, K, L), _prop7_counts(m, K, B), B, K)


def _s_up_moves(block: _Block, part: _Part) -> tuple[int, int, int]:
    """tilde-S (L odd) adds its unit to the first entry of every row, except
    the second of S-I's two rows (third entry) and the first row of each
    S-IV part (third entry)."""
    if block.name == "S-I":
        return 1, 0, 2
    if block.name == "S-IV":
        return 1, 2, 0
    return 0, 0, 0


def _t_up_moves(r: int) -> Callable[[_Block, _Part], tuple[int, int, int]]:
    """tilde-T (L even) adds its unit to the first entry of a part's first
    row (first two rows for T-I parts 1..r/2 - 1) and to the middle entry of
    the rest; the T-II part whose index is its block's tag adds it to the
    middle entry throughout."""

    def moves(block: _Block, part: _Part) -> tuple[int, int, int]:
        if block.name == "T-II" and part.index == block.tag:
            return 0, 1, 1
        if block.name == "T-I" and 1 <= part.index < r // 2:
            return 2, 0, 1
        return 1, 0, 1

    return moves


def build_prop10_B(m: int, K: int, B: int) -> PartitionMatrix:
    """Defender matrix for odd B in [2m+1, Km]: zero spike plus enlarged odd grid.

    The core is S or T with one unit added to every row (tilde-S, tilde-T);
    at B - 1 = Lm with L even it is m copies of the rows (0, 2i+1, 2m-2i).
    """
    _check_sizes(m, K, B=B)
    if B % 2 == 0:
        raise InfeasibleParity(f"this family needs an odd budget, got B={B}")
    if not 2 * m + 1 <= B <= K * m:
        raise InfeasibleRange(f"budget {B} outside [{2 * m + 1}, {K * m}]")
    L, r = divmod(B - 1, m)
    if L % 2 or r:
        core = _st_core(m, L, r, 1, _prop10_counts)
    else:
        rows = [(0, 2 * i + 1, 2 * m - 2 * i) for _ in range(m) for i in range(m + 1)]
        core = _core(f"tilde-T({m},0)", 2 * m + 1, 3, rows, _prop10_counts(m, 3, 2 * m + 1))
    return _glue("build_prop10_B", _defence(core, m, K, L), _prop10_counts(m, K, B), B, K)


# --- exhaustive search --------------------------------------------------------


def _completions(
    rem: Mapping[int, int], target: int, slots: int, cap: int, odd_allow: int
) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of `slots` values drawn from `rem`, each at most
    `cap`, summing to `target` and using at most `odd_allow` odd values;
    yielded in descending lexicographic order."""
    vals = [v for v in sorted(rem, reverse=True) if v <= cap and rem[v] > 0]
    # Search nodes: (index into vals, prefix, slots left, target left, odd left).
    stack = [(0, (), slots, target, odd_allow)]
    while stack:
        idx, prefix, slots, target, odd_allow = stack.pop()
        if slots == 0:
            if target == 0:
                yield prefix
            continue
        if idx == len(vals):
            continue
        value = vals[idx]
        if value * slots < target:
            continue
        top = min(rem[value], slots)
        if value:
            top = min(top, target // value)
        if value % 2:
            top = min(top, odd_allow)
        # Pushed in ascending order, so the largest take is expanded first.
        for take in range(top + 1):
            left_odd = odd_allow - take if value % 2 else odd_allow
            stack.append(
                (idx + 1, prefix + (value,) * take, slots - take, target - take * value, left_odd)
            )


def _attempt(
    counts: Mapping[int, int], budget: int, K: int, L: int, spent: list[int]
) -> list[tuple[int, ...]] | None:
    """Rows of an L-row matrix with the given value counts, or None.

    Each row takes the largest value left as its pivot and one completion
    of it; rows stay in non-increasing order.  `frames` holds one
    (pivot, completion generator) per open row, so it is one longer than
    `rows` exactly when the last step backtracked.
    """
    rem = dict(counts)
    rows: list[tuple[int, ...]] = []
    frames: list[tuple[int, Iterator[tuple[int, ...]]]] = []
    while len(rows) < L:
        if len(frames) == len(rows):
            pivot = max(v for v, c in rem.items() if c)
            rem[pivot] -= 1
            odd_allow = sum(c for v, c in rem.items() if v % 2)
            if budget % 2:
                # An odd budget makes every row consume at least one odd
                # value, so a row may not take odds that later rows need.
                odd_allow -= L - len(rows) - 1
            frames.append((pivot, _completions(rem, budget - pivot, K - 1, pivot, odd_allow)))
        pivot, completions = frames[-1]
        for completion in completions:
            # Count every generated completion, rejected ones included, so
            # the budget bounds the work done and not only the rows tried.
            spent[0] += 1
            if spent[0] > _NODE_BUDGET:
                raise SearchExceeded(f"row search exceeded {_NODE_BUDGET} placements")
            row = (pivot,) + completion
            # Pivots never grow, so this keeps rows in non-increasing order.
            if rows and row > rows[-1]:
                continue
            for v in completion:
                rem[v] -= 1
            rows.append(row)
            break
        else:
            frames.pop()
            rem[pivot] += 1
            if not rows:
                return None
            for v in rows.pop()[1:]:
                rem[v] += 1
    return rows


def generic_implement(
    target: Dist, budget: int, battlefields: int, max_rows: int = 5040
) -> PartitionMatrix | None:
    """Search for a matrix with the given normalized cardinality.

    Tries the smallest row count L that makes every target count an integer,
    then its multiples, as long as L times `battlefields` stays within
    `max_rows` entry slots.  Returns None when the exhausted sizes admit no
    matrix; raises SearchExceeded when the search is cut off instead.
    """
    if battlefields < 1:
        raise DimensionMismatch(f"need at least one battlefield, got {battlefields}")
    if mean(target) * battlefields != budget:
        raise MeanMismatch(
            f"target mean times {battlefields} battlefields is "
            f"{mean(target) * battlefields}, budget is {budget}"
        )
    if target.max_support() > budget:
        return None
    denominator = 1
    for _, weight in target.items:
        denominator = lcm(denominator, weight.denominator)
    base = denominator // gcd(denominator, battlefields)
    if base * battlefields > max_rows:
        raise SearchExceeded(
            f"smallest admissible matrix needs {base * battlefields} entries, "
            f"cap is {max_rows}"
        )
    spent = [0]
    for L in range(base, max_rows // battlefields + 1, base):
        counts = {point: int(weight * L * battlefields) for point, weight in target.items}
        found = _attempt(counts, budget, battlefields, L, spent)
        if found is not None:
            return PartitionMatrix(budget, battlefields, tuple(found))
    return None
