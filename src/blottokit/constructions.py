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

import sys
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence

from .distributions import (
    Dist,
    IntVec,
    U_EVEN,
    U_ODD,
    U_ODD_UP,
    V,
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


@dataclass(frozen=True)
class PartitionMatrix:
    """L x K matrix of non-negative integers whose rows all sum to `budget`."""

    budget: int
    battlefields: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.battlefields < 1 or len(self.rows) < 1:
            raise DimensionMismatch("need at least one row and one battlefield")
        for row in self.rows:
            if len(row) != self.battlefields:
                raise DimensionMismatch(
                    f"row {row} has {len(row)} entries, expected {self.battlefields}"
                )
            if any(x < 0 for x in row):
                raise DimensionMismatch(f"row {row} has a negative entry")
            if sum(row) != self.budget:
                raise DimensionMismatch(
                    f"row {row} sums to {sum(row)}, expected budget {self.budget}"
                )

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
        "rows": [list(row) for row in matrix.rows],
    }


def matrix_from_json(obj: Mapping) -> PartitionMatrix:
    """Inverse of matrix_to_json."""
    try:
        budget = int(obj["budget"])
        battlefields = int(obj["battlefields"])
        rows = tuple(tuple(int(x) for x in row) for row in obj["rows"])
    except KeyError as exc:
        raise MalformedJSON(f"partition matrix JSON lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise MalformedJSON(f"partition matrix JSON is malformed: {exc}") from None
    return PartitionMatrix(budget, battlefields, rows)


def cardinality(matrix: PartitionMatrix) -> IntVec:
    """Counts of each integer across all L*K entries of the matrix."""
    out: IntVec = {}
    for row in matrix.rows:
        for value in row:
            out[value] = out.get(value, 0) + 1
    return out


def hcat(parts: Sequence[PartitionMatrix]) -> PartitionMatrix:
    """Rows glued side by side; budgets add, row counts must agree."""
    if not parts:
        raise DimensionMismatch("hcat needs at least one matrix")
    height = parts[0].row_count
    if any(p.row_count != height for p in parts):
        raise DimensionMismatch(
            f"hcat needs equal row counts, got {[p.row_count for p in parts]}"
        )
    rows = tuple(
        tuple(x for part in parts for x in part.rows[i]) for i in range(height)
    )
    return PartitionMatrix(
        sum(p.budget for p in parts), sum(p.battlefields for p in parts), rows
    )


def vcat(parts: Sequence[PartitionMatrix]) -> PartitionMatrix:
    """Rows stacked; budgets and battlefield counts must agree."""
    if not parts:
        raise DimensionMismatch("vcat needs at least one matrix")
    first = parts[0]
    for p in parts:
        if p.budget != first.budget or p.battlefields != first.battlefields:
            raise DimensionMismatch(
                f"vcat needs equal budgets and widths, got ({p.budget}, {p.battlefields})"
                f" vs ({first.budget}, {first.battlefields})"
            )
    return PartitionMatrix(
        first.budget,
        first.battlefields,
        tuple(row for p in parts for row in p.rows),
    )


def _beside(matrix: PartitionMatrix, copies: int) -> PartitionMatrix:
    return hcat([matrix] * copies)


def _stack(matrix: PartitionMatrix, copies: int) -> PartitionMatrix:
    return vcat([matrix] * copies)


def _zeros(height: int, width: int) -> PartitionMatrix:
    return PartitionMatrix(0, width, ((0,) * width,) * height)


def _delta(count: int) -> IntVec:
    return {0: count} if count else {}


def _vsigma(m: int) -> IntVec:
    """Summed counts of the m two-spike base vectors: 2i at even 2i, 2m-v at odd v."""
    return vec_add(*(base_vector(V, m, j) for j in range(1, m + 1)))


# --- block machinery -------------------------------------------------------
#
# A family is a list of blocks; a block is a named list of parts; a part is a
# formula row repeated a computed number of times.  Empty index ranges and
# zero repeat counts contribute no rows.  The odd-budget builders adjust
# individual entries addressed by block, part and row position, so blocks are
# materialized into mutable row groups before flattening.


@dataclass(frozen=True)
class _Part:
    index: int
    row: tuple[int, ...]
    reps: int


@dataclass(frozen=True)
class _Block:
    name: str
    parts: tuple[_Part, ...]
    tag: int = 0


_Grouped = list[tuple[str, int, list[tuple[int, list[list[int]]]]]]


def _materialize(blocks: Sequence[_Block]) -> _Grouped:
    out: _Grouped = []
    for block in blocks:
        groups = []
        for part in block.parts:
            if part.reps < 0:
                raise ConstructionMismatch(
                    f"{block.name},{block.tag}: negative repeat count {part.reps}"
                )
            groups.append((part.index, [list(part.row) for _ in range(part.reps)]))
        out.append((block.name, block.tag, groups))
    return out


def _collapse(family: str, budget: int, grouped: _Grouped) -> list[list[int]]:
    rows: list[list[int]] = []
    for name, tag, groups in grouped:
        label = f"{name},{tag}" if tag else name
        for _, part_rows in groups:
            for row in part_rows:
                if min(row, default=0) < 0 or sum(row) != budget:
                    raise ConstructionMismatch(
                        f"{family} block {label}: bad row {row} for budget {budget}"
                    )
                rows.append(row)
    return rows


def _rows_matrix(
    family: str,
    budget: int,
    width: int,
    rows: Sequence[Sequence[int]],
    want_rows: int,
    want_counts: IntVec,
) -> PartitionMatrix:
    if len(rows) != want_rows:
        raise ConstructionMismatch(
            f"{family}: produced {len(rows)} rows, expected {want_rows}"
        )
    matrix = PartitionMatrix(budget, width, tuple(tuple(row) for row in rows))
    got = cardinality(matrix)
    if got != want_counts:
        raise ConstructionMismatch(
            f"{family}: cardinality {got} differs from target {want_counts}"
        )
    return matrix


def _family_matrix(
    family: str,
    budget: int,
    width: int,
    blocks: Sequence[_Block],
    want_rows: int,
    want_counts: IntVec,
) -> PartitionMatrix:
    rows = _collapse(family, budget, _materialize(blocks))
    return _rows_matrix(family, budget, width, rows, want_rows, want_counts)


def _check_target(builder: str, matrix: PartitionMatrix, target: IntVec) -> None:
    """Raise unless the matrix's entry counts are proportional to `target`.

    With N = L*K entries and T the target's total, got[p]*T == target[p]*N
    at every point of a common support is exact equality of the two
    normalized distributions; zero target counts are ignored.
    """
    want = {p: c for p, c in target.items() if c}
    got = cardinality(matrix)
    entries = matrix.row_count * matrix.battlefields
    total = sum(want.values())
    if got.keys() != want.keys() or any(
        got[p] * total != c * entries for p, c in want.items()
    ):
        raise ConstructionMismatch(
            f"{builder}: counts {got} over {entries} entries are not proportional "
            f"to target counts {want} over {total}"
        )


# --- grid matrices ----------------------------------------------------------


def build_EO(kind: str, m: int) -> PartitionMatrix:
    """Two-column (E/O) or three-column (RE/RO) grid matrix of size parameter m."""
    if kind == E:
        if m < 1:
            raise BadM(f"E needs m >= 1, got {m}")
        return PartitionMatrix(
            2 * m, 2, tuple((2 * i, 2 * (m - i)) for i in range(m + 1))
        )
    if kind == O:
        if m < 1:
            raise BadM(f"O needs m >= 1, got {m}")
        return PartitionMatrix(
            2 * m, 2, tuple((2 * i + 1, 2 * (m - i) - 1) for i in range(m))
        )
    if kind == RE:
        if m < 0 or m % 2:
            raise BadM(f"RE needs even m >= 0, got {m}")
        if m == 0:
            return PartitionMatrix(0, 3, ((0, 0, 0),))
        rows = [(2 * i, m + 2 * i, 2 * m - 4 * i) for i in range(m // 2 + 1)]
        rows += [(2 * i, m + 2 * i + 2, 2 * m - 4 * i - 2) for i in range(m // 2)]
        return _rows_matrix(
            f"RE({m})", 3 * m, 3, rows, m + 1, vec_scale(3, base_vector(U_EVEN, m))
        )
    if kind == RO:
        if m < 1 or m % 2 == 0:
            raise BadM(f"RO needs odd m >= 1, got {m}")
        shifted = [
            [x + 1 for x in row] for row in build_EO(RE, m - 1).rows
        ]
        return _rows_matrix(
            f"RO({m})", 3 * m, 3, shifted, m, vec_scale(3, base_vector(U_ODD, m))
        )
    raise BadIndex(f"unknown grid matrix kind {kind!r}")


def implement_u(kind: str, m: int, C: int, K: int) -> PartitionMatrix:
    """Matrix whose normalized cardinality is the odd or even grid distribution."""
    if kind not in (U_ODD, U_EVEN):
        raise BadIndex(f"implement_u needs U_ODD or U_EVEN, got {kind!r}")
    if m < 1 or K < 2:
        raise BadM(f"need m >= 1 and K >= 2, got m={m}, K={K}")
    if C != m * K:
        raise MeanMismatch(
            f"grid mean is {m}, so budget {C} over {K} battlefields needs C = {m * K}"
        )
    if kind == U_EVEN:
        if C % 2:
            raise InfeasibleParity(f"even grid needs an even budget, got C={C}")
        single, triple = E, RE
    else:
        if (C - K) % 2:
            raise InfeasibleParity(
                f"odd grid needs budget and battlefield count of equal parity, "
                f"got C={C}, K={K}"
            )
        single, triple = O, RO
    if K % 2 == 0:
        matrix = _beside(build_EO(single, m), K // 2)
    else:
        matrix = hcat(
            [build_EO(triple, m)] + [build_EO(single, m)] * ((K - 3) // 2)
        )
    _check_target("implement_u", matrix, base_vector(kind, m))
    return matrix


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
    low = r // 2 - 2
    high = m - r + 3
    branches = []
    if i <= low - 1 and i <= high - 1:
        branches.append(m - r + i + 4)
    if high <= i <= low - 1:
        branches.append(2 * m - 2 * r + 6)
    if low <= i <= high - 1:
        branches.append(m - r // 2 + 2)
    if i >= low and i >= high:
        branches.append(2 * m - 3 * (r // 2) - i + 4)
    if len(branches) != 1:
        raise ConstructionMismatch(
            f"T-I repeat table matched {len(branches)} branches at m={m}, r={r}, i={i}"
        )
    return branches[0]


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


def _s_counts(m: int, r: int) -> IntVec:
    return vec_add(
        _delta((m - r) * (m + 1)), vec_scale(3 * m + r, base_vector(U_EVEN, m))
    )


def _t_counts(m: int, r: int) -> IntVec:
    return vec_add(
        _delta((m - r) * (m + 1)), vec_scale(2 * m + r, base_vector(U_EVEN, m))
    )


def _s_matrix(m: int, r: int) -> PartitionMatrix:
    return _family_matrix(
        f"S({m},{r})", 3 * m + r, 4, _s_blocks(m, r), m * (m + 1), _s_counts(m, r)
    )


def _t_matrix(m: int, r: int) -> PartitionMatrix:
    return _family_matrix(
        f"T({m},{r})", 2 * m + r, 3, _t_blocks(m, r), m * (m + 1), _t_counts(m, r)
    )


def build_prop3_B(m: int, K: int, B: int) -> PartitionMatrix:
    """Defender matrix for even B in [2m, Km]: zero spike blended with the even grid."""
    if m < 1 or K < 2:
        raise BadM(f"need m >= 1 and K >= 2, got m={m}, K={K}")
    if B % 2:
        raise InfeasibleParity(f"this family needs an even budget, got B={B}")
    if not 2 * m <= B <= K * m:
        raise InfeasibleRange(f"budget {B} outside [{2 * m}, {K * m}]")
    L, r = divmod(B, m)
    if L == K:
        matrix = implement_u(U_EVEN, m, B, K)
    elif L % 2 == 0 and r == 0:
        matrix = hcat([_beside(build_EO(E, m), L // 2), _zeros(m + 1, K - L)])
    else:
        if L % 2:
            core = _s_matrix(m, r)
            spare = (L - 3) // 2
        else:
            core = _t_matrix(m, r)
            spare = (L - 2) // 2
        parts = [core]
        if spare:
            parts.append(_stack(_beside(build_EO(E, m), spare), m))
        if K - L - 1:
            parts.append(_zeros(m * (m + 1), K - L - 1))
        matrix = hcat(parts)
    target = vec_add(
        _delta((K * m - B) * (m + 1)), vec_scale(B, base_vector(U_EVEN, m))
    )
    _check_target("build_prop3_B", matrix, target)
    return matrix


# --- attacker matrices for budgets of matching parity -----------------------


def _r2_blocks(m: int) -> list[_Block]:
    half = m // 2
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
        _Block(
            "R-IV",
            tuple(
                _Part(i, (1, 2 * m - 2 * i - 1, m + 2 * i + 1), 2)
                for i in range(half)
            ),
        ),
        _Block(
            "R-V",
            tuple(
                _Part(i, (2 * i + 1, m - 2 * i - 1, 2 * m + 1), 2)
                for i in range(half)
            ),
        ),
        _Block(
            "R-VI",
            tuple(
                _Part(i, (1, 2 * m - 2 * i - 1, m + 2 * i + 1), 2)
                for i in range(half)
            ),
        ),
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
    if m < 1 or K < 2:
        raise BadM(f"need m >= 1 and K >= 2, got m={m}, K={K}")
    if A <= K or A % K == 0 or A // K != m:
        raise BadCase(f"need A > K, K not dividing A and m = A // K, got ({m}, {K}, {A})")
    if (A - K) % 2:
        raise InfeasibleParity(
            f"this family needs A and K of equal parity, got A={A}, K={K}"
        )
    r = A % K
    odd_m = _stack(build_EO(O, m), m + 1)
    odd_next = _stack(build_EO(O, m + 1), m)
    if K % 2 == 0:
        parts = []
        if (K - r) // 2:
            parts.append(_beside(odd_m, (K - r) // 2))
        if r // 2:
            parts.append(_beside(odd_next, r // 2))
    elif r % 2:
        core = _family_matrix(
            f"R2({m})",
            3 * m + 1,
            3,
            _r2_blocks(m),
            m * (m + 1),
            vec_add(
                vec_scale(2 * (m + 1), base_vector(U_ODD, m)),
                vec_scale(m, base_vector(U_ODD, m + 1)),
            ),
        )
        parts = [core]
        if (K - r) // 2 - 1:
            parts.append(_beside(odd_m, (K - r) // 2 - 1))
        if (r - 1) // 2:
            parts.append(_beside(odd_next, (r - 1) // 2))
    else:
        core = _family_matrix(
            f"R3({m})",
            3 * m + 2,
            3,
            _r3_blocks(m),
            m * (m + 1),
            vec_add(
                vec_scale(m + 1, base_vector(U_ODD, m)),
                vec_scale(2 * m, base_vector(U_ODD, m + 1)),
            ),
        )
        parts = [core]
        if (K - r - 1) // 2:
            parts.append(_beside(odd_m, (K - r - 1) // 2))
        if r // 2 - 1:
            parts.append(_beside(odd_next, r // 2 - 1))
    matrix = hcat(parts)
    target = vec_add(
        vec_scale((K - r) * (m + 1), base_vector(U_ODD, m)),
        vec_scale(r * m, base_vector(U_ODD, m + 1)),
    )
    _check_target("build_prop4_A", matrix, target)
    return matrix


# --- attacker matrices for budgets of mismatched parity ----------------------


def _staircase(m: int) -> PartitionMatrix:
    """Two-column block whose cardinality is the spike-sum plus the odd grid."""
    blocks = [
        _Block(
            "R",
            tuple(
                _Part(i, (2 * i, 2 * m - 2 * i + 1), 2 * i) for i in range(1, m + 1)
            ),
        )
    ]
    return _family_matrix(
        f"R({m})",
        2 * m + 1,
        2,
        blocks,
        m * (m + 1),
        vec_add(_vsigma(m), base_vector(U_ODD, m)),
    )


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


_P1_WIDE_BUMP = {
    "S-I": 1,
    "S-II": 2,
    "S-III": 4,
    "S-IV": 4,
    "S-V": 4,
    "S-VI": 1,
    "S-VII": 1,
    "S-VIII": 1,
}

def _p1_wide_rows(m: int) -> list[list[int]]:
    rows: list[list[int]] = []
    for name, tag, groups in _materialize(_p1_single_blocks(m)):
        bump = _P1_WIDE_BUMP[name]
        for _, part_rows in groups:
            for row in part_rows:
                row[bump] += 1
                rows.append(row)
    return rows


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


def _odd_pad(m: int, width_copies: int, height: int, lead: PartitionMatrix | None = None) -> PartitionMatrix:
    """Stacked horizontal run of O-grid blocks, optionally led by an RO block."""
    mats = ([lead] if lead is not None else []) + [build_EO(O, m)] * width_copies
    return _stack(hcat(mats), height)


def _p1_matrix(m: int, K: int, r: int) -> PartitionMatrix:
    if K % 2 == 0:
        parts = [_staircase(m)] * r
        if K // 2 - r:
            parts.append(_odd_pad(m, K // 2 - r, m + 1))
        return hcat(parts)
    if m % 2:
        if K == 2 * r + 1:
            tied = _family_matrix(
                f"S2({m})",
                3 * m + 1,
                3,
                _p1_tied_blocks(m),
                m * (m + 1),
                vec_add(_vsigma(m), vec_scale(m + 2, base_vector(U_ODD, m))),
            )
            return hcat([tied] + [_staircase(m)] * (r - 1))
        pad = _odd_pad(m, (K - 3) // 2 - r, m + 1, lead=build_EO(RO, m))
        return hcat([_staircase(m)] * r + [pad])
    if K >= 5 and r == 1:
        single = _family_matrix(
            f"S3({m})",
            5 * m + 1,
            5,
            _p1_single_blocks(m),
            m * (m + 1),
            vec_add(_vsigma(m), vec_scale(3 * m + 4, base_vector(U_ODD, m))),
        )
        parts = [single]
        if (K - 5) // 2:
            parts.append(_odd_pad(m, (K - 5) // 2, m + 1))
        return hcat(parts)
    if K >= 5 and m <= 6:
        # The S5 split family fails its self-check at m = 2, 4 and 6.
        wide = _rows_matrix(
            f"T4({m})",
            5 * m + 2,
            5,
            _p1_wide_rows(m),
            m * (m + 1),
            vec_add(
                vec_scale(2, _vsigma(m)), vec_scale(m + 3, base_vector(U_ODD, m))
            ),
        )
        parts = [wide] + [_staircase(m)] * (r - 2)
        if (K - 1) // 2 - r:
            parts.append(_odd_pad(m, (K - 1) // 2 - r, m + 1))
        return hcat(parts)
    split = _family_matrix(
        f"S5({m})",
        3 * m + 1,
        3,
        _p1_split_blocks(m),
        m * (m + 1),
        vec_add(_vsigma(m), vec_scale(m + 2, base_vector(U_ODD, m))),
    )
    parts = [split] + [_staircase(m)] * (r - 1)
    if (K - 2 * r - 1) // 2:
        parts.append(_odd_pad(m, (K - 2 * r - 1) // 2, m + 1))
    return hcat(parts)


def _p2_matrix(m: int, K: int, r: int) -> PartitionMatrix:
    if K % 2 == 0:
        return hcat(
            [_staircase(m)] * (K - r) + [_odd_pad(m + 1, r - K // 2, m)]
        )
    if m % 2 == 0:
        if K == 2 * r - 1:
            tied = _family_matrix(
                f"Y2({m})",
                3 * m + 2,
                3,
                _p2_even_blocks(m),
                m * (m + 1),
                vec_add(
                    _vsigma(m),
                    base_vector(U_ODD, m),
                    vec_scale(m, base_vector(U_ODD, m + 1)),
                ),
            )
            return hcat([tied] + [_staircase(m)] * (K - r - 1))
        pad = _odd_pad(m + 1, r - (K + 3) // 2, m, lead=build_EO(RO, m + 1))
        return hcat([_staircase(m)] * (K - r) + [pad])
    tied = _family_matrix(
        f"Y3({m})",
        3 * m + 2,
        3,
        _p2_odd_blocks(m),
        m * (m + 1),
        vec_add(
            _vsigma(m),
            base_vector(U_ODD, m),
            vec_scale(m, base_vector(U_ODD, m + 1)),
        ),
    )
    parts = [tied] + [_staircase(m)] * (K - r - 1)
    if (2 * r - K - 1) // 2:
        parts.append(_odd_pad(m + 1, (2 * r - K - 1) // 2, m))
    return hcat(parts)


def build_prop5_A(m: int, K: int, A: int, point: str) -> PartitionMatrix:
    """Attacker matrix for K-indivisible A; P1 for small remainders, P2 for large."""
    if m < 1 or K < 2:
        raise BadM(f"need m >= 1 and K >= 2, got m={m}, K={K}")
    if A <= K or A % K == 0 or A // K != m:
        raise BadCase(f"need A > K, K not dividing A and m = A // K, got ({m}, {K}, {A})")
    r = A % K
    if point == P1:
        if 2 * r > K:
            raise BadAlpha(f"P1 needs A mod K at most K/2, got {r} over K={K}")
        if K == 3 and m in (2, 4, 6):
            raise ExcludedCase(f"no P1 construction for K=3 with m={m}")
        matrix = _p1_matrix(m, K, r)
        target = vec_add(
            vec_scale(r, _vsigma(m)),
            vec_scale(K * (m + 1) - r * (2 * m + 1), base_vector(U_ODD, m)),
        )
    elif point == P2:
        if 2 * r <= K:
            raise BadAlpha(f"P2 needs A mod K above K/2, got {r} over K={K}")
        matrix = _p2_matrix(m, K, r)
        target = vec_add(
            vec_scale(K - r, vec_add(_vsigma(m), base_vector(U_ODD, m))),
            vec_scale((2 * r - K) * m, base_vector(U_ODD, m + 1)),
        )
    else:
        raise BadCase(f"point must be P1 or P2, got {point!r}")
    _check_target("build_prop5_A", matrix, target)
    return matrix


# --- defender matrices for odd budgets ---------------------------------------


def build_prop6_B(m: int, K: int) -> PartitionMatrix:
    """Defender staircase for budget 2m-1: each level below 2m equally represented."""
    if m < 1 or K < 2:
        raise BadM(f"need m >= 1 and K >= 2, got m={m}, K={K}")
    rows = tuple(
        tuple([i - 1, 2 * m - i] + [0] * (K - 2)) for i in range(1, m + 1)
    )
    matrix = PartitionMatrix(2 * m - 1, K, rows)
    target = vec_add(_delta(K * m - 2 * m + 1), base_vector(U_ODD, m))
    if m > 1:
        target = vec_add(target, base_vector(U_ODD_UP, m))
    _check_target("build_prop6_B", matrix, target)
    return matrix


def _tilde_s_down(m: int, r_s: int) -> list[list[int]]:
    grouped = _materialize(_s_blocks(m, r_s))
    for _, _, groups in grouped:
        for _, part_rows in groups:
            for row in part_rows:
                row[0] -= 1
    return _collapse("tilde-S", 3 * m + r_s - 1, grouped)


def _tilde_t_down(m: int, r_t: int) -> list[list[int]]:
    grouped = _materialize(_t_blocks(m, r_t))
    for name, _, groups in grouped:
        if name == "T-I":
            for _, part_rows in groups:
                for row in part_rows:
                    row[1] -= 1
        else:
            position = 0
            for _, part_rows in groups:
                for row in part_rows:
                    position += 1
                    row[0 if position % 2 else 1] -= 1
    return _collapse("tilde-T", 2 * m + r_t - 1, grouped)


def _full_width_rows(m: int) -> list[list[int]]:
    """The m(m+1) rows (2i+1, 2a, 2b), a + b = m + h - i, of the odd-m core.

    With h = (m-1)/2, each i <= h takes every ordered pair with a, b > h
    twice, and for k = 0..i/2 the pairs (h-i+k, m-k) and (m-k, h-i+k), twice
    each or once each when 2k = i.  The rows for i > h are those for i < h
    under x -> 2m - x.  Each odd entry then appears m+1 times, each even
    entry in [0, 2m] 2m times.
    """
    h = (m - 1) // 2
    lower: list[list[int]] = []
    for i in range(h + 1):
        s = m + h - i
        for a in range(h + 1, s - h):
            lower += [[2 * i + 1, 2 * a, 2 * (s - a)]] * 2
        for k in range(i // 2 + 1):
            reps = 1 if 2 * k == i else 2
            lower += [[2 * i + 1, 2 * (h - i + k), 2 * (m - k)]] * reps
            lower += [[2 * i + 1, 2 * (m - k), 2 * (h - i + k)]] * reps
    return lower + [[2 * m - x for x in row] for row in lower if row[0] < m]


def build_prop7_B(m: int, K: int, B: int) -> PartitionMatrix:
    """Defender matrix for odd B in (2m, Km]: zero spike plus odd/even grid blend.

    Below full width the core is a tilde-S or tilde-T family; at B = Km (K
    and m odd, so no zero spike) it is the 3-column `_full_width_rows` core.
    Either core sits beside copies of E(m), each stacked m times, and zero
    columns fill the rest.
    """
    if m < 1 or K < 2:
        raise BadM(f"need m >= 1 and K >= 2, got m={m}, K={K}")
    if B % 2 == 0:
        raise InfeasibleParity(f"this family needs an odd budget, got B={B}")
    if not 2 * m < B <= K * m:
        raise InfeasibleRange(f"budget {B} outside ({2 * m}, {K * m}]")
    L, r = divmod(B, m)
    if L == K:
        core = _rows_matrix(
            f"full-width core({m})",
            3 * m,
            3,
            _full_width_rows(m),
            m * (m + 1),
            vec_add(
                vec_scale(m + 1, base_vector(U_ODD, m)),
                vec_scale(2 * m, base_vector(U_EVEN, m)),
            ),
        )
        spare = (L - 3) // 2
    elif L % 2:
        core = _rows_matrix(
            f"tilde-S({m},{r})",
            3 * m + r,
            4,
            _tilde_s_down(m, r + 1),
            m * (m + 1),
            vec_add(
                _delta((m - r) * (m + 1)),
                vec_scale(m + 1, base_vector(U_ODD, m)),
                vec_scale(2 * m + r, base_vector(U_EVEN, m)),
            ),
        )
        spare = (L - 3) // 2
    else:
        core = _rows_matrix(
            f"tilde-T({m},{r})",
            2 * m + r,
            3,
            _tilde_t_down(m, r + 1),
            m * (m + 1),
            vec_add(
                _delta((m - r) * (m + 1)),
                vec_scale(m + 1, base_vector(U_ODD, m)),
                vec_scale(m + r, base_vector(U_EVEN, m)),
            ),
        )
        spare = (L - 2) // 2
    parts = [core]
    if spare:
        parts.append(_stack(_beside(build_EO(E, m), spare), m))
    if L < K - 1:
        parts.append(_zeros(m * (m + 1), K - L - 1))
    matrix = hcat(parts)
    target = vec_add(
        _delta((K * m - B) * (m + 1)),
        vec_scale(m + 1, base_vector(U_ODD, m)),
        vec_scale(B - m, base_vector(U_EVEN, m)),
    )
    _check_target("build_prop7_B", matrix, target)
    return matrix


def _tilde_s_up(m: int, r: int) -> list[list[int]]:
    grouped = _materialize(_s_blocks(m, r))
    for name, tag, groups in grouped:
        if name == "S-I":
            for index, part_rows in groups:
                if len(part_rows) != 2:
                    raise ConstructionMismatch(
                        f"S-I part {index}: expected 2 rows, got {len(part_rows)}"
                    )
                part_rows[0][0] += 1
                part_rows[1][2] += 1
        elif name == "S-IV":
            for _, part_rows in groups:
                part_rows[0][2] += 1
                for row in part_rows[1:]:
                    row[0] += 1
        else:
            for _, part_rows in groups:
                for row in part_rows:
                    row[0] += 1
    return _collapse("tilde-S", 3 * m + r + 1, grouped)


def _tilde_t_up(m: int, r: int) -> list[list[int]]:
    grouped = _materialize(_t_blocks(m, r))
    half = r // 2
    for name, tag, groups in grouped:
        if name == "T-I":
            for index, part_rows in groups:
                if 1 <= index <= half - 1:
                    if len(part_rows) < 2:
                        raise ConstructionMismatch(
                            f"T-I part {index}: needs 2 rows for the increment rule"
                        )
                    part_rows[0][0] += 1
                    part_rows[1][0] += 1
                    for row in part_rows[2:]:
                        row[1] += 1
                elif index == 0 or half <= index <= m - half:
                    part_rows[0][0] += 1
                    for row in part_rows[1:]:
                        row[1] += 1
                else:
                    raise ConstructionMismatch(
                        f"T-I part {index}: outside both increment rules"
                    )
        elif name == "T-II":
            for index, part_rows in groups:
                if index == tag:
                    for row in part_rows:
                        row[1] += 1
                else:
                    part_rows[0][0] += 1
                    part_rows[1][1] += 1
        else:
            position = 0
            for _, part_rows in groups:
                for row in part_rows:
                    position += 1
                    row[0 if position % 2 else 1] += 1
    return _collapse("tilde-T", 2 * m + r + 1, grouped)


def build_prop10_B(m: int, K: int, B: int) -> PartitionMatrix:
    """Defender matrix for odd B in [2m+1, Km]: zero spike plus enlarged odd grid."""
    if m < 1 or K < 2:
        raise BadM(f"need m >= 1 and K >= 2, got m={m}, K={K}")
    if B % 2 == 0:
        raise InfeasibleParity(f"this family needs an odd budget, got B={B}")
    if not 2 * m + 1 <= B <= K * m:
        raise InfeasibleRange(f"budget {B} outside [{2 * m + 1}, {K * m}]")
    base = B - 1
    L, r = divmod(base, m)
    counts = vec_add(
        _delta((m - r) * (m + 1)),
        vec_scale(m, base_vector(U_ODD, m + 1)),
        vec_scale(m + r, base_vector(U_EVEN, m)),
    )
    if L % 2:
        core = _rows_matrix(
            f"tilde-S({m},{r})",
            3 * m + r + 1,
            4,
            _tilde_s_up(m, r),
            m * (m + 1),
            vec_add(
                _delta((m - r) * (m + 1)),
                vec_scale(m, base_vector(U_ODD, m + 1)),
                vec_scale(2 * m + r, base_vector(U_EVEN, m)),
            ),
        )
        spare = (L - 3) // 2
    else:
        if r == 0:
            rows = [
                [0, 2 * i + 1, 2 * m - 2 * i]
                for _ in range(m)
                for i in range(m + 1)
            ]
        else:
            rows = _tilde_t_up(m, r)
        core = _rows_matrix(
            f"tilde-T({m},{r})", 2 * m + r + 1, 3, rows, m * (m + 1), counts
        )
        spare = (L - 2) // 2
    parts = [core]
    if spare:
        parts.append(_stack(_beside(build_EO(E, m), spare), m))
    if K - L - 1:
        parts.append(_zeros(m * (m + 1), K - L - 1))
    matrix = hcat(parts)
    target = vec_add(
        _delta((K * m - base) * (m + 1)),
        vec_scale(m, base_vector(U_ODD, m + 1)),
        vec_scale(base - m, base_vector(U_EVEN, m)),
    )
    _check_target("build_prop10_B", matrix, target)
    return matrix


# --- exhaustive search --------------------------------------------------------


def _completions(
    rem: Mapping[int, int], target: int, slots: int, cap: int, odd_allow: int
) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of `slots` values drawn from `rem`, each at most
    `cap`, summing to `target` and using at most `odd_allow` odd values;
    yielded in descending lexicographic order."""
    vals = [v for v in sorted(rem, reverse=True) if v <= cap and rem[v] > 0]

    def gen(idx: int, slots: int, target: int, odd_allow: int) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            if target == 0:
                yield ()
            return
        if idx == len(vals):
            return
        value = vals[idx]
        if value * slots < target:
            return
        top = min(rem[value], slots)
        if value:
            top = min(top, target // value)
        if value % 2:
            top = min(top, odd_allow)
        for take in range(top, -1, -1):
            head = (value,) * take
            left_odd = odd_allow - take if value % 2 else odd_allow
            for rest in gen(idx + 1, slots - take, target - take * value, left_odd):
                yield head + rest

    return gen(0, slots, target, odd_allow)


def _attempt(
    counts: Mapping[int, int], budget: int, K: int, L: int, spent: list[int]
) -> list[tuple[int, ...]] | None:
    rem = dict(counts)
    odd_total = sum(c for v, c in rem.items() if v % 2)
    rows: list[tuple[int, ...]] = []

    def place(left: int, odd_left: int) -> bool:
        if left == 0:
            return True
        pivot = max(v for v, c in rem.items() if c)
        rem[pivot] -= 1
        odd_left -= pivot % 2
        # An odd budget makes every row consume at least one odd value, so a
        # row may not take odds that later rows will be starved of.
        odd_allow = odd_left - (left - 1) if budget % 2 else odd_left
        bound = rows[-1][1:] if rows and rows[-1][0] == pivot else None
        for completion in _completions(rem, budget - pivot, K - 1, pivot, odd_allow):
            # Count every generated completion, rejected ones included, so
            # the budget bounds the work done and not only the rows tried.
            spent[0] += 1
            if spent[0] > _NODE_BUDGET:
                raise SearchExceeded(
                    f"row search exceeded {_NODE_BUDGET} placements"
                )
            if bound is not None and completion > bound:
                continue
            used_odd = sum(1 for v in completion if v % 2)
            for v in completion:
                rem[v] -= 1
            rows.append((pivot,) + completion)
            if place(left - 1, odd_left - used_odd):
                return True
            rows.pop()
            for v in completion:
                rem[v] += 1
        rem[pivot] += 1
        return False

    return rows if place(L, odd_total) else None


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
    old_limit = sys.getrecursionlimit()
    try:
        L = base
        while L * battlefields <= max_rows:
            sys.setrecursionlimit(max(old_limit, L + budget + 128))
            counts = {
                point: int(weight * L * battlefields)
                for point, weight in target.items
            }
            found = _attempt(counts, budget, battlefields, L, spent)
            if found is not None:
                return PartitionMatrix(budget, battlefields, tuple(found))
            L += base
    finally:
        sys.setrecursionlimit(old_limit)
    return None
