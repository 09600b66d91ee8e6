"""Correctness gate, independent of the solver's own code.

Every expected number here is re-derived from the closed-form table in the
README (regimes, values, the mean-budget relaxation) without importing the
package under test, so a wrong output cannot certify itself.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

SWEEP_GRID_ARGS = ("--kmax", "6", "--amax", "30")
WARMUP_SWEEP_ARGS = ("--kmax", "3", "--amax", "8")
#: Row count and sha256 of each `blottokit sweep` CSV, recorded from the
#: solver as it was when the benchmark was defined; the CSV is byte-stable.
SWEEPS = {
    SWEEP_GRID_ARGS: (2140, "a592b8ebac8a93efa4a5f044a5a69f887cf076feddec41503050bbace2075434"),
    WARMUP_SWEEP_ARGS: (52, "0e25d1532b8a2275ef783ffb9599efefcef9cd42b6f73328d2b85bb89b9ffc0b"),
}

_EXCLUDED_A_FOR_K3 = frozenset({7, 13, 19})
SOLVED = frozenset(
    {"LOW_B_TRIVIAL", "LOW_B_EQUAL", "HIGH_B_DIV", "HIGH_B_NDIV_EVEN", "HIGH_B_NDIV_ODD"}
)


class GateError(Exception):
    """A program output disagrees with the independently derived answer."""


def case_of(A: int, B: int, K: int) -> str:
    """Regime tag of (A, B, K), read off the README table."""
    m, R = divmod(A, K)
    if B < m:
        return "LOW_B_TRIVIAL"
    if B == m:
        return "LOW_B_EQUAL" if m <= 2 or K - R <= 2 else "UNSOLVED_INTERMEDIATE"
    if R == 0:
        if (A - K) % 2:
            return "UNSOLVED_HART_REGIME"
        return "HIGH_B_DIV" if B >= 2 * m - 2 else "UNSOLVED_INTERMEDIATE"
    if B > K * m:
        return "UNSOLVED_HART_REGIME"
    if B % 2 == 0:
        return "HIGH_B_NDIV_EVEN" if B >= 2 * m else "UNSOLVED_INTERMEDIATE"
    if B <= 2 * m:
        return "UNSOLVED_INTERMEDIATE"
    if K == 3 and A in _EXCLUDED_A_FOR_K3:
        return "UNSOLVED_EXCLUDED"
    return "HIGH_B_NDIV_ODD"


def value_of(A: int, B: int, K: int) -> Fraction:
    """Closed-form value of a solved instance for the stronger player."""
    case = case_of(A, B, K)
    m, R = divmod(A, K)
    if case == "LOW_B_TRIVIAL":
        return Fraction(1)
    if case == "LOW_B_EQUAL":
        return Fraction(K * K - K + R, K * K)
    if case == "HIGH_B_DIV":
        return Fraction(A - B, A)
    if case in ("HIGH_B_NDIV_EVEN", "HIGH_B_NDIV_ODD"):
        even = Fraction(A - B, A) - Fraction(B * R * (K - R), A * (A - R) * (A + K - R))
        if case == "HIGH_B_NDIV_EVEN":
            return even
        return even + Fraction(min(R, K - R), (A - R) * (A + K - R))
    raise GateError(f"({A}, {B}, {K}) is {case}, which has no closed form")


def _parse_rat(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _check_matrix(side: str, matrix: dict, budget: int, K: int) -> None:
    if matrix.get("budget") != budget or matrix.get("battlefields") != K:
        raise GateError(f"{side}-matrix header {matrix.get('budget')}/{matrix.get('battlefields')}")
    rows = matrix.get("rows")
    if not rows:
        raise GateError(f"{side}-matrix has no rows")
    for row in rows:
        if len(row) != K or sum(row) != budget or min(row) < 0:
            raise GateError(f"{side}-matrix row {row} is not a {K}-partition of {budget}")


def check_solve(A: int, B: int, K: int, stdout: str) -> None:
    """Check one `solve` JSON against the closed form and the matrix shapes."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise GateError(f"solve ({A},{B},{K}) printed no JSON: {exc}") from None
    want_case = case_of(A, B, K)
    if report.get("case") != want_case:
        raise GateError(f"solve ({A},{B},{K}) case {report.get('case')}, expected {want_case}")
    want = value_of(A, B, K)
    got = {key: _parse_rat(report[key]) for key in ("value", "secured_A", "secured_B")}
    if not got["value"] == got["secured_A"] == got["secured_B"] == want:
        raise GateError(f"solve ({A},{B},{K}) reported {got}, closed form {want}")
    _check_matrix("A", report["A"], A, K)
    _check_matrix("B", report["B"], B, K)


def check_sweep(args: tuple[str, ...], stdout: str, data: bytes) -> None:
    """A sweep's CSV must be byte-identical to the recorded one."""
    rows, sha256 = SWEEPS[args]
    if not stdout.startswith(f"{rows} rows -> "):
        raise GateError(f"sweep {' '.join(args)} printed {stdout.strip()!r}, expected {rows} rows")
    digest = hashlib.sha256(data).hexdigest()
    if digest != sha256:
        raise GateError(f"sweep {' '.join(args)} CSV sha256 {digest}, expected {sha256}")


def lotto_value_of(a: Fraction, b: Fraction, c: Fraction | None) -> Fraction:
    """Value of the mean-budget game for fractional a and b <= floor(a)."""
    m = a.numerator // a.denominator
    alpha = a - m
    if alpha == 0 or not 0 < b <= m:
        raise GateError(f"lotto ({a}, {b}) is outside the fractional closed form")
    value = 1 - (1 - alpha) * b / m - alpha * b / (m + 1)
    if c is not None:
        value += c * min(alpha, 1 - alpha) / (m * (m + 1))
    return value


def _mean_and_odd_mass(items) -> tuple[Fraction, Fraction]:
    mean = sum((point * weight for point, weight in items), Fraction(0))
    odd = sum((weight for point, weight in items if point % 2), Fraction(0))
    return mean, odd


def check_lotto(a: Fraction, b: Fraction, c: Fraction | None, result: dict) -> None:
    """Exact checks of one value / strategies / envelope-reply quadruple.

    `result` holds the program's `value`, `optimal_A`, `optimal_B` (items of
    each distribution) and the two envelope replies `reply_A` (A against
    optimal_B) and `reply_B` (B against optimal_A, under the floor c).
    """
    want = lotto_value_of(a, b, c)
    label = f"lotto (a={a}, b={b}, c={c})"
    if result["value"] != want:
        raise GateError(f"{label} value {result['value']}, closed form {want}")
    if result["reply_A"] != want or result["reply_B"] != -want:
        raise GateError(
            f"{label} envelope replies {result['reply_A']}, {result['reply_B']} "
            f"do not meet value {want}"
        )
    mean_a, _ = _mean_and_odd_mass(result["optimal_A"])
    mean_b, odd_b = _mean_and_odd_mass(result["optimal_B"])
    if mean_a != a or mean_b != b:
        raise GateError(f"{label} strategy means {mean_a}, {mean_b}")
    if c is not None and odd_b < c:
        raise GateError(f"{label} weaker strategy odd mass {odd_b} below floor {c}")
