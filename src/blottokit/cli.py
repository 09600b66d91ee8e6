"""Command-line front end: solve, value, classify, implement, lotto-value, sweep, verify."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, Iterator

from .blotto import GameSpec, blotto_value, classify, report_to_json, solve, sweep_certify
from .constructions import (
    PartitionMatrix,
    build_prop3_B,
    build_prop4_A,
    build_prop5_A,
    build_prop6_B,
    build_prop7_B,
    build_prop10_B,
    generic_implement,
    implement_u,
    matrix_from_json,
    matrix_to_json,
    prop5_point,
)
from .distributions import U_EVEN, U_ODD, Dist, base_dist, dist_from_json, mean
from .errors import (
    BlottoError,
    ConstructionMismatch,
    DimensionMismatch,
    InfeasibleRange,
    MalformedJSON,
    MeanMismatch,
    UnsolvedCase,
)
from .exactmath import Rat, format_rat, parse_int, parse_rat
from .general_lotto import LottoSpec, lotto_value
from .verify import certify, rows_to_csv


def _number_arg(read: Callable[[str], int | Rat]) -> Callable[[str], int | Rat]:
    """`read` as an argparse type: a text it refuses is a usage error that
    gives its reason, such as `argument --a: '1_0' is not written as 10`."""

    def arg(text: str) -> int | Rat:
        try:
            return read(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return arg


_int_arg, _rat_arg = _number_arg(parse_int), _number_arg(parse_rat)


def _json_arg(text: str) -> dict:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json's decoder recurses once per nesting level.
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise argparse.ArgumentTypeError("distribution JSON must be an object")
    return obj


def _layout(payload: dict, newline: str) -> str:
    """`json.dumps(payload, indent=2)`, for the dicts the verbs print.

    Values are JSON scalars, nested dicts, or a list, which is always a
    matrix's rows: plain ints, as `PartitionMatrix` guarantees, all written
    by one dumps and split one row per line.  Written here because indent
    makes json fall back to its pure-Python encoder.
    """
    inner = newline + "  "
    items = []
    for key, value in payload.items():
        if isinstance(value, dict):
            text = _layout(value, inner)
        elif isinstance(value, list):
            row = inner + "  "
            rows = json.dumps(value)[1:-1].replace("], [", "]," + row + "[")
            text = "[" + row + rows + inner + "]"
        else:
            text = json.dumps(value)
        items.append(json.dumps(key) + ": " + text)
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _emit(payload: dict) -> None:
    print(_layout(payload, "\n"))


def _cmd_solve(args: argparse.Namespace) -> None:
    _emit(report_to_json(solve(GameSpec(args.a, args.b, args.k))))


def _cmd_value(args: argparse.Namespace) -> None:
    print(format_rat(blotto_value(GameSpec(args.a, args.b, args.k))))


def _cmd_classify(args: argparse.Namespace) -> None:
    print(classify(GameSpec(args.a, args.b, args.k)).value)


def _cmd_lotto_value(args: argparse.Namespace) -> None:
    print(format_rat(lotto_value(LottoSpec(args.a, args.b, args.c))))


def _closed_form_candidates(
    target: Dist, budget: int, battlefields: int
) -> Iterator[PartitionMatrix]:
    """Yield matrices on `battlefields` columns from the named builders that
    could realize the target.  A grid target goes to `implement_u`, whose
    matrices at K = 2 and K = 3 are the E/O and RE/RO grids."""
    if budget % battlefields == 0 and budget >= battlefields:
        grid = budget // battlefields
        for kind in (U_ODD, U_EVEN):
            if target == base_dist(kind, grid):
                # A recognized grid distribution with an infeasible budget
                # parity is a definitive no, so let the builder's error out.
                yield implement_u(kind, grid, budget, battlefields)

    # Prop. 5's other point raises BadAlpha at this budget.
    point = prop5_point(battlefields, budget % battlefields)
    builders = [
        lambda m: build_prop3_B(m, battlefields, budget),
        lambda m: build_prop4_A(m, battlefields, budget),
        lambda m: build_prop5_A(m, battlefields, budget, point),
        lambda m: build_prop6_B(m, battlefields),
        lambda m: build_prop7_B(m, battlefields, budget),
        lambda m: build_prop10_B(m, battlefields, budget),
    ]
    # Every builder at parameter m tops out at 2m - 1, 2m or 2m + 1.
    top = target.max_support()
    for m in range(max(top // 2, 1), (top + 1) // 2 + 1):
        for builder in builders:
            try:
                yield builder(m)
            except ConstructionMismatch:
                # A builder that fails its own self-check is a bug, not a no.
                raise
            except BlottoError:
                continue


def _cmd_implement(args: argparse.Namespace) -> None:
    target = dist_from_json(args.dist)
    if args.k < 2:
        raise InfeasibleRange(f"need at least two battlefields, got {args.k}")
    if args.c < 0:
        raise InfeasibleRange(f"budget must be non-negative, got {args.c}")
    if mean(target) != Fraction(args.c, args.k):
        raise MeanMismatch(
            f"distribution mean {format_rat(mean(target))} does not match "
            f"budget {args.c} over {args.k} battlefields"
        )
    candidates = _closed_form_candidates(target, args.c, args.k)
    match = next((m for m in candidates if m.budget == args.c and m.to_dist() == target), None)
    if match is None and args.search:
        match = generic_implement(target, args.c, args.k)
    if match is None:
        hint = "" if args.search else "; retry with --search"
        raise UnsolvedCase(
            f"no known construction realizes this distribution with budget "
            f"{args.c} over {args.k} battlefields{hint}"
        )
    _emit(matrix_to_json(match))


def _cmd_sweep(args: argparse.Namespace) -> None:
    rows = sweep_certify(args.kmax, args.amax)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(rows_to_csv(rows))
    print(f"{len(rows)} rows -> {args.out}")


def _cmd_verify(args: argparse.Namespace) -> None:
    spec = GameSpec(args.a, args.b, args.k)
    if args.strategies is not None:
        try:
            with open(args.strategies, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (UnicodeDecodeError, RecursionError) as exc:
            raise MalformedJSON(f"cannot read strategies file as JSON: {exc}") from None
        if not isinstance(payload, dict) or "A" not in payload or "B" not in payload:
            raise DimensionMismatch(
                "strategies file must hold partition matrices under keys 'A' and 'B'"
            )
        strategy_a = matrix_from_json(payload["A"])
        strategy_b = matrix_from_json(payload["B"])
        cert = certify(strategy_a, strategy_b, spec.A, spec.B, spec.K)
    else:
        # `solve` has already certified its own pair.
        cert = solve(spec).certificate
    _emit(
        {
            "secured_A": format_rat(cert.secured_by_A),
            "secured_B": format_rat(cert.secured_by_B),
            "equilibrium": cert.equilibrium,
        }
    )


def _add_game_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=_int_arg, required=True, help="stronger player's budget")
    parser.add_argument("--b", type=_int_arg, required=True, help="weaker player's budget")
    parser.add_argument("--k", type=_int_arg, required=True, help="number of battlefields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blottokit",
        description="Exact solver for the asymmetric discrete Colonel Blotto game.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    solve_p = sub.add_parser(
        "solve", help="equilibrium strategies, value, and certificate as JSON"
    )
    _add_game_flags(solve_p)
    solve_p.set_defaults(func=_cmd_solve)

    value_p = sub.add_parser("value", help="exact game value as p/q")
    _add_game_flags(value_p)
    value_p.set_defaults(func=_cmd_value)

    classify_p = sub.add_parser("classify", help="regime tag for an instance")
    _add_game_flags(classify_p)
    classify_p.set_defaults(func=_cmd_classify)

    implement_p = sub.add_parser(
        "implement", help="partition matrix realizing a distribution"
    )
    implement_p.add_argument(
        "--dist",
        type=_json_arg,
        required=True,
        help='distribution JSON, e.g. \'{"weights": {"0": "1/2", "2": "1/2"}}\'',
    )
    implement_p.add_argument("--c", type=_int_arg, required=True, help="per-row budget")
    implement_p.add_argument(
        "--k", type=_int_arg, required=True, help="number of battlefields"
    )
    implement_p.add_argument(
        "--search",
        action="store_true",
        help="fall back to exhaustive row search when no named builder matches",
    )
    implement_p.set_defaults(func=_cmd_implement)

    lotto_p = sub.add_parser(
        "lotto-value", help="value of the mean-budget relaxation as p/q"
    )
    lotto_p.add_argument(
        "--a", type=_rat_arg, required=True, help="stronger player's mean budget (p/q)"
    )
    lotto_p.add_argument(
        "--b", type=_rat_arg, required=True, help="weaker player's mean budget (p/q)"
    )
    lotto_p.add_argument(
        "--c",
        type=_rat_arg,
        default=None,
        help="minimum odd mass imposed on the weaker player (p/q)",
    )
    lotto_p.set_defaults(func=_cmd_lotto_value)

    sweep_p = sub.add_parser(
        "sweep", help="classify, solve, and certify a grid; write CSV"
    )
    sweep_p.add_argument("--kmax", type=_int_arg, required=True, help="largest battlefield count")
    sweep_p.add_argument("--amax", type=_int_arg, required=True, help="largest stronger budget")
    sweep_p.add_argument("--out", required=True, help="output CSV path")
    sweep_p.set_defaults(func=_cmd_sweep)

    verify_p = sub.add_parser(
        "verify", help="best-response certificate for stored or fresh strategies"
    )
    _add_game_flags(verify_p)
    verify_p.add_argument(
        "--strategies",
        default=None,
        help="JSON file holding partition matrices under keys 'A' and 'B'",
    )
    verify_p.set_defaults(func=_cmd_verify)

    return parser


# Built once: building it costs more than solving a small instance, and
# `parse_args` never writes to it (help formatters are made per call).
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
    except (BlottoError, OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
