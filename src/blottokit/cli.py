"""Command-line front end: solve, value, classify, implement, lotto-value, sweep, verify."""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Iterator

from .blotto import GameSpec, blotto_value, classify, report_to_json, solve, sweep_certify
from .constructions import (
    E,
    O,
    P1,
    P2,
    PartitionMatrix,
    RE,
    RO,
    build_EO,
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
)
from .distributions import U_EVEN, U_ODD, Dist, base_dist, dist_from_json, mean
from .errors import BlottoError, DimensionMismatch, InfeasibleRange, MeanMismatch, UnsolvedCase
from .exactmath import Rat, format_rat, parse_rat
from .general_lotto import LottoSpec, lotto_value
from .verify import certify, rows_to_csv


def _rat_arg(text: str) -> Rat:
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _json_arg(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise argparse.ArgumentTypeError("distribution JSON must be an object")
    return obj


_FLAT_LIST = re.compile(r"\[\s+(-?\d+(?:,\s+-?\d+)*)\s+\]")


def _emit(payload: object) -> None:
    # Indented JSON, but with innermost integer lists (matrix rows) kept on
    # one line so partition matrices stay readable.
    text = json.dumps(payload, indent=2)
    print(_FLAT_LIST.sub(lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text))


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
    """Yield matrices from the named builders that could realize the target."""
    if budget % battlefields == 0 and budget >= battlefields:
        grid = budget // battlefields
        for kind in (U_ODD, U_EVEN):
            if target == base_dist(kind, grid):
                # A recognized grid distribution with an infeasible budget
                # parity is a definitive no, so let the builder's error out.
                yield implement_u(kind, grid, budget, battlefields)

    builders = [
        lambda m: build_prop3_B(m, battlefields, budget),
        lambda m: build_prop4_A(m, battlefields, budget),
        lambda m: build_prop5_A(m, battlefields, budget, P1),
        lambda m: build_prop5_A(m, battlefields, budget, P2),
        lambda m: build_prop6_B(m, battlefields),
        lambda m: build_prop7_B(m, battlefields, budget),
        lambda m: build_prop10_B(m, battlefields, budget),
    ]
    if battlefields == 2:
        builders += [lambda m: build_EO(E, m), lambda m: build_EO(O, m)]
    if battlefields == 3:
        builders += [lambda m: build_EO(RE, m), lambda m: build_EO(RO, m)]
    # Every builder at parameter m tops out at 2m - 1, 2m or 2m + 1.
    top = target.max_support()
    for m in range(max(top // 2, 1), (top + 1) // 2 + 1):
        for builder in builders:
            try:
                yield builder(m)
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
    match: PartitionMatrix | None = None
    for candidate in _closed_form_candidates(target, args.c, args.k):
        if (
            candidate.budget == args.c
            and candidate.battlefields == args.k
            and candidate.to_dist() == target
        ):
            match = candidate
            break
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
        with open(args.strategies, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or "A" not in payload or "B" not in payload:
            raise DimensionMismatch(
                "strategies file must hold partition matrices under keys 'A' and 'B'"
            )
        strategy_a = matrix_from_json(payload["A"])
        strategy_b = matrix_from_json(payload["B"])
    else:
        report = solve(spec)
        strategy_a, strategy_b = report.strategy_A, report.strategy_B
    cert = certify(strategy_a, strategy_b, spec.A, spec.B, spec.K)
    _emit(
        {
            "secured_A": format_rat(cert.secured_by_A),
            "secured_B": format_rat(cert.secured_by_B),
            "equilibrium": cert.equilibrium,
        }
    )


def _add_game_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=int, required=True, help="stronger player's budget")
    parser.add_argument("--b", type=int, required=True, help="weaker player's budget")
    parser.add_argument("--k", type=int, required=True, help="number of battlefields")


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
    implement_p.add_argument("--c", type=int, required=True, help="per-row budget")
    implement_p.add_argument(
        "--k", type=int, required=True, help="number of battlefields"
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
    sweep_p.add_argument("--kmax", type=int, required=True, help="largest battlefield count")
    sweep_p.add_argument("--amax", type=int, required=True, help="largest stronger budget")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except BlottoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
