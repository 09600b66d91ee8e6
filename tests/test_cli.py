"""Command-line behaviour: output formats, exit codes, and file round-trips."""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from blottokit import cli, constructions
from blottokit.blotto import GameSpec, classify, is_solved, report_to_json, solve
from blottokit.cli import main
from blottokit.constructions import (
    E,
    PartitionMatrix,
    build_EO,
    matrix_from_json,
    matrix_to_json,
)
from blottokit.distributions import dist_from_json, dist_to_json
from blottokit.errors import ConstructionMismatch, DimensionMismatch, InfeasibleRange


def run(capsys, *argv: str) -> tuple[object, str, str]:
    """`main`'s exit code, also from a `SystemExit`, with its stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_prints_exact_rational(capsys):
    code, out, err = run(capsys, "value", "--a", "7", "--b", "6", "--k", "2")
    assert (code, out, err) == (0, "1/8\n", "")
    code, out, _ = run(capsys, "value", "--a", "7", "--b", "2", "--k", "3")
    assert (code, out) == (0, "7/9\n")


def test_classify_prints_tag(capsys):
    code, out, _ = run(capsys, "classify", "--a", "7", "--b", "5", "--k", "3")
    assert (code, out) == (0, "UNSOLVED_EXCLUDED\n")
    code, out, _ = run(capsys, "classify", "--a", "6", "--b", "4", "--k", "2")
    assert (code, out) == (0, "HIGH_B_DIV\n")


def test_solve_emits_full_report(capsys):
    code, out, _ = run(capsys, "solve", "--a", "7", "--b", "6", "--k", "2")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"A", "B", "value", "secured_A", "secured_B", "case"}
    assert blob["value"] == blob["secured_A"] == blob["secured_B"] == "1/8"
    report = solve(GameSpec(7, 6, 2))
    assert matrix_from_json(blob["A"]) == report.strategy_A
    assert matrix_from_json(blob["B"]) == report.strategy_B


def test_cli_stdout_bytes_are_pinned(capsys, tmp_path):
    """`solve` on every solved instance with K <= 5, A <= 20, then `verify` and
    `implement` outputs (a false and a true flag, nested dicts), byte for byte."""
    digest = hashlib.sha256()
    solved = 0
    for K in range(2, 6):
        for A in range(K + 1, 21):
            for B in range(1, A):
                if is_solved(classify(GameSpec(A, B, K))):
                    argv = ("solve", "--a", str(A), "--b", str(B), "--k", str(K))
                    code, out, _ = run(capsys, *argv)
                    assert code == 0
                    digest.update(out.encode())
                    solved += 1
    stacked = tmp_path / "stacked.json"
    stacked.write_text(
        json.dumps(
            {
                "A": matrix_to_json(PartitionMatrix(7, 2, ((7, 0),))),
                "B": matrix_to_json(build_EO(E, 3)),
            }
        ),
        encoding="utf-8",
    )
    outputs = [
        run(capsys, "verify", "--a", "7", "--b", "6", "--k", "2", "--strategies", str(stacked)),
        run(capsys, "verify", "--a", "13", "--b", "8", "--k", "4"),
    ]
    for weights, c, k, *flags in (
        ({"0": "1/3", "2": "1/3", "4": "1/3"}, 4, 2),
        ({"0": "1/2", "4": "1/2"}, 4, 2, "--search"),
        ({"0": "1/3", "1": "1/6", "2": "1/6", "3": "1/6", "4": "1/6"}, 5, 3),
    ):
        dist = json.dumps({"weights": weights})
        outputs.append(
            run(capsys, "implement", "--dist", dist, "--c", str(c), "--k", str(k), *flags)
        )
    for code, out, _ in outputs:
        assert code == 0
        digest.update(out.encode())
    assert solved == 513
    assert (
        digest.hexdigest()
        == "2c76a62d415c30f28d707f8c4de530a9a7e20c52314642091a94428e0ca65908"
    )


def indented_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2)` with every list of ints on one line."""
    return re.sub(
        r"\[[-\d,\s]*\]",
        lambda match: json.dumps(json.loads(match.group())),
        json.dumps(payload, indent=2),
    )


def random_matrix(rng: random.Random) -> PartitionMatrix:
    battlefields, budget = rng.randint(1, 9), rng.randint(0, 40)
    rows = []
    for _ in range(rng.randint(1, 12)):
        cuts = sorted(rng.randint(0, budget) for _ in range(battlefields - 1))
        rows.append(tuple(b - a for a, b in zip([0, *cuts], [*cuts, budget])))
    return PartitionMatrix(budget, battlefields, tuple(rows))


def test_emit_writes_the_indented_layout_of_every_verb_payload(capsys):
    """`solve`, `verify` and `implement` payloads, and seeded random matrices,
    against the layout json.dumps(indent=2) gives them."""
    specs = ((7, 2, 3), (7, 6, 2), (22, 21, 3), (93, 91, 7), (100, 2, 40), (1001, 500, 10))
    payloads = [report_to_json(solve(GameSpec(*spec))) for spec in specs]
    for flag in (True, False):
        payloads.append({"secured_A": "3/4", "secured_B": "2/3", "equilibrium": flag})
    payloads.append(matrix_to_json(build_EO(E, 3)))
    rng = random.Random(20261020)
    for _ in range(40):
        a, b = random_matrix(rng), random_matrix(rng)
        payloads += [matrix_to_json(a), {"A": matrix_to_json(a), "B": matrix_to_json(b)}]
    for payload in payloads:
        cli._emit(payload)
        assert capsys.readouterr().out == indented_json(payload) + "\n"


@pytest.mark.parametrize(
    "rows, layout",
    [([[-1, 2], [], [0]], '[\n    [-1, 2],\n    [],\n    [0]\n  ]')],
    ids=["int-rows"],
)
def test_emit_writes_only_int_rows_in_one_piece(capsys, rows, layout):
    # A matrix's rows, one per line, each as json.dumps writes it.
    cli._emit({"rows": rows})
    assert capsys.readouterr().out == '{\n  "rows": ' + layout + "\n}\n"


def readme_cli_examples() -> list[tuple[str, str]]:
    """Each `$ blottokit ...` line in README.md with the output printed under it."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    examples: list[tuple[str, list[str]]] = []
    output: list[str] | None = None  # the open example's lines, inside a fence
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            output = None
        elif line.startswith("$ blottokit "):
            output = []
            examples.append((line[len("$ blottokit ") :], output))
        elif output is not None:
            output.append(line)
    return [(command, "\n".join(lines).rstrip("\n") + "\n") for command, lines in examples]


def test_readme_cli_examples_match_the_program(capsys, tmp_path, monkeypatch):
    # The examples name relative files; run them in a scratch directory, with
    # the strategies file holding the (7, 2, 3) equilibrium they verify.
    monkeypatch.chdir(tmp_path)
    report = solve(GameSpec(7, 2, 3))
    (tmp_path / "strategies.json").write_text(
        json.dumps(
            {"A": matrix_to_json(report.strategy_A), "B": matrix_to_json(report.strategy_B)}
        ),
        encoding="utf-8",
    )
    examples = readme_cli_examples()
    assert [command.split()[0] for command, _ in examples] == [
        "value",
        "classify",
        "solve",
        "verify",
        "lotto-value",
        "implement",
        "sweep",
    ]
    for command, expected in examples:
        assert run(capsys, *shlex.split(command)) == (0, expected, ""), command
    assert (tmp_path / "sweep.csv").is_file()


def test_verify_round_trips_stored_strategies(capsys, tmp_path):
    report = solve(GameSpec(7, 6, 2))
    stored = tmp_path / "strategies.json"
    stored.write_text(
        json.dumps(
            {"A": matrix_to_json(report.strategy_A), "B": matrix_to_json(report.strategy_B)}
        ),
        encoding="utf-8",
    )
    args = ("verify", "--a", "7", "--b", "6", "--k", "2")
    code, fresh, _ = run(capsys, *args)
    assert code == 0
    code, from_file, _ = run(capsys, *args, "--strategies", str(stored))
    assert code == 0
    assert json.loads(from_file) == json.loads(fresh)
    assert json.loads(fresh) == {
        "secured_A": "1/8",
        "secured_B": "1/8",
        "equilibrium": True,
    }


def test_verify_without_strategies_reuses_the_solve_certificate(capsys, tmp_path, monkeypatch):
    args = ("verify", "--a", "13", "--b", "8", "--k", "4")
    expected = run(capsys, *args)
    report = solve(GameSpec(13, 8, 4))
    stored = tmp_path / "strategies.json"
    stored.write_text(
        json.dumps(
            {"A": matrix_to_json(report.strategy_A), "B": matrix_to_json(report.strategy_B)}
        ),
        encoding="utf-8",
    )
    certified = []

    def no_certify(*args):
        certified.append(args)
        raise AssertionError("verify certified a pair that solve already certified")

    monkeypatch.setattr(cli, "certify", no_certify)
    assert run(capsys, *args) == expected
    assert certified == []
    # Stored strategies are certified by the CLI itself.
    with pytest.raises(AssertionError):
        main([*args, "--strategies", str(stored)])
    assert len(certified) == 1


def test_verify_rejects_malformed_strategy_files(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    args = ("verify", "--a", "7", "--b", "6", "--k", "2", "--strategies")
    code, _, err = run(capsys, *args, str(bad))
    assert code == 1
    assert "JSONDecodeError" in err
    code, _, err = run(capsys, *args, str(tmp_path / "missing.json"))
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf-8", "nested-too-deep"],
)
def test_verify_rejects_unreadable_strategy_files(capsys, tmp_path, content):
    stored = tmp_path / "strategies.json"
    stored.write_bytes(content)
    code, out, err = run(
        capsys, "verify", "--a", "7", "--b", "6", "--k", "2", "--strategies", str(stored)
    )
    assert (code, out) == (1, "")
    assert err.startswith("MalformedJSON: cannot read strategies file as JSON")
    assert err.count("\n") == 1


def test_verify_rejects_matrix_without_battlefields(capsys, tmp_path):
    report = solve(GameSpec(7, 6, 2))
    broken = matrix_to_json(report.strategy_A)
    del broken["battlefields"]
    stored = tmp_path / "strategies.json"
    stored.write_text(
        json.dumps({"A": broken, "B": matrix_to_json(report.strategy_B)}), encoding="utf-8"
    )
    code, out, err = run(
        capsys, "verify", "--a", "7", "--b", "6", "--k", "2", "--strategies", str(stored)
    )
    assert (code, out) == (1, "")
    assert err.startswith("MalformedJSON:") and "battlefields" in err
    assert err.count("\n") == 1


def test_verify_rejects_a_strategies_file_without_b(capsys, tmp_path):
    report = solve(GameSpec(7, 6, 2))
    stored = tmp_path / "strategies.json"
    stored.write_text(json.dumps({"A": matrix_to_json(report.strategy_A)}), encoding="utf-8")
    code, out, err = run(
        capsys, "verify", "--a", "7", "--b", "6", "--k", "2", "--strategies", str(stored)
    )
    assert (code, out) == (1, "")
    assert err == (
        f"{DimensionMismatch.__name__}: strategies file must hold partition matrices "
        "under keys 'A' and 'B'\n"
    )


def test_verify_rejects_non_integer_matrix_entries(capsys, tmp_path):
    stored = tmp_path / "strategies.json"
    stored.write_text(
        json.dumps(
            {
                "A": {"budget": 3, "battlefields": 2, "rows": [[1.5, 2.5], [2.9, 1]]},
                "B": {"budget": 1, "battlefields": 2, "rows": [[True, 0], ["0", 1.7]]},
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run(
        capsys, "verify", "--a", "3", "--b", "1", "--k", "2", "--strategies", str(stored)
    )
    assert (code, out) == (1, "")
    assert err.startswith("MalformedJSON:") and "1.5" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "dist",
    [{"foo": 1}, {"weights": {"0": "x"}}],
    ids=["no-weights-key", "non-rational-weight"],
)
def test_implement_rejects_malformed_distribution(capsys, dist):
    code, out, err = run(
        capsys, "implement", "--dist", json.dumps(dist), "--c", "4", "--k", "3"
    )
    assert (code, out) == (1, "")
    assert err.startswith("MalformedJSON:")
    assert err.count("\n") == 1


def test_implement_rejects_two_keys_for_one_point(capsys):
    # Weights summing to 2: "01" used to overwrite "1" and print [[1, 1]].
    dist = json.dumps({"weights": {"1": "1", "01": "1"}})
    code, out, err = run(capsys, "implement", "--dist", dist, "--c", "2", "--k", "2")
    assert (code, out) == (1, "")
    assert err == (
        "MalformedJSON: distribution JSON is malformed: point key '01' is not written as 1\n"
    )


def test_implement_reads_a_weight_only_in_the_form_format_rat_writes(capsys):
    # "1_0/10" used to read as 1 and print [[1, 1]].
    dist = json.dumps({"weights": {"1": "1_0/10"}})
    code, out, err = run(capsys, "implement", "--dist", dist, "--c", "2", "--k", "2")
    assert (code, out) == (1, "")
    assert err.startswith("MalformedJSON: ")


def test_implement_search_says_no_to_a_support_above_the_budget(capsys):
    dist = json.dumps({"weights": {"0": "3/4", "4": "1/4"}})
    code, out, err = run(capsys, "implement", "--dist", dist, "--c", "2", "--k", "2", "--search")
    assert (code, out) == (1, "")
    assert err.startswith("UnsolvedCase: ")


def test_implement_rejects_deeply_nested_distribution_json(capsys):
    with pytest.raises(SystemExit) as excinfo:
        nested = "[" * 100_000 + "]" * 100_000
        main(["implement", "--dist", nested, "--c", "4", "--k", "2"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --dist: invalid JSON: maximum recursion depth" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--c", "2", "--k", "1"), "need at least two battlefields, got 1"),
        (("--c", "-1", "--k", "2"), "budget must be non-negative, got -1"),
    ],
    ids=["one-battlefield", "negative-budget"],
)
def test_implement_rejects_an_out_of_range_width_or_budget(capsys, flags, message):
    dist = json.dumps({"weights": {"1": "1"}})
    code, out, err = run(capsys, "implement", "--dist", dist, *flags)
    assert (code, out, err) == (1, "", f"{InfeasibleRange.__name__}: {message}\n")


def test_implement_matches_named_builder(capsys):
    dist = json.dumps({"weights": {"0": "1/3", "2": "1/3", "4": "1/3"}})
    code, out, _ = run(capsys, "implement", "--dist", dist, "--c", "4", "--k", "2")
    assert code == 0
    matrix = matrix_from_json(json.loads(out))
    assert matrix.budget == 4 and matrix.battlefields == 2
    assert matrix.to_dist() == dist_from_json(json.loads(dist))


def test_implement_falls_back_to_search_on_request(capsys):
    dist = json.dumps({"weights": {"0": "1/2", "4": "1/2"}})
    code, _, err = run(capsys, "implement", "--dist", dist, "--c", "4", "--k", "2")
    assert code == 1
    assert "UnsolvedCase" in err and "--search" in err
    code, out, _ = run(
        capsys, "implement", "--dist", dist, "--c", "4", "--k", "2", "--search"
    )
    assert code == 0
    matrix = matrix_from_json(json.loads(out))
    assert matrix.to_dist() == dist_from_json(json.loads(dist))


def test_implement_never_searches_without_the_flag(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("implement searched without --search")

    monkeypatch.setattr(cli, "generic_implement", no_search)
    monkeypatch.setattr(constructions, "generic_implement", no_search)
    # No named builder realizes this target, so it needs --search.
    dist = json.dumps({"weights": {"0": "1/2", "22": "1/2"}})
    code, _, err = run(capsys, "implement", "--dist", dist, "--c", "33", "--k", "3")
    assert code == 1
    assert err.startswith("UnsolvedCase:") and "--search" in err
    # Closed-form prop7_B targets are found, at full width and below it.
    for m, k, c in ((1, 3, 3), (2, 3, 5), (3, 5, 15)):
        target = constructions.build_prop7_B(m, k, c).to_dist()
        dist = json.dumps(dist_to_json(target))
        code, out, _ = run(capsys, "implement", "--dist", dist, "--c", str(c), "--k", str(k))
        assert code == 0
        assert matrix_from_json(json.loads(out)).to_dist() == target


def test_implement_reports_a_failed_builder_self_check(capsys, monkeypatch):
    target = constructions.build_prop7_B(2, 3, 5).to_dist()
    dist = json.dumps(dist_to_json(target))
    argv = ("implement", "--dist", dist, "--c", "5", "--k", "3")

    # A builder that does not apply is skipped, and the search goes on.
    def not_here(*args):
        raise InfeasibleRange("not applicable")

    monkeypatch.setattr(cli, "build_prop3_B", not_here)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert matrix_from_json(json.loads(out)).to_dist() == target

    # A builder whose self-check fails is reported, not skipped.
    def mismatched(*args):
        raise ConstructionMismatch("build_prop7_B: counts differ from the target")

    monkeypatch.setattr(cli, "build_prop7_B", mismatched)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "ConstructionMismatch: build_prop7_B: counts differ from the target\n"


def test_implement_rejects_mean_mismatch(capsys):
    dist = json.dumps({"weights": {"0": "1/2", "2": "1/2"}})
    code, _, err = run(capsys, "implement", "--dist", dist, "--c", "4", "--k", "2")
    assert code == 1
    assert err.startswith("MeanMismatch:")


def test_lotto_value_with_and_without_floor(capsys):
    code, out, _ = run(capsys, "lotto-value", "--a", "7/3", "--b", "5/3")
    assert (code, out) == (0, "7/27\n")
    code, out, _ = run(capsys, "lotto-value", "--a", "7/3", "--b", "5/3", "--c", "1/3")
    assert (code, out) == (0, "5/18\n")


def test_sweep_writes_stable_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "sweep", "--kmax", "2", "--amax", "5", "--out", str(out_path)
    )
    assert code == 0
    assert out == f"9 rows -> {out_path}\n"
    first = out_path.read_bytes()
    assert first.startswith(b"K,A,B,case,value,secured_A,secured_B,certified\n")
    run(capsys, "sweep", "--kmax", "2", "--amax", "5", "--out", str(out_path))
    assert out_path.read_bytes() == first


def test_usage_errors_exit_with_code_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["lotto-value", "--a", "7//3", "--b", "1"])
    assert excinfo.value.code == 2
    assert "not a rational" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, usage",
    [
        (("value", "--a", "1_0", "--b", "3", "--k", "3"), "--a: '1_0' is not written as 10"),
        (("solve", "--a", "7", "--b", " 6", "--k", "2"), "--b: ' 6' is not written as 6"),
        (("classify", "--a", "7", "--b", "5", "--k", "+3"), "--k: '+3' is not written as 3"),
        (
            ("implement", "--dist", '{"weights": {"1": "1"}}', "--c", "02", "--k", "2"),
            "--c: '02' is not written as 2",
        ),
        (
            ("implement", "--dist", '{"weights": {"1": "1"}}', "--c", "2", "--k", "\u0662"),
            "--k: '\u0662' is not written as 2",
        ),
        (
            ("sweep", "--kmax", "2_0", "--amax", "5", "--out", "unused.csv"),
            "--kmax: '2_0' is not written as 20",
        ),
        (
            ("sweep", "--kmax", "2", "--amax", "5 ", "--out", "unused.csv"),
            "--amax: '5 ' is not written as 5",
        ),
        (
            ("value", "--a", "x", "--b", "3", "--k", "3"),
            "--a: invalid literal for int() with base 10: 'x'",
        ),
        (("lotto-value", "--a", " 7 / 2 ", "--b", "1"), "--a: ' 7 ' is not written as 7"),
        (("lotto-value", "--a", "7/2", "--b", "1/-2"), "--b: not a rational: '1/-2'"),
    ],
)
def test_number_flags_read_only_the_forms_the_program_writes(
    capsys, tmp_path, monkeypatch, argv, usage
):
    # `int()` reads every one of these numbers but "x"; read that way,
    # `value --a 1_0 --b 3 --k 3` printed 7/9 and
    # `lotto-value --a ' 7 / 2 ' --b 1` printed 17/24.  Integer and
    # rational flags alike give the reader's reason.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {usage}\n")
    assert not (tmp_path / "unused.csv").exists()


def test_domain_errors_exit_with_code_1(capsys):
    code, _, err = run(capsys, "value", "--a", "9", "--b", "3", "--k", "3")
    assert code == 1
    assert err.startswith("UnsolvedCase:")
    code, _, err = run(capsys, "value", "--a", "3", "--b", "3", "--k", "2")
    assert code == 1
    assert err.startswith("OutOfTheoremScope:")
    code, _, err = run(capsys, "lotto-value", "--a", "2", "--b", "1", "--c", "3/4")
    assert code == 1
    assert err.startswith("OutOfTheoremScope:")


def test_main_builds_no_parser_and_looks_up_commands_per_call(capsys, monkeypatch):
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert run(capsys, "value", "--a", "7", "--b", "6", "--k", "2") == (0, "1/8\n", "")

    # Tracers time the CLI by swapping the names `main` reaches through `cli`.
    reports = []
    report_to_json = cli.report_to_json

    def recorded(report):
        reports.append(report)
        return report_to_json(report)

    monkeypatch.setattr(cli, "report_to_json", recorded)
    code, out, _ = run(capsys, "solve", "--a", "7", "--b", "6", "--k", "2")
    assert code == 0
    assert json.loads(out)["value"] == "1/8"
    assert reports == [solve(GameSpec(7, 6, 2))]


def test_main_carries_nothing_between_calls(capsys, monkeypatch):
    """Each call, made in one process, matches the same call on a fresh parser."""
    calls = [
        (None, ["value", "--a", "7"]),
        (None, ["value", "--a", "5", "--b", "5", "--k", "2"]),
        ("40", ["--help"]),
        ("200", ["--help"]),
        (None, ["solve", "--a", "7", "--b", "6", "--k", "2"]),
    ]
    shared, fresh = [], []
    for columns, argv in calls:
        if columns is not None:
            monkeypatch.setenv("COLUMNS", columns)
        shared.append(run(capsys, *argv))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_PARSER", cli.build_parser())
            fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 1, 0, 0, 0]
    assert shared[1][2].startswith("OutOfTheoremScope:")
    narrow, wide = shared[2][1], shared[3][1]
    assert narrow != wide
    assert len(narrow.splitlines()) > len(wide.splitlines())


def test_entry_points_parse_the_process_arguments(capsys, monkeypatch):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = ["value", "--a", "7", "--b", "6", "--k", "2"]
    result = subprocess.run(
        [sys.executable, "-m", "blottokit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "1/8\n", "")

    monkeypatch.setattr(sys, "argv", ["blottokit", *argv])
    assert main() == 0
    assert capsys.readouterr() == ("1/8\n", "")
