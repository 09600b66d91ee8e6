"""Command-line behaviour: output formats, exit codes, and file round-trips."""

from __future__ import annotations

import json

import pytest

from blottokit import cli, constructions
from blottokit.blotto import GameSpec, solve
from blottokit.cli import main
from blottokit.constructions import matrix_from_json, matrix_to_json
from blottokit.distributions import dist_from_json, dist_to_json


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
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
