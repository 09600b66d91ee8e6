"""Self-tests of the benchmark: span arithmetic, patching, gate, inputs.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import types
from collections import Counter
from fractions import Fraction

import pytest

import gate
import run
import tracing
import workloads

PROGRAM = workloads.load_program()


def _span(name, start, end, parent=None, work=None):
    return tracing.Span(name, start, end, parent=parent, op=0, work=work)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 40, parent=0),
        _span("b", 30, 60, parent=0),  # overlaps a: together they cover 10..60
        _span("leaf", 15, 20, parent=1),
        _span("late", 90, 130, parent=0),  # runs past its parent: clipped to 90..100
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 5, 40]


def test_layer_stats_count_nested_spans_of_one_name_once_for_busy_time():
    spans = [
        _span("x", 0, 1_000_000_000, work={"rows": 3}),
        _span("x", 200_000_000, 700_000_000, parent=0, work={"rows": 4}),
        _span("y", 800_000_000, 900_000_000, parent=0),
    ]
    stats = tracing.layer_stats(spans)
    assert stats["x"]["calls"] == 2
    assert stats["x"]["busy_s"] == pytest.approx(1.0)
    assert stats["x"]["self_s"] == pytest.approx(0.4 + 0.5)
    assert stats["x"]["rows"] == 7
    assert stats["y"]["self_s"] == pytest.approx(0.1)


def test_wrappers_are_restored_after_an_exception_inside_a_wrapped_call():
    module = types.ModuleType("fake")

    def boom(x):
        raise ValueError(x)

    module.boom = boom
    tracer = tracing.Tracer()
    points = [(module, "boom", "fake.boom", None)]
    with pytest.raises(ValueError):
        with tracing.installed(tracer, points):
            assert module.boom is not boom
            module.boom(1)
    assert module.boom is boom
    assert [(s.name, s.error) for s in tracer.spans] == [("fake.boom", "ValueError")]


def test_program_attributes_are_restored_when_a_traced_call_raises():
    points = tracing.patch_points(PROGRAM)
    saved = tracing.snapshot(points)
    tracer = tracing.Tracer()
    with pytest.raises(PROGRAM.errors.UnsolvedCase):
        with tracing.installed(tracer, points):
            assert not tracing.unchanged(saved)
            PROGRAM.blotto.blotto_value(PROGRAM.blotto.GameSpec(9, 3, 3))
    assert tracing.unchanged(saved)
    assert [(s.name, s.error) for s in tracer.spans] == [
        ("blotto.blotto_value", "UnsolvedCase"),
        ("blotto.classify", None),
    ]


def _solve_json(A, B, K):
    workload = workloads.Workload("solve-odd-full-width", 0)
    outcome = workload.execute(PROGRAM, (A, B, K))
    code, stdout, _ = outcome.output
    assert code == 0
    return stdout


def test_gate_accepts_a_right_solve_and_rejects_a_tampered_value():
    stdout = _solve_json(7, 6, 2)
    gate.check_solve(7, 6, 2, stdout)
    report = json.loads(stdout)
    for key in ("value", "secured_A", "secured_B"):
        tampered = dict(report, **{key: "1/7"})
        with pytest.raises(gate.GateError):
            gate.check_solve(7, 6, 2, json.dumps(tampered))
    bad_row = dict(report, A=dict(report["A"], rows=[[7, 1]] + report["A"]["rows"][1:]))
    with pytest.raises(gate.GateError):
        gate.check_solve(7, 6, 2, json.dumps(bad_row))


def test_gate_rejects_a_tampered_csv():
    workload = workloads.Workload("sweep-grid", 0)
    try:
        outcome = workload.execute(PROGRAM, gate.WARMUP_SWEEP_ARGS)
    finally:
        workload.csv_path.unlink(missing_ok=True)
    code, stdout, _, data = outcome.output
    assert code == 0
    gate.check_sweep(gate.WARMUP_SWEEP_ARGS, stdout, data)
    tampered = data.replace(b"true", b"fals", 1)
    assert hashlib.sha256(tampered).hexdigest() != hashlib.sha256(data).hexdigest()
    with pytest.raises(gate.GateError):
        gate.check_sweep(gate.WARMUP_SWEEP_ARGS, stdout, tampered)


def test_gate_rejects_a_tampered_lotto_reply():
    workload = workloads.Workload("lotto-oracle", 0)
    op = workload.ops[-1]
    outcome = workload.execute(PROGRAM, op)
    workload.check(op, outcome)
    outcome.output[1]["reply_B"] += Fraction(1, 10**9)
    with pytest.raises(gate.GateError):
        workload.check(op, outcome)


def test_gate_classifier_matches_the_solver_on_a_grid():
    b = PROGRAM.blotto
    for K in range(2, 9):
        for A in range(2, 41):
            for B in range(1, A):
                spec = b.GameSpec(A, B, K)
                assert gate.case_of(A, B, K) == b.classify(spec).value, (A, B, K)
                if gate.case_of(A, B, K) in gate.SOLVED:
                    assert gate.value_of(A, B, K) == b.blotto_value(spec)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_inputs_are_a_function_of_the_seed(seed):
    for name in workloads.WORKLOADS:
        assert workloads.Workload(name, seed).ops == workloads.Workload(name, seed).ops
    for A, B, K in workloads.odd_full_width_instances(seed):
        assert B % K == 0 and (B // K) % 2 == 1 and gate.case_of(A, B, K) == "HIGH_B_NDIV_ODD"
    for K, m, r, B in workloads.lotto_instances(seed):
        assert 1 <= r < K and m + 1 <= B <= K * m


def test_a_round_runs_each_op_its_count():
    workload = workloads.Workload("solve-odd-full-width", 3)
    ran = [workload.ops[i] for i in workload.schedule]
    repeats = workloads.ODD_REPEATS
    assert Counter(ran) == Counter(op for op in workload.ops for _ in range(repeats.get(op, 1)))


def test_tail_percentile_leaves_ten_samples_beyond_each_round_or_takes_the_median():
    assert [run.tail_fraction(n) for n in (1, 10, 11, 51)] == [0.5, 0.5, 0.0, 0.8]


def _main(capsys, *argv):
    code = run.main(["--workload", "lotto-oracle", "--seed", "987654", "--seconds", "1", *argv])
    out = capsys.readouterr().out.splitlines()
    return code, out[0], json.loads(out[-1])


def test_untraced_run_leaves_every_patched_attribute_alone(capsys):
    saved = tracing.snapshot(tracing.patch_points(PROGRAM))
    code, _, result = _main(capsys, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert tracing.unchanged(saved)


def test_traced_runs_of_one_seed_must_repeat_their_counts(capsys):
    for path in workloads.OUT_DIR.glob("counts-lotto-oracle-seed987654-*.json"):
        path.unlink()
    saved = tracing.snapshot(tracing.patch_points(PROGRAM))
    code, notes, result = _main(capsys, "--trace", "1")
    assert code == 0 and "recorded" in notes
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["general_lotto.envelope_best_response.triples"]["value"] > 0
    assert tracing.unchanged(saved)
    code, notes, _ = _main(capsys, "--trace", "1")
    assert code == 0 and "match" in notes
    (recorded,) = workloads.OUT_DIR.glob("counts-lotto-oracle-seed987654-*.json")
    recorded.write_text(recorded.read_text().replace('"triples": ', '"triples": 1', 1))
    code, _, result = _main(capsys, "--trace", "1")
    assert code == 1 and not result["correct"]
    recorded.unlink()


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
