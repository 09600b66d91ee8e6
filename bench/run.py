"""Run one blottokit benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the solver is imported from its `src`.
With `--trace 0` the workload runs as a closed loop with one client in
whole rounds until they have taken S seconds, and the end-to-end metrics
are printed.  wall_s is the mean round time.  The latency percentiles are over
every op run; the tail is the highest percentile that leaves ten samples
beyond it in every round (the median if a round has fewer than 11 ops); the
maximum is the slowest op's median, since a single extreme sample is noise.
With `--trace 1` it runs one untraced and one traced round, checks that
the computed per-op counts equal those of any earlier traced run of the
same seed and sources, writes the spans to `.bench_out/`, and prints the
per-layer metrics.  Every output is checked
by `gate`; the last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 12

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "latency_max_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = [
    "verify.best_response_value.calls",
    "verify.best_response_value.busy_s",
    "verify.best_response_value.dp_cells",
    "verify.certify.busy_s",
    "constructions.generic_implement.calls",
    "constructions.generic_implement.busy_s",
    "constructions.generic_implement.errors",
    "general_lotto.envelope_best_response.calls",
    "general_lotto.envelope_best_response.busy_s",
    "general_lotto.envelope_best_response.triples",
    "general_lotto.targets.calls",
    "general_lotto.targets.busy_s",
    "distributions.mix.busy_s",
    "distributions.vbar.busy_s",
    "constructions.build.calls",
    "constructions.build.busy_s",
    "constructions.build.rows",
    "constructions.build.errors",
    *(f"constructions.{name}.busy_s" for name in tracing.BUILDERS),
    "constructions.to_dist.calls",
    "constructions.to_dist.busy_s",
    "blotto.classify.calls",
    "blotto.classify.busy_s",
    "blotto.solve.self_s",
    "blotto.solve.errors",
    "blotto.fallbacks",
    "blotto.report_to_json.busy_s",
    "verify.sweep_certify.self_s",
    "verify.rows_to_csv.busy_s",
    "cli.main.self_s",
    "cli.output_bytes",
    "trace.overhead_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclass
class Round:
    """A checked round; its outputs are dropped, so memory does not grow with the run."""

    wall_ns: int
    samples_ns: list[list[int]]  # per op index, one latency per run of the op
    units: int
    output_bytes: int


def run_round(workload, program, tally: Tally, tracer=None) -> Round:
    """The round's ops back to back, timed; outputs are checked after the clock stops."""
    samples = [[] for _ in workload.ops]
    runs = []
    start = time.perf_counter_ns()
    for index in workload.schedule:
        if tracer is not None:
            tracer.op = index
        began = time.perf_counter_ns()
        outcome = workload.execute(program, workload.ops[index])
        samples[index].append(time.perf_counter_ns() - began)
        runs.append((index, outcome))
        tally.attempted += 1
        tally.failed += outcome.failed
    wall = time.perf_counter_ns() - start
    for index, outcome in runs:
        workload.check(workload.ops[index], outcome)
    outcomes = [outcome for _, outcome in runs if not outcome.failed]
    return Round(wall, samples, sum(o.units for o in outcomes), sum(o.output_bytes for o in outcomes))


def setup_probe(workload) -> float:
    """Seconds for a fresh interpreter to import, generate the inputs and warm up."""
    began = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload.name, str(workload.seed)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - began


def tail_fraction(count: int) -> float:
    """Tail percentile / 100 for rounds of `count` ops: ten samples beyond it in
    every round, or the median when a round has fewer than 11 ops."""
    return (count - 11) / (count - 1) if count >= 11 else 0.5


def end_to_end(workload, program, seconds: int, tally: Tally) -> tuple[dict, dict]:
    """Whole rounds until they have taken `seconds`, each from a collected heap.

    The set-up probes run between rounds, spread over the run like its rounds.
    """
    probes, rounds, busy = [], [], 0.0
    while not rounds or busy < seconds:
        if len(probes) < SETUP_PROBES * busy / seconds + 1:
            probes.append(setup_probe(workload))
        gc.collect()
        rounds.append(run_round(workload, program, tally))
        busy += rounds[-1].wall_ns / 1e9
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload))
    latencies = sorted(ns for r in rounds for samples in r.samples_ns for ns in samples)
    per_op = [statistics.median(ns for r in rounds for ns in r.samples_ns[i]) for i in range(len(workload.ops))]
    tail = tail_fraction(len(workload.schedule))
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": busy / len(rounds),
        "ops_per_s": sum(r.units for r in rounds) / busy,
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_tail_ms": latencies[round(tail * (len(latencies) - 1))] / 1e6,
        "latency_max_ms": max(per_op) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "rounds": len(rounds),
        "latency_samples": len(latencies),
        "latency_tail_percentile": round(100 * tail, 2),
        "latency_tail_samples_beyond": len(latencies) - 1 - round(tail * (len(latencies) - 1)),
        "fail_ratio": tally.failed / tally.attempted,
        "op_median_ms": {str(op): round(ns / 1e6, 3) for op, ns in zip(workload.ops, per_op)},
    }
    return metrics, notes


def counts_repeat(workload, counts: dict) -> str:
    """Fail unless an earlier traced run of this seed and source computed the same counts."""
    path = workloads.OUT_DIR / f"counts-{workload.name}-seed{workload.seed}-{workloads.program_digest()[:16]}.json"
    text = json.dumps({str(op): c for op, c in sorted(counts.items())}, sort_keys=True)
    if path.exists():
        if path.read_text(encoding="utf-8") != text:
            raise gate.GateError(f"per-op counts differ from the earlier run recorded in {path.name}")
        return "match an earlier run of this seed"
    path.write_text(text, encoding="utf-8")
    return "recorded for the next run of this seed"


def per_layer(workload, program, tally: Tally, points) -> tuple[dict, dict]:
    """One untraced and one traced round of the same ops; the spans go to `.bench_out/`."""
    untraced = run_round(workload, program, tally)
    fallbacks = len(program.blotto.fallback_events)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, points):
        traced = run_round(workload, program, tally, tracer)
    fallbacks = len(program.blotto.fallback_events) - fallbacks
    workloads.OUT_DIR.mkdir(exist_ok=True)
    counts = tracing.op_counts(tracer.spans)
    repeat = counts_repeat(workload, counts)
    stats = tracing.layer_stats(tracer.spans)
    special = {
        "blotto.fallbacks": fallbacks,
        "cli.output_bytes": traced.output_bytes,
        "trace.overhead_s": (traced.wall_ns - untraced.wall_ns) / 1e9,
    }
    metrics = {}
    for name in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        else:
            span, _, key = name.rpartition(".")
            metrics[name] = stats.get(span, {}).get(key, 0)
    path = workloads.OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "ops": workload.ops,
                "schedule": workload.schedule,
                "wall_ns": traced.wall_ns,
                "op_counts": {str(op): c for op, c in counts.items()},
                "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "error", "work"],
                "spans": [span.as_list() for span in tracer.spans],
            },
            handle,
        )
    return metrics, {"spans": str(path.relative_to(workloads.ROOT)), "per_op_counts": repeat}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        program = workloads.load_program()
    except workloads.MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.Workload(args.workload, args.seed)
    points = tracing.patch_points(program)
    originals = tracing.snapshot(points)
    tally = Tally()
    try:
        warmup = workload.warmup
        workload.check(warmup, workload.execute(program, warmup))
        if args.trace:
            metrics, notes = per_layer(workload, program, tally, points)
        else:
            metrics, notes = end_to_end(workload, program, args.seconds, tally)
        if not tracing.unchanged(originals):
            raise gate.GateError("a patched attribute was left bound to a wrapper")
    except gate.GateError as exc:
        print(f"bench: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, tally.attempted),
                          "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        workload.csv_path.unlink(missing_ok=True)
    units = END_TO_END if not args.trace else {name: layer_unit(name) for name in PER_LAYER}
    print(f"# {workload.name} seed={workload.seed} trace={args.trace} {json.dumps(notes)}")
    for name, value in metrics.items():
        print(f"# {name:48s} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
