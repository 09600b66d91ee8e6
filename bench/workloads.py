"""Seeded workload inputs and the calls that run them against the program.

Every workload is a closed loop with one client: one process, one thread,
and each op starts when the previous one returns.  A round runs the
workload's op list for its seed, with some fixed instances of the solve
workload repeated (see ODD_REPEATS).  The seed only chooses the
generated instances, and the program sees nothing but those instances.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import gate

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: The fixed odd full-width set of the ROADMAP, less (34,33,3): one op of
#: it runs 21-46 s here, longer than a whole run, so it would be sampled
#: once per run and the run's figures would follow the host's speed at that
#: moment.  Its time is recorded once, in baseline.json, for ROADMAP item 2.
ODD_FULL_WIDTH = ((22, 21, 3), (28, 27, 3), (86, 85, 5), (96, 95, 5), (93, 91, 7))
#: Five seeded full-width draws with K in {5, 7} and m in {7, 9}: dearer
#: than (22,21,3) and cheaper than (93,91,7).
ODD_DRAWS = 5
ODD_DRAW_M = (7, 9)

#: Fixed instances run several times per round, spread evenly across it, so
#: that the run's median latency is a mid-block sample of (22,21,3), its
#: tail one of (93,91,7), and its maximum the median of several (96,95,5).
#: Every other op runs once per round.
ODD_REPEATS = {ODD_FULL_WIDTH[0]: 40, ODD_FULL_WIDTH[4]: 10, ODD_FULL_WIDTH[2]: 4, ODD_FULL_WIDTH[3]: 2}

LOTTO_K = range(2, 7)
LOTTO_M = range(1, 9)
#: Draws per (K, m) cell, each from its own equal slice of B's range, so
#: that every seed gives a round of about the same cost.
LOTTO_DRAWS = 3

WORKLOADS = ("solve-odd-full-width", "sweep-grid", "lotto-oracle")


class MissingProgram(Exception):
    """The checkout holds no importable blottokit sources."""


def load_program() -> SimpleNamespace:
    """Import blottokit from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "blottokit" / "__init__.py").is_file():
        raise MissingProgram(f"no blottokit package under {src}")
    sys.path.insert(0, str(src))
    modules = {
        name: importlib.import_module(f"blottokit.{name}")
        for name in ("blotto", "cli", "constructions", "errors", "general_lotto", "verify")
    }
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise MissingProgram(f"blottokit was imported from {origin}, not {src}")
    errors = modules["errors"]
    typed = tuple(
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    )
    return SimpleNamespace(typed_errors=typed, **modules)


def program_digest() -> str:
    """sha256 over the solver's sources, naming the code a count was made with."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blottokit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def dp_cells(budget: int, K: int) -> int:
    """Cells of one best-response DP: (K-1) layers of (budget+1)(budget+2)/2."""
    return (K - 1) * (budget + 1) * (budget + 2) // 2


def odd_full_width_instances(seed: int) -> list[tuple[int, int, int]]:
    rng = random.Random(seed)
    drawn = []
    for _ in range(ODD_DRAWS):
        K, m = rng.choice((5, 7)), rng.choice(ODD_DRAW_M)
        drawn.append((K * m + rng.randint(1, (K - 1) // 2), K * m, K))
    return list(ODD_FULL_WIDTH) + drawn


def lotto_instances(seed: int) -> list[tuple[int, int, int, int]]:
    """LOTTO_DRAWS (K, m, r, B) per cell of the criterion-4 grid, with B >= m + 1.

    B >= m + 1 keeps the odd-mass floor 1/K in scope, so every op runs both
    the unconstrained and the constrained game.
    """
    rng = random.Random(seed)
    return [
        (K, m, rng.randint(1, K - 1), m + 1 + int((j + rng.random()) * (K - 1) * m / LOTTO_DRAWS))
        for K in LOTTO_K
        for m in LOTTO_M
        for j in range(LOTTO_DRAWS)
    ]


@dataclass
class Outcome:
    """What one op returned: a typed failure, or output for the gate."""

    failed: bool
    output: object = None
    units: int = 1
    output_bytes: int = 0


def _cli(program, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _typed_failure(program, code: int, stderr: str) -> bool:
    """A CLI exit 1 naming one of the package's own error classes."""
    names = {cls.__name__ for cls in program.typed_errors}
    return code == 1 and stderr.partition(":")[0] in names


def _schedule(ops: list, repeats: dict) -> list[int]:
    """Op indices of one round: each op of `repeats` that many times, the rest once,
    every op's runs spread evenly over the round."""
    once = [i for i, op in enumerate(ops) if op not in repeats]
    events = [((j + 0.5) / len(once), i) for j, i in enumerate(once)]
    for op, count in repeats.items():
        events += [((k + 0.5) / count, ops.index(op)) for k in range(count)]
    return [i for _, i in sorted(events)]


class Workload:
    """A named op list plus the calls that run and check one op."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.csv_path = OUT_DIR / f"{name}-seed{seed}.csv"
        if name == "solve-odd-full-width":
            self.ops = odd_full_width_instances(seed)
            self.schedule = _schedule(self.ops, ODD_REPEATS)
        else:
            self.ops = [gate.SWEEP_GRID_ARGS] if name == "sweep-grid" else lotto_instances(seed)
            self.schedule = list(range(len(self.ops)))

    @property
    def warmup(self):
        """The op run once before timing: the first op, or a small sweep."""
        if self.name == "sweep-grid":
            return gate.WARMUP_SWEEP_ARGS
        return self.ops[0]

    def execute(self, program, op) -> Outcome:
        if self.name == "lotto-oracle":
            return self._lotto(program, op)
        if self.name == "sweep-grid":
            return self._sweep(program, op)
        A, B, K = op
        code, stdout, stderr = _cli(program, ["solve", "--a", str(A), "--b", str(B), "--k", str(K)])
        if _typed_failure(program, code, stderr):
            return Outcome(failed=True)
        return Outcome(False, (code, stdout, stderr), 1, len(stdout.encode()))

    def _sweep(self, program, op) -> Outcome:
        self.csv_path.parent.mkdir(exist_ok=True)
        code, stdout, stderr = _cli(program, ["sweep", *op, "--out", str(self.csv_path)])
        if _typed_failure(program, code, stderr):
            return Outcome(failed=True)
        data = self.csv_path.read_bytes() if code == 0 else b""
        rows = data.count(b"\n") - 1
        return Outcome(False, (code, stdout, stderr, data), rows, len(stdout.encode()) + len(data))

    def _lotto(self, program, op) -> Outcome:
        gl = program.general_lotto
        K, m, r, B = op
        a, b = Fraction(m * K + r, K), Fraction(B, K)
        results = []
        try:
            for floor in (None, Fraction(1, K)):
                spec = gl.LottoSpec(a, b, floor)
                optimal_A = gl.lotto_optimal_A(spec)
                optimal_B = gl.lotto_optimal_B(spec)
                results.append(
                    {
                        "value": gl.lotto_value(spec),
                        "optimal_A": optimal_A.items,
                        "optimal_B": optimal_B.items,
                        "reply_A": gl.envelope_best_response(optimal_B, a),
                        "reply_B": gl.envelope_best_response(optimal_A, b, floor),
                    }
                )
        except program.typed_errors:
            return Outcome(failed=True)
        return Outcome(False, results)

    def check(self, op, outcome: Outcome) -> None:
        """Raise gate.GateError unless the op's output is right."""
        if outcome.failed:
            return
        if self.name == "lotto-oracle":
            K, m, r, B = op
            a, b = Fraction(m * K + r, K), Fraction(B, K)
            for floor, result in zip((None, Fraction(1, K)), outcome.output):
                gate.check_lotto(a, b, floor, result)
            return
        code, stdout, stderr = outcome.output[:3]
        if code != 0:
            raise gate.GateError(f"{self.name} op {op} exited {code}: {stderr.strip()}")
        if self.name == "sweep-grid":
            gate.check_sweep(op, stdout, outcome.output[3])
        else:
            gate.check_solve(*op, stdout)
