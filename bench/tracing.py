"""Spans around the program's layer boundaries, timed from outside.

A traced round swaps each public function for a timing wrapper at the
module attribute through which the program calls it, and puts the original
object back afterwards, also when a call raises.  Spans stay in memory and
are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

from workloads import dp_cells

#: Builders that `solve` dispatches to; `build_prop5_A` is split by its point.
BUILDERS = (
    "implement_u",
    "build_prop3_B",
    "build_prop4_A",
    "build_prop5_A_P1",
    "build_prop5_A_P2",
    "build_prop6_B",
    "build_prop7_B",
    "build_prop10_B",
)
BUILD_SPANS = frozenset(f"constructions.{name}" for name in BUILDERS)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "work")

    def __init__(self, name, start, end=None, parent=None, op=None, error=None, work=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.error = error
        self.work = work

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.error, self.work]


class Tracer:
    """Collects nested spans in one thread; `op` tags the spans of one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = None

    def wrap(self, name, fn, work=None):
        """`fn` inside a span; `work(args, kwargs, result)` returns its counts."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            span = Span(label, 0, parent=open_[-1] if open_ else None, op=self.op)
            spans.append(span)
            open_.append(index)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter_ns()
                span.error = type(exc).__name__
                raise
            finally:
                open_.pop()
            span.end = time.perf_counter_ns()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced


def _best_response_cells(args, kwargs, result):
    return {"dp_cells": dp_cells(args[1], args[2])}


def _envelope_triples(args, kwargs, result):
    opponent, budget = args[0], args[1]
    floor = args[2] if len(args) > 2 else kwargs.get("odd_floor")
    if floor is None:
        return {"triples": 0}
    top = max(opponent.max_support() + 2, math.floor(budget) + 2)
    return {"triples": math.comb(top + 1, 3)}


def _matrix_rows(args, kwargs, result):
    return {"rows": 0 if result is None else result.row_count}


def _builder_name(builder):
    if builder != "build_prop5_A":
        return f"constructions.{builder}"

    def named(args, kwargs):
        point = args[3] if len(args) > 3 else kwargs["point"]
        return f"constructions.build_prop5_A_{point}"

    return named


def patch_points(program) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, span name, work counter) for every traced call site.

    The CLI reaches `solve`, `report_to_json`, `sweep_certify` and
    `rows_to_csv` through its own imports, and the builders' self-checks
    reach `mix` through `constructions`, so those attributes are wrapped too.
    """
    b, cli, con = program.blotto, program.cli, program.constructions
    gl, v = program.general_lotto, program.verify
    points = [
        (cli, "main", "cli.main", None),
        (cli, "solve", "blotto.solve", None),
        (b, "solve", "blotto.solve", None),
        (cli, "report_to_json", "blotto.report_to_json", None),
        (b, "report_to_json", "blotto.report_to_json", None),
        (cli, "sweep_certify", "verify.sweep_certify", None),
        (cli, "rows_to_csv", "verify.rows_to_csv", None),
        (v, "rows_to_csv", "verify.rows_to_csv", None),
        (b, "classify", "blotto.classify", None),
        (b, "blotto_value", "blotto.blotto_value", None),
        (b, "certify", "verify.certify", None),
        (v, "best_response_value", "verify.best_response_value", _best_response_cells),
        (b, "lotto_optimal_A", "general_lotto.targets", None),
        (b, "lotto_optimal_B", "general_lotto.targets", None),
        (gl, "lotto_optimal_A", "general_lotto.targets", None),
        (gl, "lotto_optimal_B", "general_lotto.targets", None),
        (gl, "lotto_value", "general_lotto.lotto_value", None),
        (gl, "envelope_best_response", "general_lotto.envelope_best_response", _envelope_triples),
        (b, "mix", "distributions.mix", None),
        (gl, "mix", "distributions.mix", None),
        (con, "mix", "distributions.mix", None),
        (gl, "vbar", "distributions.vbar", None),
        (con.PartitionMatrix, "to_dist", "constructions.to_dist", None),
        (b, "generic_implement", "constructions.generic_implement", _matrix_rows),
        (con, "generic_implement", "constructions.generic_implement", _matrix_rows),
    ]
    for builder in ("implement_u", "build_prop3_B", "build_prop4_A", "build_prop5_A",
                    "build_prop6_B", "build_prop7_B", "build_prop10_B"):
        points.append((b, builder, _builder_name(builder), _matrix_rows))
    return points


def snapshot(points) -> list[tuple[object, str, object]]:
    """The objects currently bound at every patch point."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in points]


def unchanged(saved) -> bool:
    return all(vars(owner)[attr] is original for owner, attr, original in saved)


@contextlib.contextmanager
def installed(tracer: Tracer, points):
    """Bind the tracer's wrappers at every point; restore the originals on exit."""
    saved = snapshot(points)
    try:
        for (owner, attr, name, work), (_, _, original) in zip(points, saved):
            setattr(owner, attr, tracer.wrap(name, original, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _union_ns(intervals) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = _union_ns(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[index]
            if child.end > span.start and child.start < span.end
        )
        out.append(span.end - span.start - covered)
    return out


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, busy_s, self_s, errors and work counts per span name, and for all builders."""
    selfs = self_times(spans)
    members = defaultdict(list)
    for index, span in enumerate(spans):
        members[span.name].append(index)
    members["constructions.build"] = [i for i, span in enumerate(spans) if span.name in BUILD_SPANS]
    stats = {}
    for name, indices in members.items():
        entry = {
            "calls": len(indices),
            "busy_s": _union_ns((spans[i].start, spans[i].end) for i in indices) / 1e9,
            "self_s": sum(selfs[i] for i in indices) / 1e9,
            "errors": sum(1 for i in indices if spans[i].error),
        }
        for i in indices:
            for key, count in (spans[i].work or {}).items():
                entry[key] = entry.get(key, 0) + count
        stats[name] = entry
    return stats


def op_counts(spans: list[Span]) -> dict:
    """Per op: computed dp_cells, triples, rows and generic_implement calls."""
    counts = defaultdict(lambda: {"dp_cells": 0, "triples": 0, "rows": 0, "generic_implement": 0})
    for span in spans:
        entry = counts[span.op]
        if span.name == "constructions.generic_implement":
            entry["generic_implement"] += 1
        elif span.work:
            for key, count in span.work.items():
                entry[key] += count
    return dict(counts)
