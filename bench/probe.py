"""Set-up probe, run in a fresh interpreter: import, generate inputs, one warm-up op.

    python3 bench/probe.py WORKLOAD SEED

`run.py` times this whole process from outside to measure `setup_s`.
"""

from __future__ import annotations

import sys

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    program = workloads.load_program()
    workload = workloads.Workload(name, seed)
    op = workload.warmup
    workload.check(op, workload.execute(program, op))
