"""Experiment E9 — Theorem 1 / §4.1 coverage characterization.

Two series over a family of 2-thread programs whose bug requires ``k``
context switches:

* the concurrent checker with context bound ``c`` finds the bug iff
  ``c >= k`` (ground truth);
* KISS (``ts = 1``) finds exactly the bugs reachable within *balanced*
  executions — for two threads, those with at most two context switches
  (the paper's §2 claim).

The printed matrix shows KISS's verdict agreeing with the 2-switch
concurrent bound and diverging from deeper bounds.
"""

import pytest

from repro.concheck import check_concurrent
from repro.core.checker import Kiss
from repro.lang import parse_core
from repro.reporting import render_table


def ping_pong(k: int) -> str:
    """The bug needs k alternations between main and the worker.

    worker advances phase on odd values; main advances it on even ones;
    the assert fires at phase 2k — reachable only with >= 2k-ish switches.
    """
    worker_steps = " ".join(
        f"assume(phase == {2 * i + 1}); phase = {2 * i + 2};" for i in range(k)
    )
    main_steps = " ".join(
        f"assume(phase == {2 * i + 2}); phase = {2 * i + 3};" for i in range(k - 1)
    )
    return (
        "int phase;\n"
        f"void worker() {{ {worker_steps} }}\n"
        "void main() { async worker(); phase = 1; "
        + main_steps
        + f" assume(phase == {2 * k}); assert(false); }}"
    )


def _run(max_k: int = 3):
    rows = []
    ok = True
    for k in range(1, max_k + 1):
        src = ping_pong(k)
        kiss = Kiss(max_ts=1, max_states=500_000).check_assertions(
            parse_core(src)
        )
        row = [f"k={k}", "FOUND" if kiss.is_error else "miss"]
        for bound in (1, 2, 4, 8):
            g = check_concurrent(parse_core(src), max_states=500_000, context_bound=bound)
            row.append("FOUND" if g.is_error else "miss")
        unbounded = check_concurrent(parse_core(src), max_states=500_000)
        row.append("FOUND" if unbounded.is_error else "miss")
        rows.append(row)
        # the paper's 2-thread claim: KISS covers everything a 2-switch
        # exploration covers
        two_switch_found = row[3] == "FOUND"  # bound=2 column
        if two_switch_found and not kiss.is_error:
            ok = False
    print()
    print(
        render_table(
            ["workload", "KISS ts=1", "cb=1", "cb=2", "cb=4", "cb=8", "unbounded"],
            rows,
            title="E9: KISS coverage vs context-bounded interleaving exploration",
        )
    )
    return ok


def bench_coverage(benchmark):
    ok = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert ok, "KISS missed a bug reachable within two context switches"
