"""Experiment E7 — the ``ts`` bound as a coverage/cost tuning knob (§4):
"Increasing the size of ts increases the number of simulated behaviors
at the cost of increasing the global state space."

A family of bugs needing deeper scheduling: bug ``k`` requires ``k``
parked threads to fire in a chained order after the parent progresses.
We sweep ``max_ts`` and report, for each (bug, bound): found/missed and
the explored-state count — coverage grows with the bound, and so does
cost.
"""

import pytest

from repro.core.checker import Kiss
from repro.lang import parse_core
from repro.reporting import render_table


def chained_bug(k: int) -> str:
    """The assertion fires only if k forked threads run, in dependency
    order, after main has advanced the phase — needing |ts| >= k."""
    workers = []
    for i in range(1, k + 1):
        workers.append(
            f"void w{i}() {{ assume(phase == {i}); phase = {i + 1}; }}"
        )
    spawns = " ".join(f"async w{i}();" for i in range(1, k + 1))
    return (
        "int phase;\n"
        + "\n".join(workers)
        + "\nvoid main() { "
        + spawns
        + f" phase = 1; assume(phase == {k + 1}); assert(false); }}"
    )


def _run(max_k: int = 3, max_bound: int = 3):
    rows = []
    coverage_monotone = True
    for k in range(1, max_k + 1):
        src = chained_bug(k)
        row = [f"bug needs {k} parked"]
        prev_found = False
        for bound in range(0, max_bound + 1):
            r = Kiss(max_ts=bound, max_states=500_000).check_assertions(
                parse_core(src)
            )
            found = r.is_error
            if prev_found and not found:
                coverage_monotone = False
            prev_found = prev_found or found
            row.append(f"{'FOUND' if found else 'miss'}/{r.backend_result.stats.states}")
        rows.append(row)
    print()
    print(
        render_table(
            ["workload"] + [f"ts={b} (verdict/states)" for b in range(0, max_bound + 1)],
            rows,
            title="E7: coverage and cost as the ts bound grows",
        )
    )
    # each bug k must be missed below bound k and found from bound k on
    thresholds_ok = all(
        ("miss" in rows[k - 1][1 + b]) == (b < k)
        for k in range(1, max_k + 1)
        for b in range(0, max_bound + 1)
    )
    return coverage_monotone and thresholds_ok


def bench_ts_sweep(benchmark):
    ok = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert ok, "coverage did not grow monotonically with the ts bound"
