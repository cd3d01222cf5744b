"""Experiment E6 — the introduction's complexity claim.

"The set of all reachable control states grows exponentially with the
number of threads", while KISS analyzes a sequential program whose extra
state is a small constant (``raise`` plus the bounded ``ts``).

The workload: n worker threads performing a non-atomic read-modify-write
on one shared counter (the classic lost-update kernel) — shared state
defeats the interleaving checker's state merging.  KISS runs in the
paper's practical configuration, a *fixed* ``ts`` bound (0 and 1): its
cost stays near-flat in n because the bounded scheduler simulates a fixed
slice of the interleavings, while the concurrent checker must represent
every reachable control-state combination.

(Sweeping ``ts`` *with* n instead trades this cost back for coverage —
that axis is measured by E7, ``bench_ts_sweep``.)
"""

import pytest

from repro.concheck import check_concurrent
from repro.core.checker import Kiss
from repro.lang import parse_core
from repro.reporting import render_table

BUDGET = 1_000_000


def family(n: int) -> str:
    """n threads doing an unprotected read-modify-write of shared g."""
    workers = "\n".join(
        f"void worker{i}() {{ int t; t = g; t = t + 1; g = t; }}" for i in range(n)
    )
    spawns = " ".join(f"async worker{i}();" for i in range(n))
    return f"int g;\n{workers}\nvoid main() {{ {spawns} }}"


def _run(max_n: int = 5):
    rows = []
    prev = {}
    for n in range(1, max_n + 1):
        src = family(n)
        con = check_concurrent(parse_core(src), max_states=BUDGET)
        c = con.stats.states if not con.exhausted else BUDGET
        row = [n, f"{c}{'+' if con.exhausted else ''}"]
        growth = f"{c / prev['con']:.1f}x" if prev.get("con") else "-"
        row.append(growth)
        for bound in (0, 1):
            r = Kiss(max_ts=bound, max_states=BUDGET).check_assertions(
                parse_core(src)
            )
            k = r.backend_result.stats.states
            kg = f"{k / prev[f'k{bound}']:.1f}x" if prev.get(f"k{bound}") else "-"
            row += [k, kg]
            prev[f"k{bound}"] = k
        prev["con"] = c
        rows.append(row)
    print()
    print(
        render_table(
            ["threads", "interleaving", "growth", "KISS ts=0", "growth", "KISS ts=1", "growth"],
            rows,
            title="E6: state counts, full interleaving vs KISS at the paper's ts bounds",
        )
    )
    # the claim: at the largest n, the interleaving growth factor strictly
    # dominates both KISS growth factors
    last = rows[-1]
    con_growth = float(last[2].rstrip("x"))
    kiss_growths = [float(last[4].rstrip("x")), float(last[6].rstrip("x"))]
    return con_growth > max(kiss_growths)


def bench_scalability(benchmark):
    ok = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert ok, "interleaving exploration did not outgrow KISS at fixed ts"
