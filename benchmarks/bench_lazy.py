"""Experiment E15 — lazy sequentialization, POR, and swarm tiling.

Three ways to check the same K-round schedule set
(``docs/SEQUENTIALIZATION.md``, ``docs/SWARM.md``), measured on the
handshake family (:func:`handshake`) at each depth's first adequate
budget ``K = n + 1``:

* ``lazy`` — the pc-guarded lazy transform (one shared store, no guesses);
* ``lazy+por`` — lazy with shared-access POR;
* ``swarm x8`` — the lazy schedule space dealt into 8 cached tile jobs
  (``repro.campaign.swarm``), verdict aggregated.

Every mode must find every handshake error, and the swarm verdict must
match monolithic lazy (the 8-tile plan is exhaustive at these sizes).
A second workload, the ``increment-chain`` corpus program, communicates
through computed values; every mode must find its error at K=3.

Usage::

    pytest benchmarks/bench_lazy.py                # via pytest-benchmark
    python benchmarks/bench_lazy.py --smoke --out BENCH_lazy.json
"""

import argparse
import json
import pathlib
import sys
import time

from repro.campaign import CampaignConfig, run_swarm_campaign
from repro.core.checker import Kiss
from repro.lang import parse
from repro.reporting import render_table

DEPTHS = [1, 2]
TILES = 8
SMOKE_MAX_STATES = 200_000
FULL_MAX_STATES = 2_000_000

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fuzz_corpus"
MODES = ("lazy", "lazy+por", "swarm x8")


def handshake(n: int) -> str:
    """A two-thread protocol alternating through x=1/y=1/../x=n/y=n
    before the assert: the error needs 2n-1 context switches, so a
    round-robin schedule finds it iff K >= n + 1.  Depth 2 is the corpus
    program ``tests/fuzz_corpus/three-switch.kp``, invisible to KISS."""
    w = " ".join(f"assume(x == {i}); y = {i};" for i in range(1, n + 1))
    m = " ".join(f"x = {i}; assume(y == {i});" for i in range(1, n + 1))
    return (
        "int x; int y;\n"
        f"void w() {{ {w} }}\n"
        f"void main() {{ async w(); {m} assert(false); }}\n"
    )


def _check(source, strategy, rounds, max_states, por=False):
    kiss = Kiss(max_ts=1, max_states=max_states, strategy=strategy,
                rounds=rounds, por=por)
    t0 = time.perf_counter()
    r = kiss.check_assertions(parse(source))
    return {
        "verdict": r.verdict,
        "states": r.backend_result.stats.states,
        "wall_s": round(time.perf_counter() - t0, 4),
    }


def _swarm(source, rounds, max_states):
    t0 = time.perf_counter()
    report = run_swarm_campaign(
        source, tiles=TILES, rounds=rounds, max_states=max_states,
        campaign_config=CampaignConfig(jobs=1, cache_dir=None))
    return {
        "verdict": report.verdict,
        "states": sum(r.states for r in report.results),
        "wall_s": round(time.perf_counter() - t0, 4),
        "exhaustive": report.plan.exhaustive,
    }


def _measure(max_states):
    rows = []
    results = []
    checks_ok = True

    for n in DEPTHS:
        source = handshake(n)
        k = n + 1
        cells = {
            "lazy": _check(source, "lazy", k, max_states),
            "lazy+por": _check(source, "lazy", k, max_states, por=True),
            "swarm x8": _swarm(source, k, max_states),
        }
        row = [f"handshake depth {n} (K={k})"]
        for mode, cell in cells.items():
            results.append({"workload": f"handshake-{n}", "mode": mode,
                            "budget": k, **cell})
            row.append(f"{cell['verdict']}/{cell['states']}/{cell['wall_s']:.2f}s")
        rows.append(row)
        # every mode must find the depth-n error at its adequate budget,
        # and the exhaustive 8-tile swarm must agree with monolithic lazy
        checks_ok &= all(c["verdict"] == "error" for c in cells.values())
        checks_ok &= cells["swarm x8"]["exhaustive"]
        # no state-count assertion between lazy and lazy+por: every
        # handshake statement touches a shared global, so there is
        # nothing to prune and the explicit segment-end constraint POR
        # emits costs a few driver states — the verdict parity is the
        # invariant (tests/test_por.py), the counts are just reported

    # the computed-value handshake: every mode finds it at K=3
    chain = (CORPUS / "increment-chain.kp").read_text()
    sep = {
        "lazy": _check(chain, "lazy", 3, max_states),
        "lazy+por": _check(chain, "lazy", 3, max_states, por=True),
        "swarm x8": _swarm(chain, 3, max_states),
    }
    row = ["increment-chain (K=3)"]
    for mode, cell in sep.items():
        results.append({"workload": "increment-chain", "mode": mode,
                        "budget": 3, **cell})
        row.append(f"{cell['verdict']}/{cell['states']}/{cell['wall_s']:.2f}s")
    rows.append(row)
    checks_ok &= all(sep[m]["verdict"] == "error" for m in MODES)

    print()
    print(render_table(
        ["workload"] + [f"{m} (verdict/states/wall)" for m in MODES],
        rows,
        title="E15: lazy vs POR vs swarm",
    ))

    return {
        "schema": "kiss-bench/lazy/1",
        "workload": "handshake family + increment-chain",
        "tiles": TILES,
        "max_states": max_states,
        "results": results,
        "ok": bool(checks_ok),
    }


def bench_lazy(benchmark):
    doc = benchmark.pedantic(_measure, args=(SMOKE_MAX_STATES,), rounds=1, iterations=1)
    assert doc["ok"], "lazy/swarm coverage checks violated:\n" + json.dumps(
        doc["results"], indent=2
    )


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized state budget")
    p.add_argument("--out", metavar="PATH",
                   help="write the measurement document as JSON to PATH")
    args = p.parse_args(argv)
    doc = _measure(SMOKE_MAX_STATES if args.smoke else FULL_MAX_STATES)
    print(json.dumps(doc, indent=2))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
