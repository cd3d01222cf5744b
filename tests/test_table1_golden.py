"""Behaviour fence: pinned verdicts, states and transitions for a subset
of the Table 1 race jobs.

The subset is every device-extension field of tracedrv and imca, one
racy and one clean field of diskperf, and one unresolved field of
toaster/bus (diskperf has no unresolved field).  Each job runs the
race pipeline exactly as a campaign worker does (``corpus_jobs`` config,
explicit backend), and its verdict, the number of states explored and
the number of transitions taken must equal ``tests/golden/table1.json``.
A change to the explicit checker's state representation, freezing or
cloning that moves any of these fails here.  Every fenced ``error`` row
must also replay under the concurrent semantics; the replay verdict is
asserted, not stored, so the golden file does not carry it.

The test only reads the golden file.  When a change moves a count on
purpose, regenerate the file explicitly and say why in the change:

    PYTHONPATH=src python tests/test_table1_golden.py --write
"""

import json
import sys
from pathlib import Path

from repro.campaign import corpus_jobs
from repro.core.checker import Kiss
from repro.drivers.corpus import DRIVER_SPECS
from repro.lang import parse

GOLDEN = Path(__file__).parent / "golden" / "table1.json"

#: driver -> fenced fields (None: every field).
SUBSET = {
    "tracedrv": None,
    "imca": None,
    "diskperf": ["PnpState0", "Counter0"],
    "toaster/bus": ["HardState0"],
}


def fence_rows(replays=None):
    """One row per fenced job, in ``DRIVER_SPECS`` order.  ``replays``,
    when given, collects ``(job id, trace_validated)`` per error row."""
    specs = [s for s in DRIVER_SPECS if s.name in SUBSET]
    fields = {name: wanted for name, wanted in SUBSET.items() if wanted is not None}
    rows = []
    programs = {}
    for job in corpus_jobs(specs, fields_by_driver=fields):
        prog = programs.get(job.source)
        if prog is None:
            prog = programs[job.source] = parse(job.source)
        result = Kiss(**job.kiss_kwargs()).check_race(prog, job.race_target())
        stats = result.backend_result.stats
        if replays is not None and result.is_error:
            replays.append((job.job_id, result.trace_validated))
        rows.append({
            "job": job.job_id,
            "verdict": result.verdict,
            "states": stats.states,
            "transitions": stats.transitions,
        })
    return rows


def test_every_subset_driver_is_fenced():
    golden = json.loads(GOLDEN.read_text())
    assert {row["job"].rsplit("/", 1)[0] for row in golden["rows"]} == set(SUBSET)
    assert {row["verdict"] for row in golden["rows"]} == {"error", "safe", "resource-bound"}


def test_table1_rows_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert golden["backend"] == "explicit"
    replays = []
    assert fence_rows(replays) == golden["rows"]
    assert replays and all(ok is True for _, ok in replays), replays


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_table1_golden.py --write")
    doc = {"backend": "explicit", "rows": fence_rows()}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {GOLDEN} ({len(doc['rows'])} rows)")
