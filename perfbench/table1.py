"""``table1-cold``: race jobs on the Table 1 drivers through the campaign
engine, on a fresh cache directory.

The job matrix is every device-extension field of ten drivers whose
fields each check in about a second or less.  A run checks
``JOBS_PER_S * seconds`` of them, at most the whole matrix (one sweep:
142 jobs, about 40 s of work), so no job repeats within a run.  Their
order comes from the seed, and it is stratified by driver and expected
verdict: every prefix holds the same share of each driver's racy, clean
and unresolved fields.  Job costs vary mostly between those classes, so
the work in a run barely depends on the seed.
"""

from __future__ import annotations

import random
from typing import Dict, List

DRIVERS = ("tracedrv", "moufiltr", "kbfiltr", "imca", "startio", "toaster/toastmon",
           "diskperf", "1394diag", "toaster/func", "toaster/bus")

#: jobs per requested second (2 workers check about 3.5 of these a second).
JOBS_PER_S = 3.5


def job_count(seconds: float, matrix: int) -> int:
    return min(matrix, max(4, round(JOBS_PER_S * seconds)))


def build_jobs(seed: int, seconds: float) -> List:
    """The run's jobs (generates the driver sources)."""
    from repro.campaign import corpus_jobs
    from repro.drivers.corpus import DRIVER_SPECS

    specs = [s for s in DRIVER_SPECS if s.name in DRIVERS]
    expected = expected_verdicts()
    strata: Dict[tuple, List] = {}
    for job in corpus_jobs(specs):
        strata.setdefault((job.driver, expected[job.job_id]), []).append(job)
    rng = random.Random(f"table1:{seed}:0")
    keyed = []
    for stratum in sorted(strata):
        members = strata[stratum][:]
        rng.shuffle(members)
        offset = rng.random()
        keyed += [((i + offset) / len(members), stratum, job)
                  for i, job in enumerate(members)]
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [job for _, _, job in keyed[: job_count(seconds, len(keyed))]]


def expected_verdicts() -> Dict[str, str]:
    """job id -> the Table 1 verdict its ``DriverSpec`` field kind implies."""
    from repro.drivers.corpus import DRIVER_SPECS
    from repro.drivers.generator import EXTENSION
    from repro.drivers.spec import FieldKind

    out = {}
    for spec in DRIVER_SPECS:
        if spec.name not in DRIVERS:
            continue
        for f in spec.fields:
            if f.kind.races_in_permissive:
                verdict = "race"
            elif f.kind is FieldKind.CLEAN:
                verdict = "no-race"
            else:
                verdict = "unresolved"
            out[f"{spec.name}/{EXTENSION}.{f.name}"] = verdict
    return out


def wrong_verdicts(results) -> int:
    expected = expected_verdicts()
    return sum(1 for r in results if r.table_verdict != expected[r.job_id])


USES_CACHE = True
