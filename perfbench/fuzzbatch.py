"""``fuzz-lazy-certified``: a differential fuzz batch under the lazy K=3
sequentialization with certificates, through the campaign engine with no
cache.

Each job runs the interleaving checker, the lazy pipeline, and — on a
safe agreement — emits a certificate and re-checks it with the
standalone validator.  The programs come from the fuzz generator
(``python -m repro fuzz --strategy lazy --rounds 3 --witness``), as a
pinned batch: generator seeds ``0 .. JOBS_PER_S * seconds - 1``, in that
order.  The run's seed salts every program with an unused global, which
changes every input but not its cost.  A batch drawn afresh per seed
would not do: a few programs in a hundred cost twenty times the median,
so neither its throughput nor the time until half its verdicts are in
would repeat within a tenth; shuffling the pinned batch moves the
latter just as much.  ``MAX_STATES`` caps each side's exploration, so
no single program takes more than a few seconds; programs over the cap
come back inconclusive, which the fuzz report counts apart from
agreements and divergences.
"""

from __future__ import annotations

import dataclasses
from typing import List

from common import salt

#: programs per requested second (2 workers check the 65 programs of a
#: 20 s run in about 25 s at the reference host speed).
JOBS_PER_S = 3.25
MAX_STATES = 5_000
ROUNDS = 3


def job_count(seconds: float) -> int:
    return max(2, round(JOBS_PER_S * seconds))


def build_jobs(seed: int, seconds: float) -> List:
    """The run's jobs (runs the program generator)."""
    from repro.fuzz import fuzz_jobs

    pinned = fuzz_jobs(job_count(seconds), 0, max_states=MAX_STATES,
                       strategy="lazy", rounds=ROUNDS, witness=True)
    return [dataclasses.replace(job, source=salt(job.source, seed, i))
            for i, job in enumerate(pinned)]


def wrong_verdicts(results) -> int:
    """Divergences between the interleaving checker, the lazy pipeline
    and the certificate validator (``error`` is the fuzz verdict for
    any of them)."""
    return sum(1 for r in results if r.verdict == "error")


def certified(results) -> int:
    return sum(1 for r in results if "witness=certified" in r.detail)


USES_CACHE = False
