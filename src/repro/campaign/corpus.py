"""Campaigns over the bundled driver corpus (the Table 1 job matrix).

``corpus_jobs`` expands driver specs into one race job per
device-extension field, with the same budgets as the serial runner
(:func:`repro.drivers.corpus.check_driver`): fields the spec marks
UNRESOLVED get the small ``unresolved_budget``, everything else the full
``max_states``.  ``run_corpus_campaign`` executes them and folds the
results back into :class:`~repro.drivers.corpus.DriverRunResult` rows so
Table 1/Table 2 tooling is agnostic about which engine ran the checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.drivers.corpus import DRIVER_SPECS, DriverRunResult, FieldOutcome
from repro.drivers.generator import EXTENSION, generate_source
from repro.drivers.spec import DriverSpec, FieldKind

from .jobs import CheckJob, JobResult
from .scheduler import CampaignConfig, CampaignScheduler
from .telemetry import Telemetry


def corpus_jobs(
    specs: Optional[Sequence[DriverSpec]] = None,
    refined: bool = False,
    fields_by_driver: Optional[Dict[str, Sequence[str]]] = None,
    max_states: int = 300_000,
    unresolved_budget: int = 200,
    loc_scale: int = 0,
    witness: bool = False,
) -> List[CheckJob]:
    """One race job per (driver, device-extension field).

    ``fields_by_driver`` restricts a driver to a field subset (Table 2
    re-checks only the fields that raced in Table 1).  ``witness``
    turns on certificate emission for safe verdicts (an execution
    option: it never changes cache keys).
    """
    jobs: List[CheckJob] = []
    for spec in specs if specs is not None else DRIVER_SPECS:
        source = generate_source(spec, refined_harness=refined, loc_scale=loc_scale)
        kinds = {f.name: f.kind for f in spec.fields}
        wanted = fields_by_driver.get(spec.name) if fields_by_driver else None
        for fname in wanted if wanted is not None else [f.name for f in spec.fields]:
            budget = unresolved_budget if kinds[fname] is FieldKind.UNRESOLVED else max_states
            config = {"max_ts": 0, "max_states": budget}
            if witness:
                config["witness"] = True
            jobs.append(
                CheckJob(
                    job_id=f"{spec.name}/{EXTENSION}.{fname}",
                    driver=spec.name,
                    source=source,
                    prop="race",
                    target=f"{EXTENSION}.{fname}",
                    config=config,
                )
            )
    return jobs


def results_to_driver_runs(results: Sequence[JobResult]) -> List[DriverRunResult]:
    """Fold job results into per-driver Table 1 rows (input order)."""
    runs: Dict[str, DriverRunResult] = {}
    for r in results:
        run = runs.setdefault(r.driver, DriverRunResult(r.driver))
        fname = r.target.split(".", 1)[1] if r.target and "." in r.target else r.target
        run.outcomes.append(FieldOutcome(fname, r.table_verdict, r.states))
    return list(runs.values())


def run_corpus_campaign(
    specs: Optional[Sequence[DriverSpec]] = None,
    config: Optional[CampaignConfig] = None,
    telemetry: Optional[Telemetry] = None,
    **job_kwargs,
) -> Tuple[List[DriverRunResult], List[JobResult], CampaignScheduler]:
    """Run the per-field loop over the corpus through the campaign
    engine.  Returns ``(driver rows, raw job results, scheduler)`` — the
    scheduler exposes the cache counters and summary renderer."""
    scheduler = CampaignScheduler(config)
    results = scheduler.run(corpus_jobs(specs, **job_kwargs), telemetry=telemetry)
    return results_to_driver_runs(results), results, scheduler
