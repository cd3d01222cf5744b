"""Fuzz batches on top of the campaign engine.

A fuzz batch is an ordinary campaign: one :class:`CheckJob` with
``prop="fuzz"`` per generated program (generation is cheap and happens
up front; the differential checking is the expensive part and runs in
the workers).  The batch therefore inherits everything PR 1 built —
parallel dispatch, per-job wall-clock timeouts with retry, the
content-addressed result cache, and JSONL telemetry.

Verdict vocabulary for fuzz jobs:

* ``"safe"``   — the two checkers agreed (the expected outcome);
* ``"error"``  — a verdict divergence: a real correctness bug in the
  transformation or one of the checkers (``error_kind`` carries the
  direction, ``detail`` the description);
* ``"resource-bound"`` — inconclusive (a state budget or the job
  timeout was exhausted before both sides finished).

After the campaign, any diverging program is minimized with the
delta-debugging shrinker before reporting, with the oracle re-run
in-process as the shrinking predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.campaign import CampaignConfig, CampaignScheduler, CheckJob, JobResult
from repro.lang import parse

from .gen import GenConfig, ProgramGenerator, count_statements
from .oracle import differential_check_source
from .shrink import shrink


@dataclass
class Divergence:
    """One minimized fuzz finding."""

    seed: int
    detail: str
    source: str
    shrunk_source: str
    shrunk_stmts: int
    #: KISS-mode INCOMPLETE findings: did the K=3 lazy probe catch the
    #: error Figure 4 missed?  None = probe inconclusive / not run.
    closed_by_rounds: Optional[bool] = None

    def format(self) -> str:
        return (
            f"seed {self.seed}: {self.detail}\n"
            f"minimized to {self.shrunk_stmts} statements:\n{self.shrunk_source}"
        )


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    count: int
    seed: int
    agreed: int = 0
    inconclusive: int = 0
    #: lazy mode: concurrent errors outside the K-round coverage —
    #: expected incompleteness, counted but not findings.
    coverage_gaps: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    results: List[JobResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        gaps = f", {self.coverage_gaps} coverage gaps" if self.coverage_gaps else ""
        lines = [
            f"fuzz: {self.count} programs (seeds {self.seed}..{self.seed + self.count - 1}): "
            f"{self.agreed} agreed, {len(self.divergences)} diverged, "
            f"{self.inconclusive} inconclusive{gaps}"
        ]
        for d in self.divergences:
            lines.append("")
            lines.append(d.format())
        return "\n".join(lines)


def fuzz_jobs(
    count: int,
    seed: int = 0,
    gen_config: Optional[GenConfig] = None,
    max_states: int = 50_000,
    race: bool = False,
    strategy: str = "kiss",
    rounds: int = 2,
    por: bool = False,
    witness: bool = False,
) -> List[CheckJob]:
    """One differential-checking job per generated program.

    Each job's ``max_ts`` equals the program's fork count, making the
    Theorem 1 comparison exact; ``fuzz_race`` (when ``race`` is set)
    additionally enables the false-race replay check on the generator's
    distinguished location.  ``strategy="lazy"`` cross-checks the
    K-round sequentialization against *all* interleavings instead (no
    race mode there).  ``por`` turns on the
    shared-access reduction in the sequential pipeline.  ``fuzz_witness``
    (when ``witness`` is set) adds the certificate cross-check on safe
    agreements (see :data:`repro.fuzz.oracle.UNCERTIFIED`).  All of
    these knobs participate in the cache key.
    """
    if strategy != "kiss" and race:
        raise ValueError(f"race checking is not available under strategy={strategy!r}")
    cfg = gen_config or GenConfig()
    gen = ProgramGenerator(cfg)
    jobs = []
    for gp in gen.generate_batch(count, seed):
        config = {
            "max_ts": gp.n_forks,
            "max_states": max_states,
            "strategy": strategy,
            "rounds": rounds,
            "por": por,
        }
        if race:
            config["fuzz_race"] = cfg.race_global
        if witness:
            config["fuzz_witness"] = True
        jobs.append(
            CheckJob(
                job_id=f"fuzz/{gp.seed}",
                driver="fuzz",
                source=gp.source,
                prop="fuzz",
                config=config,
            )
        )
    return jobs


def _job_seed(job_id: str) -> int:
    try:
        return int(job_id.rsplit("/", 1)[-1])
    except ValueError:  # pragma: no cover - job ids are generated above
        return -1


def run_fuzz_campaign(
    count: int,
    seed: int = 0,
    gen_config: Optional[GenConfig] = None,
    campaign_config: Optional[CampaignConfig] = None,
    max_states: int = 50_000,
    race: bool = False,
    strategy: str = "kiss",
    rounds: int = 2,
    por: bool = False,
    witness: bool = False,
    do_shrink: bool = True,
    shrink_max_checks: int = 2_000,
) -> FuzzReport:
    """Generate, differentially check (through the campaign scheduler),
    and shrink any divergences.  Returns the full report."""
    jobs = fuzz_jobs(
        count, seed, gen_config, max_states=max_states, race=race,
        strategy=strategy, rounds=rounds, por=por, witness=witness,
    )
    scheduler = CampaignScheduler(campaign_config or CampaignConfig())
    results = scheduler.run(jobs)

    report = FuzzReport(count=count, seed=seed, results=results)
    race_global = (gen_config or GenConfig()).race_global if race else None
    for job, result in zip(jobs, results):
        if result.verdict == "safe":
            report.agreed += 1
            if result.detail.startswith("coverage-gap"):
                report.coverage_gaps += 1
        elif result.verdict == "resource-bound":
            report.inconclusive += 1
        else:
            report.divergences.append(
                _minimize(
                    job, result, max_states, race_global, strategy, rounds, por,
                    witness, do_shrink, shrink_max_checks,
                )
            )
    return report


def _minimize(
    job: CheckJob,
    result: JobResult,
    max_states: int,
    race_global: Optional[str],
    strategy: str,
    rounds: int,
    por: bool,
    witness: bool,
    do_shrink: bool,
    shrink_max_checks: int,
) -> Divergence:
    max_ts = job.config.get("max_ts", 0)

    def oracle(src: str):
        return differential_check_source(
            src, max_ts=max_ts, max_states=max_states, race_global=race_global,
            strategy=strategy, rounds=rounds, por=por, witness=witness,
        )

    def still_diverges(src: str) -> bool:
        try:
            return oracle(src).diverged
        except Exception:
            return False

    closed: Optional[bool] = None
    try:
        # One in-process rerun: the worker's verdict crossed a process
        # boundary as a string, but the K=3 probe outcome matters for
        # triage, so recover it from the live OracleVerdict.
        closed = oracle(job.source).closed_by_rounds
    except Exception:
        pass
    shrunk = (
        shrink(job.source, still_diverges, max_checks=shrink_max_checks)
        if do_shrink
        else job.source
    )
    return Divergence(
        seed=_job_seed(job.job_id),
        detail=result.detail,
        source=job.source,
        shrunk_source=shrunk,
        shrunk_stmts=count_statements(parse(shrunk)),
        closed_by_rounds=closed,
    )
