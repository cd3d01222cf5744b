"""The campaign job model.

A *campaign* is a batch of independent KISS checking runs — the shape of
the paper's evaluation (Table 1: 18 drivers × dozens of device-extension
fields, one sequential checking run per field).  Each run is one
:class:`CheckJob`: a program (as source text, so jobs cross process
boundaries cheaply), a property (``race`` on one target, or the
program's own assertions), and the checker configuration.

Jobs are plain picklable data.  The scheduler never sees ASTs or
backend state — workers parse and check, and hand back a
:class:`JobResult` summary.  The fields that influence the verdict
(program text, transformer configuration, backend budget) also define
the content-addressed cache key (see :mod:`repro.campaign.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.race import RaceTarget

#: Kiss() keyword arguments a job may carry, with the campaign defaults.
#: ``observe``/``witness`` are execution options, not part of the cache
#: key: they do not change the verdict (a witness *describes* a safe
#: verdict; it never forks the key).
KISS_DEFAULTS: Dict[str, Any] = {
    "max_ts": 0,
    "max_states": 300_000,
    "use_alias_analysis": True,
    "backend": "explicit",
    "cegar_rounds": 16,
    "strategy": "kiss",
    "rounds": 2,
    "por": False,
    "cs_tile": None,
    "observe": False,
    "witness": False,
}

#: The subset of the configuration that can change a verdict — these
#: keys (plus the lowered program text and the property/target) make up
#: the cache key.
VERDICT_KEYS = (
    "max_ts",
    "max_states",
    "use_alias_analysis",
    "backend",
    "cegar_rounds",
    "strategy",
    "rounds",
    "por",
    "cs_tile",
)


def parse_target(text: str) -> RaceTarget:
    """``"Struct.field"`` → field target, bare name → global target."""
    if "." in text:
        struct, fname = text.split(".", 1)
        return RaceTarget.field_of(struct, fname)
    return RaceTarget.global_var(text)


@dataclass(frozen=True)
class CheckJob:
    """One checking run: driver × property × target.

    ``job_id`` is a human-readable unique name within the campaign
    (e.g. ``"fakemodem/DEVICE_EXTENSION.ioPending"``); ``driver`` groups
    jobs for the summary table.  ``prop`` is ``"race"`` (then ``target``
    names the location as ``"Struct.field"`` or a global),
    ``"assertion"``, or ``"fuzz"`` (a differential run of both checkers
    over the source — see :mod:`repro.fuzz`).  ``config`` holds
    ``Kiss()`` keyword overrides; fuzz jobs may add ``fuzz_``-prefixed
    oracle options (e.g. ``fuzz_race``), which never reach ``Kiss()``.
    """

    job_id: str
    driver: str
    source: str
    prop: str = "race"  # "race" | "assertion" | "fuzz"
    target: Optional[str] = None
    config: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.prop not in ("race", "assertion", "fuzz"):
            raise ValueError(f"unknown property {self.prop!r}")
        if self.prop == "race" and not self.target:
            raise ValueError("race jobs need a target")

    def kiss_kwargs(self) -> Dict[str, Any]:
        kw = dict(KISS_DEFAULTS)
        kw.update(self.config)
        return {k: v for k, v in kw.items() if not k.startswith("fuzz_")}

    def race_target(self) -> Optional[RaceTarget]:
        return parse_target(self.target) if self.prop == "race" else None

    def verdict_config(self) -> Dict[str, Any]:
        """The configuration slice that participates in the cache key."""
        kw = self.kiss_kwargs()
        out = {k: kw[k] for k in VERDICT_KEYS}
        out["prop"] = self.prop
        out["target"] = self.target
        # Fuzz oracle options change the verdict, so they key too.
        out.update({k: v for k, v in self.config.items() if k.startswith("fuzz_")})
        return out

    # -- (de)serialization for the write-ahead journal ---------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "driver": self.driver,
            "source": self.source,
            "prop": self.prop,
            "target": self.target,
            "config": dict(self.config),
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "CheckJob":
        return CheckJob(
            job_id=d["job_id"],
            driver=d["driver"],
            source=d["source"],
            prop=d.get("prop", "race"),
            target=d.get("target"),
            config=dict(d.get("config") or {}),
        )


@dataclass
class JobResult:
    """The outcome of one job, slim enough to cache and pickle.

    ``verdict`` uses the :class:`~repro.core.checker.KissResult`
    vocabulary (``"safe"`` / ``"error"`` / ``"resource-bound"``), plus
    the campaign-only ``"cancelled"`` for jobs cooperatively cancelled
    mid-flight (never cached, never a verdict — see
    :mod:`repro.cancel`); ``table_verdict`` maps it to the Table 1
    vocabulary.  ``detail`` carries the backend message, or the
    timeout/crash/cancellation note for degraded verdicts.
    """

    job_id: str
    driver: str
    prop: str
    target: Optional[str]
    verdict: str
    error_kind: Optional[str] = None
    states: int = 0
    transitions: int = 0
    checks_emitted: int = 0
    checks_pruned: int = 0
    wall_s: float = 0.0
    cache_hit: bool = False
    attempts: int = 1
    detail: str = ""
    #: ``kiss-metrics/1`` snapshot (:mod:`repro.obs`) when the job ran
    #: with the ``observe`` execution option; survives cache round-trips.
    metrics: Optional[Dict[str, Any]] = None
    #: ``kiss-witness/1`` certificate when the job ran with the
    #: ``witness`` execution option and emitted one; survives cache
    #: round-trips (certificates attach to entries, never key them).
    witness: Optional[Dict[str, Any]] = None
    #: On an explicit-backend error: whether the mapped concurrent trace
    #: replayed (False is a pipeline bug, counted as an unreplayed
    #: error), and that trace, formatted.  None otherwise.
    trace_validated: Optional[bool] = None
    trace: Optional[str] = None

    @property
    def table_verdict(self) -> str:
        """Table 1 vocabulary: ``race`` / ``no-race`` / ``unresolved``
        (any error reached through the harness counts as a race, as in
        :func:`repro.drivers.corpus.check_driver`)."""
        if self.verdict in ("resource-bound", "cancelled"):
            return "unresolved"
        if self.verdict == "error":
            return "race" if self.prop == "race" else "error"
        return "no-race" if self.prop == "race" else "safe"

    def as_kiss_result(self):
        """Reconstruct a slim :class:`~repro.core.checker.KissResult`
        (verdicts, kinds, backend stats and the replay verdict — no ASTs
        or trace objects, those do not cross process/cache boundaries)
        for API compatibility."""
        from repro.core.checker import KissResult  # deferred: avoid import cycle
        from repro.seqcheck.trace import CheckResult, CheckStats, CheckStatus

        status = {
            "safe": CheckStatus.SAFE,
            "error": CheckStatus.ERROR,
            "resource-bound": CheckStatus.EXHAUSTED,
            # a cancelled check proved nothing: same API posture as an
            # exhausted budget (no verdict, no witness)
            "cancelled": CheckStatus.EXHAUSTED,
        }[self.verdict]
        violation = None
        if self.verdict == "error":
            violation = "assert" if self.error_kind in ("race", "assertion") else self.error_kind
        backend = CheckResult(
            status,
            violation_kind=violation,
            message=self.detail,
            stats=CheckStats(states=self.states, transitions=self.transitions),
        )
        return KissResult(
            verdict=self.verdict,
            error_kind=self.error_kind,
            target=parse_target(self.target) if self.target else None,
            backend_result=backend,
            checks_emitted=self.checks_emitted,
            checks_pruned=self.checks_pruned,
            trace_validated=self.trace_validated,
        )

    # -- (de)serialization for the JSONL cache ------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "job_id": self.job_id,
            "driver": self.driver,
            "prop": self.prop,
            "target": self.target,
            "verdict": self.verdict,
            "error_kind": self.error_kind,
            "states": self.states,
            "transitions": self.transitions,
            "checks_emitted": self.checks_emitted,
            "checks_pruned": self.checks_pruned,
            "wall_s": round(self.wall_s, 6),
            "detail": self.detail,
        }
        for key in ("metrics", "witness", "trace_validated", "trace"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "JobResult":
        return JobResult(
            job_id=d["job_id"],
            driver=d["driver"],
            prop=d["prop"],
            target=d.get("target"),
            verdict=d["verdict"],
            error_kind=d.get("error_kind"),
            states=d.get("states", 0),
            transitions=d.get("transitions", 0),
            checks_emitted=d.get("checks_emitted", 0),
            checks_pruned=d.get("checks_pruned", 0),
            wall_s=d.get("wall_s", 0.0),
            detail=d.get("detail", ""),
            metrics=d.get("metrics"),
            witness=d.get("witness"),
            trace_validated=d.get("trace_validated"),
            trace=d.get("trace"),
        )
