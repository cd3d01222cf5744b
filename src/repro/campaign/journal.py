"""Write-ahead job journal: crash-recoverable campaign/serve state.

The journal is a ``kiss-journal/1`` JSONL log recording every admitted
job's lifecycle::

    admitted  -> started -> done | cancelled | abandoned
    (spec, key,   (attempt)   (terminal records; precedence
     tenant,                   done > cancelled > abandoned)
     origin)

``admitted`` carries the *full* job spec (driver, source, property,
config) plus the content-addressed cache key, tenant, and origin, so a
replay is self-contained: a journal file alone reconstructs every job a
crashed run still owed.  Appends go through the same exclusive-flock
:func:`repro.ioutil.locked_append` as the result cache, and the loader
is torn-line tolerant in the same way — a SIGKILL mid-append degrades
that one record to noise, never to a parse error.  A *failed* append
(disk full, injected ``journal_append`` fault) is counted and degraded
to in-memory tracking; durability may be lost for that record, safety
never is (the journal is advisory for *recovery*, the result cache
remains the source of verdict truth).

Recovery (:func:`replay`) folds the log into a :class:`RecoveryPlan`:
jobs whose latest state is non-terminal (``admitted``/``started``) or
``abandoned`` are re-enqueued; ``done`` and ``cancelled`` are settled.
Terminal precedence is ``done > cancelled > abandoned`` so a late,
weaker record (a second shutdown's ``abandoned``, a cancel that raced
the completion) can never demote a completed job.  Replay is idempotent:
a resumed run answers settled work from the result cache and writes
fresh terminal records for the re-enqueued jobs, so a second resume
finds nothing left to do.

``JobJournal(None)`` is disabled (never writes), mirroring
:class:`~repro.campaign.cache.ResultCache`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro import faults, obs
from repro.ioutil import locked_append
from repro.schemas import JOURNAL_SCHEMA, validate_journal_record

from .jobs import KISS_DEFAULTS, CheckJob

#: terminal events, strongest first: a later weaker record never
#: overrides an earlier stronger one (double shutdowns, cancels that
#: race a completion).
_TERMINAL_RANK = {"done": 3, "cancelled": 2, "abandoned": 1}


class JobJournal:
    """Append-only lifecycle log keyed by ``job_id``.

    Tracks the set of *open* (admitted, no terminal record) jobs — from
    any prior runs sharing the file plus this one — so shutdown can
    stamp ``abandoned`` on exactly the jobs still owed, and duplicate
    terminal records are suppressed at the source.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self.enabled = path is not None
        #: appends that failed at the OS level (record lost on disk,
        #: lifecycle still tracked in memory for this run).
        self.write_errors = 0
        #: job_id -> True for admitted-but-unterminated jobs.
        self._open: Dict[str, bool] = {}
        if self.enabled:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
            if os.path.exists(path):
                plan = replay(path)
                for job in plan.jobs:
                    self._open[job.job_id] = True

    def is_open(self, job_id: str) -> bool:
        return job_id in self._open

    # -- lifecycle records -------------------------------------------------------

    def admit(
        self,
        job: CheckJob,
        key: str,
        tenant: Optional[str] = None,
        origin: str = "campaign",
    ) -> None:
        if not self.enabled:
            return
        self._append(
            {
                "event": "admitted",
                "job": job.job_id,
                "key": key,
                "tenant": tenant,
                "origin": origin,
                "spec": job.to_dict(),
            }
        )
        self._open[job.job_id] = True

    def started(self, job_id: str, attempt: int) -> None:
        if not self.enabled or job_id not in self._open:
            return
        self._append({"event": "started", "job": job_id, "attempt": attempt})

    def done(self, job_id: str, verdict: str) -> None:
        self._terminal({"event": "done", "job": job_id, "verdict": verdict})

    def cancelled(self, job_id: str, reason: str = "") -> None:
        self._terminal({"event": "cancelled", "job": job_id, "reason": reason})

    def abandoned(self, job_id: str, reason: str = "") -> None:
        self._terminal({"event": "abandoned", "job": job_id, "reason": reason})

    def _terminal(self, doc: dict) -> None:
        # only jobs this journal knows as open get terminal records:
        # suppresses duplicates (a job settles once) and keeps
        # unjournaled flows (cache hits never admitted) out of the log.
        if not self.enabled or doc["job"] not in self._open:
            return
        self._append(doc)
        self._open.pop(doc["job"], None)

    def _append(self, doc: dict) -> None:
        doc = dict(doc, schema=JOURNAL_SCHEMA, t=round(time.time(), 3))
        validate_journal_record(doc)
        line = json.dumps(doc, sort_keys=True) + "\n"
        try:
            faults.fire("journal_append")
            locked_append(self.path, faults.corrupt("journal_append", line))
        except OSError:
            self.write_errors += 1
            obs.inc("journal_write_errors")

    # -- maintenance -------------------------------------------------------------

    def stats(self) -> dict:
        """Shape of the log for ``journal stats`` (delegates to
        :func:`replay` so the CLI and the loader agree byte-for-byte)."""
        if not self.enabled:
            return {"enabled": False, "path": None}
        plan = replay(self.path)
        doc = plan.summary_doc()
        doc["enabled"] = True
        doc["path"] = self.path
        doc["file_bytes"] = (
            os.path.getsize(self.path) if os.path.exists(self.path) else 0
        )
        return doc


@dataclass
class RecoveryPlan:
    """What a journal replay owes: the incomplete jobs, plus tallies."""

    path: Optional[str] = None
    #: jobs to re-enqueue, in first-admission order.
    jobs: List[CheckJob] = field(default_factory=list)
    #: job_id -> cache key for the re-enqueued jobs.
    keys: Dict[str, str] = field(default_factory=dict)
    #: job_id -> tenant (None for batch-origin jobs).
    tenants: Dict[str, Optional[str]] = field(default_factory=dict)
    admitted: int = 0
    done: int = 0
    cancelled: int = 0
    abandoned: int = 0
    #: admitted + started but no terminal record (crash mid-flight).
    started_only: int = 0
    corrupt_lines: int = 0
    stale_lines: int = 0

    @property
    def incomplete(self) -> int:
        return len(self.jobs)

    def summary_doc(self) -> dict:
        return {
            "schema": "kiss-recovery/1",
            "admitted": self.admitted,
            "done": self.done,
            "cancelled": self.cancelled,
            "abandoned": self.abandoned,
            "started_only": self.started_only,
            "incomplete": self.incomplete,
            "corrupt_lines": self.corrupt_lines,
            "stale_lines": self.stale_lines,
        }

    def summary(self) -> str:
        head = (
            f"journal: {self.admitted} admitted, {self.done} done, "
            f"{self.cancelled} cancelled, {self.abandoned} abandoned"
        )
        tail = (
            f"recovery: {self.incomplete} incomplete "
            f"({self.started_only} died mid-flight)"
        )
        health = ""
        if self.corrupt_lines or self.stale_lines:
            health = (
                f"\nskipped: {self.corrupt_lines} corrupt, "
                f"{self.stale_lines} stale lines"
            )
        return f"{head}\n{tail}{health}"


def replay(path: str) -> RecoveryPlan:
    """Fold a journal file into a :class:`RecoveryPlan` without
    executing anything.  Torn lines and foreign-schema lines are
    skipped and counted, exactly like the result-cache loader."""
    plan = RecoveryPlan(path=path)
    # job_id -> latest state; precedence: any terminal beats started,
    # stronger terminals beat weaker ones (done > cancelled > abandoned).
    state: Dict[str, dict] = {}
    order: List[str] = []
    if not os.path.exists(path):
        return plan
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                plan.corrupt_lines += 1
                continue
            if not isinstance(doc, dict) or doc.get("schema") != JOURNAL_SCHEMA:
                plan.stale_lines += 1
                continue
            try:
                validate_journal_record(doc)
            except ValueError:
                plan.corrupt_lines += 1
                continue
            job_id = doc["job"]
            event = doc["event"]
            if job_id not in state:
                if event != "admitted":
                    # terminal/started for a job whose admission was torn
                    # away: nothing to recover, nothing to count.
                    plan.stale_lines += 1
                    continue
                state[job_id] = {"spec": None, "key": None, "tenant": None,
                                 "terminal": None, "started": False}
                order.append(job_id)
            entry = state[job_id]
            if event == "admitted":
                # re-admission (a resumed run re-enqueued it): latest
                # spec wins, terminal state resets — the job is owed again.
                entry["spec"] = doc["spec"]
                entry["key"] = doc["key"]
                entry["tenant"] = doc.get("tenant")
                entry["terminal"] = None
                entry["started"] = False
            elif event == "started":
                entry["started"] = True
            else:
                old = entry["terminal"]
                if old is None or _TERMINAL_RANK[event] > _TERMINAL_RANK[old]:
                    entry["terminal"] = event
    for job_id in order:
        entry = state[job_id]
        plan.admitted += 1
        terminal = entry["terminal"]
        if terminal == "done":
            plan.done += 1
            continue
        if terminal == "cancelled":
            plan.cancelled += 1
            continue
        if terminal == "abandoned":
            plan.abandoned += 1
        elif entry["started"]:
            plan.started_only += 1
        try:
            job = CheckJob.from_dict(entry["spec"])
        except (KeyError, TypeError):
            plan.corrupt_lines += 1
            continue
        # older journals carry options Kiss() has since retired (every
        # Table 1 job once did); they never keyed a result, so drop them
        job = replace(job, config={k: v for k, v in job.config.items()
                                   if k in KISS_DEFAULTS or k.startswith("fuzz_")})
        plan.jobs.append(job)
        plan.keys[job.job_id] = entry["key"]
        plan.tenants[job.job_id] = entry["tenant"]
    return plan
