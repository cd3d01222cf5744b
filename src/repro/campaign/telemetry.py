"""Structured telemetry for campaign runs.

Every scheduler action emits one JSON object (``campaign_start``,
``job_start``, ``job_end``, ``job_retry``, ``campaign_end``) with a
monotonic-relative timestamp ``t`` in seconds.  Events stream to a JSONL
file when a path is given and are always kept in memory (they are small)
for tests and the end-of-run summary.

The event envelope is shared with the span stream of :mod:`repro.obs`
(both build events with :func:`repro.obs.make_event`), so one JSONL file
can interleave scheduler events and per-job phase traces; ``job_end``
events carry the worker's ``kiss-metrics/1`` snapshot under ``metrics``
when a job ran with the ``observe`` execution option.

``Telemetry`` owns a file handle when given a path; close it with
:meth:`close` or use the instance as a context manager (the scheduler
does the latter for streams it creates).  A stream write that fails at
the OS level (disk full, or an injected ``telemetry_emit`` fault —
:mod:`repro.faults`) degrades the stream to in-memory-only for the rest
of the run: events are never lost from memory, and a half-written file
is never appended to again.

The summary reproduces the shape of the paper's Table 1: one row per
driver with race / no-race / unresolved counts, plus campaign-level
cache and wall-clock totals.  :func:`summary_document` renders the same
information as a schema-tagged JSON document (``kiss-campaign/1``) that
stays well-formed even for a partial, interrupted campaign;
:func:`validate_summary` (defined with every other document schema in
:mod:`repro.schemas`, re-exported here) is the corresponding checker.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, IO, List, Optional, Sequence

from repro import faults, obs, package_version
from repro.obs import make_event
from repro.reporting import render_table
from repro.schemas import CAMPAIGN_SCHEMA, validate_summary  # noqa: F401

from .jobs import JobResult

#: Schema tag of :func:`summary_document` artifacts.
SUMMARY_SCHEMA = CAMPAIGN_SCHEMA

#: Detail prefixes marking a job the campaign never ran to completion
#: (graceful-interrupt or deadline remainders, cooperative
#: cancellations).
INTERRUPTED_DETAIL_PREFIXES = ("interrupted", "deadline", "cancelled")


class Telemetry:
    """JSONL event stream (see module doc)."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.events: List[dict] = []
        #: stream writes that failed; > 0 means the file is partial.
        self.write_errors = 0
        self._t0 = time.monotonic()
        self._fh: Optional[IO[str]] = open(path, "w") if path else None

    def emit(self, event: str, **fields) -> dict:
        obj = make_event(event, time.monotonic() - self._t0, **fields)
        self.events.append(obj)
        if self._fh is not None:
            try:
                faults.fire("telemetry_emit")
                self._fh.write(faults.corrupt("telemetry_emit", json.dumps(obj) + "\n"))
                self._fh.flush()
            except OSError:
                # Degrade to in-memory only: the event survives in
                # self.events, and we stop appending to a file that may
                # now end mid-line.
                self.write_errors += 1
                obs.inc("telemetry_write_errors")
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None
        return obj

    @property
    def closed(self) -> bool:
        """True when no file handle is open (also for in-memory streams)."""
        return self._fh is None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def of_kind(self, event: str) -> List[dict]:
        return [e for e in self.events if e["event"] == event]


# ---------------------------------------------------------------------------
# End-of-run summary
# ---------------------------------------------------------------------------


def summarize(results: Sequence[JobResult], wall_s: Optional[float] = None) -> str:
    """Render the end-of-run summary table (Table 1 shape) plus the
    cache/wall totals line."""
    drivers: Dict[str, List[JobResult]] = {}
    for r in results:
        drivers.setdefault(r.driver, []).append(r)

    def count(rs, v):
        return sum(1 for r in rs if r.table_verdict == v)

    rows = []
    for name, rs in drivers.items():
        rows.append(
            [
                name,
                len(rs),
                count(rs, "race"),
                count(rs, "no-race"),
                count(rs, "unresolved"),
                sum(1 for r in rs if r.cache_hit),
                round(sum(r.wall_s for r in rs), 2),
            ]
        )
    total = [
        "Total",
        len(results),
        count(results, "race"),
        count(results, "no-race"),
        count(results, "unresolved"),
        sum(1 for r in results if r.cache_hit),
        round(sum(r.wall_s for r in results), 2),
    ]
    rows.append(total)
    table = render_table(
        ["Driver", "Fields", "Races", "No Races", "Unresolved", "Cached", "Wall(s)"],
        rows,
        title="Campaign summary (Table 1 shape)",
    )
    hits = total[5]
    n = len(results) or 1
    lines = [table, f"cache: skipped {hits}/{len(results)} jobs ({100.0 * hits / n:.0f}%)"]
    if wall_s is not None:
        lines.append(f"campaign wall clock: {wall_s:.2f}s")
    return "\n".join(lines)


def summary_document(
    results: Sequence[JobResult],
    *,
    interrupted: Optional[str] = None,
    deadline_hit: bool = False,
    wall_s: Optional[float] = None,
    cache_hits: int = 0,
    cache_misses: int = 0,
) -> Dict[str, Any]:
    """The machine-readable campaign summary (``kiss-campaign/1``).

    Always complete and schema-valid, even when the campaign was
    interrupted: remainder jobs (detail ``interrupted:``/``deadline:``)
    and cooperatively cancelled jobs (detail ``cancelled``) are counted
    under ``interrupted_jobs`` and still appear in the verdict tallies
    (as ``resource-bound`` or ``cancelled``, both ``unresolved`` in the
    table vocabulary), so ``jobs == completed + interrupted_jobs``
    holds by construction.  ``unreplayed_errors`` counts the error
    verdicts whose mapped trace did not replay under the concurrent
    semantics: a pipeline bug, never a verdict change.
    """
    verdicts: Dict[str, int] = {}
    table: Dict[str, int] = {}
    drivers: Dict[str, Dict[str, Any]] = {}
    interrupted_jobs = 0
    for r in results:
        verdicts[r.verdict] = verdicts.get(r.verdict, 0) + 1
        table[r.table_verdict] = table.get(r.table_verdict, 0) + 1
        if r.detail.startswith(INTERRUPTED_DETAIL_PREFIXES):
            interrupted_jobs += 1
        row = drivers.setdefault(
            r.driver,
            {"driver": r.driver, "fields": 0, "race": 0, "no-race": 0,
             "unresolved": 0, "other": 0, "cached": 0, "wall_s": 0.0},
        )
        row["fields"] += 1
        # Assertion/fuzz jobs use the safe/error vocabulary; the Table 1
        # columns only know races, so they land in "other".
        bucket = r.table_verdict if r.table_verdict in ("race", "no-race", "unresolved") else "other"
        row[bucket] += 1
        row["cached"] += 1 if r.cache_hit else 0
        row["wall_s"] = round(row["wall_s"] + r.wall_s, 6)
    return {
        "schema": SUMMARY_SCHEMA,
        "version": package_version(),
        "jobs": len(results),
        "completed": len(results) - interrupted_jobs,
        "interrupted_jobs": interrupted_jobs,
        "interrupted": interrupted,
        "deadline_hit": deadline_hit,
        "verdicts": verdicts,
        "table": table,
        "drivers": list(drivers.values()),
        "cache": {"hits": cache_hits, "misses": cache_misses},
        "unreplayed_errors": sum(
            1 for r in results if r.verdict == "error" and r.trace_validated is False
        ),
        "wall_s": None if wall_s is None else round(wall_s, 6),
    }
