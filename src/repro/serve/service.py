"""The checking service core: admission, quotas, dedupe, drain.

:class:`CheckService` is the third frontend over
:class:`~repro.campaign.runtime.CampaignRuntime` (after the batch
scheduler and the fuzz runner): a long-lived engine thread pumps the
runtime forever while HTTP handler threads admit work through
:meth:`submit`.  The service owns the *service* policy the batch
frontend has no use for:

* **per-tenant token-bucket quotas** — a tenant sustaining more than
  ``quota_rate`` submissions/s (above a ``quota_burst`` burst) is
  rejected with a retry hint, not queued without bound;
* **bounded admission** — at most ``max_queue`` distinct jobs may be
  admitted-but-unfinished; past that, submission fails with
  backpressure (HTTP 429) instead of growing an unbounded backlog.
  Only jobs that open a new key take a slot, and a swarm is admitted
  or refused whole;
* **dedupe** — a submission whose cache key matches a persisted result
  answers immediately (``cache: "hit"``); one matching a job already
  in flight piggybacks on it (``cache: "dedup"``) and streams the same
  lifecycle events under its own job id;
* **graceful drain** — :meth:`drain` stops admission (503) while the
  engine finishes everything already admitted; :meth:`degrade_pending`
  (the second-signal path) additionally degrades the not-yet-started
  backlog to ``resource-bound``, exactly like a batch campaign's
  SIGTERM remainder.  Either way every stream ends with a schema-valid
  terminal event;
* **cancellation** — :meth:`cancel` (HTTP ``DELETE /v1/jobs/<id>``)
  cooperatively cancels one admitted job: a deduped rider detaches
  alone (the underlying check keeps running for its siblings), the last
  record on a key cancels the runtime job itself
  (:meth:`~repro.campaign.runtime.CampaignRuntime.request_cancel`),
  and the stream ends with a ``cancelled`` terminal event.  Cancelled
  jobs are never cached and never produce a verdict;
* **server-side swarms** — :meth:`submit_swarm` (``POST /v1/swarm``)
  fans one program out into schedule tiles (:mod:`repro.campaign.swarm`)
  on the shared engine; tile lifecycle events stream both on the tile
  records and interleaved into the swarm's own stream, first-error
  cancellation stops sibling tiles the moment any tile errs, and the
  aggregate verdict (with the witnessing tile's replayed trace) lands
  as one ``done`` event on the swarm stream;
* **durability** — with a ``journal_path`` every admission writes a
  ``kiss-journal/1`` write-ahead record through the runtime
  (:mod:`repro.campaign.journal`); ``resume=True`` replays the journal
  at startup, answers recovered jobs from the result cache where
  possible, and re-enqueues the rest (no quota charge), so a ``kill
  -9``'d server picks up exactly the work it still owed.

Jobs, swarm tiles, and journal-recovered jobs all enter through one
path: :meth:`_gate` (drain and quota; recovery skips it), then
:meth:`_classify` (one cache lookup per record, the queue cap) and
:meth:`_commit` (hit, rider, or new key).

Each admitted submission gets a :class:`JobRecord` accumulating its
``kiss-serve/1`` event stream (``queued`` → ``started`` → ``retry``* →
``done`` | ``cancelled``); handler threads read records under the
service lock and long-poll on the record's ``done`` event.  Chaos
behavior is inherited: a :class:`~repro.faults.FaultPlan` installs in
the engine thread and ships to pool workers (the ``engine_crash`` point
fires at the top of every engine step), and the runtime's retry/degrade
policy holds for served traffic (faults may cost coverage, never a
wrong verdict — docs/ROBUSTNESS.md).

Caveat (shared with in-process batch runs): with ``jobs <= 1`` the
engine checks in its own thread, where the ``SIGALRM``-based per-job
timeout cannot arm, so ``timeout`` is only enforced with ``jobs >= 2``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import faults, obs, package_version
from repro.campaign.cache import cache_key
from repro.campaign.jobs import KISS_DEFAULTS, CheckJob, JobResult
from repro.campaign.journal import replay as journal_replay
from repro.campaign.runtime import CampaignConfig, CampaignRuntime
from repro.campaign.swarm import SwarmReport, TilePlan, aggregate, plan_tiles, swarm_jobs
from repro.campaign.telemetry import Telemetry
from repro.core.checker import Kiss
from repro.faults import FaultPlan
from repro.obs import make_event
from repro.schemas import SERVE_SCHEMA, validate_serve_event

#: Completed records retained for late ``GET`` readers before eviction.
DONE_RETENTION = 4096

#: Config keys a submission may override (everything else is a 400).
_ALLOWED_CONFIG = set(KISS_DEFAULTS)


class AdmissionError(Exception):
    """A submission the service refuses; carries the HTTP shape."""

    def __init__(self, status: int, error: str, retry_after: Optional[float] = None):
        super().__init__(error)
        self.status = status
        self.error = error
        self.retry_after = retry_after


@dataclass
class ServeConfig:
    """Service knobs: the engine subset mirrors
    :class:`~repro.campaign.runtime.CampaignConfig` (``deadline`` has no
    service analogue — a server has no end); the rest is admission
    policy."""

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 1
    cache_dir: Optional[str] = None
    memory_limit: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    telemetry_path: Optional[str] = None
    #: sustained submissions/second allowed per tenant ...
    quota_rate: float = 20.0
    #: ... above an initial burst of this many.
    quota_burst: int = 40
    #: admitted-but-unfinished jobs (distinct cache keys) before 429.
    max_queue: int = 256
    #: engine wait granularity (pool poll / idle sleep), seconds.
    poll_s: float = 0.05
    #: write-ahead job journal destination (None = no durability).
    journal_path: Optional[str] = None
    #: replay the journal at startup and re-enqueue the incomplete jobs.
    resume: bool = False


class TokenBucket:
    """Classic token bucket; ``clock`` is injectable for tests."""

    def __init__(self, rate: float, burst: int, clock=time.monotonic):
        self.rate = float(rate)
        self.burst = float(max(1, burst))
        self._clock = clock
        self._tokens = self.burst
        self._t = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._t) * self.rate)
        self._t = now

    def try_take(self) -> bool:
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until the next token exists (0 when one is ready)."""
        self._refill()
        missing = 1.0 - self._tokens
        return 0.0 if missing <= 0 else missing / self.rate


@dataclass
class JobRecord:
    """One admitted submission and its ``kiss-serve/1`` event stream.

    Deduped followers are separate records sharing the primary's cache
    key: they receive the same lifecycle events relabelled with their
    own job id."""

    job_id: str
    tenant: str
    key: str
    #: rides an identical in-flight job (set at admission).
    deduped: bool = False
    #: the parsed job spec (every record keeps its own — riders too),
    #: so a cancellation can synthesize a result without the runtime.
    job: Optional[CheckJob] = None
    events: List[dict] = field(default_factory=list)
    result: Optional[JobResult] = None
    done: threading.Event = field(default_factory=threading.Event)

    def status_doc(self) -> dict:
        terminal = next(
            (e for e in reversed(self.events) if e["event"] in ("done", "cancelled")),
            None,
        )
        state = "queued"
        if self.done.is_set():
            state = "cancelled" if (
                terminal is not None and terminal["event"] == "cancelled"
            ) else "done"
        elif any(e["event"] == "started" for e in self.events):
            state = "running"
        out: Dict[str, Any] = {
            "job": self.job_id,
            "tenant": self.tenant,
            "state": state,
            "deduped": self.deduped,
            "events": len(self.events),
            "result": None,
        }
        if self.result is not None and terminal is not None:
            out["result"] = {
                "verdict": self.result.verdict,
                "error_kind": self.result.error_kind,
                "attempts": terminal.get("attempts", self.result.attempts),
                "cache": terminal.get("cache"),
                "wall_s": terminal.get("wall_s", round(self.result.wall_s, 6)),
                "detail": self.result.detail,
            }
        return out


@dataclass
class SwarmRecord:
    """One server-side swarm: N tile jobs plus the aggregate stream.

    The swarm's event list interleaves every tile's lifecycle events
    (each tagged with the tile's own job id) and ends with exactly one
    aggregate ``done`` event tagged with the swarm id."""

    swarm_id: str
    tenant: str
    source: str
    plan: TilePlan
    first_error: bool
    tile_ids: List[str]
    events: List[dict] = field(default_factory=list)
    #: tile job_id -> settled result (terminal events only).
    results: Dict[str, JobResult] = field(default_factory=dict)
    report: Optional[SwarmReport] = None
    #: the first-error cancellation fired (at most once per swarm).
    cancelled_sent: bool = False
    done: threading.Event = field(default_factory=threading.Event)

    def status_doc(self) -> dict:
        out: Dict[str, Any] = {
            "swarm": self.swarm_id,
            "tenant": self.tenant,
            "state": "done" if self.done.is_set() else "running",
            "tiles": len(self.tile_ids),
            "tile_jobs": list(self.tile_ids),
            "exhaustive": self.plan.exhaustive,
            "first_error": self.first_error,
            "settled": len(self.results),
            "events": len(self.events),
            "verdict": None,
        }
        if self.report is not None:
            out["verdict"] = self.report.verdict
            out["witness_tile"] = self.report.witness_tile
            out["trace_validated"] = self.report.trace_validated
            out["trace"] = self.report.trace
            out["cancelled_tiles"] = sum(
                1 for r in self.results.values() if r.verdict == "cancelled"
            )
        return out


class _ServiceTelemetry(Telemetry):
    """The engine's telemetry stream, teed into serve event records:
    ``job_start``/``job_retry`` emitted by the runtime during a pump
    become ``started``/``retry`` events on every record attached to the
    job's cache key."""

    def __init__(self, service: "CheckService", path: Optional[str] = None):
        super().__init__(path)
        self._service = service

    def emit(self, event: str, **fields) -> dict:
        obj = super().emit(event, **fields)
        if event == "job_start":
            self._service._fanout(fields["job"], "started", attempt=fields["attempt"])
        elif event == "job_retry":
            self._service._fanout(fields["job"], "retry", attempt=fields["attempt"],
                                  reason=fields["reason"])
        return obj


class CheckService:
    """The long-lived checking service (see module doc).

    Thread model: HTTP handlers call :meth:`submit` / :meth:`get` /
    :meth:`events_since` from any thread; one engine thread owns the
    runtime.  All shared state lives behind ``_lock``.  Tests may pass
    ``start_engine=False`` to drive :meth:`pump_once` deterministically.
    """

    def __init__(self, config: Optional[ServeConfig] = None, start_engine: bool = True):
        self.config = config or ServeConfig()
        self.runtime = CampaignRuntime(CampaignConfig(
            jobs=self.config.jobs,
            timeout=self.config.timeout,
            retries=self.config.retries,
            cache_dir=self.config.cache_dir,
            memory_limit=self.config.memory_limit,
            fault_plan=self.config.fault_plan,
            journal_path=self.config.journal_path,
        ))
        self.runtime.origin = "serve"
        self._lock = threading.RLock()
        self._t0 = time.monotonic()
        self._tel = _ServiceTelemetry(self, self.config.telemetry_path)
        #: job_id -> record, insertion-ordered for done-record eviction.
        self._records: "OrderedDict[str, JobRecord]" = OrderedDict()
        #: cache key -> records riding the in-flight check of that key.
        self._active: Dict[str, List[JobRecord]] = {}
        #: cache key -> the job id actually submitted to the runtime.
        self._key_job: Dict[str, str] = {}
        #: admitted jobs the engine has not yet moved into the runtime.
        self._inbox: List[Tuple[CheckJob, str, str]] = []
        #: swarm_id -> record, insertion-ordered for eviction.
        self._swarms: "OrderedDict[str, SwarmRecord]" = OrderedDict()
        #: tile job_id -> its swarm, while the tile is unsettled.
        self._swarm_by_tile: Dict[str, SwarmRecord] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._seq = 0
        self.draining = False
        self._force_detail: Optional[str] = None
        self.counts: Dict[str, int] = {
            "submitted": 0, "completed": 0, "cancelled": 0, "cache_hits": 0,
            "deduped": 0, "swarms": 0, "cancel_requests": 0, "recovered": 0,
            "rejected_quota": 0, "rejected_queue": 0, "rejected_invalid": 0,
            "rejected_draining": 0,
        }
        #: the ``kiss-recovery/1`` summary of a ``resume=True`` startup.
        self.recovery: Optional[dict] = None
        if self.config.resume:
            self._recover()
        self._engine: Optional[threading.Thread] = None
        self._engine_stopped = threading.Event()
        if start_engine:
            self.start()

    def _recover(self) -> None:
        """Replay the journal and re-own every incomplete job through
        the ordinary commit step: answer from the result cache where
        possible (writing the owed ``done`` terminal record), ride or
        re-enqueue the rest.  No gate and no queue cap — the work was
        admitted before the crash."""
        journal = self.runtime.journal
        if not journal.enabled:
            return
        plan = journal_replay(self.config.journal_path)
        self.recovery = plan.summary_doc()
        records = []
        for job in plan.jobs:
            # a recovered id may collide with nothing (ids are
            # tenant/seq and _seq resumes past them)
            tail = job.job_id.rsplit("/", 1)[-1]
            try:
                self._seq = max(self._seq, int(tail) + 1)
            except ValueError:
                pass
            records.append(JobRecord(
                job_id=job.job_id, tenant=plan.tenants.get(job.job_id) or "anon",
                key=plan.keys.get(job.job_id) or cache_key(job), job=job))
        hits = self._classify(records, capped=False)
        self.counts["recovered"] += self._commit(records, hits)
        for record, hit in zip(records, hits):
            if hit is not None:
                # the crash landed between the cache append and the
                # journal terminal: close the journal
                journal.done(record.job_id, hit.verdict)
        self._tel.emit("recovery", path=self.config.journal_path,
                       **{k: v for k, v in self.recovery.items() if k != "schema"})

    # -- engine lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._engine is not None:
            return
        self._engine = threading.Thread(target=self._engine_loop,
                                        name="kiss-serve-engine", daemon=True)
        self._engine.start()

    def _engine_loop(self) -> None:
        try:
            with faults.plan_context(self.config.fault_plan):
                while self._engine_step():
                    pass
        finally:
            self.runtime.close()
            self._engine_stopped.set()

    def _engine_step(self) -> bool:
        """One engine iteration; False once a drain has completed."""
        rt = self.runtime
        faults.fire("engine_crash")
        with self._lock:
            for job, key, tenant in self._inbox:
                rt.submit(job, key, tenant=tenant)
            self._inbox.clear()
            if self._force_detail is not None and rt.backlog:
                for job, key, result in rt.drain_pending(self._force_detail):
                    self._finish(job, key, result)
        if not rt.idle:
            finished = rt.pump(self._tel, submit=True, poll_s=self.config.poll_s)
            with self._lock:
                for job, key, result in finished:
                    self._finish(job, key, result)
        with self._lock:
            if self.draining and rt.idle and not self._inbox:
                return False
        if rt.idle:
            time.sleep(self.config.poll_s)
        return True

    def pump_once(self) -> None:
        """Drive one engine iteration on the calling thread (only valid
        with ``start_engine=False``; deterministic tests use this)."""
        with faults.plan_context(self.config.fault_plan):
            self._engine_step()

    @property
    def stopped(self) -> bool:
        """True once the engine thread has drained and exited."""
        return self._engine is not None and self._engine_stopped.is_set()

    def drain(self) -> None:
        """Stop admitting (submissions get 503); the engine finishes
        everything already admitted, then exits."""
        with self._lock:
            self.draining = True

    def degrade_pending(self, detail: str = "interrupted: SIGTERM") -> None:
        """Second-signal drain: also degrade the not-yet-started backlog
        to ``resource-bound`` (in-flight work still completes)."""
        with self._lock:
            self.draining = True
            self._force_detail = detail

    def stop(self, timeout: float = 30.0) -> None:
        """Shut down for tests/embedding: force-drain and join the
        engine, then close the telemetry stream."""
        self.degrade_pending("interrupted: shutdown")
        if self._engine is not None:
            self._engine_stopped.wait(timeout)
        self._tel.close()

    # -- admission ---------------------------------------------------------------

    def submit(self, tenant: str, payload: dict) -> Tuple[int, dict]:
        """Admit one submission; returns ``(http_status, body)``.

        200 = answered from the persistent cache (already done),
        202 = admitted (fresh, or deduped onto an identical in-flight
        job), and :class:`AdmissionError` carries the 4xx/5xx shape.
        """
        with self._lock:
            self._gate(tenant)
            try:
                job_id = f"{tenant}/{self._seq}"
                job = self._job_from_payload(job_id, tenant, payload)
                key = cache_key(job)
            except AdmissionError:
                self.counts["rejected_invalid"] += 1
                raise
            record = JobRecord(job_id=job_id, tenant=tenant, key=key, job=job)
            hits = self._classify([record])
            self._seq += 1
            self._commit([record], hits)
            return (202 if hits[0] is None else 200), record.status_doc()

    def submit_swarm(self, tenant: str, payload: dict) -> Tuple[int, dict]:
        """Admit one swarm: plan the tiles server-side and fan them out
        as ordinary tile jobs on the shared engine.  Returns
        ``(202, swarm status doc)``; the aggregate verdict arrives as
        the swarm stream's ``done`` event once every tile settles."""
        with self._lock:
            self._gate(tenant)
            try:
                params = self._swarm_from_payload(payload)
            except AdmissionError:
                self.counts["rejected_invalid"] += 1
                raise
            swarm_id = f"{tenant}/swarm{self._seq}"
            try:
                plan = plan_tiles(params["program"], tiles=params["tiles"],
                                  rounds=params["rounds"], seed=params["seed"])
            except Exception as exc:
                self.counts["rejected_invalid"] += 1
                raise AdmissionError(400, f"swarm planning failed: {exc}")
            jobs = swarm_jobs(params["program"], plan,
                              max_states=params["max_states"],
                              por=params["por"], name=swarm_id)
            records = [JobRecord(job_id=job.job_id, tenant=tenant, key=cache_key(job),
                                 job=job) for job in jobs]
            hits = self._classify(records)
            self._seq += 1
            self.counts["swarms"] += 1
            obs.inc("serve_swarms")
            swarm = SwarmRecord(
                swarm_id=swarm_id, tenant=tenant, source=params["program"],
                plan=plan, first_error=params["first_error"],
                tile_ids=[j.job_id for j in jobs],
            )
            self._swarms[swarm_id] = swarm
            swarm.events.append(self._event(
                "queued", swarm_id, tenant=tenant,
                key=hashlib.sha256(params["program"].encode()).hexdigest(),
                deduped=False))
            for record in records:
                self._swarm_by_tile[record.job_id] = swarm
            self._commit(records, hits)
            return 202, swarm.status_doc()

    # -- the one admission path ----------------------------------------------------

    def _gate(self, tenant: str) -> None:
        """The gate :meth:`submit` and :meth:`submit_swarm` share
        (caller holds the lock): 503 while draining, else one token
        from the tenant's quota bucket or 429."""
        if self.draining:
            self.counts["rejected_draining"] += 1
            raise AdmissionError(503, "draining: not admitting new jobs")
        bucket = self._buckets.setdefault(
            tenant, TokenBucket(self.config.quota_rate, self.config.quota_burst))
        if not bucket.try_take():
            self.counts["rejected_quota"] += 1
            obs.inc("serve_rejected_quota")
            raise AdmissionError(429, f"quota exceeded for tenant {tenant!r}",
                                 retry_after=max(0.05, bucket.retry_after()))

    def _classify(self, records: List[JobRecord],
                  capped: bool = True) -> List[Optional[JobResult]]:
        """Admission, first half (caller holds the lock): look each
        record up in the cache once and return the hits.  With
        ``capped``, refuse the whole batch (429) when the keys it would
        newly open do not fit under ``max_queue``; cache hits and
        riders on an in-flight key take no slot.  Nothing changes
        before the cap passes, so a refused swarm leaves no tile
        behind."""
        hits = [self.runtime.cache.get(r.key) for r in records]
        if capped:
            new_keys = {r.key for r, hit in zip(records, hits)
                        if hit is None and r.key not in self._active}
            if len(self._active) + len(new_keys) > self.config.max_queue:
                self.counts["rejected_queue"] += 1
                obs.inc("serve_rejected_queue")
                raise AdmissionError(429, "admission queue full", retry_after=1.0)
        return hits

    def _commit(self, records: List[JobRecord], hits: List[Optional[JobResult]]) -> int:
        """Admission, second half (caller holds the lock): settle each
        record as a cache hit, a rider on its key's in-flight check, or
        the job that opens the key, with the same counters and
        ``queued`` event on every path.  Returns how many keys it
        opened."""
        opened = 0
        for record, hit in zip(records, hits):
            self._records[record.job_id] = record
            riders = self._active.get(record.key)
            record.deduped = hit is None and riders is not None
            self._push(record, self._event("queued", record.job_id, tenant=record.tenant,
                                           key=record.key, deduped=record.deduped))
            if hit is not None:
                self.counts["cache_hits"] += 1
                obs.inc("serve_cache_hits")
                result = dataclasses.replace(hit, job_id=record.job_id,
                                             driver=record.job.driver)
                self._complete(record, result, cache_state="hit")
            elif riders is not None:
                self.counts["deduped"] += 1
                obs.inc("serve_deduped")
                riders.append(record)
            else:
                self.counts["submitted"] += 1
                obs.inc("serve_submissions")
                self._active[record.key] = [record]
                self._key_job[record.key] = record.job_id
                self._inbox.append((record.job, record.key, record.tenant))
                opened += 1
        self._evict_done()
        return opened

    def _swarm_from_payload(self, payload: dict) -> Dict[str, Any]:
        if not isinstance(payload, dict):
            raise AdmissionError(400, "swarm body must be a JSON object")
        program = payload.get("program")
        if not isinstance(program, str) or not program.strip():
            raise AdmissionError(400, "swarm needs a non-empty 'program' string")
        out: Dict[str, Any] = {"program": program}
        for name, default, lo, hi in (("tiles", 8, 1, 64), ("rounds", 3, 1, 16),
                                      ("seed", 0, 0, 2**31), ("max_states", 300_000, 1, 10**8)):
            value = payload.get(name, default)
            if not isinstance(value, int) or isinstance(value, bool) or not (lo <= value <= hi):
                raise AdmissionError(400, f"'{name}' must be an int in [{lo}, {hi}]")
            out[name] = value
        for name in ("por", "first_error"):
            value = payload.get(name, False)
            if not isinstance(value, bool):
                raise AdmissionError(400, f"'{name}' must be a boolean")
            out[name] = value
        return out

    # -- cancellation -------------------------------------------------------------

    def cancel(self, job_id: str, reason: str = "client-cancel") -> Optional[Tuple[int, dict]]:
        """Cooperatively cancel one admitted job (``DELETE
        /v1/jobs/<id>``).  Returns None for an unknown id, ``(409, ...)``
        when the job already finished, ``(200, status)`` when it settled
        immediately (still queued, or a deduped rider detaching), and
        ``(202, status)`` when the in-flight attempt will settle as
        ``cancelled`` within one backend poll."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return None
            self.counts["cancel_requests"] += 1
            if record.done.is_set():
                return 409, {"error": f"job {job_id} already finished",
                             "status": record.status_doc()}
            self._cancel_record_locked(record, reason)
            status = 200 if record.done.is_set() else 202
            return status, record.status_doc()

    def cancel_swarm(self, swarm_id: str, reason: str = "client-cancel"
                     ) -> Optional[Tuple[int, dict]]:
        """Cancel every unsettled tile of a swarm; the aggregate still
        runs once the tiles settle (cancelled tiles make it
        ``resource-bound`` unless an error already landed)."""
        with self._lock:
            swarm = self._swarms.get(swarm_id)
            if swarm is None:
                return None
            self.counts["cancel_requests"] += 1
            if swarm.done.is_set():
                return 409, {"error": f"swarm {swarm_id} already finished",
                             "status": swarm.status_doc()}
            self._cancel_swarm_siblings(swarm, reason=reason)
            return 202, swarm.status_doc()

    def _cancel_record_locked(self, record: JobRecord, reason: str) -> None:
        """Deliver one cancellation (caller holds the lock).  A record
        sharing its key with other live records detaches alone; the last
        record on a key cancels the underlying runtime job."""
        riders = self._active.get(record.key, [])
        others = [r for r in riders if r.job_id != record.job_id and not r.done.is_set()]
        if others:
            # Detach just this record; the check keeps running for the
            # siblings.  The runtime job (journal included) is untouched.
            if record in riders:
                riders.remove(record)
            self._complete(record, self.runtime._cancelled_result(
                record.job, reason), cache_state="off")
            self._evict_done()
            return
        for i, (job, key, _tenant) in enumerate(self._inbox):
            if key == record.key:
                # Not yet handed to the runtime: settle right here.
                del self._inbox[i]
                self._active.pop(record.key, None)
                self._key_job.pop(record.key, None)
                self._complete(record, self.runtime._cancelled_result(
                    job, reason), cache_state="off")
                self._evict_done()
                return
        runtime_id = self._key_job.get(record.key)
        if runtime_id is None or not self.runtime.request_cancel(runtime_id, reason):
            # The runtime does not know the job (engine already finished
            # it and the completion is racing us, or it was lost to a
            # pool rebuild): leave the record alone — its terminal event
            # arrives through the ordinary completion path.
            return

    def _cancel_swarm_siblings(self, swarm: SwarmRecord, reason: str) -> None:
        """First-error (or client) cancellation: cancel every tile of
        ``swarm`` that has not settled yet.  Caller holds the lock."""
        for tile_id in swarm.tile_ids:
            if tile_id in swarm.results:
                continue
            record = self._records.get(tile_id)
            if record is not None and not record.done.is_set():
                self._cancel_record_locked(record, reason)

    def _job_from_payload(self, job_id: str, tenant: str, payload: dict) -> CheckJob:
        if not isinstance(payload, dict):
            raise AdmissionError(400, "submission body must be a JSON object")
        program = payload.get("program")
        if not isinstance(program, str) or not program.strip():
            raise AdmissionError(400, "submission needs a non-empty 'program' string")
        prop = payload.get("prop", "assertion")
        if prop not in ("race", "assertion", "fuzz"):
            raise AdmissionError(400, f"unknown prop {prop!r}")
        target = payload.get("target")
        if target is not None and not isinstance(target, str):
            raise AdmissionError(400, "'target' must be a string")
        if prop == "race" and not target:
            raise AdmissionError(400, "race jobs need a 'target'")
        config = payload.get("config", {})
        if not isinstance(config, dict):
            raise AdmissionError(400, "'config' must be an object")
        unknown = [k for k in config
                   if k not in _ALLOWED_CONFIG and not k.startswith("fuzz_")]
        if unknown:
            raise AdmissionError(400, f"unknown config keys: {sorted(unknown)}")
        driver = payload.get("driver", tenant)
        if not isinstance(driver, str) or not driver:
            raise AdmissionError(400, "'driver' must be a non-empty string")
        try:
            job = CheckJob(job_id=job_id, driver=driver, source=program,
                           prop=prop, target=target, config=dict(config))
            # refuse bad config values here, not as a retried crash later
            Kiss(**job.kiss_kwargs())
        except (ValueError, TypeError) as exc:
            raise AdmissionError(400, f"invalid config: {exc}")
        return job

    # -- completion and event fan-out --------------------------------------------

    def _event(self, name: str, job_id: str, **fields) -> dict:
        obj = make_event(name, time.monotonic() - self._t0, **fields)
        obj["schema"] = SERVE_SCHEMA
        obj["job"] = job_id
        return validate_serve_event(obj)

    def _push(self, record: JobRecord, event: dict) -> None:
        """Append one event to a record, interleaving it into the owning
        swarm's stream when the record is a tile.  Caller holds the
        lock."""
        record.events.append(event)
        swarm = self._swarm_by_tile.get(record.job_id)
        if swarm is not None:
            swarm.events.append(event)

    def _fanout(self, job_id: str, name: str, **fields) -> None:
        """Relabel one runtime lifecycle event onto every record riding
        the job's cache key (called from telemetry, engine thread)."""
        with self._lock:
            primary = self._records.get(job_id)
            if primary is None:
                return
            for r in self._active.get(primary.key, [primary]):
                self._push(r, self._event(name, r.job_id, **fields))

    def _finish(self, job: CheckJob, key: str, result: JobResult) -> None:
        """Record one finished job (cache append + telemetry) and
        complete every record riding its key.  Caller holds the lock."""
        self.runtime.record(self._tel, job, key, result)
        self._key_job.pop(key, None)
        primary_cache = "miss" if self.runtime.cache.enabled else "off"
        for r in self._active.pop(key, []):
            res = dataclasses.replace(result, job_id=r.job_id)
            self._complete(r, res, cache_state="dedup" if r.deduped else primary_cache)
        self._evict_done()

    def _complete(self, record: JobRecord, result: JobResult, cache_state: str) -> None:
        record.result = result
        if result.verdict == "cancelled":
            # Cancellation is its own terminal event: no verdict, no
            # cache provenance, just the reason.
            self._push(record, self._event(
                "cancelled", record.job_id, reason=result.detail or "cancelled"))
            self.counts["cancelled"] += 1
            obs.inc("serve_cancelled")
            record.done.set()
            self._tile_settled(record, result)
            return
        extra: Dict[str, Any] = {}
        if result.witness is not None:
            # Certificate provenance only — the full kiss-witness/1
            # document stays on the result; streams carry the claim
            # (kind + program digest), not the megabyte of states.
            extra["witness"] = {
                "kind": result.witness["kind"],
                "program_sha256": result.witness["program_sha256"],
            }
        self._push(record, self._event(
            "done", record.job_id,
            verdict=result.verdict, error_kind=result.error_kind,
            attempts=result.attempts, cache=cache_state,
            wall_s=round(result.wall_s, 6), states=result.states,
            detail=result.detail, version=package_version(),
            trace_validated=result.trace_validated, trace=result.trace, **extra,
        ))
        self.counts["completed"] += 1
        record.done.set()
        self._tile_settled(record, result)

    # -- swarm settlement and aggregation ------------------------------------------

    def _tile_settled(self, record: JobRecord, result: JobResult) -> None:
        """Note one tile's terminal result on its swarm; fire the
        first-error cancellation and aggregate when the last tile lands.
        No-op for ordinary jobs.  Caller holds the lock."""
        swarm = self._swarm_by_tile.pop(record.job_id, None)
        if swarm is None:
            return
        swarm.results[record.job_id] = result
        if (swarm.first_error and result.verdict == "error"
                and not swarm.cancelled_sent):
            swarm.cancelled_sent = True
            self._cancel_swarm_siblings(swarm, reason="first-error")
        if len(swarm.results) == len(swarm.tile_ids) and swarm.report is None:
            self._aggregate_swarm(swarm)

    def _aggregate_swarm(self, swarm: SwarmRecord) -> None:
        """Fold one fully settled swarm into its ``done`` event.  Caller
        holds the lock."""
        results = [swarm.results[tid] for tid in swarm.tile_ids]
        report = swarm.report = aggregate(swarm.source, swarm.plan, results)
        detail = f"swarm {report.verdict}: {len(results)} tiles"
        cancelled = sum(1 for r in results if r.verdict == "cancelled")
        if cancelled:
            detail += f", {cancelled} cancelled"
        if report.witness_tile is not None:
            validated = "replay-validated" if report.trace_validated else "not validated"
            detail += f", witness tile {report.witness_tile} ({validated})"
        witness = results[report.witness_tile] if report.witness_tile is not None else None
        swarm.events.append(self._event(
            "done", swarm.swarm_id,
            verdict=report.verdict,
            error_kind=witness.error_kind if witness is not None else None,
            attempts=sum(r.attempts for r in results),
            cache="aggregate",
            wall_s=round(sum(r.wall_s for r in results), 6),
            states=sum(r.states for r in results),
            detail=detail, version=package_version(),
            trace_validated=report.trace_validated, trace=report.trace,
        ))
        swarm.done.set()
        self._tel.emit("swarm_done", swarm=swarm.swarm_id,
                       verdict=report.verdict, tiles=len(results),
                       cancelled=cancelled,
                       witness_tile=report.witness_tile,
                       trace_validated=report.trace_validated)

    def _evict_done(self) -> None:
        """Bound the record index: drop the oldest *completed* records
        past the retention cap (live records are never evicted)."""
        excess = len(self._records) - DONE_RETENTION
        if excess > 0:
            for job_id in [jid for jid, r in self._records.items()
                           if r.done.is_set()][:excess]:
                del self._records[job_id]
        excess = len(self._swarms) - DONE_RETENTION
        if excess > 0:
            for swarm_id in [sid for sid, s in self._swarms.items()
                             if s.done.is_set()][:excess]:
                del self._swarms[swarm_id]

    # -- reads -------------------------------------------------------------------

    def get(self, job_id: str, wait_s: Optional[float] = None) -> Optional[dict]:
        """The status document for a job, or None for an unknown id.
        ``wait_s`` long-polls on completion (bounded by the caller)."""
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            return None
        if wait_s:
            record.done.wait(min(wait_s, 300.0))
        with self._lock:
            return record.status_doc()

    def events_since(self, job_id: str, start: int) -> Optional[Tuple[List[dict], bool]]:
        """``(new events, stream finished)`` for a job from index
        ``start``, or None for an unknown id."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return None
            return list(record.events[start:]), record.done.is_set()

    def get_swarm(self, swarm_id: str, wait_s: Optional[float] = None) -> Optional[dict]:
        """The status document for a swarm, or None for an unknown id.
        ``wait_s`` long-polls on the aggregate verdict."""
        with self._lock:
            swarm = self._swarms.get(swarm_id)
        if swarm is None:
            return None
        if wait_s:
            swarm.done.wait(min(wait_s, 300.0))
        with self._lock:
            return swarm.status_doc()

    def swarm_events_since(self, swarm_id: str, start: int
                           ) -> Optional[Tuple[List[dict], bool]]:
        """``(new events, stream finished)`` for a swarm — the
        interleaved tile streams plus the final aggregate ``done``."""
        with self._lock:
            swarm = self._swarms.get(swarm_id)
            if swarm is None:
                return None
            return list(swarm.events[start:]), swarm.done.is_set()

    def stats_doc(self) -> dict:
        """The ``/stats`` document: admission counters, queue shape,
        cache state, and the process obs counters."""
        with self._lock:
            rt = self.runtime
            return {
                "version": package_version(),
                "uptime_s": round(time.monotonic() - self._t0, 3),
                "draining": self.draining,
                "workers": max(1, self.config.jobs),
                "counts": dict(self.counts),
                "queue": {
                    "active": len(self._active),
                    "inbox": len(self._inbox),
                    "backlog": rt.backlog,
                    "inflight": rt.inflight,
                    "max_queue": self.config.max_queue,
                    "swarms_open": sum(
                        1 for s in self._swarms.values() if not s.done.is_set()),
                },
                "journal": {
                    "enabled": rt.journal.enabled,
                    "path": rt.journal.path,
                    "write_errors": rt.journal.write_errors,
                },
                "recovery": self.recovery,
                "quota": {"rate": self.config.quota_rate,
                          "burst": self.config.quota_burst},
                "cache": {
                    "enabled": rt.cache.enabled,
                    "entries": len(rt.cache),
                    "hits": rt.cache.hits,
                    "misses": rt.cache.misses,
                    "write_errors": rt.cache.write_errors,
                },
                "telemetry_write_errors": self._tel.write_errors,
                "obs": obs.current().counters.as_dict()
                       if obs.current().enabled else {},
            }

    def healthz_doc(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "version": package_version(),
            "uptime_s": round(time.monotonic() - self._t0, 3),
        }
