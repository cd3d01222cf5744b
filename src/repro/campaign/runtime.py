"""The shared campaign engine: one runtime, three frontends.

:class:`CampaignRuntime` owns everything that actually executes checking
jobs — the content-addressed result cache, the worker-pool lifecycle
(lazy creation, rebuild after ``BrokenProcessPool``), windowed
incremental submission, the bounded retry/degrade state machine, fault
points, per-job telemetry, the write-ahead job journal, and cooperative
cancellation.  It keeps exactly one live copy of each job: an attempt
finishes, is retried, or is cancelled, and is never raced against a
duplicate.  It deliberately owns **no policy
about where jobs come from or when to stop**: those belong to the
frontends.

Three frontends drive it:

* :class:`~repro.campaign.scheduler.CampaignScheduler` — the batch
  frontend (``python -m repro campaign``, ``race --all-fields``): feed a
  fixed job list, drain to completion (or to a deadline/signal), return
  results in input order;
* the fuzz runner (:mod:`repro.fuzz.runner`) — a batch of differential
  jobs through the same scheduler;
* the checking service (:mod:`repro.serve`) — a long-lived engine
  thread pumping jobs that arrive over HTTP, forever.

The interaction protocol is pull-based so a frontend always stays in
control between steps (signals, deadlines, and drain requests are
frontend policy):

1. :meth:`lookup` resolves a job against the cache (the global dedupe
   layer) — a hit never reaches the pool;
2. :meth:`submit` queues a miss (and write-ahead journals it when a
   journal is configured);
3. :meth:`pump` runs one engine step — (re)fill the bounded in-flight
   window, wait briefly, collect completions, retry or degrade — and
   returns the jobs that finished during the step;
4. :meth:`record` persists a finished job (cache append + ``job_end``
   telemetry + the journal's terminal record);
5. :meth:`drain_pending` degrades the not-yet-submitted backlog when
   the frontend decides to stop early.

**Durability** (``CampaignConfig.journal_path``): every miss is
journaled ``admitted`` before it can run, ``started`` per attempt, and
exactly one terminal record (``done`` / ``cancelled`` / ``abandoned``)
when it settles — see :mod:`repro.campaign.journal`.  :meth:`close`
stamps ``abandoned`` on anything still owed, so even a fatal engine
error leaves no record dangling; a kill -9 leaves ``started`` records
that replay as incomplete.

**Cancellation** (:mod:`repro.cancel`): every dispatched attempt gets a
sentinel-file :class:`~repro.cancel.CancelToken` the worker polls at
backend iteration boundaries; a job holds one token at a time.
:meth:`request_cancel` targets one job (serve ``DELETE
/v1/jobs/{id}``); :meth:`cancel_outstanding` sweeps everything
(deadline, swarm first-error).  Cancelled jobs settle with
verdict ``"cancelled"`` — never cached, never retried, counted as
interrupted.

``jobs <= 1`` runs in-process (one job per :meth:`pump` call),
preserving rich :class:`~repro.core.checker.KissResult` objects for API
callers; otherwise jobs go through a ``ProcessPoolExecutor``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro import faults, obs
from repro.cancel import CancelToken
from repro.core.checker import KissResult
from repro.faults import FaultPlan, InjectedFault

from .cache import ResultCache, cache_key
from .jobs import CheckJob, JobResult
from .journal import JobJournal
from .telemetry import Telemetry

DEFAULT_CACHE_DIR = ".kiss-cache"

#: How long one pool ``wait`` call may block inside :meth:`CampaignRuntime.pump`
#: before control returns to the frontend (signals and drain requests
#: set flags; they must not have to race a long-blocking wait).
POLL_S = 0.25


def default_jobs() -> int:
    """Default worker count: one per CPU."""
    return os.cpu_count() or 1


@dataclass
class CampaignConfig:
    """Engine knobs, shared by every frontend.

    ``jobs``: worker processes (<= 1 runs in-process).
    ``timeout``: per-job wall-clock seconds (None = backend budget only).
    ``retries``: extra attempts for a timed-out or crashed job before it
    degrades to ``"resource-bound"``.
    ``cache_dir``: result-cache directory (None disables caching).
    ``telemetry_path``: JSONL event stream destination (None = in-memory
    only).
    ``deadline``: campaign-wide wall-clock budget in seconds; past it
    in-flight jobs are cancelled and the remainder degrades to
    ``"resource-bound"`` (detail ``deadline:``).  Batch-frontend policy
    — the service ignores it.
    ``memory_limit``: per-worker ``RLIMIT_AS`` soft ceiling in MB; an
    over-budget job degrades to ``"resource-bound"`` (detail
    ``memory:``) instead of taking the pool down.
    ``fault_plan``: a :class:`~repro.faults.FaultPlan` for chaos runs
    (None = no injection, zero overhead).
    ``journal_path``: write-ahead job journal destination (None
    disables durability — see :mod:`repro.campaign.journal`).
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 1
    cache_dir: Optional[str] = None
    telemetry_path: Optional[str] = None
    deadline: Optional[float] = None
    memory_limit: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    journal_path: Optional[str] = None


#: One finished job as handed back by :meth:`CampaignRuntime.pump` /
#: :meth:`CampaignRuntime.drain_pending`: ``(job, cache key, result)``.
Finished = Tuple[CheckJob, str, JobResult]


@dataclass
class _Flight:
    """One dispatched pool attempt."""

    job: CheckJob
    key: str
    attempt: int


class CampaignRuntime:
    """The engine under every frontend (see module doc).

    Not thread-safe by itself: exactly one thread may call
    :meth:`pump` / :meth:`submit` / :meth:`drain_pending` (the
    scheduler's run loop, or the service's engine thread).  The one
    cross-thread exception is :meth:`request_cancel`, which only
    performs GIL-atomic flag writes and sentinel-file touches — serve's
    HTTP threads call it while the engine thread pumps.  The cache is
    process-shared state guarded by its own ``flock`` at the file layer.
    """

    def __init__(self, config: Optional[CampaignConfig] = None):
        self.config = config or CampaignConfig()
        self.cache = ResultCache(self.config.cache_dir)
        self.journal = JobJournal(self.config.journal_path)
        #: which frontend admitted the jobs (journal provenance).
        self.origin = "campaign"
        #: job_id -> rich KissResult for in-process runs (jobs <= 1).
        self.rich_results: Dict[str, KissResult] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pending: Deque[Tuple[CheckJob, str, int]] = deque()
        self._futures: Dict[object, _Flight] = {}
        #: job_id -> the running attempt's cancel token (cross-thread read-only).
        self._tokens: Dict[str, CancelToken] = {}
        #: job_id -> reason, for jobs cancelled before their next dispatch.
        self._cancel_asap: Dict[str, str] = {}
        self._cancel_dir: Optional[str] = None
        self._token_seq = 0

    # -- queue state -------------------------------------------------------------

    @property
    def pooled(self) -> bool:
        return self.config.jobs > 1

    @property
    def backlog(self) -> int:
        """Jobs queued but not yet submitted to a worker."""
        return len(self._pending)

    @property
    def inflight(self) -> int:
        """Attempts currently running in pool workers."""
        return len(self._futures)

    @property
    def outstanding(self) -> int:
        return len(self._pending) + len(self._futures)

    @property
    def idle(self) -> bool:
        return not self._pending and not self._futures

    # -- cache frontage ----------------------------------------------------------

    def lookup(self, job: CheckJob, tel: Telemetry) -> Tuple[str, Optional[JobResult]]:
        """Resolve ``job`` against the content-addressed cache.  Returns
        ``(key, hit)``; a hit is already re-labelled for this job and
        logged as a zero-cost ``job_end`` — it must not be submitted.

        A hit for a job the journal still carries as open (a resumed
        run answering recovered work from the cache) writes the ``done``
        terminal record, so a second resume finds nothing owed."""
        key = cache_key(job)
        hit = self.cache.get(key)
        if hit is not None:
            hit.job_id = job.job_id  # same content may appear under a new id
            hit.driver = job.driver
            obs.inc("cache_hits")
            self.journal.done(job.job_id, hit.verdict)
            self._emit_job_end(tel, job, hit, wall_s=0.0, cache="hit", attempts=0)
        return key, hit

    def record(self, tel: Telemetry, job: CheckJob, key: str, result: JobResult) -> None:
        """Persist one finished job: cache append (degraded outcomes are
        filtered by the cache's own policy), the journal's terminal
        record, plus the ``job_end`` event."""
        self.cache.put(key, result)
        if result.verdict == "cancelled":
            self.journal.cancelled(job.job_id, reason=result.detail[:200])
        elif result.detail.startswith(("interrupted", "deadline")):
            # a drained remainder never ran: the journal owes it to the
            # next resume, not to the cache
            self.journal.abandoned(job.job_id, reason=result.detail[:200])
        else:
            self.journal.done(job.job_id, result.verdict)
        self._emit_job_end(
            tel, job, result, wall_s=round(result.wall_s, 6),
            cache="miss" if self.cache.enabled else "off",
            attempts=result.attempts,
        )

    # -- submission and the engine step ------------------------------------------

    def submit(self, job: CheckJob, key: Optional[str] = None,
               tenant: Optional[str] = None) -> None:
        """Queue a job (first attempt).  ``key`` avoids re-deriving the
        cache key when :meth:`lookup` already did.  The write-ahead
        ``admitted`` record (with ``tenant``/origin provenance) lands
        here, before the job can possibly run."""
        key = key if key is not None else cache_key(job)
        self.journal.admit(job, key, tenant=tenant, origin=self.origin)
        self._pending.append((job, key, 1))

    def pump(self, tel: Telemetry, submit: bool = True, poll_s: float = POLL_S) -> List[Finished]:
        """One engine step; returns the jobs that finished during it.

        In-process mode runs the next queued job to a verdict (with its
        whole retry loop — one job per call, so the frontend regains
        control between jobs).  Pool mode tops up the bounded in-flight
        window (unless ``submit`` is False — a draining frontend stops
        feeding the pool but keeps collecting), then waits up to
        ``poll_s`` for completions and applies the retry/degrade
        policy, rebuilding the pool when a worker death breaks it.
        """
        if not self.pooled:
            return self._pump_serial(tel)
        return self._pump_pool(tel, submit, poll_s)

    def drain_pending(self, detail: str) -> List[Finished]:
        """Degrade the never-submitted backlog (stop/deadline/interrupt):
        every queued job becomes a ``resource-bound`` result carrying
        ``detail``, zero attempts, never cached."""
        out: List[Finished] = []
        while self._pending:
            job, key, _ = self._pending.popleft()
            out.append((job, key, self._skipped_result(job, detail)))
        return out

    # -- cancellation ------------------------------------------------------------

    def request_cancel(self, job_id: str, reason: str = "") -> bool:
        """Cancel one job cooperatively: flag it for the next dispatch
        and touch its live token so an in-flight attempt notices at its
        next backend poll.  Safe to call from another thread (serve
        HTTP handlers) — only GIL-atomic writes and sentinel-file
        touches happen here.  Returns True when the job was pending or
        in flight."""
        token = self._tokens.get(job_id)
        queued = any(j.job_id == job_id for j, _, _ in list(self._pending))
        if token is None and not queued:
            return False
        self._cancel_asap[job_id] = reason
        if token is not None:
            token.cancel(reason)
        return True

    def cancel_outstanding(self, reason: str = "",
                           include_pending: bool = True) -> List[Finished]:
        """Cancel everything the runtime still owes: touch every
        in-flight token, and (by default) convert the pending backlog
        into immediate ``cancelled`` results.  Returns those synthesized
        results; in-flight jobs surface as ``cancelled`` through the
        following :meth:`pump` calls."""
        out: List[Finished] = []
        if include_pending:
            while self._pending:
                job, key, attempt = self._pending.popleft()
                out.append((job, key, self._cancelled_result(
                    job, reason, attempts=max(0, attempt - 1))))
        for job_id, token in list(self._tokens.items()):
            self._cancel_asap[job_id] = reason
            token.cancel(reason)
        return out

    def _new_token(self, job_id: str) -> CancelToken:
        if self._cancel_dir is None:
            self._cancel_dir = tempfile.mkdtemp(prefix="kiss-cancel-")
        self._token_seq += 1
        token = CancelToken(os.path.join(self._cancel_dir, f"{self._token_seq}.cancel"))
        self._tokens[job_id] = token
        return token

    def _drop_token(self, job_id: str) -> None:
        token = self._tokens.pop(job_id, None)
        if token is not None:
            token.clear()

    # -- shutdown ----------------------------------------------------------------

    def close(self) -> None:
        """Tear down the engine.  Anything still owed — in-flight
        attempts, the queued backlog — gets an ``abandoned`` terminal
        record first, so even a fatal-error exit leaves no journal entry
        dangling as ``started`` (a later ``--resume`` re-enqueues
        exactly these jobs)."""
        if self.journal.enabled:
            owed = ([f.job.job_id for f in list(self._futures.values())]
                    + [job.job_id for job, _, _ in list(self._pending)])
            for job_id in dict.fromkeys(owed):
                self.journal.abandoned(job_id, reason="shutdown")
        self._teardown_pool()
        if self._cancel_dir is not None:
            shutil.rmtree(self._cancel_dir, ignore_errors=True)
            self._cancel_dir = None

    def _teardown_pool(self) -> None:
        """Drop the worker pool only (queued work stays queued, journal
        untouched) — the ``BrokenProcessPool`` rebuild path."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "CampaignRuntime":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- outcome policy ----------------------------------------------------------

    def _result_from(self, job: CheckJob, outcome: dict, attempts: int) -> JobResult:
        if outcome["detail"].startswith("memory:"):
            obs.inc("memory_ceiling_hits")
        return JobResult(
            job_id=job.job_id,
            driver=job.driver,
            prop=job.prop,
            target=job.target,
            verdict=outcome["verdict"],
            error_kind=outcome.get("error_kind"),
            states=outcome.get("states", 0),
            transitions=outcome.get("transitions", 0),
            checks_emitted=outcome.get("checks_emitted", 0),
            checks_pruned=outcome.get("checks_pruned", 0),
            wall_s=outcome.get("wall_s", 0.0),
            attempts=attempts,
            detail=outcome.get("detail", ""),
            metrics=outcome.get("metrics"),
            witness=outcome.get("witness"),
            trace_validated=outcome.get("trace_validated"),
            trace=outcome.get("trace"),
        )

    def _skipped_result(self, job: CheckJob, detail: str) -> JobResult:
        """A never-ran remainder job: ``resource-bound``, zero attempts,
        never cached (the detail prefix keeps it out of the store)."""
        obs.inc("jobs_interrupted")
        return JobResult(
            job_id=job.job_id, driver=job.driver, prop=job.prop, target=job.target,
            verdict="resource-bound", attempts=0, detail=detail,
        )

    def _cancelled_result(self, job: CheckJob, reason: str,
                          attempts: int = 0) -> JobResult:
        """A cooperatively cancelled job: verdict ``cancelled``, detail
        prefix ``cancelled`` (never cached), counted as interrupted."""
        obs.inc("jobs_cancelled")
        detail = f"cancelled: {reason}" if reason else "cancelled"
        return JobResult(
            job_id=job.job_id, driver=job.driver, prop=job.prop, target=job.target,
            verdict="cancelled", attempts=attempts, detail=detail,
        )

    @staticmethod
    def _retryable(outcome: dict) -> bool:
        return outcome["verdict"] == "crash" or outcome["detail"].startswith("timeout")

    @staticmethod
    def _degrade(outcome: dict) -> dict:
        """Retry budget exhausted: graceful degradation to resource-bound."""
        if outcome["verdict"] == "crash":
            out = dict(outcome)
            out["verdict"] = "resource-bound"
            return out
        return outcome

    @staticmethod
    def _crash_outcome(detail: str) -> dict:
        return {"verdict": "crash", "error_kind": None, "wall_s": 0.0, "detail": detail}

    @staticmethod
    def _emit_job_end(tel: Telemetry, job: CheckJob, result: JobResult, *,
                      wall_s: float, cache: str, attempts: int) -> None:
        extra = {"metrics": result.metrics} if result.metrics is not None else {}
        tel.emit("job_end", job=job.job_id, driver=job.driver, verdict=result.verdict,
                 error_kind=result.error_kind, wall_s=wall_s, states=result.states,
                 cache=cache, attempts=attempts, **extra)

    # -- in-process execution (jobs <= 1) ----------------------------------------

    def _pump_serial(self, tel: Telemetry) -> List[Finished]:
        from .worker import execute_job  # deferred: workers pull in the checker stack

        if not self._pending:
            return []
        job, key, _ = self._pending.popleft()
        reason = self._cancel_asap.pop(job.job_id, None)
        if reason is not None:
            return [(job, key, self._cancelled_result(job, reason))]
        token = self._new_token(job.job_id)
        attempts = 0
        try:
            while True:
                attempts += 1
                tel.emit("job_start", job=job.job_id, driver=job.driver, attempt=attempts)
                self.journal.started(job.job_id, attempts)
                outcome, rich = execute_job(
                    job, self.config.timeout, attempt=attempts,
                    memory_limit=self.config.memory_limit,
                    cancel_path=token.path,
                )
                if not self._retryable(outcome) or attempts > self.config.retries:
                    break
                tel.emit("job_retry", job=job.job_id, attempt=attempts,
                         reason=outcome["detail"][:200])
        finally:
            self._drop_token(job.job_id)
            self._cancel_asap.pop(job.job_id, None)
        if rich is not None:
            self.rich_results[job.job_id] = rich
        return [(job, key, self._result_from(job, self._degrade(outcome), attempts))]

    # -- pool execution (jobs > 1) -----------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        from .worker import pool_init

        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.jobs,
                initializer=pool_init,
                initargs=(self.config.memory_limit, self.config.fault_plan),
            )
        return self._pool

    def _submit_attempt(self, tel: Telemetry, job: CheckJob, attempt: int,
                        cancel_path: Optional[str] = None):
        """Submit one attempt (the ``pool_submit`` fault point lives
        here); returns the future, or None when an injected fault made
        the submission fail — the caller treats that as a crash
        attempt."""
        from .worker import pool_entry

        tel.emit("job_start", job=job.job_id, driver=job.driver, attempt=attempt)
        self.journal.started(job.job_id, attempt)
        try:
            # submission happens on behalf of a job: give job-pinned
            # fault rules a context to match against
            with faults.job_context(job_id=job.job_id, attempt=attempt):
                faults.fire("pool_submit")
            return self._ensure_pool().submit(
                pool_entry, job, self.config.timeout, attempt, cancel_path)
        except InjectedFault:
            return None

    def _pump_pool(self, tel: Telemetry, submit: bool, poll_s: float) -> List[Finished]:
        finished: List[Finished] = []
        if submit:
            window = self.config.jobs * 2  # bounded in-flight set: stop requests stay cheap
            while self._pending and len(self._futures) < window:
                job, key, attempt = self._pending.popleft()
                reason = self._cancel_asap.pop(job.job_id, None)
                if reason is not None:
                    finished.append((job, key, self._cancelled_result(
                        job, reason, attempts=max(0, attempt - 1))))
                    continue
                token = self._new_token(job.job_id)
                try:
                    fut = self._submit_attempt(tel, job, attempt, token.path)
                except BrokenProcessPool:
                    # A worker died since the last wait: nothing was
                    # started, so requeue the job at the same attempt.
                    # The wait below collects the lost futures and drops
                    # the pool; with none in flight, drop it here.
                    self._drop_token(job.job_id)
                    self._pending.appendleft((job, key, attempt))
                    if not self._futures:
                        self._teardown_pool()
                    break
                if fut is None:
                    self._drop_token(job.job_id)
                    crash = self._crash_outcome("crash: pool submission failed")
                    if attempt <= self.config.retries:
                        tel.emit("job_retry", job=job.job_id, attempt=attempt,
                                 reason="pool submission failed")
                        self._pending.append((job, key, attempt + 1))
                    else:
                        finished.append(
                            (job, key, self._result_from(job, self._degrade(crash), attempt))
                        )
                    continue
                self._futures[fut] = _Flight(job=job, key=key, attempt=attempt)
        if not self._futures:
            return finished
        done, _ = wait(list(self._futures), return_when=FIRST_COMPLETED, timeout=poll_s)
        for fut in done:
            flight = self._futures.pop(fut, None)
            if flight is None:  # discarded when the pool broke mid-step
                continue
            job, key, attempt = flight.job, flight.key, flight.attempt
            self._drop_token(job.job_id)
            try:
                outcome = fut.result()
            except BrokenProcessPool:
                # The pool is dead: rebuild it and count the loss as an
                # attempt for every in-flight job.
                lost = [flight] + list(self._futures.values())
                self._futures.clear()
                for f in lost:
                    self._drop_token(f.job.job_id)
                self._teardown_pool()
                for f in lost:
                    crash = self._crash_outcome("crash: worker process died")
                    if f.attempt > self.config.retries:
                        finished.append(
                            (f.job, f.key, self._result_from(f.job, self._degrade(crash), f.attempt)))
                    else:
                        tel.emit("job_retry", job=f.job.job_id, attempt=f.attempt,
                                 reason="worker process died")
                        self._pending.appendleft((f.job, f.key, f.attempt + 1))
                break  # the futures set changed wholesale
            except Exception as exc:  # pickling failures etc.
                outcome = self._crash_outcome(f"crash: {exc!r}")
            # a cancelled outcome is neither retryable nor degraded
            if self._retryable(outcome) and attempt <= self.config.retries:
                tel.emit("job_retry", job=job.job_id, attempt=attempt,
                         reason=outcome["detail"][:200])
                self._pending.appendleft((job, key, attempt + 1))
                continue
            self._cancel_asap.pop(job.job_id, None)
            result = self._result_from(job, self._degrade(outcome), attempt)
            finished.append((job, key, result))
        return finished
