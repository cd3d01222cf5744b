"""Job execution — the code that runs inside worker processes.

A worker receives a picklable :class:`~repro.campaign.jobs.CheckJob`,
parses its source (memoized per process: a corpus driver contributes one
job per device-extension field, all sharing one program), runs the full
KISS pipeline, and returns a plain-dict outcome.

The per-job wall-clock timeout is enforced *inside* the job's process
with ``SIGALRM`` (``setitimer``, so fractional seconds work).  The
checkers are pure Python, so the alarm interrupts them between bytecodes
and the worker survives to take the next job — no pool teardown, no
orphaned processes.  Where the alarm is unavailable (non-main thread,
platforms without ``SIGALRM``) jobs run untimed and rely on the backend
state budget, which is the paper's own resource bound.

Memory is bounded the same way the wall clock is: a per-worker
``RLIMIT_AS`` soft ceiling (``CampaignConfig.memory_limit``, CLI
``--memory-limit``) turns a runaway job's allocations into a
``MemoryError`` raised *inside* the worker, which degrades that one job
to ``"resource-bound"`` instead of letting the OS OOM killer shoot the
worker (which would cost the whole pool a rebuild).  Pool workers arm
the ceiling once at startup (:func:`pool_init`); serial runs arm and
restore it around each job.  A pool worker also exits by itself once the
process that forked it is gone (a ``kill -9`` of the campaign), instead
of lingering as an orphan.

Cancellation is cooperative (:mod:`repro.cancel`): when the runtime
hands the job a sentinel-file token path, the worker installs it as the
ambient token for the job's duration; the checking backends poll it at
iteration boundaries and raise :class:`repro.cancel.Cancelled`, which
degrades the job to the ``"cancelled"`` outcome (detail ``cancelled[:
reason]`` — never cached, never a verdict).

Fault points for chaos testing (:mod:`repro.faults`): ``worker_start``
on entry, ``mid_check`` between parse and the pipeline.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from typing import Dict, Optional, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

from repro import cancel, faults, obs
from repro.core.checker import Kiss, KissResult
from repro.lang import parse
from repro.lang.ast import Program

from .jobs import CheckJob

#: source text -> parsed program, per process (workers are reused).
_parse_memo: Dict[str, Program] = {}


class JobTimeout(Exception):
    pass


def _parse(source: str) -> Program:
    prog = _parse_memo.get(source)
    if prog is None:
        prog = parse(source)
        _parse_memo[source] = prog
    return prog


def _alarm_available() -> bool:
    return hasattr(signal, "SIGALRM") and threading.current_thread() is threading.main_thread()


def set_memory_limit(mb: Optional[int]) -> Optional[int]:
    """Arm an ``RLIMIT_AS`` soft ceiling of ``mb`` megabytes; returns the
    previous soft limit so callers can restore it, or None when nothing
    was armed (no ``resource`` module, or ``mb`` is None)."""
    if mb is None or resource is None:
        return None
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = mb << 20
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):  # pragma: no cover - exotic rlimit configs
        return None
    return soft


class _memory_ceiling:
    """Context manager arming the ``RLIMIT_AS`` soft ceiling for one job
    and restoring the previous limit on exit (no-op when ``mb`` is
    None).  Pool workers skip this: :func:`pool_init` armed the ceiling
    for the worker's whole life."""

    def __init__(self, mb: Optional[int]):
        self.mb = mb
        self._prev: Optional[int] = None

    def __enter__(self):
        self._prev = set_memory_limit(self.mb)
        return self

    def __exit__(self, *exc) -> bool:
        if self._prev is not None and resource is not None:
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            resource.setrlimit(resource.RLIMIT_AS, (self._prev, hard))
        return False


def pool_init(memory_limit: Optional[int], plan: Optional["faults.FaultPlan"]) -> None:
    """Pool-worker initializer: start the parent watchdog, arm the
    per-worker memory ceiling and install the campaign's fault plan
    (with fresh per-process counters)."""
    _watch_parent(os.getppid())
    set_memory_limit(memory_limit)
    faults.install(plan.fresh() if plan is not None else None)


#: how often a pool worker checks that the process that forked it lives.
PARENT_POLL_S = 0.5


def _watch_parent(parent: int) -> None:
    """Exit this worker once ``parent`` dies.

    A ``kill -9`` of the campaign leaves its pool workers orphaned,
    blocked on the call queue forever.  An orphan is re-parented, so its
    parent pid changes; a daemon thread polls for that and ends the
    process without cleanup.  The thread starts before the memory
    ceiling is armed, so a tight ceiling cannot keep it from starting.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watchdog", daemon=True).start()


class _deadline:
    """Context manager arming SIGALRM for ``seconds`` (no-op if None or
    the alarm is unavailable).

    The timer repeats: if a delivery lands while a GC/weakref callback
    is on the stack, Python *swallows* the raised exception ("Exception
    ignored in ..."), so a one-shot alarm could be lost and the job
    would run unbounded.  The next interval tick lands in ordinary
    bytecode and raises for real.  The interval is kept well under the
    timeout itself so a swallowed delivery is retried while the overrun
    is still small relative to the budget.
    """

    REARM_S = 0.01

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self.armed = False
        self.fired = False

    def _fire(self, signum, frame):
        self.fired = True
        raise JobTimeout()

    def __enter__(self):
        if self.seconds is not None and _alarm_available():
            self._old = signal.signal(signal.SIGALRM, self._fire)
            signal.setitimer(
                signal.ITIMER_REAL, self.seconds, min(self.seconds, self.REARM_S)
            )
            self.armed = True
        return self

    def __exit__(self, *exc):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
        return False


def _fuzz_outcome(job: CheckJob, prog: Program, outcome):
    """Differential-oracle jobs (``prop == "fuzz"``): run both checkers
    and report agreement as ``"safe"``, a verdict divergence as
    ``"error"`` (``error_kind`` = the divergence direction), and an
    exhausted budget on either side as ``"resource-bound"``."""
    from repro.fuzz.oracle import differential_check

    kw = job.kiss_kwargs()
    recorder, ctx = obs.maybe_observing(kw.get("observe", False))
    with ctx:
        v = differential_check(
            prog,
            max_ts=kw["max_ts"],
            max_states=kw["max_states"],
            race_global=job.config.get("fuzz_race"),
            strategy=kw["strategy"],
            rounds=kw["rounds"],
            por=kw["por"],
            witness=bool(job.config.get("fuzz_witness", False)),
        )
    if v.diverged:
        verdict, kind = "error", v.divergence
    elif not v.conclusive:
        verdict, kind = "resource-bound", None
    else:
        verdict, kind = "safe", None
    metrics = recorder.metrics() if kw.get("observe") and recorder is not None else None
    out, _ = outcome(verdict, error_kind=kind, detail=v.describe(), metrics=metrics)
    out["states"] = v.con_states + v.seq_states
    return out, None


def execute_job(
    job: CheckJob,
    timeout: Optional[float] = None,
    attempt: int = 1,
    memory_limit: Optional[int] = None,
    pooled: bool = False,
    cancel_path: Optional[str] = None,
) -> Tuple[dict, Optional[KissResult]]:
    """Run one job to a verdict.  Returns ``(outcome dict, KissResult)``;
    the rich result is for in-process callers (it holds ASTs and traces
    and is dropped at process boundaries).

    Outcomes never raise: timeouts become the ``"resource-bound"``
    graceful-degradation verdict, a ``MemoryError`` (the per-worker
    ceiling, or a genuine exhaustion) becomes ``"resource-bound"`` with
    a ``memory:`` detail, a delivered cancellation (``cancel_path``
    sentinel) becomes the ``"cancelled"`` outcome, and any other
    exception becomes a ``"crash"`` outcome for the scheduler's retry
    logic.
    """
    start = time.monotonic()

    def outcome(verdict, *, error_kind=None, detail="", rich=None, stats=None, tr=None,
                metrics=None, witness=None, trace_validated=None, trace=None):
        return (
            {
                "verdict": verdict,
                "error_kind": error_kind,
                "states": stats.states if stats else 0,
                "transitions": stats.transitions if stats else 0,
                "checks_emitted": tr.checks_emitted if tr else 0,
                "checks_pruned": tr.checks_pruned if tr else 0,
                "wall_s": time.monotonic() - start,
                "detail": detail,
                "metrics": metrics,
                "witness": witness,
                "trace_validated": trace_validated,
                "trace": trace,
            },
            rich,
        )

    token = cancel.CancelToken(cancel_path) if cancel_path else None
    deadline = _deadline(timeout)
    try:
        with faults.job_context(job_id=job.job_id, attempt=attempt, timeout=timeout,
                                pooled=pooled), \
                _memory_ceiling(None if pooled else memory_limit), \
                deadline, cancel.scope(token):
            cancel.poll()
            faults.fire("worker_start")
            prog = _parse(job.source)
            faults.fire("mid_check")
            if job.prop == "fuzz":
                out = _fuzz_outcome(job, prog, outcome)
                if deadline.fired:  # landed in a replay, which reads as a false race
                    raise JobTimeout()
                return out
            kiss = Kiss(**job.kiss_kwargs())
            if job.prop == "assertion":
                r = kiss.check_assertions(prog)
            else:
                r = kiss.check_race(prog, job.race_target())
        stats = r.backend_result.stats if r.backend_result else None
        detail = r.backend_result.message if r.backend_result else ""
        if deadline.fired and r.trace_validated is False:  # landed in the replay
            detail += f" [trace replay cut by the {timeout}s timeout]"
        return outcome(
            r.verdict,
            error_kind=r.error_kind,
            detail=detail,
            rich=r,
            stats=stats,
            tr=r,
            metrics=r.metrics,
            witness=r.witness,
            trace_validated=r.trace_validated,
            trace=r.concurrent_trace.format() if r.concurrent_trace is not None else None,
        )
    except cancel.Cancelled as exc:
        reason = str(exc)
        return outcome("cancelled", detail=f"cancelled: {reason}" if reason else "cancelled")
    except JobTimeout:
        _parse_memo.pop(job.source, None)  # a partial parse never lands here, but be safe
        return outcome("resource-bound", detail=f"timeout after {timeout}s")
    except MemoryError as exc:
        # The worker's memory ceiling (RLIMIT_AS) or a genuine
        # exhaustion: degrade this one job, keep the worker alive.
        return outcome("resource-bound", detail="memory: " + (str(exc) or "MemoryError"))
    except Exception:
        return outcome("crash", detail="crash: " + traceback.format_exc(limit=8))


def pool_entry(job: CheckJob, timeout: Optional[float], attempt: int = 1,
               cancel_path: Optional[str] = None) -> dict:
    """Pool-side entry point: like :func:`execute_job` but drops the
    unpicklable rich result."""
    return execute_job(job, timeout, attempt=attempt, pooled=True,
                       cancel_path=cancel_path)[0]
