"""Durability suite: the write-ahead job journal, crash-recoverable
resume, and cooperative cancellation.

Three layers of tests:

* units — journal lifecycle/replay semantics (terminal precedence, torn
  lines, re-admission), the sentinel-file cancel token, and the worker's
  cancelled outcome;
* in-process integration — first-error cancellation through the
  scheduler and the swarm aggregator, abandoned records on runtime
  close, and serve-side cancellation plus journal-backed restart
  recovery;
* subprocess chaos — ``kill -9`` (the injected ``engine_crash:kill``
  fault) mid-campaign, then ``--resume``: every admitted job reaches a
  terminal state, verdicts equal the crash-free run, the cache holds
  exactly one entry per key, and a second resume finds nothing to do;
  and the killed campaign's pool workers do not outlive it.

The invariants under test are the docs/ROBUSTNESS.md recovery matrix:
at-least-once execution, exactly-once cache/verdict semantics, and
cancelled work never cached and never counted as a verdict.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cancel, faults
from repro.campaign import (
    CampaignConfig,
    CampaignScheduler,
    CheckJob,
    JobJournal,
    ResultCache,
    Telemetry,
    cache_key,
    replay_journal,
    run_swarm_campaign,
)
from repro.campaign.runtime import CampaignRuntime
from repro.campaign.worker import execute_job
from repro.concheck.interleave import check_concurrent
from repro.faults import FaultPlan, FaultRule
from repro.lang import parse_core
from repro.schemas import validate_journal_record
from repro.serve import CheckService, ServeConfig

pytestmark = pytest.mark.chaos

SRC = """
struct EXT { int a; int b; }
void worker(EXT *e) { e->a = 1; }
void main() {
  EXT *e;
  e = malloc(EXT);
  async worker(e);
  e->a = VALUE;
}
"""

CORPUS = Path(__file__).parent / "fuzz_corpus"
TWO_FORKS = (CORPUS / "two-forks-error.kp").read_text()


def batch(n=8):
    """``n`` fast jobs with distinct cache keys: even indices race on
    EXT.a, odd ones are safe on EXT.b (same shape as the chaos suite)."""
    return [
        CheckJob(
            job_id=f"t/{i}",
            driver="t",
            source=SRC.replace("VALUE", str(i + 2)),
            target="EXT.a" if i % 2 == 0 else "EXT.b",
        )
        for i in range(n)
    ]


# -- the journal -------------------------------------------------------------------


def test_journal_lifecycle_and_replay(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = JobJournal(path)
    done, open_, cancelled = batch(3)
    journal.admit(done, cache_key(done), tenant="t0", origin="campaign")
    journal.started(done.job_id, 1)
    journal.done(done.job_id, "error")
    journal.admit(open_, cache_key(open_))
    journal.started(open_.job_id, 1)
    journal.admit(cancelled, cache_key(cancelled), tenant="t2", origin="serve")
    journal.cancelled(cancelled.job_id, "client-cancel")

    plan = replay_journal(path)
    assert (plan.admitted, plan.done, plan.cancelled) == (3, 1, 1)
    assert plan.started_only == 1 and plan.incomplete == 1
    # the replayed job is self-contained: full spec, key, and tenant
    [owed] = plan.jobs
    assert owed.job_id == open_.job_id
    assert owed.source == open_.source and owed.target == open_.target
    assert plan.keys[owed.job_id] == cache_key(open_)
    assert plan.tenants[owed.job_id] is None
    # every line on disk is a valid kiss-journal/1 record
    with open(path) as f:
        for line in f:
            validate_journal_record(json.loads(line))


def test_journal_terminal_precedence_done_beats_cancelled(tmp_path):
    """A late weaker terminal (a hedge loser, a double shutdown) never
    demotes a completed job."""
    path = str(tmp_path / "j.jsonl")
    journal = JobJournal(path)
    job = batch(1)[0]
    journal.admit(job, cache_key(job))
    journal.done(job.job_id, "safe")
    # the in-memory suppressor already drops this; simulate another
    # process racing the append by writing the record by hand
    with open(path, "a") as f:
        f.write(json.dumps({"schema": "kiss-journal/1", "event": "cancelled",
                            "job": job.job_id, "reason": "late", "t": 0.0}) + "\n")
    plan = replay_journal(path)
    assert plan.done == 1 and plan.cancelled == 0 and plan.incomplete == 0


def test_journal_abandoned_jobs_are_re_enqueued(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = JobJournal(path)
    job = batch(1)[0]
    journal.admit(job, cache_key(job))
    journal.abandoned(job.job_id, "fatal: pool broke")
    plan = replay_journal(path)
    assert plan.abandoned == 1
    assert [j.job_id for j in plan.jobs] == [job.job_id]


def test_journal_replay_is_torn_line_and_foreign_schema_tolerant(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = JobJournal(path)
    a, b = batch(2)
    journal.admit(a, cache_key(a))
    journal.done(a.job_id, "safe")
    journal.admit(b, cache_key(b))
    with open(path, "a") as f:
        f.write('{"torn": ')  # SIGKILL mid-append
        f.write('\n{"schema": "other/1", "event": "x"}\n')
    plan = replay_journal(path)
    assert plan.corrupt_lines == 1 and plan.stale_lines == 1
    assert plan.done == 1 and [j.job_id for j in plan.jobs] == [b.job_id]
    # a fresh journal on the same file knows b is still open
    assert JobJournal(path).is_open(b.job_id)


def test_journal_record_validation_rejects_malformed_documents():
    for bad in (
        {"schema": "kiss-journal/1", "event": "exploded", "job": "t/0", "t": 0.0},
        {"schema": "kiss-journal/1", "event": "done", "t": 0.0},  # no job
        {"schema": "kiss-journal/1", "event": "admitted", "job": "t/0", "t": 0.0},
    ):
        with pytest.raises(ValueError):
            validate_journal_record(bad)


def test_journal_append_fault_degrades_to_in_memory_tracking(tmp_path):
    """A failed append (disk full, injected fault) loses durability for
    that record, never correctness: lifecycle tracking survives."""
    path = str(tmp_path / "j.jsonl")
    plan = FaultPlan(rules=[FaultRule(point="journal_append", kind="crash",
                                      hits=(1,))])
    journal = JobJournal(path)
    job = batch(1)[0]
    with faults.plan_context(plan):
        journal.admit(job, cache_key(job))  # the admit append is injected away
        journal.done(job.job_id, "safe")  # still tracked, still lands
    assert journal.write_errors == 1
    assert not journal.is_open(job.job_id)


def test_disabled_journal_never_writes(tmp_path):
    journal = JobJournal(None)
    job = batch(1)[0]
    journal.admit(job, cache_key(job))
    journal.done(job.job_id, "safe")
    assert not journal.enabled and journal.stats() == {"enabled": False, "path": None}


# -- cooperative cancellation ------------------------------------------------------


def test_cancel_token_scope_and_poll(tmp_path):
    token = cancel.CancelToken(str(tmp_path / "tok"))
    with cancel.scope(token):
        for _ in range(cancel.POLL_EVERY):
            cancel.poll()  # not cancelled: the hot loop runs free
        # delivered from "another process": a distinct token object
        cancel.CancelToken(token.path).cancel("first-error")
        with pytest.raises(cancel.Cancelled) as err:
            for _ in range(cancel.POLL_EVERY + 1):
                cancel.poll()
        assert "first-error" in str(err.value)
    cancel.poll()  # no ambient token: a no-op


def test_interleaving_checker_polls_for_cancellation(tmp_path):
    token = cancel.CancelToken(str(tmp_path / "tok"))
    token.cancel("deadline")
    with cancel.scope(token), pytest.raises(cancel.Cancelled):
        check_concurrent(parse_core(SRC.replace("VALUE", "2")))


def test_execute_job_reports_a_cancelled_outcome(tmp_path):
    sentinel = str(tmp_path / "tok")
    cancel.CancelToken(sentinel).cancel("deadline")
    outcome, _ = execute_job(batch(1)[0], cancel_path=sentinel)
    assert outcome["verdict"] == "cancelled"
    assert outcome["detail"].startswith("cancelled")


def test_first_error_cancellation_settles_skips_cache_and_journals(tmp_path):
    """The scheduler's first-error hook: job t/0 errs, every later job
    settles as cancelled, none of them is cached, and the journal holds
    exactly one terminal record per admitted job."""
    jpath = str(tmp_path / "j.jsonl")
    cdir = str(tmp_path / "cache")
    sched = CampaignScheduler(CampaignConfig(jobs=1, cache_dir=cdir,
                                             journal_path=jpath))
    jobs = batch(8)

    def on_result(result):
        if result.verdict == "error":
            sched.request_cancel("first-error")

    results = sched.run(jobs, on_result=on_result)
    assert [r.job_id for r in results] == [j.job_id for j in jobs]
    assert results[0].verdict == "error"
    cancelled = [r for r in results if r.verdict == "cancelled"]
    assert len(cancelled) == 7
    assert all(r.detail.startswith("cancelled") for r in cancelled)
    cache = ResultCache(cdir)
    by_id = {j.job_id: j for j in jobs}
    for r in cancelled:
        assert cache.get(cache_key(by_id[r.job_id])) is None
    plan = replay_journal(jpath)
    assert plan.admitted == 8 and plan.done == 1 and plan.cancelled == 7
    assert plan.incomplete == 0  # a user cancellation is settled, not owed


def test_runtime_close_abandons_open_jobs(tmp_path):
    """A fatal teardown stamps ``abandoned`` on exactly the jobs still
    owed, so a resume re-runs them."""
    jpath = str(tmp_path / "j.jsonl")
    rt = CampaignRuntime(CampaignConfig(jobs=1, journal_path=jpath))
    tel = Telemetry()
    a, b = batch(2)
    key_a, _ = rt.lookup(a, tel)
    key_b, _ = rt.lookup(b, tel)
    rt.submit(a, key_a)
    rt.submit(b, key_b)
    finished = rt.pump(tel)  # serial: settles exactly one job
    assert len(finished) == 1
    for job, key, result in finished:
        rt.record(tel, job, key, result)  # the done record lands here
    rt.close()
    plan = replay_journal(jpath)
    assert plan.admitted == 2 and plan.done == 1 and plan.abandoned == 1
    assert [j.job_id for j in plan.jobs] == [b.job_id]


def test_swarm_first_error_cancels_siblings_but_keeps_the_verdict(tmp_path):
    """First-error swarm: the erring tile wins, every tile after it is
    cancelled (serial order makes that exact), the aggregate error
    still replay-validates, and a later run on the same cache re-checks
    the cancelled tiles fresh — cancellation never poisoned it."""
    cdir = str(tmp_path / "cache")
    jpath = str(tmp_path / "j.jsonl")
    config = CampaignConfig(jobs=1, cache_dir=cdir, journal_path=jpath)
    report = run_swarm_campaign(TWO_FORKS, tiles=6, rounds=3,
                                campaign_config=config, first_error=True)
    assert report.verdict == "error" and report.trace_validated
    cancelled = [r for r in report.results if r.verdict == "cancelled"]
    assert len(cancelled) == len(report.results) - report.witness_tile - 1
    plan = replay_journal(jpath)
    assert plan.cancelled == len(cancelled) and plan.incomplete == 0
    # resume-after-cancel: same tiling, same cache, no first-error
    report2 = run_swarm_campaign(TWO_FORKS, tiles=6, rounds=3,
                                 campaign_config=CampaignConfig(jobs=1, cache_dir=cdir))
    assert report2.verdict == "error"
    assert all(r.verdict != "cancelled" for r in report2.results)
    settled = len(report.results) - len(cancelled)
    assert sum(1 for r in report2.results if r.cache_hit) == settled


# -- the service -------------------------------------------------------------------


def test_serve_cancel_before_start_and_conflict_after_done():
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None), start_engine=False)
    try:
        _, doc = svc.submit("t", {"program": SRC.replace("VALUE", "2"),
                                  "prop": "race", "target": "EXT.a"})
        job_id = doc["job"]
        status, cancelled_doc = svc.cancel(job_id)
        assert status == 200 and cancelled_doc["state"] == "cancelled"
        assert svc.cancel("nope/0") is None  # unknown -> a 404 upstream
        svc.pump_once()
        events, finished = svc.events_since(job_id, 0)
        assert finished
        assert [e["event"] for e in events] == ["queued", "cancelled"]
        # a finished job refuses cancellation
        _, doc2 = svc.submit("t", {"program": SRC.replace("VALUE", "3"),
                                   "prop": "race", "target": "EXT.b"})
        svc.pump_once()
        status, _ = svc.cancel(doc2["job"])
        assert status == 409
        assert svc.counts["cancelled"] == 1 and svc.counts["cancel_requests"] == 2
    finally:
        svc.stop()


def test_serve_restart_resumes_owed_jobs_from_the_journal(tmp_path):
    """Crash recovery for the service: three admitted jobs, one done,
    engine killed (simulated by dropping the service unstopped); a
    restarted service with ``resume=True`` answers the done job from
    the cache and re-runs the owed ones under their original ids."""
    cdir, jpath = str(tmp_path / "cache"), str(tmp_path / "j.jsonl")
    svc1 = CheckService(ServeConfig(jobs=1, cache_dir=cdir, journal_path=jpath),
                        start_engine=False)
    ids = []
    for i in range(3):
        _, doc = svc1.submit("t", {"program": SRC.replace("VALUE", str(i + 2)),
                                   "prop": "race", "target": "EXT.b"})
        ids.append(doc["job"])
    svc1.pump_once()  # admits all three to the journal, settles one
    plan = replay_journal(jpath)
    assert plan.admitted == 3 and plan.done == 1 and plan.incomplete == 2
    del svc1  # the crash: no drain, no stop, no abandoned records

    svc2 = CheckService(ServeConfig(jobs=1, cache_dir=cdir, journal_path=jpath,
                                    resume=True), start_engine=False)
    try:
        assert svc2.recovery["incomplete"] == 2
        assert svc2.counts["recovered"] == 2
        for _ in range(8):
            svc2.pump_once()
        # the job settled before the crash is not resurrected: its
        # verdict lives in the cache (a resubmission is a hit)
        assert svc2.get(ids[0]) is None
        status, doc = svc2.submit("t", {"program": SRC.replace("VALUE", "2"),
                                        "prop": "race", "target": "EXT.b"})
        assert status == 200 and doc["result"]["cache"] == "hit"
        # the owed jobs finished under their original ids
        for job_id in ids[1:]:
            doc = svc2.get(job_id)
            assert doc is not None and doc["state"] == "done", job_id
            assert doc["result"]["verdict"] == "safe"
        # exactly-once verdict semantics: the journal is fully settled
        after = replay_journal(jpath)
        assert after.incomplete == 0 and after.done == 3
        # idempotent: a third resume finds nothing owed
        svc3 = CheckService(ServeConfig(jobs=1, cache_dir=cdir, journal_path=jpath,
                                        resume=True), start_engine=False)
        assert svc3.counts["recovered"] == 0 and svc3.recovery["incomplete"] == 0
        svc3.stop()
    finally:
        svc2.stop()


# -- kill -9 and resume (the subprocess acceptance path) ---------------------------


def _campaign(tmp_path, name, *extra):
    """Run one CLI campaign; stdout+stderr go to a file, not a pipe —
    a SIGKILLed parent orphans its pool workers, and inherited pipe
    ends would keep a capture alive long after the kill."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    log = tmp_path / f"{name}.log"
    with open(log, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign",
             "--drivers", "tracedrv,imca", "--jobs", "2",
             "--cache-dir", str(tmp_path / f"{name}-cache"),
             "--journal", str(tmp_path / f"{name}.jsonl"),
             "--summary-json", str(tmp_path / f"{name}.json"),
             *extra],
            stdout=out, stderr=subprocess.STDOUT, env=env, timeout=300)
    return proc.returncode, log.read_text()


def _verdicts(tmp_path, name):
    """Per-key verdict map from the run's cache (the source of verdict
    truth), plus the summary's verdict tallies."""
    entries = {}
    with open(tmp_path / f"{name}-cache" / "results.jsonl") as f:
        for line in f:
            if line.strip().endswith("}"):
                doc = json.loads(line)
                entries[doc["key"]] = doc["result"]["verdict"]
    with open(tmp_path / f"{name}.json") as f:
        tallies = json.load(f)["verdicts"]
    return entries, tallies


def _durability_smoke():
    """``scripts/durability_smoke.py`` as a module (its orphan scan)."""
    path = Path(__file__).parent.parent / "scripts" / "durability_smoke.py"
    spec = importlib.util.spec_from_file_location("durability_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="the orphan scan reads /proc")
def test_pool_workers_exit_when_the_campaign_is_killed(tmp_path):
    """A SIGKILLed campaign's pool workers notice their parent is gone
    and exit within the smoke's grace period instead of lingering."""
    crash_rc, crash_log = _campaign(tmp_path, "crash",
                                    "--inject", "engine_crash:kill:hits=4")
    assert crash_rc == -9, crash_log
    smoke = _durability_smoke()
    assert smoke.orphans_after_kill(str(tmp_path / "crash.jsonl")) == []


@pytest.mark.slow
def test_kill9_mid_campaign_then_resume_matches_the_crash_free_run(tmp_path):
    """The recovery-matrix acceptance row: SIGKILL the engine mid-run at
    the injected ``engine_crash`` point, resume from the journal, and
    the resumed world is indistinguishable from a crash-free one —
    same verdicts, every admitted job terminal, one cache entry per
    key, and a second resume re-runs nothing."""
    clean_rc, clean_log = _campaign(tmp_path, "clean")
    assert clean_rc in (0, 1, 2), clean_log

    crash_rc, crash_log = _campaign(tmp_path, "crash",
                                    "--inject", "engine_crash:kill:hits=4")
    assert crash_rc == -9, crash_log  # a genuine kill -9
    plan = replay_journal(str(tmp_path / "crash.jsonl"))
    assert plan.admitted > 0 and plan.incomplete > 0

    resumed_rc, resumed_log = _campaign(tmp_path, "crash", "--resume")
    assert resumed_rc == clean_rc, resumed_log
    assert "recovery:" in resumed_log
    assert _verdicts(tmp_path, "crash") == _verdicts(tmp_path, "clean")

    after = replay_journal(str(tmp_path / "crash.jsonl"))
    assert after.incomplete == 0  # every admitted job reached a terminal state
    # exactly one cache entry per key, crash or no crash
    for name in ("clean", "crash"):
        with open(tmp_path / f"{name}-cache" / "results.jsonl") as f:
            keys = [json.loads(l)["key"] for l in f if l.strip().endswith("}")]
        assert len(keys) == len(set(keys)), f"{name}: duplicate cache entries"

    again_rc, again_log = _campaign(tmp_path, "crash", "--resume")
    assert again_rc == clean_rc
    assert "skipped 8/8" in again_log  # pure cache replay: nothing re-checked
    assert replay_journal(str(tmp_path / "crash.jsonl")).incomplete == 0
