"""Chaos suite: campaigns under deterministic fault injection.

Every test pins a seeded :class:`~repro.faults.FaultPlan` against a
fault-free baseline and checks the robustness invariants of
docs/ROBUSTNESS.md:

* the campaign always terminates, with one result per job in input
  order;
* the ``kiss-campaign/1`` summary stays schema-valid (even partial);
* every job the chaos run did NOT degrade has the same verdict as the
  fault-free run;
* the cache never holds a wrong or unparsable current-schema entry.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import faults, obs
from repro.campaign import (
    CampaignConfig,
    CampaignScheduler,
    CheckJob,
    ResultCache,
    Telemetry,
    cache_key,
    validate_summary,
)
from repro.campaign.cache import UNCACHED_DETAIL_PREFIXES
from repro.faults import FaultPlan, FaultRule

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


def batch(n=16):
    """``n`` fast jobs with distinct cache keys: even indices race on
    EXT.a, odd ones are safe on EXT.b."""
    jobs = []
    for i in range(n):
        jobs.append(
            CheckJob(
                job_id=f"t/{i}",
                driver="t",
                source=SRC.replace("VALUE", str(i + 2)),
                target="EXT.a" if i % 2 == 0 else "EXT.b",
            )
        )
    return jobs


@pytest.fixture(scope="module")
def baseline():
    """job_id -> fault-free verdict for the standard batch."""
    results = CampaignScheduler(CampaignConfig()).run(batch(120))
    verdicts = {r.job_id: r.verdict for r in results}
    assert set(verdicts.values()) == {"error", "safe"}
    return verdicts


def degraded(r):
    return r.detail.startswith(UNCACHED_DETAIL_PREFIXES)


def check_invariants(sched, jobs, results, baseline):
    """The three universal chaos invariants (termination is implied by
    being here at all)."""
    assert [r.job_id for r in results] == [j.job_id for j in jobs]
    validate_summary(sched.summary_doc(results))
    for r in results:
        if not degraded(r):
            assert r.verdict == baseline[r.job_id], r.job_id
        else:
            # Degraded jobs settle as resource-bound (drained remainders,
            # timeouts, crashes) or cancelled (cooperative cancellation).
            assert r.verdict in ("resource-bound", "cancelled"), r.job_id


# -- crash faults ------------------------------------------------------------------


def test_crash_fault_is_retried_to_the_baseline_verdict(baseline):
    jobs = batch(8)
    plan = FaultPlan([FaultRule("mid_check", "crash", job="t/3", attempt=1)])
    sched = CampaignScheduler(CampaignConfig(retries=1, fault_plan=plan))
    tel = Telemetry()
    results = sched.run(jobs, telemetry=tel)
    check_invariants(sched, jobs, results, baseline)
    assert not any(degraded(r) for r in results)  # the retry recovered it
    by_id = {r.job_id: r for r in results}
    assert by_id["t/3"].attempts == 2
    assert plan.fired == [("mid_check", "crash", 4)]  # fourth mid_check hit
    assert [e["job"] for e in tel.of_kind("job_retry")] == ["t/3"]


def test_crash_fault_exhausts_retries_and_degrades(baseline, tmp_path):
    jobs = batch(8)
    plan = FaultPlan([FaultRule("mid_check", "crash", job="t/3")])  # every attempt
    cfg = CampaignConfig(retries=1, fault_plan=plan, cache_dir=str(tmp_path / "c"))
    sched = CampaignScheduler(cfg)
    results = sched.run(jobs)
    check_invariants(sched, jobs, results, baseline)
    by_id = {r.job_id: r for r in results}
    assert degraded(by_id["t/3"]) and by_id["t/3"].detail.startswith("crash:")
    assert by_id["t/3"].attempts == 2  # the retry budget was honored
    assert sum(degraded(r) for r in results) == 1
    # the degraded job was never cached; everything else was
    reloaded = ResultCache(cfg.cache_dir)
    assert reloaded.get(cache_key(jobs[3])) is None
    assert len(reloaded) == len(jobs) - 1 and reloaded.corrupt_lines == 0


def test_seeded_random_crashes_keep_all_invariants(baseline):
    jobs = batch(24)
    plan = FaultPlan([FaultRule("mid_check", "crash", p=0.3)], seed=11)
    sched = CampaignScheduler(CampaignConfig(retries=2, fault_plan=plan))
    results = sched.run(jobs)
    check_invariants(sched, jobs, results, baseline)
    assert plan.fired, "p=0.3 over 24+ hits must fire at least once"


# -- hang and oom faults -----------------------------------------------------------


def test_hang_fault_hits_the_job_timeout(baseline):
    jobs = batch(6)
    plan = FaultPlan([FaultRule("mid_check", "hang", job="t/2", seconds=5.0)])
    sched = CampaignScheduler(CampaignConfig(timeout=0.2, retries=0, fault_plan=plan))
    t0 = time.monotonic()
    results = sched.run(jobs)
    assert time.monotonic() - t0 < 4.0, "the timeout must cut the hang short"
    check_invariants(sched, jobs, results, baseline)
    by_id = {r.job_id: r for r in results}
    assert degraded(by_id["t/2"]) and "timeout" in by_id["t/2"].detail


def test_oom_fault_degrades_to_memory_detail(baseline):
    jobs = batch(6)
    plan = FaultPlan([FaultRule("mid_check", "oom", job="t/4", mb=16)])
    sched = CampaignScheduler(CampaignConfig(retries=1, fault_plan=plan))
    with obs.observing(obs.Recorder()) as rec:
        results = sched.run(jobs)
    check_invariants(sched, jobs, results, baseline)
    by_id = {r.job_id: r for r in results}
    assert degraded(by_id["t/4"]) and by_id["t/4"].detail.startswith("memory:")
    assert by_id["t/4"].attempts == 1  # MemoryError is not retryable
    assert rec.counters.get("memory_ceiling_hits") == 1
    assert rec.counters.get("faults_injected") == 1


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs POSIX")
def test_memory_ceiling_contains_oom_in_pool_workers(baseline):
    """A worker allocating past ``memory_limit`` raises a genuine
    RLIMIT_AS-driven MemoryError inside the worker; the pool survives."""
    pytest.importorskip("resource")
    for line in open("/proc/self/status"):
        if line.startswith("VmSize:"):
            base_mb = int(line.split()[1]) // 1024
            break
    jobs = batch(8)
    plan = FaultPlan([FaultRule("mid_check", "oom", job="t/5", mb=8192)])
    sched = CampaignScheduler(
        CampaignConfig(jobs=2, retries=1, memory_limit=base_mb + 192, fault_plan=plan)
    )
    results = sched.run(jobs)
    check_invariants(sched, jobs, results, baseline)
    by_id = {r.job_id: r for r in results}
    assert degraded(by_id["t/5"]) and by_id["t/5"].detail.startswith("memory:")
    assert sum(degraded(r) for r in results) == 1  # the pool kept working


def test_serial_memory_ceiling_is_restored_after_the_job():
    resource = pytest.importorskip("resource")
    soft_before, _ = resource.getrlimit(resource.RLIMIT_AS)
    jobs = batch(2)
    sched = CampaignScheduler(CampaignConfig(memory_limit=4096))
    sched.run(jobs)
    assert resource.getrlimit(resource.RLIMIT_AS)[0] == soft_before


# -- pool-break faults (BrokenProcessPool recovery) --------------------------------


def test_pool_break_rebuilds_pool_and_resubmits(baseline):
    jobs = batch(12)
    plan = FaultPlan([FaultRule("worker_start", "pool-break", job="t/3", attempt=1)])
    sched = CampaignScheduler(CampaignConfig(jobs=2, retries=1, fault_plan=plan))
    tel = Telemetry()
    results = sched.run(jobs, telemetry=tel)
    check_invariants(sched, jobs, results, baseline)
    assert not any(degraded(r) for r in results)  # everything recovered
    by_id = {r.job_id: r for r in results}
    assert by_id["t/3"].attempts == 2
    retried = [e for e in tel.of_kind("job_retry") if e["job"] == "t/3"]
    assert retried and retried[0]["reason"] == "worker process died"


def test_pool_break_every_attempt_exhausts_the_retry_budget(baseline):
    jobs = batch(12)
    plan = FaultPlan([FaultRule("worker_start", "pool-break", job="t/11")])
    sched = CampaignScheduler(CampaignConfig(jobs=2, retries=1, fault_plan=plan))
    tel = Telemetry()
    results = sched.run(jobs, telemetry=tel)
    check_invariants(sched, jobs, results, baseline)
    by_id = {r.job_id: r for r in results}
    assert degraded(by_id["t/11"])
    assert "worker process died" in by_id["t/11"].detail
    assert by_id["t/11"].attempts == 2  # retries=1 -> exactly two attempts
    assert len([e for e in tel.of_kind("job_retry") if e["job"] == "t/11"]) == 1
    # collateral in-flight jobs may burn attempts too, but they either
    # recover to the baseline verdict or degrade the same graceful way
    # (check_invariants above); the campaign itself never wedges.


def test_pool_submission_fault_retries_then_degrades(baseline):
    jobs = batch(6)
    plan = FaultPlan([FaultRule("pool_submit", "crash", job="t/0")])  # every attempt
    sched = CampaignScheduler(CampaignConfig(jobs=2, retries=1, fault_plan=plan))
    tel = Telemetry()
    results = sched.run(jobs, telemetry=tel)
    check_invariants(sched, jobs, results, baseline)
    by_id = {r.job_id: r for r in results}
    assert degraded(by_id["t/0"]) and "pool submission failed" in by_id["t/0"].detail
    assert by_id["t/0"].attempts == 2  # retries=1 -> exactly two refused submissions
    assert sum(degraded(r) for r in results) == 1
    retried = [e for e in tel.of_kind("job_retry") if e["job"] == "t/0"]
    assert len(retried) == 1 and retried[0]["reason"] == "pool submission failed"


def test_pool_broken_at_submission_requeues_without_an_attempt(baseline, monkeypatch):
    """A worker can die between the runtime's wait and its next submit,
    and the executor then refuses the submission: the job goes back to
    the queue at the same attempt and the campaign finishes normally."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    real_submit = ProcessPoolExecutor.submit
    refused = []

    def submit(self, fn, *args, **kwargs):
        if not refused and args[0].job_id == "t/5":
            refused.append(args[0].job_id)
            raise BrokenProcessPool("a worker died before this submission")
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    jobs = batch(8)
    sched = CampaignScheduler(CampaignConfig(jobs=2, retries=1))
    results = sched.run(jobs)
    check_invariants(sched, jobs, results, baseline)
    assert refused == ["t/5"]
    assert not any(degraded(r) for r in results)
    assert {r.job_id: r.attempts for r in results}["t/5"] == 1


# -- cache faults ------------------------------------------------------------------


def test_torn_write_never_yields_a_wrong_cache_entry(baseline, tmp_path):
    d = str(tmp_path / "c")
    jobs = batch(6)
    plan = FaultPlan([FaultRule("cache_append", "torn-write", hits=(2,))])
    sched = CampaignScheduler(CampaignConfig(cache_dir=d, fault_plan=plan))
    results = sched.run(jobs)
    check_invariants(sched, jobs, results, baseline)
    # the torn line merged with its successor: both entries degrade to
    # misses, and the loader flags exactly one corrupt line
    reloaded = ResultCache(d)
    assert reloaded.corrupt_lines == 1
    assert len(reloaded) == len(jobs) - 2
    for job in jobs:  # whatever survived is correct, never wrong
        hit = reloaded.get(cache_key(job))
        if hit is not None:
            assert hit.verdict == baseline[job.job_id]
    # a fault-free re-run recomputes the lost entries and repairs the file
    sched2 = CampaignScheduler(CampaignConfig(cache_dir=d))
    results2 = sched2.run(jobs)
    assert [r.verdict for r in results2] == [baseline[j.job_id] for j in jobs]
    assert sum(1 for r in results2 if r.cache_hit) == len(jobs) - 2
    repaired = ResultCache(d)
    assert len(repaired) == len(jobs) and repaired.corrupt_lines == 1


def test_cache_append_failure_keeps_the_campaign_healthy(baseline, tmp_path):
    d = str(tmp_path / "c")
    jobs = batch(6)
    plan = FaultPlan([FaultRule("cache_append", "crash")])  # every append fails
    sched = CampaignScheduler(CampaignConfig(cache_dir=d, fault_plan=plan))
    results = sched.run(jobs)
    check_invariants(sched, jobs, results, baseline)
    assert not any(degraded(r) for r in results)
    assert sched.cache.write_errors == len(jobs)
    assert len(ResultCache(d)) == 0  # nothing persisted, nothing corrupt


def test_concurrent_writers_never_tear_cache_lines(tmp_path):
    """Satellite: two processes appending to one cache file through the
    flock-guarded path produce only whole, parseable, schema-tagged
    lines."""
    d = str(tmp_path / "c")
    os.makedirs(d)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    writer = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.campaign.cache import CACHE_FILE, SCHEMA
from repro.campaign.jobs import JobResult
from repro.ioutil import locked_append
import json, os
who = sys.argv[3]
path = os.path.join(sys.argv[2], CACHE_FILE)
for i in range(120):
    r = JobResult(job_id=f"{who}/{i}", driver=who, prop="race",
                  target="EXT.a", verdict="safe", detail="x" * 4096)
    locked_append(path, json.dumps(
        {"schema": SCHEMA, "key": f"{who}-{i}", "result": r.to_dict()}) + "\\n")
"""
    procs = [
        subprocess.Popen([sys.executable, "-c", writer, src, d, who])
        for who in ("w1", "w2")
    ]
    assert all(p.wait(timeout=60) == 0 for p in procs)
    cache = ResultCache(d)
    assert cache.corrupt_lines == 0 and cache.stale_lines == 0
    assert len(cache) == 240
    with open(cache.path) as f:
        assert sum(1 for _ in f) == 240


# -- telemetry faults --------------------------------------------------------------


def test_telemetry_write_fault_degrades_to_memory_only(baseline, tmp_path):
    path = str(tmp_path / "events.jsonl")
    jobs = batch(4)
    plan = FaultPlan([FaultRule("telemetry_emit", "crash", hits=(3,))])
    sched = CampaignScheduler(
        CampaignConfig(telemetry_path=path, fault_plan=plan)
    )
    results = sched.run(jobs)
    check_invariants(sched, jobs, results, baseline)
    assert not any(degraded(r) for r in results)
    tel = sched.last_telemetry
    assert tel.write_errors == 1
    # the file stopped at the second event; memory kept the full stream
    file_events = [json.loads(line) for line in open(path)]
    assert len(file_events) == 2
    assert tel.events[-1]["event"] == "campaign_end"
    assert len(tel.events) > len(file_events)


# -- deadline ----------------------------------------------------------------------


def test_zero_deadline_skips_everything_gracefully(baseline):
    jobs = batch(10)
    sched = CampaignScheduler(CampaignConfig(deadline=0.0))
    with obs.observing(obs.Recorder()) as rec:
        results = sched.run(jobs)
    check_invariants(sched, jobs, results, baseline)
    assert sched.deadline_hit
    assert all(r.detail.startswith("deadline:") and r.attempts == 0 for r in results)
    doc = sched.summary_doc(results)
    assert doc["completed"] == 0 and doc["interrupted_jobs"] == len(jobs)
    assert rec.counters.get("jobs_interrupted") == len(jobs)


@pytest.mark.parametrize("workers", [1, 2])
def test_deadline_mid_campaign_drains_and_degrades_remainder(baseline, workers):
    jobs = batch(40)
    # a uniform hang paces every job, so the deadline deterministically
    # lands with work still pending whatever the worker count
    plan = FaultPlan([FaultRule("mid_check", "hang", seconds=0.03)])
    sched = CampaignScheduler(
        CampaignConfig(jobs=workers, deadline=0.2, fault_plan=plan)
    )
    tel = Telemetry()
    results = sched.run(jobs, telemetry=tel)
    check_invariants(sched, jobs, results, baseline)
    assert sched.deadline_hit
    # Past the deadline, in-flight jobs are cooperatively cancelled and
    # the never-submitted remainder drains with the deadline: detail.
    skipped = [r for r in results
               if r.detail.startswith(("deadline:", "cancelled"))]
    completed = [r for r in results if not degraded(r)]
    assert skipped and completed, "the deadline should land mid-campaign"
    assert len(tel.of_kind("campaign_deadline")) == 1
    doc = sched.summary_doc(results)
    assert doc["deadline_hit"] and doc["interrupted_jobs"] == len(skipped)


# -- graceful interrupt ------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_sigint_drains_and_keeps_partial_results(baseline, workers):
    jobs = batch(120)
    sched = CampaignScheduler(CampaignConfig(jobs=workers))
    tel = Telemetry()
    delay = 0.05 if workers == 1 else 0.15
    timer = threading.Timer(delay, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    try:
        results = sched.run(jobs, telemetry=tel)
    finally:
        timer.cancel()
    assert sched.interrupted == "SIGINT", "the signal must land mid-campaign"
    check_invariants(sched, jobs, results, baseline)
    skipped = [r for r in results if r.detail.startswith("interrupted: SIGINT")]
    completed = [r for r in results if not degraded(r)]
    assert skipped and completed
    assert len(tel.of_kind("campaign_interrupted")) == 1
    doc = sched.summary_doc(results)
    assert doc["interrupted"] == "SIGINT"
    assert doc["completed"] == len(completed) and doc["interrupted_jobs"] == len(skipped)
    # SIGINT handling is scoped to the run: the default handler is back
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_sigterm_is_handled_like_sigint(baseline):
    jobs = batch(120)
    sched = CampaignScheduler(CampaignConfig())
    timer = threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGTERM))
    timer.start()
    try:
        results = sched.run(jobs)
    finally:
        timer.cancel()
    assert sched.interrupted == "SIGTERM"
    check_invariants(sched, jobs, results, baseline)
    assert any(r.detail.startswith("interrupted: SIGTERM") for r in results)


def test_interrupted_campaign_resumes_from_cache(baseline, tmp_path):
    """In-process resume: interrupt a cached campaign, then re-run —
    completed jobs are hits, only the remainder is recomputed."""
    d = str(tmp_path / "c")
    jobs = batch(120)
    first = CampaignScheduler(CampaignConfig(cache_dir=d))
    timer = threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    try:
        results1 = first.run(jobs)
    finally:
        timer.cancel()
    assert first.interrupted == "SIGINT"
    completed = sum(1 for r in results1 if not degraded(r))
    assert 0 < completed < len(jobs)
    second = CampaignScheduler(CampaignConfig(cache_dir=d))
    results2 = second.run(jobs)
    assert second.interrupted is None
    assert [r.verdict for r in results2] == [baseline[j.job_id] for j in jobs]
    assert sum(1 for r in results2 if r.cache_hit) == completed
    assert ResultCache(d).corrupt_lines == 0


# -- the server path: the same invariants for served traffic ----------------------


def serve_payload(job):
    return {"program": job.source, "prop": job.prop, "target": job.target,
            "driver": job.driver}


def serve_batch(service, jobs, tenant="t"):
    """Submit a batch through the service (ids line up with ``batch()``:
    tenant ``t`` and per-tenant sequence numbers reproduce ``t/i``, so
    job-pinned fault rules hit the same jobs) and wait out the results."""
    from repro.campaign import JobResult

    docs = [service.submit(tenant, serve_payload(j))[1] for j in jobs]
    results = []
    for job, doc in zip(jobs, docs):
        final = service.get(doc["job"], wait_s=60)
        assert final is not None and final["state"] == "done", job.job_id
        r = final["result"]
        results.append(JobResult(
            job_id=doc["job"], driver=job.driver, prop=job.prop, target=job.target,
            verdict=r["verdict"], error_kind=r["error_kind"],
            attempts=r["attempts"], detail=r["detail"], wall_s=r["wall_s"],
        ))
    return results


def check_serve_invariants(service, jobs, results, baseline):
    """The chaos invariants, server flavor: one schema-valid event
    stream per submission ending in ``done``, every non-degraded verdict
    equal to the fault-free one, and no wrong or corrupt cache entry."""
    from repro.schemas import validate_serve_event

    assert len(results) == len(jobs)
    for job, r in zip(jobs, results):
        events, finished = service.events_since(r.job_id, 0)
        assert finished and events[-1]["event"] == "done", r.job_id
        for e in events:
            validate_serve_event(e)
        if not degraded(r):
            assert r.verdict == baseline[job.job_id], job.job_id
        else:
            assert r.verdict == "resource-bound", job.job_id


def serve_service(tmp_path=None, plan=None, **kw):
    from repro.serve import CheckService, ServeConfig

    return CheckService(ServeConfig(
        jobs=1, cache_dir=None if tmp_path is None else str(tmp_path / "c"),
        fault_plan=plan, retries=kw.pop("retries", 1),
        quota_rate=500.0, quota_burst=500, **kw))


def test_serve_crash_fault_is_retried_to_the_baseline_verdict(baseline):
    jobs = batch(8)
    plan = FaultPlan([FaultRule("mid_check", "crash", job="t/3", attempt=1)])
    svc = serve_service(plan=plan)
    try:
        results = serve_batch(svc, jobs)
        check_serve_invariants(svc, jobs, results, baseline)
        assert not any(degraded(r) for r in results)
        by_id = {r.job_id: r for r in results}
        assert by_id["t/3"].attempts == 2
        events, _ = svc.events_since("t/3", 0)
        assert [e["event"] for e in events] == ["queued", "started", "retry",
                                                "started", "done"]
    finally:
        svc.stop()


def test_serve_crash_fault_exhausts_retries_and_degrades(baseline, tmp_path):
    jobs = batch(8)
    plan = FaultPlan([FaultRule("mid_check", "crash", job="t/3")])  # every attempt
    svc = serve_service(tmp_path, plan=plan)
    try:
        results = serve_batch(svc, jobs)
        check_serve_invariants(svc, jobs, results, baseline)
        by_id = {r.job_id: r for r in results}
        assert degraded(by_id["t/3"]) and by_id["t/3"].detail.startswith("crash:")
        assert sum(degraded(r) for r in results) == 1
    finally:
        svc.stop()
    # the degraded job was never cached; everything else was, correctly
    reloaded = ResultCache(str(tmp_path / "c"))
    assert reloaded.get(cache_key(jobs[3])) is None
    assert len(reloaded) == len(jobs) - 1 and reloaded.corrupt_lines == 0
    for job in jobs:
        hit = reloaded.get(cache_key(job))
        if hit is not None:
            assert hit.verdict == baseline[job.job_id]


def test_serve_torn_cache_write_never_yields_a_wrong_entry(baseline, tmp_path):
    jobs = batch(6)
    plan = FaultPlan([FaultRule("cache_append", "torn-write", hits=(2,))])
    svc = serve_service(tmp_path, plan=plan)
    try:
        results = serve_batch(svc, jobs)
        check_serve_invariants(svc, jobs, results, baseline)
        assert not any(degraded(r) for r in results)  # verdicts unharmed
    finally:
        svc.stop()
    reloaded = ResultCache(str(tmp_path / "c"))
    assert reloaded.corrupt_lines == 1 and len(reloaded) == len(jobs) - 2
    for job in jobs:  # whatever survived is correct, never wrong
        hit = reloaded.get(cache_key(job))
        if hit is not None:
            assert hit.verdict == baseline[job.job_id]


def test_serve_telemetry_fault_keeps_streams_intact(baseline, tmp_path):
    path = str(tmp_path / "events.jsonl")
    jobs = batch(4)
    plan = FaultPlan([FaultRule("telemetry_emit", "crash", hits=(2,))])
    svc = serve_service(plan=plan, telemetry_path=path)
    try:
        results = serve_batch(svc, jobs)
        check_serve_invariants(svc, jobs, results, baseline)
        assert not any(degraded(r) for r in results)
        assert svc.stats_doc()["telemetry_write_errors"] == 1
    finally:
        svc.stop()


@pytest.mark.slow
def test_cli_serve_with_fault_plan_keeps_chaos_invariants(baseline, tmp_path):
    """Acceptance: a fault plan injected via the serve CLI never yields
    a wrong verdict or a corrupt cache, for real HTTP traffic."""
    from repro.schemas import validate_serve_event
    from repro.serve import ServeClient

    cache_dir = str(tmp_path / "cache")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", cache_dir, "--retries", "2",
         "--quota-rate", "500", "--quota-burst", "500",
         "--inject", "mid_check:crash:p=0.3", "--inject-seed", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        ready = json.loads(proc.stdout.readline())
        client = ServeClient("127.0.0.1", ready["port"], tenant="t")
        jobs = batch(12)
        for job in jobs:
            final = client.check(job.source, prop=job.prop, target=job.target,
                                 driver=job.driver, timeout=120)
            r = final["result"]
            events = list(client.events(final["job"]))
            assert events[-1]["event"] == "done"
            for e in events:
                validate_serve_event(e)
            if r["detail"].startswith(UNCACHED_DETAIL_PREFIXES):
                assert r["verdict"] == "resource-bound", job.job_id
            else:
                assert r["verdict"] == baseline[job.job_id], job.job_id
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0, proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    # the cache holds only whole, correct, current-schema entries
    reloaded = ResultCache(cache_dir)
    assert reloaded.corrupt_lines == 0 and reloaded.stale_lines == 0
    for job in jobs:
        hit = reloaded.get(cache_key(job))
        if hit is not None:
            assert hit.verdict == baseline[job.job_id], job.job_id


# -- end-to-end CLI: SIGINT, exit code 130, summary artifact, resume ---------------


@pytest.mark.slow
def test_cli_sigint_exit_code_and_cache_resume(tmp_path):
    """The acceptance smoke: SIGINT a real `repro campaign` mid-run ->
    exit 130 plus a schema-valid partial summary; an immediate re-run
    resumes >= 90% of the completed work from the cache."""
    cache_dir = str(tmp_path / "cache")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)

    def campaign(summary, extra=()):
        return [
            sys.executable, "-m", "repro", "campaign",
            "--drivers", "moufiltr,imca,tracedrv", "--jobs", "2",
            "--cache-dir", cache_dir, "--summary-json", summary, *extra,
        ]

    s1 = str(tmp_path / "summary1.json")
    proc = subprocess.Popen(campaign(s1), env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    cache_file = os.path.join(cache_dir, "results.jsonl")
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:  # wait for >= 2 completed jobs
        if os.path.exists(cache_file) and sum(1 for _ in open(cache_file)) >= 2:
            break
        if proc.poll() is not None:
            pytest.fail(f"campaign finished before the interrupt: {proc.communicate()}")
        time.sleep(0.05)
    proc.send_signal(signal.SIGINT)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 130, stderr
    assert "re-run to resume" in stderr

    doc1 = validate_summary(json.load(open(s1)))
    assert doc1["interrupted"] == "SIGINT"
    assert doc1["completed"] >= 2 and doc1["interrupted_jobs"] > 0
    cached = sum(1 for _ in open(cache_file))
    assert cached >= 2

    s2 = str(tmp_path / "summary2.json")
    done = subprocess.run(campaign(s2), env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode in (0, 1, 2), done.stderr  # completed, not interrupted
    doc2 = validate_summary(json.load(open(s2)))
    assert doc2["interrupted"] is None and doc2["interrupted_jobs"] == 0
    # every entry the interrupted run persisted is skipped on resume
    assert doc2["cache"]["hits"] >= max(1, int(0.9 * cached))
