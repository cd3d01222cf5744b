"""Every explicit-backend error verdict is mapped and replayed in the
worker, and its replay verdict and formatted trace travel with the
result: through a worker pool, the result cache, journal recovery and
the serve ``done`` event.  A failed replay keeps the ``error`` verdict
and is counted in the campaign summary's ``unreplayed_errors``."""

import json
import os
import time

from repro.campaign import (
    CampaignConfig,
    CampaignScheduler,
    CheckJob,
    JobResult,
    ResultCache,
    cache_key,
    validate_summary,
)
from repro.campaign.worker import execute_job
from repro.concheck import replay
from repro.concheck.replay import ReplayResult
from repro.schemas import validate_serve_event
from repro.serve import CheckService, ServeConfig

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


def job(value=2, target="EXT.a"):
    return CheckJob(job_id=f"t/{value}/{target}", driver="t",
                    source=SRC.replace("VALUE", str(value)), target=target)


def race_payload(value):
    return {"program": SRC.replace("VALUE", str(value)), "prop": "race", "target": "EXT.a"}


def assert_replayed(result):
    assert result.verdict == "error" and result.trace_validated is True
    assert "[access]" in result.trace, result.trace


def test_a_failed_replay_is_counted_not_a_verdict_change(monkeypatch):
    monkeypatch.setattr(replay, "replay_trace", lambda *a, **k: ReplayResult(False, "bug"))
    sched = CampaignScheduler()  # in process, so the patch reaches the check
    err, safe = sched.run([job(), job(target="EXT.b")])
    assert err.verdict == "error" and err.trace_validated is False and err.trace
    assert safe.verdict == "safe" and safe.trace_validated is None and safe.trace is None
    doc = validate_summary(sched.summary_doc([err, safe]))
    assert doc["unreplayed_errors"] == 1


def slow_replay(*args, **kwargs):
    time.sleep(30)


def test_a_replay_cut_by_the_timeout_keeps_the_error_verdict(monkeypatch):
    """The job's deadline landing in the replay leaves the concluded
    check's verdict standing; the trace is reported unvalidated."""
    monkeypatch.setattr(replay, "replay_trace", slow_replay)
    out, _ = execute_job(job(), timeout=1.0)
    assert out["verdict"] == "error" and out["trace_validated"] is False
    assert out["wall_s"] < 10
    assert "trace replay cut by the 1.0s timeout" in out["detail"]
    assert not out["detail"].startswith("timeout")  # not retried as a timeout


def test_a_fuzz_job_whose_replay_is_cut_times_out(monkeypatch):
    """The oracle reads an unvalidated race as a false race: a replay
    cut by the deadline must time the job out, not report a divergence."""
    monkeypatch.setattr(replay, "replay_trace", slow_replay)
    prog = "int g; void w() { g = 1; } void main() { async w(); g = 2; }"
    fuzz = CheckJob(job_id="f", driver="fuzz", source=prog, prop="fuzz",
                    config={"max_ts": 1, "fuzz_race": "g"})
    out, _ = execute_job(fuzz, timeout=1.0)
    assert out["verdict"] == "resource-bound"
    assert out["detail"].startswith("timeout")


def test_an_unvalidated_error_is_not_cached(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    r = JobResult(job_id="t", driver="t", prop="race", target="EXT.a",
                  verdict="error", trace_validated=False, trace="t0: [access]")
    cache.put("k", r)
    assert cache.get("k") is None


def test_the_replay_survives_a_pool_run_and_a_cache_hit(tmp_path):
    d = str(tmp_path / "cache")
    jobs = [job(), job(target="EXT.b")]
    cold = CampaignScheduler(CampaignConfig(jobs=2, cache_dir=d))
    err, safe = cold.run(jobs)
    assert_replayed(err)
    assert safe.trace_validated is None and safe.trace is None
    assert cold.summary_doc([err, safe])["unreplayed_errors"] == 0
    warm_err, warm_safe = CampaignScheduler(CampaignConfig(cache_dir=d)).run(jobs)
    assert warm_err.cache_hit and warm_safe.cache_hit
    assert warm_err.trace_validated is True and warm_err.trace == err.trace
    assert warm_safe.trace_validated is None and warm_safe.trace is None


def test_kiss_cache_4_entries_are_skipped(tmp_path):
    """A ``/4`` entry predates the replay fields: recompute, never serve
    it as a result whose replay is unknown."""
    fresh = CampaignScheduler().run([job()])[0]
    entry = {k: v for k, v in fresh.to_dict().items() if k not in ("trace_validated", "trace")}
    d = str(tmp_path / "cache")
    os.makedirs(d)
    with open(os.path.join(d, "results.jsonl"), "w") as f:
        f.write(json.dumps({"schema": "kiss-cache/4", "key": cache_key(job()),
                            "result": entry}) + "\n")
    cache = ResultCache(d)
    assert len(cache) == 0 and cache.stale_lines == 1
    rerun = CampaignScheduler(CampaignConfig(cache_dir=d)).run([job()])[0]
    assert not rerun.cache_hit
    assert_replayed(rerun)


def done_event(svc, job_id):
    events, finished = svc.events_since(job_id, 0)
    assert finished
    done = events[-1]
    assert done["event"] == "done"
    return validate_serve_event(done)


def test_serve_done_events_carry_the_replay(tmp_path):
    svc = CheckService(ServeConfig(jobs=1, cache_dir=str(tmp_path / "c")),
                       start_engine=False)
    try:
        _, doc = svc.submit("t", race_payload(2))
        svc.pump_once()
        miss = done_event(svc, doc["job"])
        assert miss["cache"] == "miss" and miss["trace_validated"] is True
        assert "[access]" in miss["trace"]
        status, doc = svc.submit("t", race_payload(2))
        assert status == 200
        hit = done_event(svc, doc["job"])
        assert hit["cache"] == "hit"
        assert hit["trace_validated"] is True and hit["trace"] == miss["trace"]
    finally:
        svc.stop()


def test_journal_recovery_keeps_the_replay(tmp_path):
    """A job owed at a crash is re-run on resume, and one settled before
    it answers from the cache: both carry their replay."""
    cdir, jpath = str(tmp_path / "cache"), str(tmp_path / "j.jsonl")
    svc1 = CheckService(ServeConfig(jobs=1, cache_dir=cdir, journal_path=jpath),
                        start_engine=False)
    ids = [svc1.submit("t", race_payload(v))[1]["job"] for v in (2, 3)]
    svc1.pump_once()  # settles the first job only
    settled = done_event(svc1, ids[0])
    del svc1  # the crash: the second job is still owed

    svc2 = CheckService(ServeConfig(jobs=1, cache_dir=cdir, journal_path=jpath,
                                    resume=True), start_engine=False)
    try:
        assert svc2.counts["recovered"] == 1
        for _ in range(4):
            svc2.pump_once()
        owed = done_event(svc2, ids[1])
        assert owed["verdict"] == "error" and owed["trace_validated"] is True
        status, doc = svc2.submit("t", race_payload(2))
        assert status == 200
        hit = done_event(svc2, doc["job"])
        assert hit["trace_validated"] is True and hit["trace"] == settled["trace"]
    finally:
        svc2.stop()
