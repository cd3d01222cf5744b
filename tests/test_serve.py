"""The checking service: admission, dedupe, quotas, streams, drain.

In-process tests drive :class:`~repro.serve.CheckService` directly
(deterministically with ``start_engine=False`` where ordering matters);
HTTP tests host a real asyncio server on a background thread and use
only the stdlib client helper, so they double as protocol tests; the
subprocess test exercises ``python -m repro serve`` end to end,
including the SIGTERM drain ladder.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.schemas import SchemaError, validate_serve_event
from repro.serve import (
    AdmissionError,
    CheckService,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    TokenBucket,
)

SAFE = "int g;\nvoid main() { g = 1; assert(g == 1); }\n"
RACY = """
struct EXT { int a; }
void worker(EXT *e) { e->a = 1; }
void main() {
  EXT *e;
  e = malloc(EXT);
  async worker(e);
  e->a = 2;
}
"""


def distinct(n, base=SAFE):
    """``n`` programs with distinct cache keys."""
    return [base.replace("g == 1", f"g == 1 && {i + 2} > 0") for i in range(n)]


def wait_for(predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    pytest.fail(f"timed out waiting for {what}")


@pytest.fixture
def service():
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None))
    yield svc
    svc.stop()


# -- the service core --------------------------------------------------------------


def test_submit_runs_to_a_schema_valid_done_stream(service):
    status, doc = service.submit("t", {"program": SAFE})
    assert status == 202 and doc["state"] == "queued" and not doc["deduped"]
    final = service.get(doc["job"], wait_s=30)
    assert final["state"] == "done"
    assert final["result"]["verdict"] == "safe"
    events, finished = service.events_since(doc["job"], 0)
    assert finished
    assert [e["event"] for e in events] == ["queued", "started", "done"]
    for e in events:
        validate_serve_event(e)
    assert events[-1]["cache"] == "off" and events[-1]["version"]


def test_error_verdict_and_race_prop(service):
    final = _check(service, {"program": RACY, "prop": "race", "target": "EXT.a"})
    assert final["result"]["verdict"] == "error"


def _check(service, payload, tenant="t"):
    status, doc = service.submit(tenant, payload)
    if status == 200:
        return doc
    assert status == 202
    final = service.get(doc["job"], wait_s=30)
    assert final["state"] == "done"
    return final


@pytest.mark.parametrize("payload,fragment", [
    ({}, "program"),
    ({"program": 7}, "program"),
    ({"program": SAFE, "prop": "nope"}, "prop"),
    ({"program": SAFE, "prop": "race"}, "target"),
    ({"program": SAFE, "config": {"bogus_knob": 1}}, "config"),
    ({"program": SAFE, "config": "kiss"}, "config"),
    ({"program": SAFE, "driver": ""}, "driver"),
])
def test_invalid_submissions_are_400(service, payload, fragment):
    with pytest.raises(AdmissionError) as err:
        service.submit("t", payload)
    assert err.value.status == 400 and fragment in err.value.error
    assert service.counts["rejected_invalid"] == 1


@pytest.mark.parametrize("config", [
    {"strategy": "bogus"},
    {"strategy": "rounds"},  # the retired eager K-round strategy
    {"rounds": 0},
    {"backend": "sat"},
    {"strategy": "kiss", "cs_tile": ["0:1"]},
])
def test_invalid_config_values_are_400_not_crashes(service, config):
    """Config values are validated at admission: a bad value is the
    client's error, not a job that crashes and is retried."""
    with pytest.raises(AdmissionError) as err:
        service.submit("t", {"program": SAFE, "prop": "assertion", "config": config})
    assert err.value.status == 400 and "invalid config" in err.value.error
    assert service.counts["rejected_invalid"] == 1
    assert service.counts["submitted"] == 0


def test_journaled_retired_strategy_job_settles_on_recovery(tmp_path):
    """A job admitted under the retired ``strategy: "rounds"`` before a
    restart still settles with a terminal journal record: recovery
    skips admission, so the run fails and is degraded, not lost."""
    from repro.campaign import CheckJob, cache_key
    from repro.campaign.journal import JobJournal, replay

    jpath = str(tmp_path / "j.jsonl")
    job = CheckJob(job_id="t/0", driver="t", source=SAFE, prop="assertion",
                   config={"strategy": "rounds", "rounds": 2})
    JobJournal(jpath).admit(job, cache_key(job), tenant="t", origin="serve")
    assert replay(jpath).incomplete == 1
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None, journal_path=jpath,
                                   resume=True), start_engine=False)
    try:
        assert svc.counts["recovered"] == 1
        for _ in range(8):
            svc.pump_once()
        doc = svc.get("t/0")
        assert doc is not None and doc["state"] == "done", doc
        assert doc["result"]["verdict"] == "resource-bound"
        assert "unknown strategy 'rounds'" in doc["result"]["detail"]
    finally:
        svc.stop()
    after = replay(jpath)
    assert after.incomplete == 0 and after.done == 1


def test_journaled_job_with_retired_options_is_checked_on_recovery(tmp_path):
    """Older journals record options ``Kiss()`` has since retired (every
    Table 1 job carried one): recovery drops them and checks the job,
    instead of crashing it into ``resource-bound``."""
    from repro.campaign import CheckJob, cache_key
    from repro.campaign.journal import JobJournal, replay

    jpath = str(tmp_path / "j.jsonl")
    job = CheckJob(job_id="t/0", driver="t", source=RACY, target="EXT.a",
                   config={"max_ts": 0, "inline": True, "fuzz_race": "g"})
    JobJournal(jpath).admit(job, cache_key(job), tenant="t", origin="serve")
    assert replay(jpath).jobs[0].config == {"max_ts": 0, "fuzz_race": "g"}
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None, journal_path=jpath,
                                   resume=True), start_engine=False)
    try:
        assert svc.counts["recovered"] == 1
        for _ in range(8):
            svc.pump_once()
        doc = svc.get("t/0")
        assert doc is not None and doc["state"] == "done", doc
        assert doc["result"]["verdict"] == "error"
        done = svc.events_since("t/0", 0)[0][-1]
        assert done["event"] == "done" and done["trace_validated"] is True
    finally:
        svc.stop()
    assert replay(jpath).incomplete == 0


def test_unparsable_program_still_yields_a_verdict(service):
    final = _check(service, {"program": "this is not the language"})
    assert final["result"]["verdict"] in ("error", "resource-bound")


def test_persistent_cache_hit_answers_immediately(tmp_path):
    cfg = lambda: ServeConfig(jobs=1, cache_dir=str(tmp_path / "c"))  # noqa: E731
    svc = CheckService(cfg())
    first = _check(svc, {"program": SAFE})
    svc.stop()
    svc2 = CheckService(cfg())
    try:
        status, doc = svc2.submit("other", {"program": SAFE})
        assert status == 200 and doc["state"] == "done"
        assert doc["result"]["cache"] == "hit"
        assert doc["result"]["verdict"] == first["result"]["verdict"]
        events, finished = svc2.events_since(doc["job"], 0)
        assert finished and [e["event"] for e in events] == ["queued", "done"]
        for e in events:
            validate_serve_event(e)
    finally:
        svc2.stop()


def test_inflight_dedupe_fans_events_out_to_both_records():
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None), start_engine=False)
    s1, d1 = svc.submit("alice", {"program": SAFE})
    s2, d2 = svc.submit("bob", {"program": SAFE})
    assert (s1, s2) == (202, 202)
    assert not d1["deduped"] and d2["deduped"]
    assert svc.counts["deduped"] == 1
    svc.pump_once()
    for job_id, expect_cache in ((d1["job"], "off"), (d2["job"], "dedup")):
        events, finished = svc.events_since(job_id, 0)
        assert finished, job_id
        assert [e["event"] for e in events] == ["queued", "started", "done"]
        for e in events:
            validate_serve_event(e)
            assert e["job"] == job_id  # relabelled, not shared
        assert events[-1]["cache"] == expect_cache
        assert events[-1]["verdict"] == "safe"


def test_quota_429_with_retry_after():
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None, quota_rate=1.0,
                                   quota_burst=2), start_engine=False)
    progs = distinct(3)
    assert svc.submit("t", {"program": progs[0]})[0] == 202
    assert svc.submit("t", {"program": progs[1]})[0] == 202
    with pytest.raises(AdmissionError) as err:
        svc.submit("t", {"program": progs[2]})
    assert err.value.status == 429 and err.value.retry_after > 0
    assert svc.counts["rejected_quota"] == 1
    # quotas are per tenant: another tenant is unaffected
    assert svc.submit("other", {"program": progs[2]})[0] == 202


def test_queue_full_429_backpressure():
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None, max_queue=2,
                                   quota_burst=100), start_engine=False)
    progs = distinct(3)
    assert svc.submit("t", {"program": progs[0]})[0] == 202
    assert svc.submit("t", {"program": progs[1]})[0] == 202
    with pytest.raises(AdmissionError) as err:
        svc.submit("t", {"program": progs[2]})
    assert err.value.status == 429 and "queue" in err.value.error
    # dedupe onto an in-flight job does not need a queue slot
    s, d = svc.submit("t2", {"program": progs[0]})
    assert s == 202 and d["deduped"]


def test_token_bucket_refills():
    t = [0.0]
    bucket = TokenBucket(rate=10.0, burst=1, clock=lambda: t[0])
    assert bucket.try_take()
    assert not bucket.try_take()
    assert bucket.retry_after() == pytest.approx(0.1)
    t[0] += 0.1
    assert bucket.try_take()


def test_drain_stops_admission_and_finishes_admitted_work(service):
    status, doc = service.submit("t", {"program": SAFE})
    service.drain()
    with pytest.raises(AdmissionError) as err:
        service.submit("t", {"program": RACY, "prop": "race", "target": "EXT.a"})
    assert err.value.status == 503
    final = service.get(doc["job"], wait_s=30)
    assert final["state"] == "done" and final["result"]["verdict"] == "safe"
    wait_for(lambda: service.stopped, what="engine drain")


def test_degrade_pending_ends_backlog_with_valid_done_events():
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None), start_engine=False)
    ids = [svc.submit("t", {"program": p})[1]["job"] for p in distinct(4)]
    svc.degrade_pending("interrupted: SIGTERM")
    svc.pump_once()
    for job_id in ids:
        events, finished = svc.events_since(job_id, 0)
        assert finished
        done = events[-1]
        validate_serve_event(done)
        assert done["verdict"] == "resource-bound"
        assert svc.get(job_id)["result"]["detail"].startswith("interrupted:")


def test_stats_doc_shape(service):
    _check(service, {"program": SAFE})
    doc = service.stats_doc()
    assert doc["counts"]["submitted"] == 1 and doc["counts"]["completed"] == 1
    assert doc["queue"]["max_queue"] == service.config.max_queue
    assert doc["workers"] == 1 and doc["version"]
    assert service.healthz_doc()["status"] == "ok"
    service.drain()
    assert service.healthz_doc()["status"] == "draining"


def test_serve_event_validator_rejects_bad_documents():
    good = {"schema": "kiss-serve/1", "event": "done", "t": 0.1, "job": "t/0",
            "verdict": "safe", "attempts": 1, "cache": "miss", "wall_s": 0.1,
            "version": "1.0.0"}
    validate_serve_event(dict(good))
    for breakage in ({"schema": "kiss-serve/2"}, {"event": "finished"},
                     {"verdict": "crash"}, {"cache": "maybe"}, {"t": -1.0},
                     {"job": ""}, {"version": 3}):
        with pytest.raises(SchemaError):
            validate_serve_event({**good, **breakage})


# -- the HTTP layer ----------------------------------------------------------------


@pytest.fixture
def server(tmp_path):
    svc = CheckService(ServeConfig(jobs=1, cache_dir=str(tmp_path / "c"),
                                   quota_rate=500.0, quota_burst=500))
    with ServerThread(svc) as srv:
        yield srv


def test_http_round_trip_and_stream(server):
    client = ServeClient("127.0.0.1", server.port, tenant="httpc")
    assert client.healthz()["status"] == "ok"
    final = client.check(SAFE)
    assert final["result"]["verdict"] == "safe"
    events = list(client.events(final["job"]))
    assert [e["event"] for e in events] == ["queued", "started", "done"]
    for e in events:
        validate_serve_event(e)
    # resubmission is a cache hit answered on the POST itself
    status, doc = client.submit(SAFE)
    assert status == 200 and doc["result"]["cache"] == "hit"
    stats = client.stats()
    assert stats["counts"]["cache_hits"] == 1
    assert stats["cache"]["entries"] == 1


def test_http_errors(server):
    client = ServeClient("127.0.0.1", server.port)
    with pytest.raises(ServeError) as err:
        client.status("nope/99")
    assert err.value.status == 404
    status, doc = client._request("GET", "/no/such/route")
    assert status == 404
    status, doc = client._request("POST", "/v1/jobs")  # empty body
    assert status == 400
    status, doc = client._request("GET", "/v1/jobs")  # wrong method
    assert status == 405


def test_http_quota_429_sets_retry_after(tmp_path):
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None, quota_rate=0.5,
                                   quota_burst=1))
    with ServerThread(svc) as srv:
        client = ServeClient("127.0.0.1", srv.port, tenant="greedy")
        progs = distinct(2)
        status, _ = client.submit(progs[0])
        assert status in (200, 202)
        status, doc = client.submit(progs[1])
        assert status == 429 and doc["retry_after"] > 0
        with pytest.raises(ServeError) as err:
            client.check(progs[1])
        assert err.value.status == 429


def test_two_concurrent_clients_identical_submission_dedupes(server):
    """Satellite 4's concurrent dedupe shape, over real HTTP: two
    clients race the same program in; exactly one check runs, both get
    the same verdict, and at least one response is marked deduped/hit."""
    program = SAFE.replace("g == 1", "g == 1 && 777 > 0")
    out, errs = {}, []

    def one(name):
        try:
            client = ServeClient("127.0.0.1", server.port, tenant=name)
            out[name] = client.check(program)
        except Exception as exc:  # pragma: no cover - surfaced below
            errs.append((name, exc))

    threads = [threading.Thread(target=one, args=(n,)) for n in ("c1", "c2")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errs, errs
    verdicts = {d["result"]["verdict"] for d in out.values()}
    assert verdicts == {"safe"}
    states = sorted(d["result"]["cache"] for d in out.values())
    assert states in (["dedup", "miss"], ["hit", "miss"])
    stats = ServeClient("127.0.0.1", server.port).stats()
    assert stats["counts"]["submitted"] == 1  # one real check for two clients


# -- the subprocess acceptance path ------------------------------------------------


def _spawn_server(tmp_path, *extra):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "cache"), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    ready = json.loads(proc.stdout.readline())
    assert ready["event"] == "serve_listening"
    return proc, ready["port"]


@pytest.mark.slow
def test_cli_serve_dedupes_resubmission_and_drains_on_sigterm(tmp_path):
    """The CI acceptance shape: submit a corpus, resubmit it (>= 90%
    must dedupe through the cache), then SIGTERM and assert a clean
    drain (exit 0, no admissions after the signal)."""
    proc, port = _spawn_server(tmp_path, "--quota-rate", "500",
                               "--quota-burst", "500")
    try:
        client = ServeClient("127.0.0.1", port, tenant="ci")
        corpus = distinct(10)
        first = [client.check(p, timeout=120) for p in corpus]
        assert all(d["result"]["verdict"] == "safe" for d in first)
        second = [client.check(p, timeout=120) for p in corpus]
        hits = sum(1 for d in second if d["result"]["cache"] == "hit")
        assert hits >= 9, f"only {hits}/10 resubmissions deduped"
        for d in first + second:
            for e in client.events(d["job"]):
                validate_serve_event(e)
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 30
        refused = False
        while time.monotonic() < deadline and proc.poll() is None:
            try:
                status, _ = client.submit("int h;\nvoid main() { h = 3; }\n")
                assert status != 202, "admitted a job while draining"
            except (ServeError, OSError):
                refused = True  # 503 while draining, then connection refused
            time.sleep(0.05)
        assert proc.wait(timeout=30) == 0, proc.stderr.read()
        assert refused or proc.poll() is not None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


# -- server-side swarms ------------------------------------------------------------

TWO_FORKS = open(os.path.join(os.path.dirname(__file__), "fuzz_corpus",
                              "two-forks-error.kp")).read()


def _pump_swarm(svc, swarm_id, pumps=64):
    for _ in range(pumps):
        doc = svc.get_swarm(swarm_id)
        if doc["state"] == "done":
            return doc
        svc.pump_once()
    return svc.get_swarm(swarm_id)


def test_swarm_fans_out_aggregates_and_streams(tmp_path):
    """POST /v1/swarm semantics in process: N tile jobs on the shared
    engine, an interleaved event stream, and exactly one aggregate done
    event carrying the replay-validated error verdict."""
    svc = CheckService(ServeConfig(jobs=1, cache_dir=str(tmp_path / "c")),
                       start_engine=False)
    try:
        status, doc = svc.submit_swarm("t", {"program": TWO_FORKS,
                                             "tiles": 4, "rounds": 3})
        assert status == 202 and doc["state"] == "running" and doc["tiles"] == 4
        swarm_id = doc["swarm"]
        final = _pump_swarm(svc, swarm_id)
        assert final["state"] == "done" and final["verdict"] == "error"
        assert final["witness_tile"] is not None and final["trace_validated"]
        events, finished = svc.swarm_events_since(swarm_id, 0)
        assert finished
        for e in events:
            validate_serve_event(e)
        agg = [e for e in events if e["event"] == "done" and e["job"] == swarm_id]
        assert len(agg) == 1 and agg[0] is events[-1]
        assert agg[0]["cache"] == "aggregate" and agg[0]["verdict"] == "error"
        tile_done = [e for e in events
                     if e["event"] == "done" and e["job"] != swarm_id]
        assert len(tile_done) == 4  # every tile's terminal interleaved
        assert svc.counts["swarms"] == 1
        # the tiles are ordinary cached jobs: an identical swarm re-hits
        _, doc2 = svc.submit_swarm("t", {"program": TWO_FORKS,
                                         "tiles": 4, "rounds": 3})
        final2 = _pump_swarm(svc, doc2["swarm"])
        assert final2["verdict"] == "error"
        assert svc.counts["cache_hits"] == 4
    finally:
        svc.stop()


def test_swarm_first_error_cancels_sibling_tiles(tmp_path):
    """First-error fan-in: the moment a tile errs, its unsettled
    siblings are cancelled; the aggregate error verdict is undiluted
    and the cancellations are observable in the stream."""
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None), start_engine=False)
    try:
        _, doc = svc.submit_swarm("t", {"program": TWO_FORKS, "tiles": 6,
                                        "rounds": 3, "first_error": True})
        final = _pump_swarm(svc, doc["swarm"])
        assert final["state"] == "done" and final["verdict"] == "error"
        expected = final["tiles"] - final["witness_tile"] - 1  # serial order
        assert final["cancelled_tiles"] == expected
        events, _ = svc.swarm_events_since(doc["swarm"], 0)
        cancelled = [e for e in events if e["event"] == "cancelled"]
        assert len(cancelled) == expected
        assert all("first-error" in e["reason"] for e in cancelled)
        assert svc.counts["cancelled"] == expected
    finally:
        svc.stop()


def test_swarm_admission_validation_and_unknown_ids(tmp_path):
    svc = CheckService(ServeConfig(jobs=1, cache_dir=None), start_engine=False)
    try:
        for payload, fragment in (
            ({}, "program"),
            ({"program": TWO_FORKS, "tiles": 0}, "tiles"),
            ({"program": TWO_FORKS, "rounds": 99}, "rounds"),
            ({"program": TWO_FORKS, "first_error": "yes"}, "first_error"),
        ):
            with pytest.raises(AdmissionError) as err:
                svc.submit_swarm("t", payload)
            assert err.value.status == 400 and fragment in err.value.error
        assert svc.get_swarm("t/swarm99") is None
        assert svc.cancel_swarm("t/swarm99") is None
    finally:
        svc.stop()


def test_http_swarm_round_trip_cancel_and_stream(server):
    client = ServeClient("127.0.0.1", server.port, tenant="swarmer")
    status, doc = client.submit_swarm(TWO_FORKS, tiles=4, rounds=3)
    assert status == 202 and doc["swarm"]
    final = client.swarm_wait(doc["swarm"], timeout=120)
    assert final["verdict"] == "error" and final["trace_validated"]
    events = list(client.swarm_events(doc["swarm"]))
    for e in events:
        validate_serve_event(e)
    assert events[-1]["job"] == doc["swarm"] and events[-1]["cache"] == "aggregate"
    # a finished swarm refuses cancellation; an unknown one is a 404
    status, _ = client.cancel_swarm(doc["swarm"])
    assert status == 409
    status, _ = client.cancel_swarm("swarmer/swarm99")
    assert status == 404
    status, body = client._request("POST", "/v1/swarm", {"program": ""})
    assert status == 400 and "program" in body["error"]


def test_cached_swarm_takes_no_queue_slot_and_a_full_swarm_is_refused_whole(tmp_path):
    """Only tiles that open a new key count against ``max_queue``: a
    resubmitted swarm whose tiles are all cached is admitted past a
    nearly full queue, while a swarm needing more new keys than the free
    slots is refused whole, leaving none of its tiles behind."""
    svc = CheckService(ServeConfig(jobs=1, cache_dir=str(tmp_path / "c"), max_queue=4,
                                   quota_burst=100), start_engine=False)
    try:
        swarm = {"program": TWO_FORKS, "tiles": 4, "rounds": 3}
        _, doc = svc.submit_swarm("t", swarm)
        assert _pump_swarm(svc, doc["swarm"])["state"] == "done"
        assert svc.submit("t", {"program": SAFE})[0] == 202  # one job active
        hits = svc.counts["cache_hits"]
        status, again = svc.submit_swarm("t", swarm)
        assert status == 202
        assert svc.counts["cache_hits"] == hits + 4

        assert svc.stats_doc()["queue"]["active"] == 1  # 3 slots free
        counts, queue, records = dict(svc.counts), svc.stats_doc()["queue"], len(svc._records)
        fresh = dict(swarm, program=TWO_FORKS.replace("int l0 = 0;", "int l0 = 0;\nint l1 = 0;"))
        with pytest.raises(AdmissionError) as err:
            svc.submit_swarm("t", fresh)  # 4 new keys, 3 free slots
        assert err.value.status == 429 and "queue" in err.value.error
        assert svc.counts == dict(counts, rejected_queue=counts["rejected_queue"] + 1)
        assert svc.stats_doc()["queue"] == queue
        assert len(svc._records) == records
        assert _pump_swarm(svc, again["swarm"])["verdict"] == "error"
    finally:
        svc.stop()


def test_deduped_flag_and_counts_agree_on_every_admission_path(tmp_path):
    """Single jobs, swarm tiles, and journal-recovered jobs go through
    one admission path: a rider's ``queued`` event says ``deduped: true``
    exactly when its status document does, and every record lands in
    exactly one of ``submitted`` / ``deduped`` / ``cache_hits`` — the
    same split its ``done.cache`` provenance reports."""
    from repro.campaign import CheckJob, JobJournal, cache_key

    cdir, jpath = str(tmp_path / "cache"), str(tmp_path / "j.jsonl")
    cached, owed, fresh = distinct(3)
    warm = CheckService(ServeConfig(jobs=1, cache_dir=cdir))
    _check(warm, {"program": cached})
    warm.stop()
    # a journal owing two jobs on one key (the second must ride the
    # first) and one job whose verdict the cache already holds
    journal = JobJournal(jpath)
    for i, source in enumerate((owed, owed, cached)):
        job = CheckJob(job_id=f"r/{i}", driver="r", source=source, prop="assertion")
        journal.admit(job, cache_key(job), tenant="r", origin="serve")

    svc = CheckService(ServeConfig(jobs=1, cache_dir=cdir, journal_path=jpath,
                                   resume=True, quota_burst=100), start_engine=False)
    try:
        ids = ["r/0", "r/1", "r/2"]
        for payload in ({"program": fresh}, {"program": fresh}, {"program": cached}):
            ids.append(svc.submit("t", payload)[1]["job"])
        swarm = {"program": TWO_FORKS, "tiles": 4, "rounds": 3}
        swarm_ids = [svc.submit_swarm("t", swarm)[1]["swarm"] for _ in range(2)]
        for sid in swarm_ids:
            ids.extend(svc.get_swarm(sid)["tile_jobs"])
        for job_id in ids:
            events, _ = svc.events_since(job_id, 0)
            assert events[0]["event"] == "queued"
            assert events[0]["deduped"] == svc.get(job_id)["deduped"], job_id
        assert [svc.get(j)["deduped"] for j in ids[:6]] == [False, True, False] * 2
        second_swarm = svc.get_swarm(swarm_ids[1])["tile_jobs"]
        assert all(svc.get(j)["deduped"] for j in second_swarm)

        for sid in swarm_ids:
            assert _pump_swarm(svc, sid)["state"] == "done"
        for _ in range(8):
            svc.pump_once()
        provenance = {"miss": 0, "dedup": 0, "hit": 0}
        for job_id in ids:
            doc = svc.get(job_id)
            assert doc["state"] == "done", job_id
            provenance[doc["result"]["cache"]] += 1
        assert provenance == {"miss": svc.counts["submitted"],
                              "dedup": svc.counts["deduped"],
                              "hit": svc.counts["cache_hits"]}
        assert svc.counts["recovered"] == 1
    finally:
        svc.stop()
