"""Tests for the campaign engine (repro.campaign): cache-key stability,
parallel-vs-serial verdict equivalence, timeout/crash degradation, the
result cache, and telemetry."""

import json
import os

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignScheduler,
    CheckJob,
    ResultCache,
    Telemetry,
    cache_key,
    corpus_jobs,
    run_corpus_campaign,
)
from repro.core.checker import Kiss
from repro.drivers import DEVICE_EXTENSION, bluetooth_program, spec_by_name

RACY_SRC = """
struct EXT { int a; int b; }
void worker(EXT *e) { e->a = 1; }
void main() {
  EXT *e;
  e = malloc(EXT);
  async worker(e);
  e->a = 2;
}
"""


def job(source=RACY_SRC, target="EXT.a", **config):
    return CheckJob(job_id=f"t/{target}", driver="t", source=source, target=target,
                    config=config)


# -- job model ---------------------------------------------------------------------


def test_job_validation():
    with pytest.raises(ValueError):
        CheckJob(job_id="x", driver="d", source=RACY_SRC, prop="race", target=None)
    with pytest.raises(ValueError):
        CheckJob(job_id="x", driver="d", source=RACY_SRC, prop="frobnicate", target="g")


def test_table_verdict_mapping():
    r = CampaignScheduler().run([job()])[0]
    assert r.verdict == "error" and r.error_kind == "race"
    assert r.table_verdict == "race"
    safe = CampaignScheduler().run([job(target="EXT.b")])[0]
    assert safe.table_verdict == "no-race"
    bound = CampaignScheduler().run([job(max_states=3)])[0]
    assert bound.verdict == "resource-bound" and bound.table_verdict == "unresolved"


# -- cache keys --------------------------------------------------------------------


def test_cache_key_stable_across_formatting():
    assert cache_key(job()) == cache_key(job())
    reformatted = RACY_SRC.replace("\n", "\n\n").replace("  ", "    ")
    assert cache_key(job(source=reformatted)) == cache_key(job())


def test_cache_key_changes_with_program_edit():
    edited = RACY_SRC.replace("e->a = 2;", "e->b = 2;")
    assert cache_key(job(source=edited)) != cache_key(job())


def test_cache_key_changes_with_config_and_target():
    assert cache_key(job(max_states=7)) != cache_key(job())
    assert cache_key(job(max_ts=1)) != cache_key(job())
    assert cache_key(job(target="EXT.b")) != cache_key(job())


# -- result cache ------------------------------------------------------------------


def test_cache_roundtrip_and_warm_hits(tmp_path):
    d = str(tmp_path / "cache")
    first = CampaignScheduler(CampaignConfig(cache_dir=d)).run([job(), job(target="EXT.b")])
    assert not any(r.cache_hit for r in first)
    # a fresh scheduler reloads the JSONL store
    second = CampaignScheduler(CampaignConfig(cache_dir=d)).run([job(), job(target="EXT.b")])
    assert all(r.cache_hit for r in second)
    assert [r.verdict for r in second] == [r.verdict for r in first]
    assert [r.table_verdict for r in second] == [r.table_verdict for r in first]


def test_cache_tolerates_corrupt_lines(tmp_path):
    d = str(tmp_path / "cache")
    CampaignScheduler(CampaignConfig(cache_dir=d)).run([job()])
    cache = ResultCache(d)
    with open(cache.path, "a") as f:
        f.write("{torn wri\n")
    reloaded = ResultCache(d)
    assert len(reloaded) == 1
    assert reloaded.get(cache_key(job())) is not None


def test_cache_skips_stale_schema_entries(tmp_path):
    """Entries written before the schema tag (retroactively kiss-cache/1)
    or under any other tag must be recomputed — never trusted, never a
    crash (the key derivation changed under them)."""
    d = str(tmp_path / "cache")
    key = cache_key(job())
    fresh = CampaignScheduler(CampaignConfig(cache_dir=d)).run([job()])[0]
    stale_lines = [
        json.dumps({"key": key, "result": fresh.to_dict()}),  # pre-tag layout
        json.dumps({"schema": "kiss-cache/1", "key": key, "result": fresh.to_dict()}),
        json.dumps({"schema": 7, "key": key, "result": fresh.to_dict()}),
    ]
    stale_dir = str(tmp_path / "stale")
    os.makedirs(stale_dir)
    with open(os.path.join(stale_dir, "results.jsonl"), "w") as f:
        f.write("\n".join(stale_lines) + "\n")
    stale = ResultCache(stale_dir)
    assert len(stale) == 0
    assert stale.get(key) is None  # miss: the scheduler would recompute
    # recomputing through the stale store repopulates it under the new tag
    recomputed = CampaignScheduler(CampaignConfig(cache_dir=stale_dir)).run([job()])[0]
    assert not recomputed.cache_hit
    assert recomputed.verdict == fresh.verdict
    assert ResultCache(stale_dir).get(key) is not None


def test_disabled_cache_never_hits():
    cache = ResultCache(None)
    assert cache.get("deadbeef") is None
    assert cache.hits == 0


# -- parallel vs serial ------------------------------------------------------------


def test_parallel_matches_serial_on_corpus_subset():
    specs = [spec_by_name("tracedrv"), spec_by_name("imca"), spec_by_name("toaster/toastmon")]
    jobs = corpus_jobs(specs)
    serial = CampaignScheduler(CampaignConfig(jobs=1)).run(jobs)
    parallel = CampaignScheduler(CampaignConfig(jobs=2)).run(jobs)
    assert [(r.job_id, r.table_verdict) for r in serial] == [
        (r.job_id, r.table_verdict) for r in parallel
    ]
    # and both match the paper: imca/toastmon have exactly one racy field
    by_driver = {}
    for r in serial:
        by_driver.setdefault(r.driver, []).append(r.table_verdict)
    assert by_driver["tracedrv"].count("race") == 0
    assert by_driver["imca"].count("race") == 1
    assert by_driver["toaster/toastmon"].count("race") == 1


def test_check_races_on_struct_parallel_matches_serial():
    prog = bluetooth_program()
    serial = Kiss(max_ts=0).check_races_on_struct(prog, DEVICE_EXTENSION)
    parallel = Kiss(max_ts=0).check_races_on_struct(prog, DEVICE_EXTENSION, jobs=2)
    assert set(serial) == set(parallel)
    for f in serial:
        assert serial[f].verdict == parallel[f].verdict
        assert serial[f].error_kind == parallel[f].error_kind
    assert parallel["stoppingFlag"].is_race


# -- timeouts, retries, degradation ------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_timeout_degrades_to_resource_bound(workers):
    heavy = corpus_jobs([spec_by_name("moufiltr")], max_states=10**9)[:1]
    sched = CampaignScheduler(CampaignConfig(jobs=workers, timeout=0.05, retries=1))
    r = sched.run(heavy)[0]
    assert r.verdict == "resource-bound"
    assert r.table_verdict == "unresolved"
    assert "timeout" in r.detail
    assert r.attempts == 2  # first try + one bounded retry


def test_crash_degrades_to_resource_bound_after_retries():
    bad = CheckJob(job_id="bad", driver="bad", source="void main( {", target="X.f")
    r = CampaignScheduler(CampaignConfig(retries=1)).run([bad])[0]
    assert r.verdict == "resource-bound"
    assert r.detail.startswith("crash:")
    assert r.attempts == 2


def test_degraded_results_are_not_cached(tmp_path):
    d = str(tmp_path / "cache")
    heavy = corpus_jobs([spec_by_name("moufiltr")], max_states=10**9)[:1]
    cfg = CampaignConfig(timeout=0.05, retries=0, cache_dir=d)
    CampaignScheduler(cfg).run(heavy)
    # a re-run with headroom must try again, not replay the timeout
    r = CampaignScheduler(CampaignConfig(cache_dir=d, timeout=120)).run(
        corpus_jobs([spec_by_name("moufiltr")], max_states=300_000)[:1]
    )[0]
    assert not r.cache_hit


# -- telemetry ---------------------------------------------------------------------


def test_telemetry_stream_and_summary(tmp_path):
    path = str(tmp_path / "events.jsonl")
    cfg = CampaignConfig(cache_dir=str(tmp_path / "cache"), telemetry_path=path)
    sched = CampaignScheduler(cfg)
    results = sched.run([job(), job(target="EXT.b")])
    events = [json.loads(line) for line in open(path)]
    kinds = [e["event"] for e in events]
    assert kinds[0] == "campaign_start" and kinds[-1] == "campaign_end"
    assert kinds.count("job_start") == 2 and kinds.count("job_end") == 2
    ends = [e for e in events if e["event"] == "job_end"]
    assert {e["cache"] for e in ends} == {"miss"}
    assert events[-1]["verdicts"] == {"error": 1, "safe": 1}
    summary = sched.summary(results)
    assert "Campaign summary" in summary and "cache: skipped 0/2" in summary
    # warm re-run reports hits
    sched2 = CampaignScheduler(CampaignConfig(cache_dir=cfg.cache_dir))
    results2 = sched2.run([job(), job(target="EXT.b")])
    assert "cache: skipped 2/2 jobs (100%)" in sched2.summary(results2)


# -- edge cases --------------------------------------------------------------------


def test_cache_hit_survives_execution_option_change(tmp_path):
    """observe is an execution option, not a verdict input: flipping
    it must NOT invalidate cached results."""
    d = str(tmp_path / "cache")
    cold = CampaignScheduler(CampaignConfig(cache_dir=d)).run([job()])[0]
    assert not cold.cache_hit
    reconfigured = job(observe=True)
    assert cache_key(reconfigured) == cache_key(job())
    warm = CampaignScheduler(CampaignConfig(cache_dir=d)).run([reconfigured])[0]
    assert warm.cache_hit
    assert warm.verdict == cold.verdict


def test_cache_hit_survives_witness_option_change(tmp_path):
    """witness is an execution option like observe: flipping it must
    not fork the cache key, and a certificate captured on the cold run
    rides along in the cached entry."""
    d = str(tmp_path / "cache")
    safe = job(target="EXT.b", witness=True)  # EXT.b is the safe field
    assert cache_key(safe) == cache_key(job(target="EXT.b"))
    cold = CampaignScheduler(CampaignConfig(cache_dir=d)).run([safe])[0]
    assert not cold.cache_hit and cold.verdict == "safe"
    assert cold.witness is not None
    assert cold.witness["schema"] == "kiss-witness/1"
    # warm hit with the flag off still serves the cached result
    warm = CampaignScheduler(CampaignConfig(cache_dir=d)).run(
        [job(target="EXT.b")])[0]
    assert warm.cache_hit and warm.verdict == "safe"
    assert warm.witness == cold.witness


def test_timeout_on_first_job_of_pool_batch():
    """The very first job submitted to the pool timing out must degrade
    just that job — the rest of the batch completes normally and input
    order is preserved."""
    slow_src = """
        void main() {
          int i; int j;
          i = 0;
          while (i < 10000) {
            i = i + 1;
            j = 0;
            while (j < 10000) { j = j + 1; }
          }
        }
    """
    heavy = CheckJob(job_id="t/heavy", driver="t", source=slow_src,
                     prop="assertion", config={"max_states": 10**9})
    batch = [heavy, job(target="EXT.a"), job(target="EXT.b")]
    results = CampaignScheduler(
        CampaignConfig(jobs=2, timeout=0.5, retries=0)
    ).run(batch)
    assert [r.job_id for r in results] == [j.job_id for j in batch]
    assert results[0].verdict == "resource-bound" and "timeout" in results[0].detail
    assert results[1].verdict == "error"
    assert results[2].verdict == "safe"


def test_empty_job_matrix(tmp_path):
    path = str(tmp_path / "events.jsonl")
    sched = CampaignScheduler(CampaignConfig(telemetry_path=path))
    results = sched.run([])
    assert results == []
    kinds = [json.loads(line)["event"] for line in open(path)]
    assert kinds == ["campaign_start", "campaign_end"]
    assert "Campaign summary" in sched.summary(results)


def test_corpus_campaign_matches_check_driver():
    from repro.drivers import check_driver

    spec = spec_by_name("imca")
    direct = check_driver(spec)
    runs, results, _ = run_corpus_campaign([spec])
    assert runs[0].races == direct.races
    assert runs[0].no_races == direct.no_races
    assert runs[0].unresolved == direct.unresolved
    assert [o.field for o in runs[0].outcomes] == [o.field for o in direct.outcomes]
