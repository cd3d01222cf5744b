"""Swarm-tiled lazy campaigns: the tiling is deterministic and a true
partition complement, the union of an exhaustive tiling reproduces the
monolithic lazy verdict on every corpus program, aggregation follows the
error-wins / safe-at-bound rules, and an interrupted swarm resumes from
the cache exactly where it stopped."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignScheduler,
    JobResult,
    SwarmReport,
    TilePlan,
    aggregate,
    cache_key,
    plan_tiles,
    run_swarm_campaign,
    swarm_jobs,
)
from repro.core.checker import Kiss
from repro.faults import FaultPlan, FaultRule
from repro.lang import parse

CORPUS = Path(__file__).parent / "fuzz_corpus"
MANIFEST = {
    e["file"]: e
    for e in json.loads((CORPUS / "manifest.json").read_text())["programs"]
}

THREE_SWITCH = (CORPUS / "three-switch.kp").read_text()

#: the monolithic lazy K=3 verdicts pinned by tests/test_lazy.py.
LAZY_K3 = {
    "two-forks-error.kp": "error",
    "safe-locked.kp": "safe",
    "loop-safe.kp": "safe",
    "error-locked.kp": "error",
    "delayed-worker.kp": "error",
    "three-switch.kp": "error",
    "increment-chain.kp": "error",
}


def result(i, verdict, detail=""):
    return JobResult(job_id=f"swarm/tile{i:02d}", driver="swarm",
                     prop="assertion", target=None, verdict=verdict,
                     detail=detail)


# -- the tiling --------------------------------------------------------------------


def test_tiling_is_deterministic_per_seed():
    a = plan_tiles(THREE_SWITCH, tiles=8, rounds=3, seed=0)
    b = plan_tiles(THREE_SWITCH, tiles=8, rounds=3, seed=0)
    assert a == b  # byte-identical plan, so tile jobs re-hit the cache
    c = plan_tiles(THREE_SWITCH, tiles=8, rounds=3, seed=1)
    assert c.tiles != a.tiles, "a different seed deals different classes"
    assert c.cs_points == a.cs_points  # ...over the same point space


def test_tiles_complement_a_partition():
    """Tile i is everything except class i: each point is missing from
    exactly one tile, and tile ∪ missing-class == the full point set."""
    plan = plan_tiles(THREE_SWITCH, tiles=8, rounds=3, seed=0)
    points = set(plan.cs_points)
    assert len(plan.tiles) == 8 <= len(points)
    for tile in plan.tiles:
        assert set(tile) < points  # a strict subset: its class is absent
    for p in points:
        assert sum(1 for tile in plan.tiles if p not in tile) == 1


def test_exhaustive_flag_tracks_the_pigeonhole_bound():
    # three-switch: T=2 instances, so (K-1)*T = 4 at K=3
    assert plan_tiles(THREE_SWITCH, tiles=8, rounds=3).exhaustive
    assert not plan_tiles(THREE_SWITCH, tiles=4, rounds=3).exhaustive
    assert plan_tiles(THREE_SWITCH, tiles=4, rounds=3).instances == 2


def test_tiny_point_space_degenerates_to_one_monolithic_tile():
    plan = plan_tiles("int x; void main() { x = 1; }", tiles=8, rounds=3)
    assert len(plan.tiles) == 1 and plan.tiles[0] == plan.cs_points


def test_tiles_le_one_degenerates_to_one_monolithic_tile():
    plan = plan_tiles(THREE_SWITCH, tiles=1, rounds=3)
    assert len(plan.tiles) == 1 and plan.tiles[0] == plan.cs_points


# -- aggregation rules -------------------------------------------------------------


def plan_of(n):
    return TilePlan(rounds=3, seed=0, cs_points=["0:1", "0:2", "1:1"],
                    instances=2, tiles=[["0:1"]] * n, exhaustive=False)


def test_aggregate_error_wins_and_lowest_tile_is_the_witness():
    rs = [result(0, "safe"), result(1, "error"), result(2, "error")]
    rep = aggregate(THREE_SWITCH, plan_of(3), rs)
    assert rep.verdict == "error" and rep.witness_tile == 1
    assert rep.is_error and "witness tile 1" in rep.summary()


def test_aggregate_error_beats_resource_bound():
    rs = [result(0, "resource-bound", "timeout: 1s"), result(1, "error")]
    rep = aggregate(THREE_SWITCH, plan_of(2), rs)
    assert rep.verdict == "error" and rep.witness_tile == 1


def test_aggregate_all_safe_is_safe_at_the_tiling_bound():
    rep = aggregate(THREE_SWITCH, plan_of(2),
                    [result(0, "safe"), result(1, "safe")])
    assert rep.verdict == "safe" and not rep.is_error
    assert "tiling-bounded" in rep.summary()


def test_aggregate_leftover_resource_bound_is_inconclusive():
    rs = [result(0, "safe"), result(1, "resource-bound", "interrupted: SIGINT")]
    rep = aggregate(THREE_SWITCH, plan_of(2), rs)
    assert rep.verdict == "resource-bound"
    assert "inconclusive" in rep.summary()


def test_swarm_jobs_key_on_their_tile():
    plan = plan_tiles(THREE_SWITCH, tiles=8, rounds=3)
    jobs = swarm_jobs(THREE_SWITCH, plan)
    assert [j.job_id for j in jobs] == [f"swarm/tile{i:02d}" for i in range(8)]
    assert all(j.prop == "assertion" for j in jobs)
    assert len({cache_key(j) for j in jobs}) == len(jobs)


# -- the union-of-tiles differential: swarm == monolithic lazy ---------------------


@pytest.mark.parametrize("name", sorted(LAZY_K3))
def test_exhaustive_swarm_matches_monolithic_lazy(name):
    """8 tiles > (K-1)*T for every corpus program, so the tile union is
    the whole lazy schedule set and the swarm verdict must equal the
    monolithic ``Kiss(strategy="lazy", rounds=3)`` one — with the same
    replay-validated trace quality on errors."""
    source = (CORPUS / name).read_text()
    plan = plan_tiles(source, tiles=8, rounds=3, seed=0)
    assert plan.exhaustive, name
    report = run_swarm_campaign(source, tiles=8, rounds=3, seed=0)
    assert report.verdict == LAZY_K3[name], f"{name}: {report.summary()}"
    if report.is_error:
        assert report.trace_validated is True, name
        assert report.trace, "the witnessing tile must yield a concrete trace"
    else:
        assert "schedule-exhaustive" in report.summary()


def test_sparse_tiling_only_weakens_safely():
    """Fewer tiles than the bound can only *lose* schedules: a sparse
    swarm may miss the three-switch error, but each erring tile it does
    find is a genuine error of the full program."""
    report = run_swarm_campaign(THREE_SWITCH, tiles=2, rounds=3, seed=0)
    assert report.verdict in ("safe", "error"), report.summary()
    if report.is_error:
        assert report.trace_validated is True
    tile = plan_tiles(THREE_SWITCH, tiles=2, rounds=3, seed=0).tiles[0]
    r = Kiss(strategy="lazy", rounds=3, cs_tile=tile).check_assertions(parse(THREE_SWITCH))
    if r.is_error:
        assert r.trace_validated is True


# -- SIGINT mid-swarm: graceful drain and cache resume -----------------------------


def test_interrupted_swarm_resumes_from_cache(tmp_path):
    """Interrupt a paced swarm mid-run, then re-run on the same cache:
    every tile the first run completed is a hit, and the resumed swarm
    still reaches the monolithic verdict with a validated trace."""
    d = str(tmp_path / "c")
    pace = FaultPlan([FaultRule("mid_check", "hang", seconds=0.05)])
    cfg = CampaignConfig(jobs=1, cache_dir=d, fault_plan=pace)
    timer = threading.Timer(0.18, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    try:
        first = run_swarm_campaign(THREE_SWITCH, tiles=12, rounds=3, seed=0,
                                   campaign_config=cfg)
    finally:
        timer.cancel()
    assert first.interrupted == "SIGINT", "the signal must land mid-swarm"
    done = [r for r in first.results
            if not r.detail.startswith("interrupted")]
    skipped = [r for r in first.results
               if r.detail.startswith("interrupted")]
    assert done and skipped, "the interrupt should split the tile batch"

    second = run_swarm_campaign(THREE_SWITCH, tiles=12, rounds=3, seed=0,
                                campaign_config=CampaignConfig(jobs=1, cache_dir=d))
    assert second.interrupted is None
    hits = sum(1 for r in second.results if r.cache_hit)
    assert hits == len(done), "every completed tile must resume from cache"
    assert second.verdict == "error" and second.trace_validated is True


@pytest.mark.slow
def test_cli_swarm_sigint_resumes_with_cache_hits(tmp_path):
    """The CLI acceptance smoke: SIGINT `repro campaign --swarm` mid-run
    -> exit 130; the re-run resumes >= 90% of the cached tiles and ends
    with the swarm error verdict (exit 1) and a replay-validated trace."""
    cache_dir = str(tmp_path / "cache")
    prog = str(tmp_path / "p.kp")
    Path(prog).write_text(THREE_SWITCH)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)

    def swarm(extra=()):
        return [sys.executable, "-m", "repro", "campaign", "--swarm", prog,
                "--tiles", "12", "--jobs", "1", "--cache-dir", cache_dir,
                *extra]

    proc = subprocess.Popen(swarm(["--inject", "mid_check:hang:seconds=0.1"]),
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    cache_file = os.path.join(cache_dir, "results.jsonl")
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:  # wait for >= 2 completed tiles
        if os.path.exists(cache_file) and sum(1 for _ in open(cache_file)) >= 2:
            break
        if proc.poll() is not None:
            pytest.fail(f"swarm finished before the interrupt: {proc.communicate()}")
        time.sleep(0.02)
    proc.send_signal(signal.SIGINT)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 130, stderr
    assert "re-run to resume" in stderr
    cached = sum(1 for _ in open(cache_file))
    assert cached >= 2

    done = subprocess.run(swarm(), env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 1, done.stderr  # the three-switch error
    assert "replay-validated" in done.stdout

    # the CLI shares cache keys with the library: a third, in-process
    # resume must hit every tile the interrupted CLI run persisted
    third = run_swarm_campaign(
        THREE_SWITCH, tiles=12, rounds=3, seed=0,
        campaign_config=CampaignConfig(jobs=1, cache_dir=cache_dir))
    hits = sum(1 for r in third.results if r.cache_hit)
    assert hits >= max(1, int(0.9 * cached)), (hits, cached)
    assert third.verdict == "error" and third.trace_validated is True


# -- the scheduler path: swarm jobs are ordinary jobs ------------------------------


def test_swarm_jobs_ride_the_ordinary_scheduler(tmp_path):
    plan = plan_tiles(THREE_SWITCH, tiles=4, rounds=2, seed=0)
    jobs = swarm_jobs(THREE_SWITCH, plan)
    sched = CampaignScheduler(CampaignConfig(cache_dir=str(tmp_path / "c")))
    results = sched.run(jobs)
    assert [r.job_id for r in results] == [j.job_id for j in jobs]
    rep = aggregate(THREE_SWITCH, plan, results)
    assert isinstance(rep, SwarmReport)
    assert rep.verdict == "safe", "K=2 cannot reach the 3-switch error"
    again = CampaignScheduler(CampaignConfig(cache_dir=str(tmp_path / "c")))
    assert all(r.cache_hit for r in again.run(jobs))
