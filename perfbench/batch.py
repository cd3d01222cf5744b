"""The batch workloads' shared runner: a job list through the campaign
scheduler with ``WORKERS`` pool workers, timed from outside."""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from common import WORKERS, HostSpeed, median, reap_workers, tail

#: a verdict later than this after its sweep started does not count as
#: goodput.  A run's sweep lasts about 20 s, so every verdict meets it and
#: a batch's ``goodput_per_s`` equals its ``jobs_per_s``: it would move
#: only if a sweep took three times as long.
LATENCY_LIMIT_S = 60.0


def warm_pool() -> None:
    """Fork the worker pool and run one trivial job through it."""
    from repro.campaign import CampaignConfig, CampaignScheduler, CheckJob

    job = CheckJob("warm-up", "warm-up", "void main() { }", prop="assertion")
    CampaignScheduler(CampaignConfig(jobs=WORKERS)).run([job])
    reap_workers()


def run_jobs(jobs: Sequence, cache_dir: Optional[str]
             ) -> Tuple[List, float, float, List[float]]:
    """Run ``jobs`` (no two alike) as one sweep, on ``cache_dir`` (None =
    no cache).  Returns the results in input order, the sweep's start
    and end, and when the scheduler recorded each verdict (monotonic
    times).  Every job is requested when the sweep starts, so a
    verdict's latency runs from the start to its record."""
    from repro.campaign import CampaignConfig, CampaignScheduler

    recorded: List[float] = []
    config = CampaignConfig(jobs=WORKERS, cache_dir=cache_dir)
    t0 = time.monotonic()
    results = CampaignScheduler(config).run(
        jobs, on_result=lambda r: recorded.append(time.monotonic()))
    t1 = time.monotonic()
    reap_workers()
    return results, t0, t1, recorded


def end_to_end(results: Sequence, t0: float, t1: float, recorded: Sequence[float],
               setup_s: float, peak_rss_mb: float, host: HostSpeed) -> dict:
    """The batch's metrics on the reference-speed clock; the measured
    values are printed."""
    wall = host.reference_seconds(t0, t1)
    latencies = [host.reference_seconds(t0, t) for t in recorded]
    raw = [t - t0 for t in recorded]
    tail_s, q, beyond = tail(latencies)
    print(f"latency_tail_s is p{q:g} of {len(latencies)} verdicts ({beyond} beyond it); "
          f"slowest {max(latencies):.3f} s")
    print(f"unscaled: jobs_per_s={len(results) / (t1 - t0):.6g}, "
          f"latency_p50_s={median(raw):.6g}, latency_tail_s={tail(raw)[0]:.6g}")
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(results) / wall,
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail_s,
        "goodput_per_s": sum(1 for x in latencies if x <= LATENCY_LIMIT_S) / wall,
        "peak_rss_mb": peak_rss_mb,
    }
