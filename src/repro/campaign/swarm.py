"""Swarm-tiled lazy campaigns: one program, N schedule tiles.

The lazy sequentialization (:mod:`repro.lazy`) makes the schedule space
explicit: every candidate context-switch point is a ``"t:pc"`` name, and
``Kiss(strategy="lazy", cs_tile=[...])`` checks exactly the executions
whose constrained segment ends stay inside the tile.  A *swarm* run
exploits that: expand one program into N ordinary assertion
:class:`~repro.campaign.jobs.CheckJob`\\ s, each enabling a subset of the
switch points, and let the existing campaign engine do the rest —
parallel workers, the content-addressed cache (each tile keys on its own
``cs_tile``), per-job timeouts, fault injection, graceful interrupts.

**Tiling.**  The candidate points are shuffled with a seeded RNG and
dealt round-robin into N *classes*; tile *i* enables everything
**except** class *i* (``plan_tiles``).  The same ``(source, tiles,
rounds, seed)`` always yields the same tiles, so an interrupted swarm
re-run resumes from the cache.

**Coverage.**  A K-round lazy execution over T thread instances ends at
most ``(K-1) * T`` segments at a *constrained* switch point (final-round
segments and blocked instances are never constrained).  Each used point
lives in exactly one class, so whenever ``N > (K-1) * T`` the execution
misses at least one class entirely — and the tile complementing that
class admits it.  Under that bound the tile union covers exactly the
monolithic lazy schedule set (``TilePlan.exhaustive``); with fewer tiles
the union still covers every schedule that avoids some class, but a
``"safe"`` verdict only certifies the tiled schedule set.

**Aggregation** (:func:`aggregate`): any tile error is definitive, and
it arrives with the witnessing tile's own mapped trace and replay
verdict (every error result carries both), so the swarm error comes
with the same replay-validated trace a monolithic run would produce.
All tiles safe is *safe at the tiling bound* (and at the round bound K,
like any lazy verdict).  Otherwise the swarm is ``"resource-bound"`` — a
cancelled tile counts as inconclusive exactly like a resource-bound one
(tiles only restrict schedules, so skipping one never invents an error).

**First-error cancellation** (``run_swarm_campaign(first_error=True)``,
CLI ``--first-error``): the moment any tile reports an error, the
remaining sibling tiles are cooperatively cancelled through the
runtime (:meth:`~repro.campaign.scheduler.CampaignScheduler.request_cancel`)
— the error is already definitive, so their wall time is pure waste.
Cancelled siblings appear as ``cancelled`` results (and
``cancelled`` journal/telemetry records) in the report.  Off by
default: an exhaustive swarm's ``safe`` verdict needs every tile.

CLI: ``python -m repro campaign --swarm FILE.kp --tiles 8``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.lang import parse
from repro.lang.lower import is_core_program, lower_program
from repro.lazy import LazyTransformer

from .jobs import CheckJob, JobResult
from .runtime import CampaignConfig
from .scheduler import CampaignScheduler


@dataclass(frozen=True)
class TilePlan:
    """A deterministic tiling of one program's switch-point space."""

    rounds: int
    seed: int
    #: every candidate ``"t:pc"`` switch point of the lazy encoding.
    cs_points: List[str]
    #: static thread instances in the encoding (T in the coverage bound).
    instances: int
    #: one enabled-point list per tile, each sorted.
    tiles: List[List[str]]
    #: True when the union of tiles equals the monolithic lazy schedule
    #: set: either ``len(tiles) > (rounds - 1) * instances`` (pigeonhole)
    #: or a monolithic catch-all tile is present.
    exhaustive: bool


def plan_tiles(
    source: str, tiles: int = 8, rounds: int = 3, seed: int = 0
) -> TilePlan:
    """Enumerate the program's switch points and deal them into tiles.

    Runs the lazy transform once (discarding the output program) to get
    the candidate point list, shuffles it with ``random.Random(seed)``,
    deals round-robin into ``tiles`` classes, and complements: tile *i*
    enables every point outside class *i*.  ``tiles <= 1`` degenerates
    to one monolithic tile with every point enabled.

    When the point space is too small to reach the pigeonhole bound
    (fewer points than ``(rounds - 1) * instances`` classes can be cut)
    but the requested tile budget still has room, a monolithic
    catch-all tile is appended, so small programs get an exhaustive
    swarm instead of a silently weaker one.
    """
    prog = parse(source)
    if not is_core_program(prog):
        prog = lower_program(prog)
    lt = LazyTransformer(rounds=rounds)
    lt.transform(prog)
    points = list(lt.cs_points)
    n_instances = len(lt.instances)
    full = sorted(points)
    if tiles <= 1 or len(points) < 2:
        plan_tiles_list = [full]
    else:
        n = min(tiles, len(points))
        shuffled = points[:]
        random.Random(seed).shuffle(shuffled)
        classes = [shuffled[i::n] for i in range(n)]
        plan_tiles_list = [sorted(set(points) - set(c)) for c in classes]
        if n <= (rounds - 1) * n_instances and len(plan_tiles_list) < tiles:
            plan_tiles_list.append(full)
    return TilePlan(
        rounds=rounds,
        seed=seed,
        cs_points=full,
        instances=n_instances,
        tiles=plan_tiles_list,
        exhaustive=(
            len(plan_tiles_list) > (rounds - 1) * n_instances
            or full in plan_tiles_list
        ),
    )


def swarm_jobs(
    source: str,
    plan: TilePlan,
    max_states: int = 300_000,
    por: bool = False,
    name: str = "swarm",
) -> List[CheckJob]:
    """One ordinary assertion job per tile.  Each job's ``cs_tile`` is
    part of its cache key, so tiles hit and miss independently."""
    return [
        CheckJob(
            job_id=f"{name}/tile{i:02d}",
            driver=name,
            source=source,
            prop="assertion",
            config={
                "strategy": "lazy",
                "rounds": plan.rounds,
                "por": por,
                "cs_tile": tile,
                "max_states": max_states,
            },
        )
        for i, tile in enumerate(plan.tiles)
    ]


@dataclass
class SwarmReport:
    """The aggregated outcome of one swarm run."""

    verdict: str  # "error" | "safe" | "resource-bound"
    plan: TilePlan
    results: List[JobResult] = field(default_factory=list)
    #: index of the winning tile on an error verdict.
    witness_tile: Optional[int] = None
    #: the witnessing tile's formatted concurrent trace and its replay
    #: verdict (both from that tile's :class:`JobResult`).
    trace: Optional[str] = None
    trace_validated: Optional[bool] = None
    interrupted: Optional[str] = None

    @property
    def is_error(self) -> bool:
        return self.verdict == "error"

    def summary(self) -> str:
        n = len(self.plan.tiles)
        scope = "exhaustive at K" if self.plan.exhaustive else "tiled subset"
        head = (
            f"swarm: {n} tiles over {len(self.plan.cs_points)} switch points "
            f"(K={self.plan.rounds}, seed {self.plan.seed}, {scope})"
        )
        counts = {}
        for r in self.results:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        tally = ", ".join(f"{v}: {counts[v]}" for v in sorted(counts))
        lines = [head, f"tiles: {tally}"]
        if self.verdict == "error":
            lines.append(
                f"verdict: error (witness tile {self.witness_tile}, trace "
                f"{'replay-validated' if self.trace_validated else 'not validated'})"
            )
            if self.trace:
                lines.append(self.trace)
        elif self.verdict == "safe":
            bound = "schedule-exhaustive" if self.plan.exhaustive else "tiling-bounded"
            lines.append(f"verdict: safe at the {bound} K={self.plan.rounds} bound")
        else:
            lines.append("verdict: resource-bound (some tile inconclusive, none erred)")
        return "\n".join(lines)


def aggregate(source: str, plan: TilePlan, results: Sequence[JobResult]) -> SwarmReport:
    """Fold the tile results into one swarm verdict (``source`` is unread;
    ``perfbench/layers.py`` reads ``results`` as the third argument).

    Any tile error wins (an error inside a tile is an error of the full
    schedule set — tiles only *restrict* schedules, never invent them);
    the lowest-indexed erring tile is the witness, and its result's
    replayed trace becomes the report's.  All safe ⇒ safe at the tiling
    bound; any leftover ``resource-bound`` or ``cancelled`` tile makes
    the swarm inconclusive (a first-error run's cancelled siblings never
    dilute the error verdict — the error branch wins first).
    """
    report = SwarmReport(verdict="safe", plan=plan, results=list(results))
    erring = [i for i, r in enumerate(results) if r.verdict == "error"]
    if erring:
        witness = results[erring[0]]
        report.verdict = "error"
        report.witness_tile = erring[0]
        report.trace = witness.trace
        report.trace_validated = witness.trace_validated
        return report
    if any(r.verdict in ("resource-bound", "cancelled") for r in results):
        report.verdict = "resource-bound"
    return report


def run_swarm_campaign(
    source: str,
    tiles: int = 8,
    rounds: int = 3,
    seed: int = 0,
    por: bool = False,
    max_states: int = 300_000,
    campaign_config: Optional[CampaignConfig] = None,
    name: str = "swarm",
    first_error: bool = False,
) -> SwarmReport:
    """Plan, run, and aggregate one swarm campaign.  The scheduler is the
    ordinary batch frontend, so caching, timeouts, chaos injection, and
    graceful SIGINT draining all behave exactly as in a corpus run — an
    interrupted swarm resumes from the cache on the next invocation.

    ``first_error=True`` cancels the sibling tiles through the runtime
    the moment any tile errs (the error is definitive; see module doc).
    """
    plan = plan_tiles(source, tiles=tiles, rounds=rounds, seed=seed)
    jobs = swarm_jobs(source, plan, max_states=max_states, por=por, name=name)
    scheduler = CampaignScheduler(campaign_config or CampaignConfig())

    def on_result(result: JobResult) -> None:
        if first_error and result.verdict == "error":
            scheduler.request_cancel("first-error")

    results = scheduler.run(jobs, on_result=on_result)
    report = aggregate(source, plan, results)
    report.interrupted = scheduler.interrupted
    return report
