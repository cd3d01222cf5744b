"""High-level KISS checking API (the full Figure 1 pipeline).

``Kiss`` wraps: core lowering (if needed) → Figure 4/5 instrumentation →
sequential backend → error-trace mapping.  One call checks one property;
``check_races_on_struct`` runs the paper's per-field loop over a device
extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import cancel, obs
from repro.cfg.build import build_program_cfg
from repro.cfg.graph import ProgramCfg
from repro.lang.ast import Program
from repro.lang.lower import is_core_program, lower_program
from repro.schemas import STRATEGIES
from repro.seqcheck.explicit import SequentialChecker
from repro.seqcheck.trace import CheckResult, CheckStatus

from .race import RaceTarget, RaceTransformer
from .tracemap import ConcurrentTrace, map_trace
from .transform import TAG_CHECK, KissTransformer


@dataclass
class KissResult:
    """The outcome of one KISS run.

    ``verdict``: ``"safe"`` (no error found among the simulated
    executions — NOT a proof of correctness, per the paper's unsoundness),
    ``"error"`` (a real error: an assertion violation or a race), or
    ``"resource-bound"`` (the backend exhausted its budget).

    ``error_kind``: ``"race"`` when the failing assertion sits inside a
    ``check_r``/``check_w`` (Figure 5), ``"assertion"`` for an original
    assertion, or the backend's violation kind for memory errors.

    ``strategy``/``rounds``: which sequentialization produced the
    verdict — ``"kiss"`` (Figure 4, ``rounds`` is None) or ``"lazy"``
    (the pc-guarded K-round transform of :mod:`repro.lazy`, ``rounds``
    = K).
    """

    verdict: str
    error_kind: Optional[str] = None
    strategy: str = "kiss"
    rounds: Optional[int] = None
    target: Optional[RaceTarget] = None
    backend_result: Optional[CheckResult] = None
    transformed: Optional[Program] = None
    concurrent_trace: Optional[ConcurrentTrace] = None
    checks_emitted: int = 0
    checks_pruned: int = 0
    #: The replay verdict of ``concurrent_trace`` against the concurrent
    #: semantics (:mod:`repro.concheck.replay`) on an explicit-backend
    #: error; None for other verdicts and for CEGAR errors (no trace).
    trace_validated: Optional[bool] = None
    #: Per-phase timings and counters (the ``kiss-metrics/1`` snapshot of
    #: :mod:`repro.obs`) when ``Kiss(observe=True)``; None otherwise.
    metrics: Optional[dict] = None
    #: ``kiss-witness/1`` safety certificate (see :mod:`repro.witness`)
    #: when ``Kiss(witness=True)`` and the verdict is safe; None when the
    #: verdict is not safe or no witness could be honestly emitted.
    witness: Optional[dict] = None

    @property
    def is_error(self) -> bool:
        return self.verdict == "error"

    @property
    def is_safe(self) -> bool:
        return self.verdict == "safe"

    @property
    def exhausted(self) -> bool:
        return self.verdict == "resource-bound"

    @property
    def is_race(self) -> bool:
        return self.error_kind == "race"

    def summary(self) -> str:
        what = f" on {self.target.describe()}" if self.target else ""
        budget = f" [{self.strategy} K={self.rounds}]" if self.rounds is not None else ""
        if self.is_error:
            return f"{self.error_kind}{what}: {self.backend_result.message}{budget}"
        return f"{self.verdict}{what}{budget}"


class Kiss:
    """The KISS checker (Figure 1): instrument, then run a sequential
    backend, then map the error trace back and replay it against the
    original concurrent semantics (``KissResult.trace_validated`` — a
    per-trace check of the paper's "never reports false errors"
    guarantee).

    Parameters
    ----------
    max_ts:
        Bound on the ``ts`` multiset (the paper's coverage/cost knob).
        0 replaces every ``async`` with a synchronous call — the
        configuration the paper uses for race detection; 1 suffices for
        the Bluetooth reference-counting bug.
    max_states:
        Backend state budget; exceeding it yields ``"resource-bound"``
        (the paper's 20-minute/800 MB bound per driver/field run).
    use_alias_analysis:
        Prune race checks with the Steensgaard analysis (Section 5).
    backend:
        ``"explicit"`` (default) — the explicit-state checker, complete
        for finite data and the backend used for the driver corpus; or
        ``"cegar"`` — the SLAM-lite predicate-abstraction stack (the
        paper's actual architecture), for programs whose sequentialized
        form stays in the scalar fragment.  CEGAR divergence and
        unsupported fragments surface as ``"resource-bound"``; its error
        traces are abstract, so they are neither mapped nor replayed
        (``trace_validated`` stays None).
    observe:
        Record per-phase timings and counters for each check
        (:mod:`repro.obs`) and attach the snapshot as
        ``KissResult.metrics``.  Off by default: the instrumentation
        points then hit the no-op recorder (see
        ``benchmarks/bench_obs_overhead.py`` for the measured cost).
    witness:
        On a safe verdict, emit a ``kiss-witness/1`` safety certificate
        (:func:`repro.witness.emit.emit_witness`) and attach it as
        ``KissResult.witness``.  The certificate embeds the sequential
        program text plus an inductive invariant (the explicit backend's
        reached-set, or the cegar backend's final abstraction) and can
        be re-checked by the standalone validator
        (``python -m repro.witness.validate``) with no trust in this
        checker.  Emission re-runs the backend on the canonical reparse
        of the transformed program, so it roughly doubles the cost of a
        safe check; it never changes the verdict.
    strategy:
        Which sequentialization to use for assertion checking:
        ``"kiss"`` (default, Figure 4) or ``"lazy"`` (the pc-guarded
        K-round round-robin transform of :mod:`repro.lazy`; see
        ``docs/SEQUENTIALIZATION.md``).  Race checking (Figure 5) is
        KISS-only.
    rounds:
        The round budget K for ``strategy="lazy"`` (ignored for
        ``"kiss"``).  K=2 subsumes KISS's coverage for two
        threads.
    por:
        Opt-in shared-access partial-order reduction
        (:mod:`repro.analysis.sharedaccess`): schedule/switch points in
        front of purely thread-local statements are pruned (counted by
        the ``por_schedule_points_pruned`` obs counter).  Verdicts are
        unaffected; the sequential state space shrinks.
    cs_tile:
        ``strategy="lazy"`` only: restrict context-switch points to the
        given ``"<instance>:<pc>"`` list — one tile of a swarm campaign
        (see :mod:`repro.campaign.swarm`).  Coverage-only: a tile's
        verdict is sound but bounded by its enabled points.
    """

    def __init__(
        self,
        max_ts: int = 0,
        max_states: int = 500_000,
        use_alias_analysis: bool = True,
        backend: str = "explicit",
        cegar_rounds: int = 16,
        observe: bool = False,
        strategy: str = "kiss",
        rounds: int = 2,
        witness: bool = False,
        por: bool = False,
        cs_tile: Optional[List[str]] = None,
    ):
        if backend not in ("explicit", "cegar"):
            raise ValueError(f"unknown backend {backend!r}")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if cs_tile is not None and strategy != "lazy":
            raise ValueError("cs_tile requires strategy='lazy'")
        self.strategy = strategy
        self.rounds = rounds
        self.por = por
        self.cs_tile = list(cs_tile) if cs_tile is not None else None
        self.max_ts = max_ts
        self.max_states = max_states
        self.use_alias_analysis = use_alias_analysis
        self.backend = backend
        self.cegar_rounds = cegar_rounds
        #: record per-phase timings and counters (:mod:`repro.obs`) and
        #: attach the snapshot as ``KissResult.metrics``
        self.observe = observe
        #: emit a ``kiss-witness/1`` certificate on safe verdicts
        self.witness = witness

    # -- pipeline pieces --------------------------------------------------------

    def _as_core(self, prog: Program) -> Program:
        if is_core_program(prog):
            return prog
        with obs.span("lower"):
            return lower_program(prog)

    def _transformer(self) -> KissTransformer:
        """The assertion-checking transformer for the configured strategy."""
        if self.strategy == "lazy":
            from repro.lazy import LazyTransformer

            return LazyTransformer(
                rounds=self.rounds, max_ts=self.max_ts, por=self.por, cs_tile=self.cs_tile
            )
        return KissTransformer(max_ts=self.max_ts, por=self.por)

    def sequentialize(self, prog: Program) -> Program:
        """The sequentialization only (Figure 4 or the K-round
        transform, per ``strategy``): the sequential program, for
        inspection."""
        return self._transformer().transform(self._as_core(prog))

    def sequentialize_for_race(self, prog: Program, target: RaceTarget) -> Program:
        """Figure 5 only: the race-instrumented sequential program."""
        t = RaceTransformer(target, max_ts=self.max_ts, use_alias_analysis=self.use_alias_analysis)
        return t.transform(self._as_core(prog))

    def _run_backend(self, transformed: Program) -> (CheckResult, ProgramCfg):
        with obs.span("cfg"):
            pcfg = build_program_cfg(transformed)
        if self.backend == "cegar":
            return self._run_cegar(transformed), pcfg
        checker = SequentialChecker(pcfg, max_states=self.max_states)
        return checker.check(), pcfg

    def _run_cegar(self, transformed: Program) -> CheckResult:
        from repro.seqcheck.cegar import CegarChecker

        r = CegarChecker(transformed, max_rounds=self.cegar_rounds).check()
        if r.status == "safe":
            return CheckResult(CheckStatus.SAFE, message=f"CEGAR: {r.rounds} rounds")
        if r.status == "error":
            return CheckResult(
                CheckStatus.ERROR,
                violation_kind="assert",
                message=f"CEGAR: error after {r.rounds} rounds ({r.predicates} predicates)",
            )
        return CheckResult(CheckStatus.EXHAUSTED, message=f"CEGAR {r.status}: {r.message}")

    def _classify(self, result: CheckResult, pcfg: ProgramCfg) -> Optional[str]:
        if not result.is_error:
            return None
        last = result.trace[-1] if result.trace else None
        if last is not None:
            node = pcfg.cfg(last.func).node(last.node_id)
            if node.origin.tag == TAG_CHECK:
                return "race"
        if result.violation_kind == "assert":
            return "assertion"
        return result.violation_kind

    def _map_and_replay(
        self,
        result: CheckResult,
        pcfg: ProgramCfg,
        core: Program,
        error_kind: Optional[str],
        target: Optional[RaceTarget],
    ) -> Tuple[Optional[ConcurrentTrace], bool]:
        """Map an explicit error trace back to P and replay it there:
        races must be feasible, assertion traces must end in the failing
        assertion.  A trace that cannot be mapped or replayed is a
        pipeline bug, not a verdict change: it reports ``False``, as does
        a replay cut short by a worker's deadline or memory ceiling."""
        from repro.concheck.replay import replay_trace
        from repro.lazy.tracemap import map_trace as lazy_map_trace

        mapper = lazy_map_trace if target is None and self.strategy == "lazy" else map_trace
        expect = "feasible" if error_kind == "race" else "error"
        ctrace = None
        try:
            with obs.span("trace-map"):
                ctrace = mapper(pcfg, result.trace)
            with obs.span("trace-replay"):
                return ctrace, replay_trace(core, ctrace, expect=expect).ok
        except Exception:
            return ctrace, False

    def _finish(
        self,
        result: CheckResult,
        pcfg: ProgramCfg,
        transformed: Program,
        core: Program,
        target: Optional[RaceTarget] = None,
        transformer: Optional[KissTransformer] = None,
    ) -> KissResult:
        verdict = {
            CheckStatus.SAFE: "safe",
            CheckStatus.ERROR: "error",
            CheckStatus.EXHAUSTED: "resource-bound",
        }[result.status]
        error_kind = self._classify(result, pcfg)
        ctrace = None
        validated: Optional[bool] = None
        if result.is_error and self.backend == "explicit":
            ctrace, validated = self._map_and_replay(result, pcfg, core, error_kind, target)
        witness: Optional[dict] = None
        if self.witness and verdict == "safe":
            from repro.witness.emit import emit_witness

            strategy = self.strategy if target is None else "kiss"
            with obs.span("witness-emit"):
                witness = emit_witness(
                    transformed,
                    backend=self.backend,
                    strategy=strategy,
                    rounds=self.rounds if strategy == "lazy" else None,
                    max_states=self.max_states,
                    cegar_rounds=self.cegar_rounds,
                    target=target.describe() if target is not None else None,
                )
        return KissResult(
            verdict=verdict,
            error_kind=error_kind,
            strategy=self.strategy if target is None else "kiss",
            rounds=self.rounds if self.strategy == "lazy" and target is None else None,
            target=target,
            backend_result=result,
            transformed=transformed,
            concurrent_trace=ctrace,
            checks_emitted=getattr(transformer, "checks_emitted", 0),
            checks_pruned=getattr(transformer, "checks_pruned", 0),
            trace_validated=validated,
            witness=witness,
        )

    # -- public checks --------------------------------------------------------------

    def check_assertions(self, prog: Program) -> KissResult:
        """Check the program's own assertions (sequentialize + backend)."""
        recorder, ctx = obs.maybe_observing(self.observe)
        with ctx, obs.span(
            "check", prop="assertion", backend=self.backend, strategy=self.strategy
        ):
            core = self._as_core(prog)
            transformed = self._transformer().transform(core)
            result, pcfg = self._run_backend(transformed)
            out = self._finish(result, pcfg, transformed, core=core)
        if self.observe and recorder is not None:
            out.metrics = recorder.metrics()
        return out

    def check_transformed(self, core: Program, transformed: Program) -> KissResult:
        """Backend, trace mapping and replay on an already-sequentialized
        program (``core`` is its concurrent original, for the replay).
        :func:`sweep_ts` uses this to skip redundant re-checks when
        consecutive bounds transform to the identical program."""
        recorder, ctx = obs.maybe_observing(self.observe)
        with ctx, obs.span(
            "check", prop="assertion", backend=self.backend, strategy=self.strategy
        ):
            result, pcfg = self._run_backend(transformed)
            out = self._finish(result, pcfg, transformed, core=core)
        if self.observe and recorder is not None:
            out.metrics = recorder.metrics()
        return out

    def check_race(self, prog: Program, target: RaceTarget) -> KissResult:
        """Check for races on one location (Figure 5 + backend)."""
        if self.strategy != "kiss":
            raise ValueError("race checking is KISS-only (Figure 5 instrumentation)")
        recorder, ctx = obs.maybe_observing(self.observe)
        with ctx, obs.span(
            "check", prop="race", backend=self.backend, target=target.describe()
        ):
            core = self._as_core(prog)
            transformer = RaceTransformer(
                target, max_ts=self.max_ts, use_alias_analysis=self.use_alias_analysis
            )
            transformed = transformer.transform(core)
            result, pcfg = self._run_backend(transformed)
            out = self._finish(
                result, pcfg, transformed, core=core, target=target, transformer=transformer
            )
        if self.observe and recorder is not None:
            out.metrics = recorder.metrics()
        return out

    def check_races_on_struct(
        self,
        prog: Program,
        struct_name: str,
        jobs: int = 1,
        timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
    ) -> Dict[str, KissResult]:
        """The paper's per-field loop: one run per field of ``struct_name``
        (the device extension).  Returns ``{field: result}``.

        Delegates to the campaign engine (:mod:`repro.campaign`):
        ``jobs`` > 1 fans the fields out over worker processes,
        ``timeout`` bounds each field's wall clock (a diverging field
        degrades to ``"resource-bound"`` instead of hanging the loop),
        and ``cache_dir`` enables the content-addressed result cache.
        With the defaults everything runs in-process and results keep
        their traces; results that cross a process or cache boundary
        are slimmed to verdict, stats and replay verdict.
        """
        from repro.campaign import CampaignConfig, CampaignScheduler, CheckJob
        from repro.lang.pretty import pretty_program

        core = self._as_core(prog)
        struct = core.struct(struct_name)
        source = pretty_program(core)
        config = {
            "max_ts": self.max_ts,
            "max_states": self.max_states,
            "use_alias_analysis": self.use_alias_analysis,
            "backend": self.backend,
            "cegar_rounds": self.cegar_rounds,
            "por": False,  # the race instrumentation never prunes switch points
            "observe": self.observe,
            "witness": self.witness,
        }
        batch = [
            CheckJob(
                job_id=f"{struct_name}.{fname}",
                driver=struct_name,
                source=source,
                prop="race",
                target=f"{struct_name}.{fname}",
                config=config,
            )
            for fname in struct.fields
        ]
        scheduler = CampaignScheduler(
            CampaignConfig(jobs=jobs, timeout=timeout, cache_dir=cache_dir)
        )
        results = scheduler.run(batch)
        out: Dict[str, KissResult] = {}
        for fname, jr in zip(struct.fields, results):
            rich = scheduler.rich_results.get(jr.job_id)
            out[fname] = rich if rich is not None else jr.as_kiss_result()
        return out


def sweep_ts(
    prog: Program,
    max_bound: int = 3,
    stop_on_error: bool = True,
    **kiss_kwargs,
) -> List["KissResult"]:
    """The paper's §2 usage pattern: "start KISS with a small size for ts
    and then increase it as permitted by the computational resources".

    Runs assertion checking at ts bounds 0..max_bound, returning one
    result per bound (stopping early at the first error by default).

    Consecutive bounds often sequentialize to the *identical* program —
    most obviously when the program has fewer ``async`` statements than
    slots — so each transformed program is hashed and a repeat skips
    the backend, reusing the previous bound's result (counted by the
    ``bound_sweep_skips`` obs counter).
    """
    import hashlib
    from dataclasses import replace

    from repro.lang.pretty import pretty_program

    results: List[KissResult] = []
    core: Optional[Program] = None
    prev_hash: Optional[str] = None
    prev: Optional[KissResult] = None
    for bound in range(max_bound + 1):
        cancel.poll()
        kiss = Kiss(max_ts=bound, **kiss_kwargs)
        if core is None:
            core = kiss._as_core(prog)
        transformed = kiss._transformer().transform(core)
        digest = hashlib.sha256(pretty_program(transformed).encode()).hexdigest()
        if prev is not None and digest == prev_hash:
            obs.inc("bound_sweep_skips")
            r = replace(prev)
        else:
            r = kiss.check_transformed(core, transformed)
            prev_hash = digest
        prev = r
        results.append(r)
        if stop_on_error and r.is_error:
            break
    return results
