"""The differential oracle: balanced concurrent checking vs the KISS pipeline.

Theorem 1 states that ``Check(P)`` (the Figure 4 sequentialization with
an unbounded ``ts``) goes wrong iff some *balanced* execution of ``P``
goes wrong.  For the generator's fragment (forks only at the top level
of ``main``, each worker spawned once) a ``ts`` bound equal to the fork
count is effectively unbounded, so the two sides of the theorem are both
executable here:

* the **concurrent side**: :func:`repro.concheck.check_concurrent` with
  ``balanced_only=True`` — the explicit interleaving checker pruned to
  the stack-discipline executions of §4.1;
* the **sequential side**: Figure 4 instrumentation followed by the
  explicit sequential backend (the same pipeline as
  :class:`repro.core.checker.Kiss`, with an injection point for the
  transformer so mutation tests can plant bugs).

A verdict *divergence* is a correctness bug in the repo:

* sequential ``error`` with concurrent ``safe`` breaks "KISS never
  reports false errors" (the paper's unsoundness goes the other way);
* concurrent ``error`` with sequential ``safe`` breaks the Theorem 1
  coverage guarantee (every balanced execution is simulated).

Runs where either side exhausts its state budget are *inconclusive*,
not divergences — the theorem only speaks about fully explored spaces.

An optional race mode additionally runs the Figure 5 race pipeline on
the program's distinguished race location and replays any reported race
trace against the concurrent semantics (the per-trace "never reports
false errors" check of :mod:`repro.concheck.replay`).

An optional witness mode (``witness=True``) adds a third cross-check on
the *safe* side: every conclusive safe agreement must come with a
``kiss-witness/1`` certificate that the independent validator certifies
(:mod:`repro.witness`).  A refuted certificate is the
:data:`UNCERTIFIED` divergence.

``strategy="lazy"`` cross-checks the pc-guarded K-round
sequentialization (:mod:`repro.lazy`) instead.  It has no balanced
analogue of Theorem 1, so the concurrent side explores *all*
interleavings; a concurrent error the lazy pipeline misses is then a
*coverage gap* of the K-round schedule bound (K too small) — recorded
but **not** a divergence.  A lazy error without any concurrent witness
still is (:data:`UNSOUND`): every execution of the lazy program is a
real round-robin execution.

In KISS mode, every :data:`INCOMPLETE` divergence is additionally
probed with the lazy transform at ``K = 3``: Figure 4 covers two
context switches, so a balanced error that KISS misses but three rounds
catch localizes the miss to the context-switch budget rather than a
pipeline bug (``closed_by_rounds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro import obs
from repro.cfg.build import build_program_cfg
from repro.concheck import check_concurrent
from repro.core.race import RaceTarget
from repro.core.transform import KissTransformer
from repro.lazy import LazyTransformer
from repro.schemas import STRATEGIES
from repro.lang import parse, parse_core
from repro.lang.ast import Program
from repro.lang.lower import clone_program, is_core_program, lower_program
from repro.seqcheck.explicit import SequentialChecker
from repro.seqcheck.trace import CheckStatus

#: A transformer factory: ``max_ts -> KissTransformer`` (or a buggy
#: subclass, for mutation testing).
TransformerFactory = Callable[[int], KissTransformer]

#: Human-readable divergence directions.
UNSOUND = "unsound"  # sequential error without a balanced concurrent witness
INCOMPLETE = "incomplete"  # balanced concurrent error missed by the pipeline
FALSE_RACE = "false-race"  # race trace that does not replay concurrently
UNCERTIFIED = "uncertified"  # safe verdict whose kiss-witness/1 certificate is refuted


@dataclass
class OracleVerdict:
    """Outcome of one differential run.

    ``concurrent``/``sequential`` use the usual verdict vocabulary
    (``"safe"`` / ``"error"`` / ``"resource-bound"``); ``divergence`` is
    ``None`` when the sides agree (or the run is inconclusive), else one
    of :data:`UNSOUND` / :data:`INCOMPLETE` / :data:`FALSE_RACE`.
    """

    concurrent: str
    sequential: str
    divergence: Optional[str] = None
    detail: str = ""
    con_states: int = 0
    seq_states: int = 0
    race_verdict: Optional[str] = None
    #: lazy mode: a concurrent error the K-round pipeline missed —
    #: expected incompleteness (bounded K), not a bug.
    coverage_gap: bool = False
    #: KISS mode, on an :data:`INCOMPLETE` divergence: did the K=3
    #: lazy probe catch the missed error?  None = probe inconclusive.
    closed_by_rounds: Optional[bool] = None
    #: witness mode, on a conclusive safe agreement: the independent
    #: validator's verdict on the emitted certificate (``"certified"`` /
    #: ``"refuted"`` / ``"unsupported"``), ``"missing"`` when emission
    #: declined, None when the cross-check did not run.  Only
    #: ``"refuted"`` is a divergence (:data:`UNCERTIFIED`).
    witness_status: Optional[str] = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    @property
    def conclusive(self) -> bool:
        """Both sides fully explored their state spaces."""
        return "resource-bound" not in (self.concurrent, self.sequential)

    def describe(self) -> str:
        if self.diverged:
            tail = ""
            if self.closed_by_rounds is not None:
                tail = f" [closed by rounds K=3: {'yes' if self.closed_by_rounds else 'no'}]"
            return f"{self.divergence}: {self.detail}{tail}"
        if self.coverage_gap:
            return f"coverage-gap: {self.detail}"
        tail = f" race={self.race_verdict}" if self.race_verdict else ""
        if self.witness_status:
            tail += f" witness={self.witness_status}"
        return f"agree: concurrent={self.concurrent} sequential={self.sequential}{tail}"


_STATUS = {
    CheckStatus.SAFE: "safe",
    CheckStatus.ERROR: "error",
    CheckStatus.EXHAUSTED: "resource-bound",
}


def _as_core(prog: Union[str, Program]) -> Program:
    if isinstance(prog, str):
        return parse_core(prog)
    if is_core_program(prog):
        return prog
    # lower_program works in place; never mutate a caller's AST.
    return lower_program(clone_program(prog))


def differential_check(
    prog: Union[str, Program],
    max_ts: int,
    max_states: int = 50_000,
    transformer_factory: Optional[TransformerFactory] = None,
    race_global: Optional[str] = None,
    strategy: str = "kiss",
    rounds: int = 2,
    por: bool = False,
    witness: bool = False,
) -> OracleVerdict:
    """Cross-check one program (source text, surface AST, or core AST).

    ``max_ts`` must be at least the program's dynamic fork count for the
    coverage direction to be meaningful (the generator supplies this as
    :attr:`~repro.fuzz.gen.GeneratedProgram.n_forks`).  ``race_global``
    additionally runs the race pipeline on that global with trace
    replay (KISS strategy only — the bounded-round pipelines have no
    race mode).  ``por`` enables the shared-access partial-order
    reduction in whichever transformer the strategy selects; POR is a
    verdict-preserving pruning, so it rides along on the sequential side
    without changing what counts as a divergence.

    ``witness`` adds a third cross-check on conclusive safe agreement:
    emit a ``kiss-witness/1`` certificate for the sequentialized program
    and re-check it with the independent validator (:mod:`repro.witness`).
    A certificate the validator *refutes* is an :data:`UNCERTIFIED`
    divergence — the checker claimed safe but cannot back the claim.
    A declined emission or an ``unsupported`` validation is recorded in
    ``witness_status`` but is not a divergence (honest budget outcomes).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy != "kiss" and race_global is not None:
        raise ValueError(f"race checking is not available under strategy={strategy!r}")
    core = _as_core(prog)

    with obs.span("oracle-concurrent", max_ts=max_ts):
        con = check_concurrent(
            core, max_states=max_states, balanced_only=(strategy == "kiss")
        )
    obs.inc("concurrent_states", con.stats.states)
    with obs.span("oracle-sequential", max_ts=max_ts):
        if transformer_factory is not None:
            factory = transformer_factory
        elif strategy == "lazy":
            factory = lambda ts: LazyTransformer(rounds=rounds, max_ts=ts, por=por)
        else:
            factory = lambda ts: KissTransformer(max_ts=ts, por=por)
        transformed = factory(max_ts).transform(core)
        seq = SequentialChecker(build_program_cfg(transformed), max_states=max_states).check()
    obs.inc("oracle_runs")

    v = OracleVerdict(
        concurrent=_STATUS[con.status],
        sequential=_STATUS[seq.status],
        con_states=con.stats.states,
        seq_states=seq.stats.states,
    )
    if v.conclusive:
        if v.sequential == "error" and v.concurrent == "safe":
            v.divergence = UNSOUND
            witness = "balanced concurrent execution" if strategy == "kiss" else "interleaving"
            v.detail = (
                f"sequential pipeline reported '{seq.violation_kind}' "
                f"({seq.message}) but no {witness} goes wrong"
            )
        elif v.concurrent == "error" and v.sequential == "safe":
            if strategy == "lazy":
                # Expected incompleteness: the round budget missed the
                # erroneous interleaving.
                v.coverage_gap = True
                v.detail = (
                    f"concurrent execution reported '{con.violation_kind}' "
                    f"({con.message}) outside the K={rounds} lazy round-robin coverage"
                )
                obs.inc("lazy_coverage_gaps")
            else:
                v.divergence = INCOMPLETE
                v.detail = (
                    f"balanced concurrent execution reported '{con.violation_kind}' "
                    f"({con.message}) but the sequential pipeline found no error"
                )
                _rounds_probe(core, max_states, v)
    if race_global is not None and not v.diverged:
        _race_check(core, max_ts, max_states, race_global, v)
    if witness and not v.diverged and v.conclusive and v.sequential == "safe":
        _witness_check(transformed, strategy, rounds, max_states, v)
    return v


def _witness_check(
    transformed: Program, strategy: str, rounds: int, max_states: int, v: OracleVerdict
) -> None:
    """Emit a certificate for the safe sequential verdict and re-check it
    with the independent validator; a refuted certificate is the
    :data:`UNCERTIFIED` divergence (the emitter and the validator are
    separate implementations, so this is a genuine third opinion)."""
    from repro.witness.emit import emit_witness
    from repro.witness.validate import validate_witness_doc

    with obs.span("oracle-witness"):
        doc = emit_witness(
            transformed,
            backend="explicit",
            strategy=strategy,
            rounds=rounds if strategy == "lazy" else None,
            max_states=max_states,
        )
        if doc is None:
            v.witness_status = "missing"
            return
        report = validate_witness_doc(doc)
    v.witness_status = report.status
    obs.inc("oracle_witness_checks")
    if report.status == "refuted":
        v.divergence = UNCERTIFIED
        v.detail = f"safe verdict but its certificate is refuted: {report}"


def _rounds_probe(core: Program, max_states: int, v: OracleVerdict) -> None:
    """On an INCOMPLETE divergence, ask whether three rounds see the
    error Figure 4's two context switches missed — separating budget
    misses from genuine pipeline bugs."""
    with obs.span("oracle-rounds-probe", rounds=3):
        try:
            transformed = LazyTransformer(rounds=3).transform(core)
            probe = SequentialChecker(
                build_program_cfg(transformed), max_states=max_states
            ).check()
        except Exception:
            return  # probe is best-effort; None = inconclusive
    if probe.status == CheckStatus.ERROR:
        v.closed_by_rounds = True
        obs.inc("rounds_closed_incomplete")
    elif probe.status == CheckStatus.SAFE:
        v.closed_by_rounds = False


def _race_check(
    core: Program, max_ts: int, max_states: int, race_global: str, v: OracleVerdict
) -> None:
    """Figure 5 on the distinguished location, with trace replay: a
    reported race whose mapped trace does not replay under the
    concurrent semantics is a :data:`FALSE_RACE` divergence."""
    from repro.core.checker import Kiss

    kiss = Kiss(max_ts=max_ts, max_states=max_states)
    r = kiss.check_race(core, RaceTarget.global_var(race_global))
    v.race_verdict = r.verdict
    if r.is_error and r.trace_validated is False:
        v.divergence = FALSE_RACE
        v.detail = (
            f"race reported on '{race_global}' but its mapped trace "
            f"does not replay under the concurrent semantics"
        )


def differential_check_source(
    source: str,
    max_ts: int,
    max_states: int = 50_000,
    race_global: Optional[str] = None,
    strategy: str = "kiss",
    rounds: int = 2,
    por: bool = False,
    witness: bool = False,
) -> OracleVerdict:
    """Worker-friendly entry point: parse surface source, then check.
    (Kept separate so campaign workers never need AST arguments.)"""
    return differential_check(
        parse(source),
        max_ts=max_ts,
        max_states=max_states,
        race_global=race_global,
        strategy=strategy,
        rounds=rounds,
        por=por,
        witness=witness,
    )
