"""Explicit-state model checker for *concurrent* core programs.

This is the "traditional model checker" of the paper's introduction: it
explores all thread interleavings and therefore pays the exponential cost
that KISS avoids.  It serves three roles in this reproduction:

1. the baseline for the scalability benchmarks (E6 in DESIGN.md),
2. the semantic ground truth used to validate mapped KISS error traces
   ("never reports false errors"),
3. the reference for the Theorem 1 coverage experiments, via the optional
   context-switch bound and the per-trace thread-id strings.

Scheduling granularity is one CFG node per step, except ``atomic``
regions, which execute indivisibly.  A thread whose next step is an
unsatisfied ``assume`` (or an atomic region all of whose paths begin with
one) is *blocked*; it becomes enabled again when another thread makes the
condition true.  A state where live threads exist but none is enabled is
a quiescent leaf (legal: the paper's ``assume`` blocks forever).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import cancel
from repro.cfg.build import build_program_cfg
from repro.cfg.graph import Node, ProgramCfg
from repro.lang.ast import Program
from repro.seqcheck.interp import Interp, ResourceLimit, Violation, World
from repro.seqcheck.trace import CheckResult, CheckStats, CheckStatus, TraceStep


@dataclass
class ConWorld:
    """A concurrent configuration: a :class:`World` plus thread identities."""

    world: World
    tids: List[int]
    next_tid: int

    def step(self, interp: Interp, idx: int, node: Node) -> List["ConWorld"]:
        """Thread ``idx`` executes ``node`` (see :meth:`Interp.step`): an
        ``async`` gives the new thread the next tid, and a thread whose
        last frame returns is dropped with its tid."""
        worlds = interp.step(self.world, idx, node)
        tids, next_tid = self.tids, self.next_tid
        if node.kind == "async":
            tids = tids + [next_tid]
            next_tid += 1
        elif node.kind == "return" and not worlds[0].stacks[idx]:
            del worlds[0].stacks[idx]
            tids = tids[:idx] + tids[idx + 1:]
        return [ConWorld(w, list(tids), next_tid) for w in worlds]


@dataclass(frozen=True)
class BalanceState:
    """The stack-discipline automaton of §4.1 (see
    :func:`repro.concheck.executions.balanced_prefix_feasible`): a stack of
    active thread ids plus the set of ids whose blocks have closed.
    A step by ``tid`` is allowed iff the extended string remains a prefix
    of some balanced string."""

    stack: Tuple[int, ...] = ()
    closed: frozenset = frozenset()

    def step(self, tid: int) -> Optional["BalanceState"]:
        if tid in self.closed:
            return None
        stack = self.stack
        if stack and stack[-1] == tid:
            return self
        if tid in stack:
            i = len(stack) - 1
            newly_closed = []
            while stack[i] != tid:
                newly_closed.append(stack[i])
                i -= 1
            return BalanceState(stack[: i + 1], self.closed | frozenset(newly_closed))
        return BalanceState(stack + (tid,), self.closed)


class ConcurrentChecker:
    """BFS over all interleavings of a concurrent core program."""

    def __init__(
        self,
        pcfg: ProgramCfg,
        max_states: int = 500_000,
        context_bound: Optional[int] = None,
        balanced_only: bool = False,
        compress_invisible: bool = False,
        detect_deadlocks: bool = False,
    ):
        self.pcfg = pcfg
        self.prog: Program = pcfg.program
        self.interp = Interp(pcfg)
        self.max_states = max_states
        self.context_bound = context_bound
        self.balanced_only = balanced_only
        self.compress_invisible = compress_invisible
        self.detect_deadlocks = detect_deadlocks
        self._invisible_cache: Dict[Tuple[str, int], bool] = {}

    # -- invisible-transition compression (partial-order-style reduction) ------

    MAX_COMPRESS_CHAIN = 32

    def _is_invisible(self, func: str, node: Node) -> bool:
        """A transition no other thread can observe or be affected by:
        an assignment whose reads and writes touch only locals.  Such
        transitions commute with every other thread's transitions, so
        chaining them onto the preceding step of the same thread is a
        sound reduction for safety checking (the paper's cited
        partial-order methods [21, 31], in their simplest form)."""
        key = (func, node.id)
        cached = self._invisible_cache.get(key)
        if cached is not None:
            return cached
        result = False
        if node.kind == "assign" and len(node.succs) == 1:
            stmt = node.stmt
            decl = self.prog.function(func)
            local_names = set(decl.locals) | {p.name for p in decl.params}

            def local_var(e) -> bool:
                from repro.lang.ast import Var as _Var

                return isinstance(e, _Var) and e.name in local_names

            lhs, rhs = stmt.lhs, stmt.rhs
            from repro.lang.ast import Binary as _Bin, Unary as _Un, Var as _Var
            from repro.lang.ast import is_const as _is_const

            def pure_atom(e) -> bool:
                return _is_const(e) or local_var(e)

            if isinstance(lhs, _Var) and local_var(lhs):
                if pure_atom(rhs):
                    result = True
                elif isinstance(rhs, _Un) and rhs.op in ("-", "!") and pure_atom(rhs.operand):
                    result = True
                elif isinstance(rhs, _Bin) and rhs.op not in ("/", "%") and pure_atom(rhs.left) and pure_atom(rhs.right):
                    result = True
        self._invisible_cache[key] = result
        return result

    # -- public API ---------------------------------------------------------------

    def check(self) -> CheckResult:
        stats = CheckStats()
        init = self._initial()
        bal0 = BalanceState() if self.balanced_only else None
        init_key = self._key(init, last_tid=None, switches=0, bal=bal0)
        parents: Dict[Tuple, Optional[Tuple[Tuple, TraceStep]]] = {init_key: None}
        queue = deque([(init, init_key, None, 0, 0, bal0)])
        stats.states = 1
        while queue:
            cancel.poll()
            cw, key, last_tid, switches, depth, bal = queue.popleft()
            stats.max_depth = max(stats.max_depth, depth)
            try:
                successors = self._successors(cw)
            except ResourceLimit as r:
                return CheckResult(CheckStatus.EXHAUSTED, message=str(r), stats=stats)
            if self.detect_deadlocks and not successors and cw.tids:
                # live threads, none enabled: every thread is blocked on an
                # `assume` (or an atomic region's leading assume) forever.
                # Legal under the paper's semantics, but worth reporting as
                # a deadlock when asked (SPIN-style invalid end state).
                trace = self._build_trace(parents, key)
                blocked = ", ".join(
                    f"t{tid}@{cw.world.stacks[i][-1].func}" for i, tid in enumerate(cw.tids)
                )
                return CheckResult(
                    CheckStatus.ERROR,
                    violation_kind="deadlock",
                    message=f"all live threads blocked: {blocked}",
                    trace=trace,
                    stats=stats,
                )
            for succ, step, err in successors:
                stats.transitions += 1
                new_bal = bal
                if bal is not None:
                    new_bal = bal.step(step.tid)
                    if new_bal is None:
                        continue  # not schedulable by the stack discipline
                new_switches = switches
                if last_tid is not None and step.tid != last_tid:
                    new_switches += 1
                if self.context_bound is not None and new_switches > self.context_bound:
                    continue
                if err is not None:
                    trace = self._build_trace(parents, key) + [step]
                    return CheckResult(
                        CheckStatus.ERROR,
                        violation_kind=err.kind,
                        message=err.message,
                        trace=trace,
                        stats=stats,
                    )
                succ_key = self._key(succ, step.tid, new_switches, new_bal)
                if succ_key in parents:
                    continue
                parents[succ_key] = (key, step)
                stats.states += 1
                if stats.states > self.max_states:
                    return CheckResult(
                        CheckStatus.EXHAUSTED,
                        message=f"state budget of {self.max_states} exceeded",
                        stats=stats,
                    )
                queue.append((succ, succ_key, step.tid, new_switches, depth + 1, new_bal))
        return CheckResult(CheckStatus.SAFE, stats=stats)

    def _key(
        self,
        cw: ConWorld,
        last_tid: Optional[int],
        switches: int,
        bal: Optional[BalanceState] = None,
    ) -> Tuple:
        base = (self.interp.freezer.freeze(cw.world.store, cw.world.stacks), tuple(cw.tids))
        if self.context_bound is not None:
            base = (base, last_tid, switches)
        if bal is not None:
            base = (base, bal.stack, bal.closed)
        return base

    def _initial(self) -> ConWorld:
        return ConWorld(self.interp.initial_world(), [0], 1)

    # -- transition relation ------------------------------------------------------------

    def _successors(self, cw: ConWorld) -> List[Tuple[ConWorld, TraceStep, Optional[Violation]]]:
        """All one-step successors across all enabled threads.

        Violations are returned (not raised) so that one failing thread does
        not mask other interleavings in the BFS frontier ordering; the
        caller reports the first error encountered in BFS order.
        """
        out: List[Tuple[ConWorld, TraceStep, Optional[Violation]]] = []
        for idx in range(len(cw.tids)):
            out.extend(self._thread_steps(cw, idx))
        return out

    def _thread_steps(
        self, cw: ConWorld, idx: int
    ) -> List[Tuple[ConWorld, TraceStep, Optional[Violation]]]:
        stack = cw.world.stacks[idx]
        frame = stack[-1]
        node = self.pcfg.cfg(frame.func).node(frame.node)
        tid = cw.tids[idx]
        try:
            succs = cw.step(self.interp, idx, node)
            # A call enters the callee and a finished thread is gone:
            # neither leaves this thread's step to chain invisible steps onto.
            if self.compress_invisible and node.kind != "call" and not (
                node.kind == "return" and len(stack) == 1
            ):
                for c in succs:
                    self._compress(c, idx)
        except Violation as v:
            node = v.node or node
            return [(cw, TraceStep(frame.func, node.id, node.origin, tid=tid), v)]
        step = TraceStep(frame.func, node.id, node.origin, tid=tid)
        return [(c, step, None) for c in succs]  # empty => blocked

    def _compress(self, c: ConWorld, idx: int) -> None:
        """Chain invisible local transitions onto the step just taken."""
        for _ in range(self.MAX_COMPRESS_CHAIN):
            frame = c.world.top(idx)
            node = self.pcfg.cfg(frame.func).node(frame.node)
            if not self._is_invisible(frame.func, node):
                return
            self.interp.exec_simple(node, frame, c.world.store, c.world)
            frame.node = node.succs[0]

    @staticmethod
    def _build_trace(parents: Dict, key: Tuple) -> List[TraceStep]:
        steps: List[TraceStep] = []
        cur = key
        while parents.get(cur) is not None:
            prev, step = parents[cur]
            steps.append(step)
            cur = prev
        steps.reverse()
        return steps


def check_concurrent(
    prog: Program,
    max_states: int = 500_000,
    context_bound: Optional[int] = None,
    balanced_only: bool = False,
    compress_invisible: bool = False,
    detect_deadlocks: bool = False,
) -> CheckResult:
    """Model-check a concurrent core program, exploring all interleavings
    (or only the balanced ones — the §4.1 characterization of what KISS
    simulates — when ``balanced_only`` is set).  ``compress_invisible``
    enables the partial-order-style reduction; ``detect_deadlocks``
    reports all-threads-blocked states as errors."""
    pcfg = build_program_cfg(prog)
    return ConcurrentChecker(
        pcfg,
        max_states=max_states,
        context_bound=context_bound,
        balanced_only=balanced_only,
        compress_invisible=compress_invisible,
        detect_deadlocks=detect_deadlocks,
    ).check()
