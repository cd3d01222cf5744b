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

from repro.cfg.build import build_program_cfg
from repro.cfg.graph import Node, ProgramCfg
from repro.lang.ast import Program
from repro.seqcheck.interp import Interp, ResourceLimit, Violation, World
from repro.seqcheck.state import Frame, FuncVal, Store, default_value
from repro.seqcheck.trace import CheckResult, CheckStats, CheckStatus, TraceStep


@dataclass
class ConWorld:
    """A concurrent configuration: a :class:`World` plus thread identities."""

    world: World
    tids: List[int]
    next_tid: int

    def clone(self) -> "ConWorld":
        return ConWorld(self.world.clone(), list(self.tids), self.next_tid)

    @property
    def thread_count(self) -> int:
        return len(self.tids)


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
            try:
                out.extend(self._thread_steps(cw, idx))
            except Violation as v:
                frame = cw.world.stacks[idx][-1]
                node = v.node or self.pcfg.cfg(frame.func).node(frame.node)
                step = TraceStep(frame.func, node.id, node.origin, tid=cw.tids[idx])
                out.append((cw, step, v))
        return out

    def _thread_steps(self, cw: ConWorld, idx: int) -> List[Tuple[ConWorld, TraceStep, None]]:
        stack = cw.world.stacks[idx]
        frame = stack[-1]
        cfg = self.pcfg.cfg(frame.func)
        node = cfg.node(frame.node)
        tid = cw.tids[idx]
        step = TraceStep(frame.func, node.id, node.origin, tid=tid)
        kind = node.kind

        if kind == "return":
            return self._exec_return(cw, idx, node, step)
        if kind == "call":
            c = cw.clone()
            frame2 = c.world.stacks[idx][-1]
            stmt = node.stmt
            callee = self._resolve_callee(stmt.func.name, frame2, c.world.store, node)
            args = [self.interp.eval_atom(a, frame2, c.world.store) for a in stmt.args]
            c.world.stacks[idx].append(self.interp.new_frame(callee, args, c.world.store))
            return [(c, step, None)]
        if kind == "async":
            c = cw.clone()
            frame2 = c.world.stacks[idx][-1]
            stmt = node.stmt
            callee = self._resolve_callee(stmt.func.name, frame2, c.world.store, node)
            args = [self.interp.eval_atom(a, frame2, c.world.store) for a in stmt.args]
            c.world.stacks.append([self.interp.new_frame(callee, args, c.world.store)])
            c.tids.append(c.next_tid)
            c.next_tid += 1
            return self._advance(c, idx, node, step)
        if kind == "atomic":
            out: List[Tuple[ConWorld, TraceStep, None]] = []
            results = self.interp.run_atomic(cw.world, idx, node)
            for w in results:
                c = ConWorld(w, list(cw.tids), cw.next_tid)
                out.extend(self._advance(c, idx, node, step))
            return out  # empty => blocked
        # simple nodes
        c = cw.clone()
        ok = self.interp.exec_simple(node, c.world.top(idx), c.world.store, c.world)
        if not ok:
            return []  # blocked on assume; will be retried when rescheduled
        return self._advance(c, idx, node, step)

    def _advance(
        self, c: ConWorld, idx: int, node: Node, step: TraceStep
    ) -> List[Tuple[ConWorld, TraceStep, None]]:
        out = []
        for i, succ_id in enumerate(node.succs):
            c2 = c.clone() if i + 1 < len(node.succs) else c
            c2.world.top(idx).node = succ_id
            if self.compress_invisible:
                self._compress(c2, idx)
            out.append((c2, step, None))
        return out

    def _compress(self, c: ConWorld, idx: int) -> None:
        """Chain invisible local transitions onto the step just taken."""
        for _ in range(self.MAX_COMPRESS_CHAIN):
            frame = c.world.top(idx)
            node = self.pcfg.cfg(frame.func).node(frame.node)
            if not self._is_invisible(frame.func, node):
                return
            self.interp.exec_simple(node, frame, c.world.store, c.world)
            frame.node = node.succs[0]

    def _resolve_callee(self, name: str, frame: Frame, store: Store, node: Node) -> str:
        if name in frame.locals or name in store.globals:
            v = frame.locals.get(name, store.globals.get(name))
            if not isinstance(v, FuncVal):
                raise Violation("bad-call", f"call through non-function value {v!r}", node)
            if v.name not in self.prog.functions:
                raise Violation("undef-call", f"call of undefined function value {v}", node)
            return v.name
        if name in self.prog.functions:
            return name
        raise Violation("undef-call", f"call of unknown function '{name}'", node)

    def _exec_return(
        self, cw: ConWorld, idx: int, node: Node, step: TraceStep
    ) -> List[Tuple[ConWorld, TraceStep, None]]:
        c = cw.clone()
        stack = c.world.stacks[idx]
        frame = stack[-1]
        stmt = node.stmt
        decl = self.prog.function(frame.func)
        if stmt.value is not None:
            value = self.interp.eval_atom(stmt.value, frame, c.world.store)
        elif decl.ret is not None:
            value = default_value(decl.ret)
        else:
            value = None
        stack.pop()
        if not stack:
            # thread finished
            del c.world.stacks[idx]
            del c.tids[idx]
            return [(c, step, None)]
        caller = c.world.top(idx)
        call_node = self.pcfg.cfg(caller.func).node(caller.node)
        if call_node.kind != "call":
            raise Violation("internal", "return into a non-call continuation", node)
        if call_node.stmt.lhs is not None:
            if value is None:
                raise Violation("void-result", f"void result of {frame.func} used as a value", node)
            self.interp._write_var(call_node.stmt.lhs.name, value, caller, c.world.store)
        return self._advance(c, idx, call_node, step)

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
