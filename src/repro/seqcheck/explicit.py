"""Explicit-state model checker for *sequential* core programs.

This is the stand-in for SLAM in the KISS architecture (Figure 1): a
checker that understands only sequential semantics.  It performs a
breadth-first exploration of the reachable configuration graph with
canonical state hashing, so error traces are shortest-first and loops /
repeated allocation converge.

The input program must be sequential: ``async`` statements are rejected
(sequentialize with :mod:`repro.core.transform` first).  ``atomic``
regions are allowed and are simply executed indivisibly — in a sequential
program they have no observable effect, but KISS output keeps them so the
backend does not need a special pre-pass.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro import cancel, obs
from repro.cfg.build import build_program_cfg
from repro.cfg.graph import Node, ProgramCfg
from repro.lang.ast import Program
from repro.seqcheck.interp import Interp, ResourceLimit, Violation, World
from repro.seqcheck.state import Frame, FuncVal, Store, default_value
from repro.seqcheck.trace import CheckResult, CheckStats, CheckStatus, TraceStep


class _ChainViolation(Exception):
    """A violation inside a compressed deterministic chain, carrying the
    chain's trace steps (the failing one last)."""

    def __init__(self, violation: Violation, steps: Tuple[TraceStep, ...]):
        super().__init__(str(violation))
        self.violation = violation
        self.steps = steps


class SequentialChecker:
    """BFS explicit-state reachability for sequential programs."""

    def __init__(
        self,
        pcfg: ProgramCfg,
        max_states: int = 500_000,
        max_depth: int = 1_000_000,
        compress_chains: bool = True,
        collect_reached: bool = False,
    ):
        self.pcfg = pcfg
        self.prog = pcfg.program
        self.interp = Interp(pcfg)
        self.max_states = max_states
        self.max_depth = max_depth
        # In a sequential program there is no interleaving to preserve, so
        # maximal chains of deterministic simple nodes (single successor)
        # are executed as one BFS transition; every executed node is still
        # recorded in the trace, so error traces and the KISS trace mapper
        # are unaffected.
        self.compress_chains = compress_chains
        # Witness emission: collect every canonical state the exploration
        # passes through — BFS frontier states plus the interior states of
        # compressed chains, so the set is closed under *single-step*
        # successors (what the independent validator re-checks).
        self.reached: Optional[set] = set() if collect_reached else None

    MAX_CHAIN = 64

    # -- public API -------------------------------------------------------------

    def check(self) -> CheckResult:
        # Counters are flushed once from the stats the BFS already keeps,
        # so the exploration loop itself carries no observability hooks.
        with obs.span("explicit", max_states=self.max_states):
            result = self._check()
        obs.inc("states_explored", result.stats.states)
        obs.inc("transitions", result.stats.transitions)
        return result

    def _check(self) -> CheckResult:
        stats = CheckStats()
        freeze = self.interp.freezer.freeze
        init = self.interp.initial_world()
        init_key = freeze(init.store, init.stacks)
        if self.reached is not None:
            self.reached.add(init_key)
        parents: Dict[Tuple, Optional[Tuple[Tuple, Tuple[TraceStep, ...]]]] = {init_key: None}
        queue = deque([(init, init_key, 0)])
        stats.states = 1
        while queue:
            cancel.poll()
            world, key, depth = queue.popleft()
            stats.max_depth = max(stats.max_depth, depth)
            if depth >= self.max_depth:
                continue
            try:
                successors = self._successors(world)
                if self.compress_chains:
                    successors = [self._compress(succ, step) for succ, step in successors]
                else:
                    successors = [(succ, (step,)) for succ, step in successors]
            except _ChainViolation as cv:
                trace = self._build_trace(parents, key) + list(cv.steps)
                return CheckResult(
                    CheckStatus.ERROR,
                    violation_kind=cv.violation.kind,
                    message=cv.violation.message,
                    trace=trace,
                    stats=stats,
                )
            except Violation as v:
                step = self._step_for(world, v)
                trace = self._build_trace(parents, key) + [step]
                return CheckResult(
                    CheckStatus.ERROR,
                    violation_kind=v.kind,
                    message=v.message,
                    trace=trace,
                    stats=stats,
                )
            except ResourceLimit as r:
                return CheckResult(CheckStatus.EXHAUSTED, message=str(r), stats=stats)
            for succ, steps in successors:
                if succ is None:
                    continue  # chain died on a failed assume
                stats.transitions += 1
                succ_key = freeze(succ.store, succ.stacks)
                if self.reached is not None:
                    self.reached.add(succ_key)
                if succ_key in parents:
                    continue
                parents[succ_key] = (key, steps)
                stats.states += 1
                if stats.states > self.max_states:
                    return CheckResult(
                        CheckStatus.EXHAUSTED,
                        message=f"state budget of {self.max_states} exceeded",
                        stats=stats,
                    )
                queue.append((succ, succ_key, depth + 1))
        return CheckResult(CheckStatus.SAFE, stats=stats)

    def _compress(
        self, world: World, first_step: TraceStep
    ) -> Tuple[Optional[World], Tuple[TraceStep, ...]]:
        """Execute the maximal deterministic chain of simple nodes from
        ``world``; returns (final world, steps) — the world is None when a
        failed ``assume`` killed the path.  A violation mid-chain raises
        :class:`_ChainViolation` carrying the chain's steps (including the
        failing one) for trace reconstruction."""
        steps = [first_step]
        for _ in range(self.MAX_CHAIN):
            if self.reached is not None:
                # Chain-interior states are observable single-step
                # successors; record them so the witness set stays closed.
                self.reached.add(self.interp.freezer.freeze(world.store, world.stacks))
            if not world.stacks[0]:
                break
            frame = world.top(0)
            node = self.pcfg.cfg(frame.func).node(frame.node)
            if node.kind not in ("skip", "assign", "malloc", "assert", "assume"):
                break
            if len(node.succs) != 1:
                break
            step = TraceStep(frame.func, node.id, node.origin)
            try:
                ok = self.interp.exec_simple(node, frame, world.store, world)
            except Violation as v:
                raise _ChainViolation(v, tuple(steps) + (step,)) from None
            steps.append(step)
            if not ok:
                return None, tuple(steps)
            frame.node = node.succs[0]
        return world, tuple(steps)

    # -- transition relation ---------------------------------------------------------

    def _current_node(self, world: World) -> Node:
        frame = world.stacks[0][-1]
        return self.pcfg.cfg(frame.func).node(frame.node)

    def _step_for(self, world: World, v: Violation) -> TraceStep:
        frame = world.stacks[0][-1]
        node = v.node or self._current_node(world)
        return TraceStep(frame.func, node.id, node.origin)

    def _successors(self, world: World) -> List[Tuple[World, TraceStep]]:
        stack = world.stacks[0]
        if not stack:
            return []  # program terminated
        frame = stack[-1]
        cfg = self.pcfg.cfg(frame.func)
        node = cfg.node(frame.node)
        step = TraceStep(frame.func, node.id, node.origin)
        kind = node.kind

        if kind == "async":
            raise Violation(
                "not-sequential",
                "async statement in a sequential program — run the KISS transformation first",
                node,
            )

        if kind == "return":
            return self._exec_return(world, node, step)

        if kind == "call":
            return self._exec_call(world, node, step)

        if kind == "atomic":
            out: List[Tuple[World, TraceStep]] = []
            for w in self.interp.run_atomic(world, 0, node):
                for succ_id in node.succs:
                    w2 = w.clone() if len(node.succs) > 1 else w
                    w2.top(0).node = succ_id
                    out.append((w2, step))
            return out

        # simple nodes: skip / assign / malloc / assert / assume
        w = world.clone()
        ok = self.interp.exec_simple(node, w.top(0), w.store, w)
        if not ok:
            return []  # infeasible path (failed assume)
        out = []
        for succ_id in node.succs:
            w2 = w.clone() if len(node.succs) > 1 else w
            w2.top(0).node = succ_id
            out.append((w2, step))
        return out

    def _exec_call(self, world: World, node: Node, step: TraceStep) -> List[Tuple[World, TraceStep]]:
        stmt = node.stmt
        w = world.clone()
        frame = w.stacks[0][-1]
        callee = self._resolve_callee(stmt.func.name, frame, w.store, node)
        args = [self.interp.eval_atom(a, frame, w.store) for a in stmt.args]
        w.stacks[0].append(self.interp.new_frame(callee, args, w.store))
        return [(w, step)]

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

    def _exec_return(self, world: World, node: Node, step: TraceStep) -> List[Tuple[World, TraceStep]]:
        w = world.clone()
        stack = w.stacks[0]
        frame = stack[-1]
        stmt = node.stmt
        decl = self.prog.function(frame.func)
        if stmt.value is not None:
            value = self.interp.eval_atom(stmt.value, frame, w.store)
        elif decl.ret is not None:
            value = default_value(decl.ret)  # fell off the end of a non-void fn
        else:
            value = None
        stack.pop()
        if not stack:
            return [(w, step)]  # entry returned: terminal state (safe leaf)
        caller = w.top(0)
        call_node = self.pcfg.cfg(caller.func).node(caller.node)
        if call_node.kind != "call":
            raise Violation("internal", "return into a non-call continuation", node)
        call_stmt = call_node.stmt
        if call_stmt.lhs is not None:
            if value is None:
                raise Violation("void-result", f"void result of {frame.func} used as a value", node)
            self.interp._write_var(call_stmt.lhs.name, value, caller, w.store)
        out: List[Tuple[World, TraceStep]] = []
        for succ_id in call_node.succs:
            w2 = w.clone() if len(call_node.succs) > 1 else w
            w2.top(0).node = succ_id
            out.append((w2, step))
        return out

    # -- trace reconstruction -----------------------------------------------------------

    @staticmethod
    def _build_trace(parents: Dict, key: Tuple) -> List[TraceStep]:
        edges: List[Tuple[TraceStep, ...]] = []
        cur = key
        while parents.get(cur) is not None:
            prev, steps = parents[cur]
            edges.append(steps)
            cur = prev
        edges.reverse()
        return [step for chunk in edges for step in chunk]


def check_sequential(
    prog: Program,
    max_states: int = 500_000,
    max_depth: int = 1_000_000,
) -> CheckResult:
    """Model-check a sequential core program for safety violations."""
    pcfg = build_program_cfg(prog)
    return SequentialChecker(pcfg, max_states=max_states, max_depth=max_depth).check()
