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
                step, succs = self._successors(world)
                if self.compress_chains:
                    successors = [self._compress(succ, step) for succ in succs]
                else:
                    successors = [(succ, (step,)) for succ in succs]
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

    def _successors(self, world: World) -> Tuple[Optional[TraceStep], List[World]]:
        """The step taken from ``world`` and its successor worlds."""
        stack = world.stacks[0]
        if not stack:
            return None, []  # program terminated
        frame = stack[-1]
        node = self.pcfg.cfg(frame.func).node(frame.node)
        if node.kind == "async":
            raise Violation(
                "not-sequential",
                "async statement in a sequential program — run the KISS transformation first",
                node,
            )
        # The entry's return leaves the stack empty: a terminal state.
        return TraceStep(frame.func, node.id, node.origin), self.interp.step(world, 0, node)

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
