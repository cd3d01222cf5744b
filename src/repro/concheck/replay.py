"""Guided replay: validate mapped KISS traces against concurrent semantics.

The paper's completeness claim is that every error KISS reports is a
real error of the concurrent program, witnessed by the mapped trace.
This module *checks* that, trace by trace: a
:class:`~repro.core.tracemap.ConcurrentTrace` is replayed as a schedule
constraint over the original concurrent program —

* each ``step`` entry obliges the named thread to execute the named
  original statement next (navigation nodes in between are free),
* ``spawn`` entries oblige the thread to execute the original ``async``,
* ``call``/``return`` entries oblige the thread to execute that call, or
  the return into it, right there; unmapped calls and returns (a
  thread's start function finishing) are free moves,
* ``access`` entries (race traces) oblige the thread to *reach* the
  access statement.  It is not executed: Figure 5 records or checks the
  access *before* it, so a race whose access would block (a failing
  ``assume``) is still real.

Replay succeeds if the schedule is feasible, and for assertion traces if
executing the final step raises the expected assertion violation.
Internal branch points (lowered ``choice`` heads) are resolved by DFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.cfg.build import build_program_cfg
from repro.cfg.graph import Node, ProgramCfg
from repro.core.tracemap import ConcurrentTrace, PlanStep
from repro.lang.ast import Program
from repro.seqcheck.interp import Interp, Violation

from .interleave import ConWorld


@dataclass
class ReplayResult:
    ok: bool
    reason: str = ""
    steps_executed: int = 0


class _ReplayFailure(Exception):
    pass


class TraceReplayer:
    """DFS over the concurrent transition system under a schedule plan."""

    MAX_SILENT_STEPS = 300  # navigation steps allowed between plan entries

    def __init__(self, prog: Program, max_nodes: int = 200_000):
        self.pcfg: ProgramCfg = build_program_cfg(prog)
        self.prog = prog
        self.interp = Interp(self.pcfg)
        self.max_nodes = max_nodes
        self._expanded = 0

    # -- public -----------------------------------------------------------------

    def replay(self, trace: ConcurrentTrace, expect: str = "error") -> ReplayResult:
        """``expect`` is ``"error"`` (final step must fail an assertion)
        or ``"feasible"`` (the schedule must merely be executable)."""
        plan = list(trace.steps)
        init = self._initial()
        self._expanded = 0
        try:
            ok = self._search(init, plan, expect)
        except _ReplayFailure as exc:
            return ReplayResult(False, str(exc))
        if ok:
            return ReplayResult(True, steps_executed=len(plan))
        return ReplayResult(False, "no execution realizes the mapped schedule")

    # -- machinery ------------------------------------------------------------------

    def _initial(self) -> ConWorld:
        return ConWorld(self.interp.initial_world(), [0], 1)

    def _observable(self, node: Node, step: PlanStep, cw: ConWorld, idx: int) -> bool:
        if node.kind in ("call", "return"):
            # the mappers name the calls and returns of P (and a race's
            # access may sit on one); the rest are free moves
            return step.kind in (node.kind, "access") and self._matches(node, step, cw, idx)
        if node.kind == "skip":
            # user `skip;` statements are mapped steps; choice/iter heads
            # and other synthesized skips are free navigation
            return node.origin.tag == "user" and node.stmt is not None
        return node.origin.sid != 0

    def _search(self, init: ConWorld, plan: List[PlanStep], expect: str) -> bool:
        """Depth-first over ``(world, next plan index, free moves since the
        last plan step)`` on an explicit stack: no recursion limit."""
        visited: Set = set()
        stack = [(init, 0, 0)]
        while stack:
            cw, i, silent = stack.pop()
            self._expanded += 1
            if self._expanded > self.max_nodes:
                raise _ReplayFailure("replay search budget exceeded")
            if i == len(plan):
                return True  # full schedule realized (errors return earlier)
            if silent > self.MAX_SILENT_STEPS:
                continue
            key = (self.interp.freezer.freeze(cw.world.store, cw.world.stacks), tuple(cw.tids), i)
            if key in visited:
                continue
            visited.add(key)

            step = plan[i]
            if step.tid not in cw.tids:
                continue
            idx = cw.tids.index(step.tid)
            frame = cw.world.stacks[idx][-1]
            node = self.pcfg.cfg(frame.func).node(frame.node)
            last = i == len(plan) - 1

            if self._observable(node, step, cw, idx):
                if not self._matches(node, step, cw, idx):
                    continue
                if step.kind == "access":
                    stack.append((cw, i + 1, 0))
                    continue
                try:
                    succs = cw.step(self.interp, idx, node)
                except Violation as v:
                    if last and expect == "error" and v.kind == "assert":
                        return True
                    continue
                if last and expect == "error":
                    continue  # expected the final step to fail
                stack.extend((succ, i + 1, 0) for succ in reversed(succs))
                continue

            # navigation / call / return: free moves
            try:
                succs = cw.step(self.interp, idx, node)
            except Violation:
                continue
            stack.extend((succ, i, silent + 1) for succ in reversed(succs))
        return False

    def _matches(self, node: Node, step: PlanStep, cw: ConWorld, idx: int) -> bool:
        if step.kind == "spawn":
            return node.kind == "async" and node.stmt.sid == step.sid
        if step.kind == "call":
            return node.kind == "call" and node.stmt.sid == step.sid
        if step.kind == "return":
            # a return step names the call it returns into
            stack = cw.world.stacks[idx]
            if node.kind != "return" or len(stack) < 2:
                return False
            caller = stack[-2]
            return self.pcfg.cfg(caller.func).node(caller.node).stmt.sid == step.sid
        if node.kind == "async":
            return False
        return node.origin.sid == step.sid


def replay_trace(prog: Program, trace: ConcurrentTrace, expect: str = "error") -> ReplayResult:
    """Validate a mapped trace against the original concurrent program."""
    return TraceReplayer(prog).replay(trace, expect=expect)
