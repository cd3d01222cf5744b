"""Mapping sequential error traces back to concurrent interleavings.

The paper: "the error trace leading to the assertion failure in P is
easily constructed from the error trace in P'".  The construction walks
the sequential trace while tracking which *thread context* each step
belongs to.  Thread contexts follow the stack discipline of the
scheduler:

* the root context (thread 0) starts at ``__kiss_check``'s call into the
  original entry function;
* an inlined ``async`` (``ts`` full, or ``max_ts = 0``) starts a new
  context that ends when the inlined call returns;
* a ``put`` parks a new thread (assigning it the next thread id, FIFO per
  start function); the matching ``schedule()`` dispatch re-activates that
  context until the dispatched call returns.

A call of the original program and its normal return map to ``call`` and
``return`` steps of the current thread: both move data (arguments, the
result's target), so the replayer must take them exactly there.  A frame
unwound by ``raise`` maps to nothing — in ``P`` that thread just stops.

The result is a :class:`ConcurrentTrace`: per-step ``(thread, original
statement)`` pairs, plus ``spawn`` pseudo-steps at the points where the
concurrent program would have executed the ``async``, and ``access``
steps marking the two conflicting accesses of a race trace.  By Theorem 1
the induced thread-id string is always *balanced*
(:func:`repro.concheck.executions.is_balanced`), which the test suite
verifies.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.cfg.graph import ProgramCfg
from repro.seqcheck.trace import TraceStep

from .transform import (
    TAG_CHECK,
    TAG_DISPATCH,
    TAG_INLINE_ASYNC,
    TAG_PUT,
)


@dataclass
class PlanStep:
    """One step of the reconstructed concurrent execution.

    ``kind`` is ``"step"`` (an original statement executed by ``tid``),
    ``"spawn"`` (the point where ``tid`` executed the original ``async``),
    ``"access"`` (a recorded read/write of the race target — race
    traces end with two of these from different threads), or
    ``"call"``/``"return"`` (entering a call of the original program and
    returning from it; ``sid`` is the call statement's).
    """

    tid: int
    sid: int
    kind: str = "step"
    text: str = ""

    def __str__(self) -> str:
        marker = f" [{self.kind}]" if self.kind != "step" else ""
        return f"t{self.tid}{marker}: {self.text or f'stmt#{self.sid}'}"


@dataclass
class ConcurrentTrace:
    steps: List[PlanStep] = field(default_factory=list)

    def thread_string(self) -> Tuple[int, ...]:
        return tuple(s.tid for s in self.steps)

    def threads(self) -> List[int]:
        seen: List[int] = []
        for s in self.steps:
            if s.tid not in seen:
                seen.append(s.tid)
        return seen

    def access_steps(self) -> List[PlanStep]:
        return [s for s in self.steps if s.kind == "access"]

    def format(self) -> str:
        return "\n".join(f"  {i:3d}. {s}" for i, s in enumerate(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


class TraceMapError(Exception):
    pass


@dataclass
class _ThreadCtx:
    tid: int
    depth: int  # virtual-stack depth at which this context was entered


def map_trace(pcfg: ProgramCfg, trace: List[TraceStep]) -> ConcurrentTrace:
    """Reconstruct the concurrent interleaving from a sequential trace.

    ``pcfg`` must be the CFG of the *transformed* program the trace came
    from (node ids in the trace index into it).
    """
    out = ConcurrentTrace()
    #: one entry per open call: the ``return`` step a user call owes
    #: when its frame returns normally, None for synthesized calls
    frames: List[Optional[PlanStep]] = []
    contexts: List[_ThreadCtx] = [_ThreadCtx(tid=0, depth=0)]
    next_tid = 1
    parked: Dict[str, Deque[int]] = defaultdict(deque)
    nodes = [pcfg.cfg(step.func).node(step.node_id) for step in trace]

    for i, node in enumerate(nodes):
        tag = node.origin.tag
        cur = contexts[-1].tid

        if node.kind == "call":
            spawn = getattr(node.stmt, "kiss_spawn", None)
            owed = None
            if tag == "user":
                out.steps.append(PlanStep(cur, node.origin.sid, "call", node.origin.text))
                owed = PlanStep(cur, node.origin.sid, "return", node.origin.text)
            elif tag == TAG_INLINE_ASYNC:
                tid = next_tid
                next_tid += 1
                out.steps.append(PlanStep(cur, node.origin.sid, "spawn", node.origin.text))
                contexts.append(_ThreadCtx(tid, len(frames)))
            elif tag == TAG_DISPATCH:
                family = spawn or ""
                if not parked[family]:
                    raise TraceMapError(f"dispatch of '{family}' with no parked thread")
                tid = parked[family].popleft()
                contexts.append(_ThreadCtx(tid, len(frames)))
            elif tag == TAG_CHECK and _check_call_records(nodes, i):
                # this check call actually hit the target (recorded an
                # access or failed the conflict assertion inside)
                out.steps.append(PlanStep(cur, node.origin.sid, "access", node.origin.text))
            frames.append(owed)
            continue

        if node.kind == "return":
            if not frames:
                raise TraceMapError("trace unwinds past the entry frame")
            owed = frames.pop()
            if owed is not None and node.stmt.kiss_tag is None:
                out.steps.append(owed)  # not a ``raise`` unwinding
            while len(contexts) > 1 and contexts[-1].depth == len(frames):
                contexts.pop()
            continue

        if tag == TAG_PUT:
            tid = next_tid
            next_tid += 1
            parked[node.stmt.kiss_spawn or ""].append(tid)
            out.steps.append(PlanStep(cur, node.origin.sid, "spawn", node.origin.text))
            continue

        if tag == "user":
            out.steps.append(PlanStep(cur, node.origin.sid, "step", node.origin.text))

    return out


def _check_call_records(nodes, i: int) -> bool:
    """Did the ``check_r``/``check_w`` call at index ``i`` hit the target?

    A hit either sets the ``access`` flag (recording, then RAISE) or fails
    the conflict assertion, in which case the trace ends inside the call.
    A miss runs the miss branch and returns without touching ``access``.
    """
    from repro.lang.ast import Assign, Var

    from . import names

    depth = 0
    for node in nodes[i + 1 :]:
        if node.kind == "call":
            depth += 1
        elif node.kind == "return":
            if depth == 0:
                return False
            depth -= 1
        elif depth == 0 and node.kind == "assign":
            stmt = node.stmt
            if isinstance(stmt, Assign) and isinstance(stmt.lhs, Var) and stmt.lhs.name == names.ACCESS_VAR:
                return True
    return True  # trace ended inside the call: the conflict assertion fired
