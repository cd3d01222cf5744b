"""Mapping lazy sequential error traces back to concurrent interleavings.

The lazy transform executes the round-robin schedule in its real order,
so this mapper is a transliteration: walk the sequential trace once, and
every payload node (an original statement executing inside some
``__kiss_lz_step<t>``) is the next step of instance ``t``'s thread, in
exactly the interleaved order the schedule ran it.

Thread ids are assigned the way :mod:`repro.concheck.replay` assigns
them: the entry instance is tid 0, and each ``TAG_LZ_SPAWN`` marker (the
``skip`` emitted at a spawn node, carrying the ``async`` statement's sid
and the child's static instance index) allocates the next tid in
dynamic spawn order.  A flattened call's binding node and result write
map to ``call``/``return`` steps carrying the call's sid: both read or
write data (arguments, the result's target), so the replayer must take
them exactly where the schedule did.  An error trace already ends at the
failing ``assert`` — lazy has no deferred error flag — so no truncation
pass is needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cfg.graph import ProgramCfg
from repro.core import names
from repro.core.tracemap import ConcurrentTrace, PlanStep, TraceMapError
from repro.seqcheck.trace import TraceStep

from .transform import TAG_LZ_CALL, TAG_LZ_RETURN, TAG_LZ_SPAWN

#: tagged nodes that map to call/return plan steps
_FRAME_STEPS = {TAG_LZ_CALL: "call", TAG_LZ_RETURN: "return"}

_STEP_PREFIX = names.PREFIX + "lz_step"


def _instance_of(func: str) -> Optional[int]:
    """The instance index of a step function, or None for other functions."""
    if not func.startswith(_STEP_PREFIX):
        return None
    try:
        return int(func[len(_STEP_PREFIX):])
    except ValueError:
        return None


def map_trace(pcfg: ProgramCfg, trace: List[TraceStep]) -> ConcurrentTrace:
    """Reconstruct the concurrent interleaving from a sequential trace of
    a :class:`~repro.lazy.transform.LazyTransformer` program."""
    tids: Dict[int, int] = {0: 0}
    next_tid = 1
    out = ConcurrentTrace()
    for step in trace:
        inst = _instance_of(step.func)
        if inst is None:
            continue  # driver nodes: segment iters, stop constraints
        node = pcfg.cfg(step.func).node(step.node_id)
        if node.kind in ("call", "return"):
            continue
        origin = node.origin
        cur = tids.get(inst)
        if cur is None:
            raise TraceMapError(f"lazy: instance {inst} steps before being spawned")
        if origin.tag == TAG_LZ_SPAWN:
            spawn = getattr(node.stmt, "kiss_spawn", None)
            if spawn is None:
                raise TraceMapError("lazy: spawn marker without an instance index")
            child = int(spawn)
            if child in tids:
                raise TraceMapError(f"lazy: instance {child} spawned twice")
            tids[child] = next_tid
            next_tid += 1
            out.steps.append(PlanStep(cur, origin.sid, "spawn", origin.text))
        elif origin.tag in _FRAME_STEPS:
            out.steps.append(PlanStep(cur, origin.sid, _FRAME_STEPS[origin.tag], origin.text))
        elif origin.tag == "user" and origin.sid:
            out.steps.append(PlanStep(cur, origin.sid, "step", origin.text))
    return out
