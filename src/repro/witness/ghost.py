"""Mapping witnesses back to ghost annotations on the concurrent program.

A witness certifies the *sequential* program the KISS (or lazy K-round)
transformation produced; the user wrote the *concurrent* one.  This
module lifts the certified invariant back through the transform the same
way the trace mappers (:mod:`repro.core.tracemap`,
:mod:`repro.lazy.tracemap`) lift error traces: instrumentation state
(every ``__kiss_``-prefixed variable, function, and statement) is
dropped, leaving observations about the user's shared globals at user
program points — the ghost-variable view of Erhard et al.
(arXiv:2411.16612).

The ghost section is *informational provenance*: the independent
validator deliberately ignores it (it is derived from the same checker
output the certificate is, so it adds no trust), but it is what a human
— or a downstream concurrent-witness consumer — reads.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.cfg.graph import ProgramCfg
from repro.core.names import PREFIX
from repro.witness.encoding import encode_value

#: Cap on distinct recorded values per (location, variable) — ghost
#: annotations are a summary for humans, not a second invariant.
_MAX_VALUES = 32


def _render(value) -> str:
    """Compact deterministic rendering of one frozen value."""
    try:
        enc = encode_value(value)
    except Exception:
        return repr(value)
    if enc[0] in ("i", "b"):
        return str(enc[1]).lower() if enc[0] == "b" else str(enc[1])
    if enc[0] == "null":
        return "null"
    return ":".join(str(p) for p in enc)


def reached_ghost(states: List[tuple], prog, pcfg: ProgramCfg) -> dict:
    """Ghost annotations from a reached-set witness: per user program
    point, the values each user-visible shared global takes there."""
    gkeys = sorted(prog.globals)
    visible = [(i, n) for i, n in enumerate(gkeys) if not n.startswith(PREFIX)]
    # locations["func: text"][var] = set of rendered values
    locations: Dict[str, Dict[str, Set[str]]] = {}
    for globals_t, _, stacks_t in states:
        if not stacks_t or not stacks_t[0]:
            continue
        func, node_id, _ = stacks_t[0][-1]
        if func.startswith(PREFIX):
            continue
        try:
            node = pcfg.cfg(func).node(node_id)
        except (KeyError, IndexError):
            continue
        text = node.origin.text if node.origin and node.origin.text else node.kind
        if PREFIX in text:
            continue
        vars_ = locations.setdefault(f"{func}: {text}", {})
        for i, name in visible:
            bucket = vars_.setdefault(name, set())
            if len(bucket) < _MAX_VALUES:
                bucket.add(_render(globals_t[i]))
    out = [
        {"at": at, "globals": {var: sorted(vals) for var, vals in sorted(locations[at].items())}}
        for at in sorted(locations)
    ]
    return {
        "note": "informational provenance — not checked by the validator",
        "locations": out,
    }


def predicate_ghost(global_preds: List, local_preds: Dict[str, List]) -> dict:
    """Ghost annotations from a predicate-invariant witness: the final
    abstraction's predicates restricted to user-visible state (a
    predicate mentioning any instrumentation variable is dropped)."""

    def user_preds(preds) -> List[str]:
        return sorted({str(p) for p in preds if PREFIX not in str(p)})

    out_local = {}
    for fname in sorted(local_preds):
        if fname.startswith(PREFIX):
            continue
        kept = user_preds(local_preds[fname])
        if kept:
            out_local[fname] = kept
    return {
        "note": "informational provenance — not checked by the validator",
        "predicates": {"global": user_preds(global_preds), "local": out_local},
    }
