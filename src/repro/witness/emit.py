"""Emission of ``kiss-witness/1`` safety certificates.

This is the *trusting* side of the witness protocol: it runs inside the
checker's process and may import anything.  Its one subtlety is the
**canonical re-run**: the certificate must describe the program *text*
it embeds, but an in-memory transformed AST and its reparse produce
structurally different CFGs (node ids, chain layouts), so state/location
keys minted against one do not validate against the other.  Emission
therefore pretty-prints the transformed program, re-parses that text,
and re-runs the appropriate backend on the reparse with collection
enabled — the embedded text, the invariant, and the sha256 are then all
facts about one artifact, and the independent validator reconstructs the
very same CFG from the text alone.  The primary check (whose verdict the
caller reports, and which cache keys are derived from) is untouched.

If the canonical re-run does not come back safe within budget — or the
reached states fall outside the encodable fragment — no witness is
emitted (``None``); a safe verdict without a certificate is an honest
outcome, a wrong certificate is not.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.cfg.build import build_program_cfg
from repro.lang import parse_core
from repro.lang.ast import Program
from repro.lang.pretty import pretty_program
from repro.schemas import WITNESS_SCHEMA, validate_witness
from repro.seqcheck.cegar import CegarChecker
from repro.seqcheck.explicit import SequentialChecker
from repro.seqcheck.trace import CheckStatus
from repro.witness.encoding import (
    EncodeError,
    encode_expr_list,
    encode_state,
    state_sort_key,
)
from repro.witness.ghost import predicate_ghost, reached_ghost


def emit_witness(
    transformed: Program,
    backend: str = "explicit",
    strategy: str = "kiss",
    rounds: Optional[int] = None,
    max_states: int = 500_000,
    cegar_rounds: int = 16,
    target: Optional[str] = None,
) -> Optional[dict]:
    """Build a ``kiss-witness/1`` certificate for a sequentialized
    program the primary check found safe; returns None when no witness
    can be honestly emitted (re-run not safe within budget, or states
    outside the encodable fragment)."""
    text = pretty_program(transformed)
    try:
        canon = parse_core(text)
    except Exception:
        return None
    if backend == "cegar":
        built = _emit_predicates(canon, cegar_rounds)
    else:
        built = _emit_reached(canon, max_states)
    if built is None:
        return None
    kind, invariant, ghost, meta = built
    doc = {
        "schema": WITNESS_SCHEMA,
        "kind": kind,
        "backend": backend,
        "strategy": strategy,
        "rounds": rounds,
        "entry": canon.entry,
        "program": text,
        "program_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "invariant": invariant,
        "ghost": ghost,
        "meta": meta,
    }
    if target is not None:
        doc["meta"]["target"] = target
    validate_witness(doc)
    return doc


def _emit_reached(canon: Program, max_states: int) -> Optional[Tuple[str, dict, dict, dict]]:
    """Re-run the explicit checker on the canonical reparse collecting
    its single-step-closed reached-set."""
    pcfg = build_program_cfg(canon)
    checker = SequentialChecker(pcfg, max_states=max_states, collect_reached=True)
    try:
        result = checker.check()
    except Exception:
        return None
    if result.status is not CheckStatus.SAFE or not checker.reached:
        return None
    # Frozen tuples are heterogeneous (None / str / int) and not mutually
    # orderable; determinism comes from sorting the *encoded* states.
    frozen_states = list(checker.reached)
    try:
        encoded = sorted((encode_state(s) for s in frozen_states), key=state_sort_key)
    except EncodeError:
        return None
    invariant = {"states": encoded}
    ghost = reached_ghost(frozen_states, canon, pcfg)
    meta = {
        "states": len(encoded),
        "explored_states": result.stats.states,
        "explored_transitions": result.stats.transitions,
    }
    return ("reached-set", invariant, ghost, meta)


def _emit_predicates(canon: Program, cegar_rounds: int) -> Optional[Tuple[str, dict, dict, dict]]:
    """Re-run the full CEGAR loop on the canonical reparse collecting the
    final safe abstraction as a predicate invariant."""
    try:
        result = CegarChecker(canon, max_rounds=cegar_rounds,
                              collect_certificate=True).check()
    except Exception:
        return None
    if result.status != "safe" or result.certificate is None:
        return None
    cert = result.certificate
    try:
        predicates = {
            "global": encode_expr_list(cert["global_preds"]),
            "local": {f: encode_expr_list(ps)
                      for f, ps in sorted(cert["local_preds"].items())},
        }
        locations = [
            {
                "func": func,
                "ordinal": ordinal,
                "stmt": entry["stmt"],
                "cubes": sorted([list(c) for c in entry["cubes"]]),
            }
            for (func, ordinal), entry in sorted(cert["locations"].items())
        ]
    except EncodeError:
        return None
    invariant = {"predicates": predicates, "locations": locations}
    ghost = predicate_ghost(cert["global_preds"], cert["local_preds"])
    meta = {
        "cegar_rounds": result.rounds,
        "predicates": result.predicates,
        "locations": len(locations),
    }
    return ("predicate-invariant", invariant, ghost, meta)
