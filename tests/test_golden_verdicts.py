"""Behaviour fence: pinned verdicts and state counts over the fuzz corpus.

Every ``tests/fuzz_corpus/*.kp`` program is checked on the explicit
backend twice — ``strategy="kiss"`` at its manifest ``max_ts`` and
``strategy="lazy"`` at K=3 — and the verdict plus the number of states
explored must equal ``tests/golden/verdicts.json``.  A refactor or
speed-up of the transforms or the explicit checker that moves a verdict
or a state count fails here.

The test only reads the golden file.  When a change moves a state count
on purpose, regenerate the file explicitly and say why in the change:

    PYTHONPATH=src python tests/test_golden_verdicts.py --write
"""

import json
import sys
from pathlib import Path

from repro.core.checker import Kiss
from repro.lang import parse

CORPUS = Path(__file__).parent / "fuzz_corpus"
GOLDEN = Path(__file__).parent / "golden" / "verdicts.json"

#: the lazy strategy's round budget in the fence.
LAZY_ROUNDS = 3


def fence_rows():
    """One row per (corpus program, strategy), in manifest order."""
    manifest = json.loads((CORPUS / "manifest.json").read_text())["programs"]
    rows = []
    for entry in manifest:
        prog = parse((CORPUS / entry["file"]).read_text())
        for strategy, kwargs in (("kiss", {"max_ts": entry["max_ts"]}),
                                 ("lazy", {"strategy": "lazy", "rounds": LAZY_ROUNDS})):
            result = Kiss(backend="explicit", **kwargs).check_assertions(prog)
            rows.append({
                "program": entry["file"],
                "strategy": strategy,
                "bound": entry["max_ts"] if strategy == "kiss" else LAZY_ROUNDS,
                "verdict": result.verdict,
                "states": result.backend_result.stats.states,
            })
    return rows


def test_every_corpus_program_is_fenced():
    golden = json.loads(GOLDEN.read_text())
    fenced = {row["program"] for row in golden["rows"]}
    assert fenced == {p.name for p in CORPUS.glob("*.kp")}


def test_verdicts_and_state_counts_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert golden["backend"] == "explicit"
    assert fence_rows() == golden["rows"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_verdicts.py --write")
    doc = {"backend": "explicit", "rows": fence_rows()}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {GOLDEN} ({len(doc['rows'])} rows)")
