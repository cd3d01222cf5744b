"""Trust properties of kiss-witness/1 certificates.

Three layers, mirroring the threat model in docs/WITNESSES.md:

* **corpus certification** — every witness emitted over the pinned fuzz
  corpus validates ``certified`` (the independent validator agrees with
  the checker on every safe verdict it certifies);
* **mutation killing** — tampering with a certificate (dropping an
  invariant conjunct, perturbing a reached state, editing the embedded
  program) is *never* ``certified``, and inductiveness failures localize
  to the broken transition;
* **independence** — the validator imports nothing from
  ``repro.seqcheck`` (checked against ``sys.modules`` in a fresh
  subprocess), and the ``python -m repro.witness.validate`` entry point
  works standalone.

Also the golden-artifact tests: emission is byte-stable for one
explicit and one cegar certificate (the PR 4 golden pattern).
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.checker import Kiss
from repro.fuzz.oracle import UNCERTIFIED, differential_check
from repro.lang import parse
from repro.schemas import SchemaError, validate_witness
from repro.witness.validate import validate_witness_doc

CORPUS = Path(__file__).parent / "fuzz_corpus"
GOLDEN = Path(__file__).parent / "golden"

#: The cegar golden program (also in tests/test_backend_parity.py's
#: pinned set) — scalar, safe, two CEGAR rounds.
HANDOFF = """int data;
bool ready;

void w() {
    assume(ready);
    assert(data == 5);
}

void main() {
    data = 5;
    ready = true;
    async w();
}
"""


def _manifest():
    return json.loads((CORPUS / "manifest.json").read_text())["programs"]


def _corpus_witness(name, max_ts, backend="explicit"):
    prog = parse((CORPUS / name).read_text())
    r = Kiss(max_ts=max_ts, backend=backend, witness=True).check_assertions(prog)
    return r


@pytest.fixture(scope="module")
def loop_safe_witness():
    """One explicit reached-set certificate, shared by the mutation tests."""
    r = _corpus_witness("loop-safe.kp", 1)
    assert r.is_safe and r.witness is not None
    return r.witness


@pytest.fixture(scope="module")
def cegar_witness():
    """One cegar predicate-invariant certificate."""
    r = Kiss(max_ts=1, backend="cegar", witness=True).check_assertions(parse(HANDOFF))
    assert r.is_safe and r.witness is not None
    return r.witness


# -- corpus certification ----------------------------------------------------------


@pytest.mark.parametrize("backend", ["explicit", "cegar"])
def test_every_corpus_witness_certifies(backend):
    """Every safe verdict over the pinned fuzz corpus must come with a
    certificate the independent validator certifies; error verdicts must
    not emit one."""
    certified = 0
    for entry in _manifest():
        r = _corpus_witness(entry["file"], entry["max_ts"], backend)
        if r.verdict != "safe":
            assert r.witness is None, entry["file"]
            continue
        assert r.witness is not None, f"{entry['file']}: safe without a witness"
        report = validate_witness_doc(r.witness)
        assert report.status == "certified", f"{entry['file']}[{backend}]: {report}"
        certified += 1
    assert certified >= (3 if backend == "explicit" else 1)


def test_lazy_strategy_witness_certifies():
    """The lazy K-round sequentialization certifies too, and the ghost
    section lists plain per-location values of the user's globals."""
    prog = parse((CORPUS / "three-switch.kp").read_text())
    r = Kiss(max_ts=1, strategy="lazy", rounds=2, witness=True).check_assertions(prog)
    assert r.is_safe and r.witness is not None
    assert r.witness["strategy"] == "lazy" and r.witness["rounds"] == 2
    assert validate_witness_doc(r.witness).status == "certified"
    rendered = json.dumps(r.witness["ghost"])
    assert "__kiss_" not in rendered  # instrumentation state never leaks
    for row in r.witness["ghost"]["locations"]:
        assert all(isinstance(vals, list) for vals in row["globals"].values())


def test_no_witness_for_error_verdicts():
    r = _corpus_witness("delayed-worker.kp", 1)
    assert r.is_error and r.witness is None


# -- mutation killing --------------------------------------------------------------


def test_dropped_state_localizes_to_missing_transition(loop_safe_witness):
    """Dropping one reached state breaks single-step closure; the report
    must be a refuted inductiveness judgment whose ``missing_state`` is
    exactly the dropped member."""
    doc = copy.deepcopy(loop_safe_witness)
    dropped = doc["invariant"]["states"].pop(len(doc["invariant"]["states"]) // 2)
    report = validate_witness_doc(doc)
    assert report.status == "refuted"
    assert report.judgment == "inductiveness"
    assert report.missing_state == dropped
    assert report.location  # names the transition's source program point


def test_every_dropped_state_is_caught(loop_safe_witness):
    """No single invariant conjunct is dead weight: dropping *any* state
    is refuted (sampled across the set for test-time)."""
    states = loop_safe_witness["invariant"]["states"]
    for idx in {0, 1, len(states) // 2, len(states) - 1}:
        doc = copy.deepcopy(loop_safe_witness)
        doc["invariant"]["states"].pop(idx)
        report = validate_witness_doc(doc)
        assert report.status == "refuted", f"index {idx} survived"
        assert report.judgment in ("initiation", "inductiveness")


def test_perturbed_state_breaks_inductiveness(loop_safe_witness):
    """Editing one value in one reached state is refuted — either the
    original state is now missing from some transition, or the perturbed
    state's own successors are."""
    doc = copy.deepcopy(loop_safe_witness)
    perturbed = False
    for state in doc["invariant"]["states"]:
        for value in state["globals"]:
            if value[0] == "i":
                value[1] += 97
                perturbed = True
                break
        if perturbed:
            break
    assert perturbed
    report = validate_witness_doc(doc)
    assert report.status == "refuted"
    assert report.judgment in ("initiation", "inductiveness")


def test_tampered_program_text_is_refuted(loop_safe_witness):
    doc = copy.deepcopy(loop_safe_witness)
    doc["program"] += "\n// tampered"
    report = validate_witness_doc(doc)
    assert report.status == "refuted" and report.judgment == "integrity"


def test_dropped_predicate_is_refuted(cegar_witness):
    """Dropping a predicate makes every cube the wrong width — the
    certificate no longer describes its own abstraction."""
    doc = copy.deepcopy(cegar_witness)
    assert doc["invariant"]["predicates"]["global"], "golden program has global preds"
    doc["invariant"]["predicates"]["global"].pop()
    report = validate_witness_doc(doc)
    assert report.status != "certified"
    assert report.status == "refuted"


def test_dropped_cube_is_refuted(cegar_witness):
    """Removing one abstract cube from a visited location must surface
    as an inductiveness failure at that location."""
    doc = copy.deepcopy(cegar_witness)
    victim = None
    for loc in doc["invariant"]["locations"]:
        if loc["cubes"]:
            victim = loc
            break
    assert victim is not None
    victim["cubes"].pop(0)
    report = validate_witness_doc(doc)
    if report.status == "certified":
        # The dropped cube may be subsumed only when several cubes map to
        # the same concrete states; the golden program's are all live.
        pytest.fail("dropped cube went unnoticed")
    assert report.status == "refuted"
    assert report.judgment == "inductiveness"


def test_schema_tampering_never_certifies(loop_safe_witness):
    for mutate in (
        lambda d: d.update(schema="kiss-witness/0"),
        lambda d: d.update(kind="predicate-invariant"),  # wrong kind for payload
        lambda d: d.update(program_sha256="0" * 64),
        lambda d: d["invariant"].update(states=[]),
    ):
        doc = copy.deepcopy(loop_safe_witness)
        mutate(doc)
        assert validate_witness_doc(doc).status != "certified"


# -- schema + golden artifacts -----------------------------------------------------


def test_golden_docs_pass_schema_validation():
    for name in ("witness-loop-safe-explicit.json", "witness-handoff-cegar.json"):
        doc = json.loads((GOLDEN / name).read_text())
        validate_witness(doc)  # raises SchemaError on shape drift
    with pytest.raises(SchemaError):
        validate_witness({"schema": "kiss-witness/1"})


def test_golden_explicit_witness_is_byte_stable(loop_safe_witness):
    expected = (GOLDEN / "witness-loop-safe-explicit.json").read_text()
    got = json.dumps(loop_safe_witness, indent=2, sort_keys=True) + "\n"
    assert got == expected


def test_golden_cegar_witness_is_byte_stable(cegar_witness):
    expected = (GOLDEN / "witness-handoff-cegar.json").read_text()
    got = json.dumps(cegar_witness, indent=2, sort_keys=True) + "\n"
    assert got == expected


def test_golden_docs_certify():
    for name in ("witness-loop-safe-explicit.json", "witness-handoff-cegar.json"):
        doc = json.loads((GOLDEN / name).read_text())
        assert validate_witness_doc(doc).status == "certified", name


# -- independence ------------------------------------------------------------------


def test_validator_never_imports_seqcheck(tmp_path):
    """The trust boundary: importing and running the validator must not
    pull in any ``repro.seqcheck`` module (checked in a fresh process —
    this file's own imports would mask it here)."""
    cert = tmp_path / "cert.json"
    cert.write_text((GOLDEN / "witness-handoff-cegar.json").read_text())
    code = (
        "import json, sys\n"
        "from repro.witness.validate import validate_witness_doc\n"
        "import repro.witness  # the package import must stay clean too\n"
        f"report = validate_witness_doc(json.load(open({str(cert)!r})))\n"
        "assert report.status == 'certified', report\n"
        "bad = sorted(m for m in sys.modules if m.startswith('repro.seqcheck'))\n"
        "assert not bad, f'validator pulled in {bad}'\n"
        "print('clean')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"


def test_standalone_validator_cli(tmp_path):
    """``python -m repro.witness.validate`` is the independent checker's
    front door: exit 0/1 mirror certified/refuted."""
    good = tmp_path / "good.json"
    good.write_text((GOLDEN / "witness-loop-safe-explicit.json").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "repro.witness.validate", str(good)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("certified")

    doc = json.loads(good.read_text())
    doc["program"] += "\n// tampered"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.witness.validate", str(bad), "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["judgment"] == "integrity"


# -- the oracle's third cross-check ------------------------------------------------


def test_oracle_witness_cross_check_certifies():
    prog = parse((CORPUS / "safe-locked.kp").read_text())
    v = differential_check(prog, max_ts=2, witness=True)
    assert not v.diverged
    assert v.witness_status == "certified"
    assert "witness=certified" in v.describe()


def test_oracle_flags_refuted_witness_as_uncertified(monkeypatch):
    """A safe verdict whose certificate fails independent validation is
    the ``uncertified`` divergence class."""
    import repro.witness.emit as emit_mod

    real = emit_mod.emit_witness

    def tampered(transformed, **kw):
        doc = real(transformed, **kw)
        if doc is not None:
            doc["invariant"]["states"].pop()
        return doc

    monkeypatch.setattr(emit_mod, "emit_witness", tampered)
    prog = parse((CORPUS / "loop-safe.kp").read_text())
    v = differential_check(prog, max_ts=1, witness=True)
    assert v.diverged and v.divergence == UNCERTIFIED
    assert v.witness_status == "refuted"
    assert "certificate is refuted" in v.detail


def test_oracle_without_witness_mode_skips_cross_check():
    prog = parse((CORPUS / "loop-safe.kp").read_text())
    v = differential_check(prog, max_ts=1)
    assert v.witness_status is None
