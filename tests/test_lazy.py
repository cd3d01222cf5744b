"""The lazy pc-guarded K-round sequentialization: KISS parity at K=2 on
both backends, purely sequential behaviour at K=1, strictly more
coverage than KISS at K=3, the replay contract of its trace mapper, and
the scalar-fragment restrictions.  Programs with calls are covered by
``test_lazy_calls.py``."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.core.checker import Kiss
from repro.core.transform import TransformError
from repro.concheck import check_concurrent
from repro.lang import parse
from repro.lang.lower import lower_program
from repro.lazy import LazyTransformer, lazy_transform

CORPUS = Path(__file__).parent / "fuzz_corpus"
MANIFEST = {
    e["file"]: e
    for e in json.loads((CORPUS / "manifest.json").read_text())["programs"]
}

THREE_SWITCH = (CORPUS / "three-switch.kp").read_text()
INCREMENT_CHAIN = (CORPUS / "increment-chain.kp").read_text()

#: corpus file -> verdict of the lazy pipeline at K=3 (the bound that
#: covers every pinned program's erroneous interleaving).
LAZY_K3 = {
    "two-forks-error.kp": "error",
    "safe-locked.kp": "safe",
    "loop-safe.kp": "safe",
    "error-locked.kp": "error",
    "delayed-worker.kp": "error",
    "three-switch.kp": "error",
    "increment-chain.kp": "error",
}


#: name -> (source, max_ts, expected verdict) — the backend-parity set.
PROGRAMS = {
    "delayed-worker.kp": (
        (CORPUS / "delayed-worker.kp").read_text(),
        MANIFEST["delayed-worker.kp"]["max_ts"],
        MANIFEST["delayed-worker.kp"]["sequential"],
    ),
    "bound-error": (
        """
        int x;
        void w() { assert(x < 2); }
        void main() { async w(); x = 2; }
        """,
        1,
        "error",
    ),
    "handoff-safe": (
        """
        int data; bool ready;
        void w() { assume(ready); assert(data == 5); }
        void main() { data = 5; ready = true; async w(); }
        """,
        1,
        "safe",
    ),
}


def _lazy(rounds, **kw):
    return Kiss(strategy="lazy", rounds=rounds, **kw)


# -- corpus verdicts at K=3, every error trace replay-validated --------------------


def test_lazy_k3_covers_every_corpus_file():
    assert set(LAZY_K3) == set(MANIFEST)


@pytest.mark.parametrize("name", sorted(LAZY_K3))
def test_corpus_verdicts_at_k3(name):
    source = (CORPUS / name).read_text()
    r = _lazy(3).check_assertions(parse(source))
    assert r.verdict == LAZY_K3[name], f"{name}: {r.summary()}"
    assert r.strategy == "lazy" and r.rounds == 3
    assert "[lazy K=3]" in r.summary()
    if r.is_error:
        assert r.trace_validated is True, f"{name}: trace must replay concurrently"


# -- K=2 parity with KISS, both backends ------------------------------------------


@pytest.mark.parametrize("name", PROGRAMS)
@pytest.mark.parametrize("backend", ["explicit", "cegar"])
def test_k2_matches_kiss_verdicts(name, backend):
    source, max_ts, expected = PROGRAMS[name]
    assert Kiss(max_ts=max_ts, backend=backend).check_assertions(parse(source)).verdict == expected
    r = _lazy(2, backend=backend).check_assertions(parse(source))
    assert r.verdict == expected, r.summary()
    assert r.strategy == "lazy" and r.rounds == 2
    if backend == "explicit" and r.is_error:
        assert r.trace_validated is True, r.summary()


# -- K=1 runs each instance once, in spawn order -----------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [("delayed-worker.kp", "error"), ("bound-error", "error"), ("handoff-safe", "safe")],
)
def test_k1_verdicts(name, expected):
    source, _, _ = PROGRAMS[name]
    r = _lazy(1).check_assertions(parse(source))
    assert r.verdict == expected, r.summary()
    assert r.rounds == 1
    if r.is_error:
        assert r.trace_validated is True


def test_k1_finds_no_preemption_bugs():
    # the three-switch handshake needs preemption; one round runs each
    # instance to completion in spawn order, which blocks on the first assume
    r = _lazy(1).check_assertions(parse(THREE_SWITCH))
    assert r.verdict == "safe", r.summary()


# -- K=3 beats KISS on the three-switch protocol -----------------------------------


def test_three_switch_invisible_to_kiss():
    r = Kiss(max_ts=1).check_assertions(parse(THREE_SWITCH))
    assert r.verdict == "safe", r.summary()


def test_three_switch_safe_at_k2_error_at_k3():
    assert _lazy(2).check_assertions(parse(THREE_SWITCH)).verdict == "safe"
    r = _lazy(3).check_assertions(parse(THREE_SWITCH))
    assert r.verdict == "error"
    assert r.trace_validated is True, "mapped counterexample must replay concurrently"
    # the reconstructed interleaving alternates between the two threads
    tids = [step.tid for step in r.concurrent_trace.steps]
    assert len(set(tids)) == 2, r.concurrent_trace.format()


def test_three_switch_has_a_real_concurrent_witness():
    result = check_concurrent(lower_program(parse(THREE_SWITCH)), max_states=200_000)
    assert result.is_error, "the corpus program must truly go wrong unboundedly"


def test_increment_chain_invisible_to_kiss_found_at_k3():
    """x == 2 arises only by incrementing through a handshake that needs
    more than KISS's two context switches; lazy K=3 finds it."""
    prog = parse(INCREMENT_CHAIN)
    assert Kiss(max_ts=1).check_assertions(prog).verdict == "safe"
    r = _lazy(3).check_assertions(prog)
    assert r.verdict == "error", r.summary()
    assert r.trace_validated is True


def test_increment_chain_has_a_real_concurrent_witness():
    result = check_concurrent(lower_program(parse(INCREMENT_CHAIN)), max_states=200_000)
    assert result.is_error, "the corpus program must truly go wrong unboundedly"


# -- both backends, witness emission ----------------------------------------------


def test_cegar_backend_smoke():
    src = """
    int data; bool ready;
    void w() { assume(ready); assert(data == 5); }
    void main() { data = 5; ready = true; async w(); }
    """
    for rounds, expected in ((1, "safe"), (2, "safe")):
        r = _lazy(rounds, backend="cegar").check_assertions(parse(src))
        assert r.verdict == expected, r.summary()


def test_safe_verdict_emits_a_certified_witness():
    from repro.witness.validate import validate_witness_doc

    r = _lazy(2, witness=True).check_assertions(parse(THREE_SWITCH))
    assert r.is_safe and r.witness is not None
    assert r.witness["strategy"] == "lazy" and r.witness["rounds"] == 2
    assert validate_witness_doc(r.witness).status == "certified"


# -- cs_tile: schedule-point subsets ----------------------------------------------


def test_cs_points_are_enumerated():
    t = LazyTransformer(rounds=3)
    t.transform(lower_program(parse(THREE_SWITCH)))
    assert len(t.instances) == 2
    assert t.cs_points and all(":" in p for p in t.cs_points)
    assert len(t.cs_points) == len(set(t.cs_points))


def test_empty_tile_is_sequential():
    """An empty tile allows no constrained segment end: only run-to-
    completion schedules remain, so the three-switch error vanishes."""
    r = _lazy(3, cs_tile=[]).check_assertions(parse(THREE_SWITCH))
    assert r.verdict == "safe", r.summary()


def test_full_tile_matches_monolithic():
    t = LazyTransformer(rounds=3)
    t.transform(lower_program(parse(THREE_SWITCH)))
    r = _lazy(3, cs_tile=list(t.cs_points)).check_assertions(parse(THREE_SWITCH))
    assert r.verdict == "error" and r.trace_validated is True


def test_malformed_tile_point_is_rejected():
    with pytest.raises(TransformError, match="cs_tile"):
        lazy_transform(lower_program(parse(THREE_SWITCH)), rounds=3,
                       cs_tile=["nonsense"])


# -- validation and fragment restrictions ------------------------------------------


def test_ctor_validation():
    with pytest.raises(ValueError):
        Kiss(strategy="lazy", rounds=0)
    with pytest.raises(ValueError):
        LazyTransformer(rounds=0)
    with pytest.raises(ValueError, match="cs_tile"):
        Kiss(strategy="kiss", cs_tile=["0:1"])
    for retired in ("nonsense", "rounds"):
        with pytest.raises(ValueError, match="unknown strategy"):
            Kiss(strategy=retired)


def test_race_checking_is_kiss_only():
    from repro.core.race import RaceTarget

    kiss = _lazy(2)
    with pytest.raises(ValueError, match="KISS-only"):
        kiss.check_race(parse("int g; void main() { g = 1; }"),
                        RaceTarget.global_var("g"))


def test_unlowered_input_is_rejected():
    with pytest.raises(TransformError, match="core program"):
        LazyTransformer(rounds=2).transform(parse(THREE_SWITCH))


@pytest.mark.parametrize(
    "source,message",
    [
        ("void f() { f(); } void main() { f(); }", "recursive call"),
        ("void f() { g(); } void g() { f(); } void main() { f(); }", "recursive call"),
        ("void w() { } void main() { func f; f = w; f(); }", "use strategy='kiss'"),
        ("struct S { int a; } void main() { S* p; p = malloc(S); }", "unsupported"),
        ("struct S { int a; } S* p; void main() { }", "unsupported type"),
        ("int x; void w() { x = 1; } void main() { while (x < 3) { async w(); } }",
         "async under iter"),
        ("int x; void w() { x = 1; } void go() { async w(); } "
         "void main() { while (x < 3) { go(); } }", "async under iter"),
    ],
)
def test_fragment_restrictions(source, message):
    core = lower_program(parse(source))
    with pytest.raises(TransformError, match=message):
        LazyTransformer(rounds=2).transform(core)


def test_spawn_cycle_is_rejected():
    src = """
    void a() { async b(); }
    void b() { async a(); }
    void main() { async a(); }
    """
    with pytest.raises(TransformError, match="spawn cycle"):
        LazyTransformer(rounds=2).transform(lower_program(parse(src)))


def test_division_is_allowed():
    src = "int x; void main() { x = 8; x = x / 2; assert(x == 4); }"
    r = _lazy(2).check_assertions(parse(src))
    assert r.verdict == "safe", r.summary()


# -- observability -----------------------------------------------------------------


def test_transform_counters():
    with obs.observing(obs.Recorder()) as rec:
        lazy_transform(lower_program(parse(THREE_SWITCH)), rounds=3)
        counters = rec.metrics()["counters"]
    assert counters["lazy_instances"] == 2
    assert counters["lazy_nodes"] >= 10
    assert counters["lazy_cs_candidates"] == counters["lazy_nodes"] - 2


def test_atomic_is_one_step():
    """An atomic block is a single node: no schedule point can land
    inside it, so the dirty intermediate state is never observable."""
    src = """
    int x;
    void w() { assert(x != 1); }
    void main() { async w(); atomic { x = 1; x = 2; } }
    """
    r = _lazy(3).check_assertions(parse(src))
    assert r.verdict == "safe", r.summary()
