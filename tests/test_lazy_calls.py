"""Lazy sequentialization of programs with synchronous calls: value
returns, early returns, calls in loops, nested calls, arguments and
results that are shared globals, and a non-void callee that falls off
its end.  Every lazy error must replay under the concurrent semantics.

``PINNED`` holds the verdicts the eager K-round transform gave on these
programs at K=2 and K=3 before it was retired, and ``CONCURRENT`` the
unbounded interleaving checker's verdict."""

import copy

import pytest

from repro.concheck import check_concurrent
from repro.core.checker import Kiss
from repro.fuzz.gen import ProgramGenerator
from repro.lazy import LazyTransformer
from repro.lang import parse
from repro.lang.ast import Block, Call, Var
from repro.lang.lower import lower_program
from repro.lang.pretty import pretty_program

PROGRAMS = {
    "value-return": """
        int g;
        int get() { return g; }
        void w() { g = 1; }
        void main() { int v; async w(); v = get(); assert(v == 0); }
    """,
    "early-return": """
        int x;
        int sign(int a) { if (a > 0) { return 1; } x = 5; return 0; }
        void w() { int r; r = sign(x); assert(r == 0); }
        void main() { async w(); x = 1; }
    """,
    "call-in-loop": """
        int c;
        void inc() { c = c + 1; }
        void w() { int i; i = 0; while (i < 2) { inc(); i = i + 1; } }
        void main() { async w(); assert(c != 1); }
    """,
    "nested-calls": """
        int g;
        int add(int a, int b) { return a + b; }
        int twice(int a) { int r; r = add(a, a); return r; }
        void w() { g = twice(g); }
        void main() { g = 1; async w(); assert(g != 2); }
    """,
    "global-arg": """
        int g;
        void chk(int p) { assert(p == g); }
        void w() { g = 1; }
        void main() { async w(); chk(g); }
    """,
    "return-into-global": """
        int g;
        int one() { return 1; }
        void w() { assert(g == 0); }
        void main() { async w(); g = one(); }
    """,
    "fall-off-default": """
        int g;
        int maybe(int a) { if (a > 0) { return 7; } }
        void w() { int r; r = maybe(g); assert(r != 0); }
        void main() { async w(); g = 1; }
    """,
    "call-three-switch": """
        int x; int y;
        void setx(int v) { x = v; }
        void waity(int v) { assume(y == v); }
        void w() { assume(x == 1); y = 1; assume(x == 2); y = 2; }
        void main() { async w(); setx(1); waity(1); setx(2); waity(2); assert(false); }
    """,
    "locked-safe": """
        int g; bool m;
        void lock() { atomic { assume(!m); m = true; } }
        void unlock() { m = false; }
        void bump() { lock(); g = g + 1; unlock(); }
        void w() { bump(); }
        void main() { async w(); bump(); lock(); assert(g <= 2); unlock(); }
    """,
}

#: name -> (verdict at K=2, verdict at K=3) of the eager transform.
PINNED = {
    "value-return": ("safe", "safe"),
    "early-return": ("error", "error"),
    "call-in-loop": ("error", "error"),
    "nested-calls": ("error", "error"),
    "global-arg": ("error", "error"),
    "return-into-global": ("error", "error"),
    "fall-off-default": ("error", "error"),
    "call-three-switch": ("safe", "error"),
    "locked-safe": ("safe", "safe"),
}

#: name -> verdict of the unbounded interleaving checker.
CONCURRENT = {name: "error" for name in PROGRAMS}
CONCURRENT["locked-safe"] = "safe"

#: Where lazy differs from the pinned eager verdict.  The eager
#: transform missed this error: the worker's write must land between
#: main's spawn and its call, and eager offered no round switch there.
#: The interleaving checker confirms the error, and lazy's trace replays.
LAZY_FINDS = {"value-return": ("error", "error")}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_concurrent_ground_truth(name):
    r = check_concurrent(lower_program(parse(PROGRAMS[name])), max_states=200_000)
    assert r.status.value == CONCURRENT[name]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_lazy_verdicts_match_the_pinned_ones(name, k):
    expected = LAZY_FINDS.get(name, PINNED[name])[k - 2]
    r = Kiss(strategy="lazy", rounds=k).check_assertions(
        parse(PROGRAMS[name])
    )
    assert r.verdict == expected, r.summary()
    if r.is_error:
        assert r.trace_validated is True, r.concurrent_trace.format()


def test_result_writes_and_calls_are_mapped_steps():
    """A call's binding and its result write move data, so the mapped
    trace names both, in the order the schedule ran them."""
    r = Kiss(strategy="lazy", rounds=2).check_assertions(
        parse(PROGRAMS["nested-calls"])
    )
    kinds = [s.kind for s in r.concurrent_trace.steps]
    assert kinds.count("call") == 2 and kinds.count("return") == 2, kinds
    assert kinds.index("call") < kinds.index("return")
    assert r.trace_validated is True


@pytest.mark.parametrize("max_ts", [1, 2])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_kiss_errors_replay(name, max_ts):
    """The Figure 4 mapper names calls and normal returns too, so an
    argument or result that is a shared global replays at the right
    point of the interleaving."""
    r = Kiss(max_ts=max_ts).check_assertions(parse(PROGRAMS[name]))
    if CONCURRENT[name] == "safe":
        assert not r.is_error, r.summary()
    if r.is_error:
        assert r.trace_validated is True, r.concurrent_trace.format()


def test_kiss_trace_names_calls_and_returns():
    r = Kiss(max_ts=1).check_assertions(parse(PROGRAMS["nested-calls"]))
    kinds = [s.kind for s in r.concurrent_trace.steps]
    assert kinds.count("call") == kinds.count("return") == 2, kinds
    assert r.trace_validated is True


def test_a_callee_that_always_returns_gets_no_default_result():
    """``twice`` and ``add`` return on every path, so neither call gets a
    default-result write: no unreachable ``g = 0`` node, and two switch
    points fewer than unconditional default writes would give."""
    lt = LazyTransformer(rounds=2)
    text = pretty_program(lt.transform(lower_program(parse(PROGRAMS["nested-calls"]))))
    assert "g = 0;" not in text
    assert len(lt.cs_points) == 7, lt.cs_points
    # a callee that can fall off its end keeps its default write
    lt = LazyTransformer(rounds=2)
    text = pretty_program(lt.transform(lower_program(parse(PROGRAMS["fall-off-default"]))))
    assert "__kiss_lz1_r = 0;" in text


# -- differential: a worker body moved into a helper keeps its verdict -------------


def _wrap_workers(prog):
    """Every non-entry function ``w`` becomes ``void w() { w_body(); }``
    with the old body in ``w_body``."""
    out = copy.deepcopy(prog)
    for name, decl in list(out.functions.items()):
        if name == out.entry:
            continue
        body = copy.deepcopy(decl)
        body.name = f"{name}_body"
        out.functions[body.name] = body
        args = [Var(p.name) for p in decl.params]
        decl.body = Block([Call(None, Var(body.name), args)])
        decl.locals = {}
    return parse(pretty_program(out))


@pytest.mark.slow
def test_wrapped_workers_keep_their_verdicts():
    for gp in ProgramGenerator().generate_batch(50, seed=0):
        wrapped = _wrap_workers(gp.program)
        assert any(n.endswith("_body") for n in wrapped.functions) or gp.n_forks == 0
        for k in (2, 3):
            plain = Kiss(strategy="lazy", rounds=k).check_assertions(gp.program)
            r = Kiss(strategy="lazy", rounds=k).check_assertions(wrapped)
            assert r.verdict == plain.verdict, f"seed {gp.seed} K={k}: {r.summary()}"
            if r.is_error:
                assert r.trace_validated is True, f"seed {gp.seed} K={k}"
