"""Property-based tests for Theorem 1 (completeness / coverage).

Two directions, over randomly generated small 2-thread programs:

* **No false errors**: if KISS reports an assertion violation (any
  ``max_ts``), the full-interleaving concurrent checker also finds an
  error.
* **Coverage**: for a 2-thread program, every execution with at most two
  context switches is balanced (§2), so if the concurrent checker finds
  an error within a 2-switch budget, KISS with ``max_ts = 1`` (enough to
  park the single forked thread) must find it too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.concheck import check_concurrent
from repro.core.checker import Kiss
from repro.lang import parse_core

pytestmark = pytest.mark.slow  # heavy property-based suite; deselect with -m "not slow"


GLOBALS = ["g0", "g1"]


def _stmt(kind, var, const):
    if kind == 0:
        return f"{var} = {const};"
    if kind == 1:
        return f"{var} = {var} + 1;"
    if kind == 2:
        return f"assume({var} == {const});"
    if kind == 3:
        return f"assert({var} != {const});"
    return "skip;"


stmt_strategy = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.sampled_from(GLOBALS),
    st.integers(min_value=0, max_value=2),
).map(lambda t: _stmt(*t))


@st.composite
def program_strategy(draw):
    worker = draw(st.lists(stmt_strategy, min_size=1, max_size=3))
    main_pre = draw(st.lists(stmt_strategy, min_size=0, max_size=2))
    main_post = draw(st.lists(stmt_strategy, min_size=1, max_size=3))
    return (
        "int g0; int g1;\n"
        "void worker() { " + " ".join(worker) + " }\n"
        "void main() { "
        + " ".join(main_pre)
        + " async worker(); "
        + " ".join(main_post)
        + " }"
    )


@settings(max_examples=40, deadline=None)
@given(program_strategy(), st.integers(min_value=0, max_value=2))
def test_kiss_never_reports_false_errors(src, max_ts):
    prog = parse_core(src)
    kiss = Kiss(max_ts=max_ts, max_states=20_000)
    r = kiss.check_assertions(prog)
    if r.is_error:
        ground = check_concurrent(parse_core(src), max_states=100_000)
        assert ground.is_error, f"KISS found a phantom error in:\n{src}"


@settings(max_examples=40, deadline=None)
@given(program_strategy())
def test_kiss_covers_two_context_switches(src):
    prog = parse_core(src)
    ground = check_concurrent(prog, max_states=100_000, context_bound=2)
    if ground.is_error and ground.violation_kind == "assert":
        r = Kiss(max_ts=1, max_states=200_000).check_assertions(
            parse_core(src)
        )
        assert r.is_error, f"KISS missed a 2-switch error in:\n{src}"


@settings(max_examples=25, deadline=None)
@given(program_strategy())
def test_safe_under_kiss_when_concurrent_safe(src):
    """Soundness of the *checkers* (not of KISS): if the concurrent program
    has no error at all, KISS must not invent one."""
    prog = parse_core(src)
    ground = check_concurrent(prog, max_states=100_000)
    if ground.is_safe:
        for max_ts in (0, 1):
            r = Kiss(max_ts=max_ts, max_states=200_000).check_assertions(
                parse_core(src)
            )
            assert not r.is_error, f"KISS found an error in a safe program:\n{src}"


@settings(max_examples=25, deadline=None)
@given(program_strategy(), st.integers(min_value=0, max_value=2))
def test_every_kiss_error_trace_replays(src, max_ts):
    """End-to-end completeness: not just *some* concurrent error exists —
    the specific mapped trace must replay under concurrent semantics."""
    prog = parse_core(src)
    kiss = Kiss(max_ts=max_ts, max_states=20_000)
    r = kiss.check_assertions(prog)
    if r.is_error:
        assert r.trace_validated is True, f"mapped trace did not replay for:\n{src}"


@st.composite
def multi_spawn_program(draw):
    """Programs with up to two asyncs (for the both-directions test)."""
    w1 = draw(st.lists(stmt_strategy, min_size=1, max_size=2))
    w2 = draw(st.lists(stmt_strategy, min_size=1, max_size=2))
    body = draw(st.lists(stmt_strategy, min_size=1, max_size=2))
    return (
        "int g0; int g1;\n"
        "void w1() { " + " ".join(w1) + " }\n"
        "void w2() { " + " ".join(w2) + " }\n"
        "void main() { async w1(); async w2(); " + " ".join(body) + " }"
    )


@settings(max_examples=30, deadline=None)
@given(multi_spawn_program())
def test_theorem1_both_directions(src):
    """Theorem 1 as stated: with ts effectively unbounded (>= #asyncs),
    Check(s) goes wrong iff some *balanced* execution of s goes wrong."""
    balanced = check_concurrent(parse_core(src), max_states=200_000, balanced_only=True)
    kiss = Kiss(max_ts=2, max_states=400_000).check_assertions(
        parse_core(src)
    )
    if balanced.exhausted or kiss.exhausted:
        return
    if balanced.violation_kind not in (None, "assert"):
        return  # theorem is about assertion failures
    assert kiss.is_error == balanced.is_error, src
