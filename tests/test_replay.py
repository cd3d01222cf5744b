"""Validate mapped KISS error traces by replaying them concurrently.

These tests close the loop on the paper's completeness claim: every
error trace KISS produces, once mapped back (Figure 1's bottom arrow),
must be realizable by the original concurrent program.
"""

import pytest

from repro.concheck.replay import replay_trace
from repro.core.checker import Kiss
from repro.core.race import RaceTarget
from repro.drivers import DEVICE_EXTENSION, bluetooth_program, toastmon_program
from repro.lang import parse_core


def mapped_assertion_trace(src, max_ts):
    # statement ids are per-parse, so the replayed program must be the
    # very object KISS checked (the transform itself never mutates it)
    prog = parse_core(src)
    r = Kiss(max_ts=max_ts).check_assertions(prog)
    assert r.is_error
    return prog, r.concurrent_trace


def test_replay_single_thread_assert():
    prog, tr = mapped_assertion_trace("void main() { assert(false); }", 0)
    assert replay_trace(prog, tr).ok


def test_replay_inline_async():
    prog, tr = mapped_assertion_trace(
        """
        bool flag;
        void worker() { flag = true; }
        void main() { async worker(); assert(!flag); }
        """,
        0,
    )
    assert replay_trace(prog, tr).ok


def test_replay_parked_dispatch():
    prog, tr = mapped_assertion_trace(
        """
        int phase;
        void worker() { assume(phase == 1); phase = 2; }
        void main() { async worker(); phase = 1; assume(phase == 2); assert(false); }
        """,
        1,
    )
    assert replay_trace(prog, tr).ok


def test_replay_two_parked_threads():
    prog, tr = mapped_assertion_trace(
        """
        int a; int b;
        void w1() { a = 1; }
        void w2() { assume(a == 1); b = 1; }
        void main() { async w2(); async w1(); assume(b == 1); assert(false); }
        """,
        2,
    )
    assert replay_trace(prog, tr).ok


def test_replay_bluetooth_assertion_trace():
    """The §2.3 walkthrough end to end: KISS's ts=1 error trace is a real
    execution of the Figure 2 driver."""
    prog = bluetooth_program()
    r = Kiss(max_ts=1).check_assertions(prog)
    assert r.is_error
    result = replay_trace(prog, r.concurrent_trace)
    assert result.ok, result.reason


def test_replay_race_trace_is_feasible():
    prog = parse_core(
        """
        int g;
        void worker() { g = 2; }
        void main() { async worker(); g = 1; }
        """
    )
    r = Kiss(max_ts=0).check_race(prog, RaceTarget.global_var("g"))
    assert r.is_race
    result = replay_trace(prog, r.concurrent_trace, expect="feasible")
    assert result.ok, result.reason


@pytest.mark.parametrize("max_ts", [0, 1])
@pytest.mark.parametrize("src", [
    # the reader's access is an assume that blocks until the write
    "bool b; void w() { assume(b); } void main() { async w(); b = true; }",
    # the second access blocks: main's assume(b) after w cleared b
    "bool b; void w() { b = false; } void main() { async w(); assume(b); }",
])
def test_replay_race_whose_access_blocks(src, max_ts):
    """Figure 5 records or checks an access *before* it runs, so a race
    is real even when the access itself would block; the replayer only
    has to reach it."""
    r = Kiss(max_ts=max_ts).check_race(
        parse_core(src), RaceTarget.global_var("b")
    )
    assert r.is_race, r.summary()
    assert r.trace_validated is True, r.concurrent_trace.format()


@pytest.mark.parametrize("src", [
    # main reads g as a call argument
    "int g; void use(int p) { skip; } void w() { g = 1; } void main() { async w(); use(g); }",
    # main writes g as a call's result
    "int g; int one() { return 1; } void w() { g = 2; } void main() { async w(); g = one(); }",
])
def test_replay_race_whose_access_is_a_call(src):
    """An access on a call statement is reached at the call node itself,
    before the call is taken."""
    r = Kiss().check_race(parse_core(src), RaceTarget.global_var("g"))
    assert r.is_race, r.summary()
    assert r.trace_validated is True, r.concurrent_trace.format()


def test_replay_bluetooth_race_trace():
    prog = bluetooth_program()
    r = Kiss(max_ts=0).check_race(
        prog, RaceTarget.field_of(DEVICE_EXTENSION, "stoppingFlag")
    )
    assert r.is_race
    result = replay_trace(prog, r.concurrent_trace, expect="feasible")
    assert result.ok, result.reason


def test_replay_toastmon_race_trace():
    prog = toastmon_program()
    r = Kiss(max_ts=0).check_race(
        prog, RaceTarget.field_of("DEVICE_EXTENSION", "DevicePnPState")
    )
    assert r.is_race
    result = replay_trace(prog, r.concurrent_trace, expect="feasible")
    assert result.ok, result.reason


def test_replay_rejects_fabricated_schedule():
    """A nonsense schedule (wrong thread for the failing assert) must not
    replay — the validator is not vacuous."""
    src = """
    bool flag;
    void worker() { flag = true; }
    void main() { async worker(); assert(!flag); }
    """
    prog, tr = mapped_assertion_trace(src, 0)
    # corrupt: claim the final assert was executed by the worker thread
    tr.steps[-1].tid = 1
    assert not replay_trace(prog, tr).ok


def test_replay_rejects_reordered_steps():
    src = """
    int phase;
    void worker() { assume(phase == 1); phase = 2; }
    void main() { async worker(); phase = 1; assume(phase == 2); assert(false); }
    """
    prog, tr = mapped_assertion_trace(src, 1)
    tr.steps.reverse()
    assert not replay_trace(prog, tr).ok
