"""Integration tests: classic concurrency kernels end to end.

Each scenario is checked three ways where meaningful: ground truth by
the interleaving checker, KISS at the paper's ts bounds, and (for
errors) trace replay.  These exercise the whole stack — parser,
lowering, both transformations, scheduler synthesis, backends.
"""

import pytest

from repro.concheck import check_concurrent
from repro.core.checker import Kiss
from repro.core.race import RaceTarget
from repro.lang import parse_core

pytestmark = pytest.mark.slow  # heavy end-to-end suite; deselect with -m "not slow"


PRODUCER_CONSUMER = """
int buffer; bool full;
void producer() {
  buffer = 42;
  full = true;
}
void main() {
  int got;
  async producer();
  assume(full);
  got = buffer;
  assert(got == 42);
}
"""


def test_producer_consumer_safe():
    prog = parse_core(PRODUCER_CONSUMER)
    assert check_concurrent(prog).is_safe
    assert Kiss(max_ts=1).check_assertions(parse_core(PRODUCER_CONSUMER)).is_safe


def test_producer_consumer_broken_ordering():
    # setting `full` before the data is published is a real bug; both
    # checkers must see it
    src = PRODUCER_CONSUMER.replace(
        "buffer = 42;\n  full = true;", "full = true;\n  buffer = 42;"
    )
    assert check_concurrent(parse_core(src)).is_error
    r = Kiss(max_ts=1).check_assertions(parse_core(src))
    assert r.is_error and r.trace_validated


PETERSON = """
bool flag0; bool flag1; int turn; int in_critical;

void thread1() {
  flag1 = true;
  turn = 0;
  iter { assume(flag0 && turn == 0); }
  assume(!(flag0 && turn == 0));
  // critical section
  atomic { in_critical = in_critical + 1; }
  assert(in_critical == 1);
  atomic { in_critical = in_critical - 1; }
  flag1 = false;
}

void main() {
  flag0 = true;
  turn = 1;
  async thread1();
  iter { assume(flag1 && turn == 1); }
  assume(!(flag1 && turn == 1));
  // critical section
  atomic { in_critical = in_critical + 1; }
  assert(in_critical == 1);
  atomic { in_critical = in_critical - 1; }
  flag0 = false;
}
"""


def test_peterson_mutual_exclusion_holds():
    """Peterson's algorithm: ground truth says the critical sections are
    mutually exclusive; KISS (unsound direction) must not report a
    phantom violation."""
    assert check_concurrent(parse_core(PETERSON), max_states=300_000).is_safe
    assert Kiss(max_ts=1).check_assertions(parse_core(PETERSON)).is_safe


def test_naive_lock_set_before_check_is_mutex_but_can_hang():
    # the set-then-check two-flag "lock": mutual exclusion actually holds
    # (the failure mode is both threads blocking), so no assertion fails
    src = """
    bool flag0; bool flag1; int in_critical;
    void thread1() {
      flag1 = true;
      assume(!flag0);
      atomic { in_critical = in_critical + 1; }
      assert(in_critical == 1);
      atomic { in_critical = in_critical - 1; }
      flag1 = false;
    }
    void main() {
      async thread1();
      flag0 = true;
      assume(!flag1);
      atomic { in_critical = in_critical + 1; }
      assert(in_critical == 1);
      atomic { in_critical = in_critical - 1; }
      flag0 = false;
    }
    """
    assert check_concurrent(parse_core(src)).is_safe
    assert Kiss(max_ts=1).check_assertions(parse_core(src)).is_safe


def test_naive_lock_check_before_set_fails_mutex():
    # TOCTOU flavour: both threads can pass the check before either flag
    # is set — both enter.  The violating schedule is balanced (the
    # spawned thread runs one contiguous partial block), so KISS at
    # ts = 1 finds it.
    src = """
    bool flag0; bool flag1; int in_critical;
    void thread1() {
      assume(!flag0);
      flag1 = true;
      atomic { in_critical = in_critical + 1; }
      assert(in_critical == 1);
      atomic { in_critical = in_critical - 1; }
      flag1 = false;
    }
    void main() {
      async thread1();
      assume(!flag1);
      flag0 = true;
      atomic { in_critical = in_critical + 1; }
      assert(in_critical == 1);
      atomic { in_critical = in_critical - 1; }
      flag0 = false;
    }
    """
    assert check_concurrent(parse_core(src)).is_error
    r = Kiss(max_ts=1).check_assertions(parse_core(src))
    assert r.is_error and r.trace_validated


TICKET_LOCK = """
int next_ticket; int now_serving; int g;

void take_and_work() {
  int my;
  atomic { my = next_ticket; next_ticket = next_ticket + 1; }
  assume(now_serving == my);
  g = g + 1;
  atomic { now_serving = now_serving + 1; }
}

void main() {
  async take_and_work();
  take_and_work();
  assume(g == 2);
  assert(g == 2);
}
"""


def test_ticket_lock_serializes_increments():
    assert check_concurrent(parse_core(TICKET_LOCK), max_states=300_000).is_safe
    assert Kiss(max_ts=1).check_assertions(parse_core(TICKET_LOCK)).is_safe


def test_ticket_lock_protects_against_race():
    # g is only touched while holding the ticket: after one thread's
    # access is recorded (and the thread killed mid-critical-section),
    # the other thread can never be served — no conflicting access
    r = Kiss(max_ts=0).check_race(parse_core(TICKET_LOCK), RaceTarget.global_var("g"))
    assert r.is_safe


BARRIER = """
int arrived; bool go; int result;

void worker() {
  atomic { arrived = arrived + 1; }
  assume(go);
  atomic { result = result + 10; }
}

void main() {
  async worker();
  async worker();
  atomic { arrived = arrived + 1; }
  assume(arrived == 3);
  go = true;
  assume(result == 20);
  assert(result == 20);
}
"""


def test_barrier_releases_all_workers():
    assert check_concurrent(parse_core(BARRIER), max_states=400_000).is_safe
    assert Kiss(max_ts=2).check_assertions(parse_core(BARRIER)).is_safe


def test_reference_counted_resource_lifecycle():
    """The Bluetooth pattern generalized: last-one-out frees; use after
    free asserted against."""
    src = """
    int refs; bool freed;
    void user() {
      int r;
      atomic {
        r = refs;
        if (r > 0) { refs = refs + 1; }
      }
      if (r > 0) {
        assert(!freed);
        atomic { refs = refs - 1; }
      }
    }
    void releaser() {
      int r;
      atomic { refs = refs - 1; r = refs; }
      assume(r == 0);
      freed = true;
    }
    void main() {
      refs = 1;
      async user();
      releaser();
    }
    """
    # the test-and-increment is atomic (the FIXED idiom): safe
    assert check_concurrent(parse_core(src)).is_error is False
    assert Kiss(max_ts=1).check_assertions(parse_core(src)).is_safe


def test_reference_counting_broken_toctou():
    """The actual Bluetooth bug pattern: check outside the atomic."""
    src = """
    int refs; bool freed;
    void user() {
      int r;
      r = refs;
      if (r > 0) {
        atomic { refs = refs + 1; }
        assert(!freed);
        atomic { refs = refs - 1; }
      }
    }
    void releaser() {
      int r;
      atomic { refs = refs - 1; r = refs; }
      assume(r == 0);
      freed = true;
    }
    void main() {
      refs = 1;
      async releaser();
      user();
    }
    """
    # the Bluetooth role assignment: the interruptible check-then-act
    # runs on the main thread, the releaser is parked and dispatched
    # mid-flight — the violating execution is balanced
    assert check_concurrent(parse_core(src)).is_error
    r = Kiss(max_ts=1).check_assertions(parse_core(src))
    assert r.is_error and r.trace_validated


def test_toctou_with_swapped_roles_is_a_coverage_gap():
    """The same bug with the roles swapped (user parked, releaser on
    main) needs an unbalanced schedule — the spawned user must be
    interrupted by main and then resume.  KISS misses it at every ts
    bound: the paper's qualitative unsoundness, precisely characterized."""
    src = """
    int refs; bool freed;
    void user() {
      int r;
      r = refs;
      if (r > 0) {
        atomic { refs = refs + 1; }
        assert(!freed);
        atomic { refs = refs - 1; }
      }
    }
    void releaser() {
      int r;
      atomic { refs = refs - 1; r = refs; }
      assume(r == 0);
      freed = true;
    }
    void main() {
      refs = 1;
      async user();
      releaser();
    }
    """
    ground = check_concurrent(parse_core(src))
    assert ground.is_error  # the bug is real...
    from repro.concheck.executions import is_balanced, thread_string

    assert not is_balanced(thread_string(ground.trace))  # ...but unbalanced
    balanced_only = check_concurrent(parse_core(src), balanced_only=True)
    assert balanced_only.is_safe  # no balanced execution exposes it
    for bound in (0, 1, 2):
        assert Kiss(max_ts=bound).check_assertions(parse_core(src)).is_safe
