"""Edge cases across the stack: odd-but-legal programs, boundary
conditions, and determinism guarantees."""

import pytest

from repro.concheck import check_concurrent
from repro.core.checker import Kiss
from repro.lang import parse_core
from repro.seqcheck.explicit import check_sequential


def seq(src, **kw):
    return check_sequential(parse_core(src), **kw)


# -- determinism ---------------------------------------------------------------


def test_checking_is_deterministic():
    src = """
    int g;
    void w() { g = g + 1; }
    void main() { async w(); choice { g = 1; } or { g = 2; } assert(g < 5); }
    """
    rs = [Kiss(max_ts=1).check_assertions(parse_core(src)) for _ in range(3)]
    assert len({r.verdict for r in rs}) == 1
    assert len({r.backend_result.stats.states for r in rs}) == 1


def test_bfs_traces_are_minimal():
    # the shortest path to the violation skips the loop entirely
    src = """
    int g;
    void main() {
      iter { g = g + 1; assume(g < 2); }
      assert(g != 0);
    }
    """
    r = seq(src)
    assert r.is_error
    # shortest trace: iter exits immediately, condition eval, assert
    assert len(r.trace) <= 4


# -- odd but legal programs ---------------------------------------------------------


def test_empty_main():
    assert seq("void main() { }").is_safe


def test_deeply_nested_blocks():
    src = "int g; void main() { { { { g = 1; } } } assert(g == 1); }"
    assert seq(src).is_safe


def test_choice_with_single_branch():
    assert seq("int g; void main() { choice { g = 1; } assert(g == 1); }").is_safe


def test_nested_choice_and_iter():
    src = """
    int g;
    void main() {
      iter {
        choice { g = g + 1; assume(g < 3); } or { skip; }
      }
      assert(g <= 2);
    }
    """
    assert seq(src).is_safe


def test_self_recursive_function_with_base_case():
    src = """
    int depth(int n) {
      if (n == 0) { return 0; }
      int d;
      d = depth(n - 1);
      return d + 1;
    }
    void main() { int x; x = depth(7); assert(x == 7); }
    """
    assert seq(src).is_safe


def test_mutual_recursion():
    src = """
    bool is_even(int n) { if (n == 0) { return true; } bool r; r = is_odd(n - 1); return r; }
    bool is_odd(int n) { if (n == 0) { return false; } bool r; r = is_even(n - 1); return r; }
    void main() { bool e; e = is_even(6); assert(e); }
    """
    assert seq(src).is_safe


def test_pointer_to_pointer():
    src = """
    void main() {
      int x; int *p; int **pp;
      p = &x;
      pp = &p;
      **pp = 5;
      assert(x == 5);
    }
    """
    # note: **pp = 5 needs lowering of a double deref store
    assert seq(src).is_safe


def test_pointer_comparison():
    src = """
    struct S { int a; }
    void main() {
      S *p; S *q;
      p = malloc(S);
      q = p;
      assert(p == q);
      q = malloc(S);
      assert(p != q);
    }
    """
    assert seq(src).is_safe


def test_dangling_pointer_to_dead_frame_detected():
    src = """
    int* leak() { int local; return &local; }
    void main() { int *p; int v; p = leak(); v = *p; }
    """
    r = seq(src)
    assert r.is_error
    assert r.violation_kind == "dangling"


def test_function_value_stored_in_struct_field():
    src = """
    struct S { func handler; }
    int hit;
    void on_event() { hit = 1; }
    void main() {
      S *s; func h;
      s = malloc(S);
      s->handler = on_event;
      h = s->handler;
      h();
      assert(hit == 1);
    }
    """
    assert seq(src).is_safe


def test_spawn_same_function_many_times():
    src = """
    int n;
    void w() { atomic { n = n + 1; } }
    void main() {
      async w(); async w(); async w(); async w();
      assume(n == 4);
      assert(n == 4);
    }
    """
    assert check_concurrent(parse_core(src)).is_safe
    assert Kiss(max_ts=2).check_assertions(parse_core(src)).is_safe


def test_async_inside_loop():
    src = """
    int n; int i;
    void w() { atomic { n = n + 1; } }
    void main() {
      while (i < 3) { async w(); i = i + 1; }
      assume(n == 3);
      assert(n == 3);
    }
    """
    assert Kiss(max_ts=1).check_assertions(parse_core(src)).is_safe


def test_thread_spawning_from_spawned_thread_chain():
    src = """
    int depth;
    void w3() { atomic { depth = depth + 1; } }
    void w2() { async w3(); atomic { depth = depth + 1; } }
    void w1() { async w2(); atomic { depth = depth + 1; } }
    void main() {
      async w1();
      assume(depth == 3);
      assert(depth == 3);
    }
    """
    assert check_concurrent(parse_core(src)).is_safe
    assert Kiss(max_ts=3).check_assertions(parse_core(src)).is_safe


def test_zero_iteration_while():
    assert seq("int g; void main() { while (false) { g = 1; } assert(g == 0); }").is_safe


def test_constant_folding_not_assumed():
    # `1 == 1` must still be evaluated correctly through temps
    assert seq("void main() { assert(1 == 1); }").is_safe
    assert seq("void main() { assert(1 == 2); }").is_error


def test_large_constants():
    assert seq("int g; void main() { g = 1000000 * 1000000; assert(g > 0); }").is_safe


def test_negative_division_chain():
    assert seq("int g; void main() { g = -100 / 7 / -2; assert(g == 7); }").is_safe
