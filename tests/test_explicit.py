"""Unit tests for the sequential explicit-state checker."""

import pytest

from repro.concheck.interleave import check_concurrent
from repro.lang import parse_core
from repro.seqcheck.explicit import check_sequential


def run(src, **kw):
    return check_sequential(parse_core(src), **kw)


def test_trivially_safe():
    r = run("void main() { skip; }")
    assert r.is_safe


def test_assert_true_safe():
    r = run("void main() { assert(true); }")
    assert r.is_safe


def test_assert_false_fails():
    r = run("void main() { assert(false); }")
    assert r.is_error
    assert r.violation_kind == "assert"


def test_arithmetic():
    r = run("int g; void main() { g = 2 + 3 * 4; assert(g == 14); }")
    assert r.is_safe


def test_division_truncates_toward_zero():
    r = run("int g; void main() { g = -7 / 2; assert(g == -3); }")
    assert r.is_safe


def test_modulo_sign_follows_dividend():
    r = run("int g; void main() { g = -7 % 2; assert(g == -1); }")
    assert r.is_safe


def test_division_by_zero_detected():
    r = run("int g; int h; void main() { g = 1 / h; }")
    assert r.is_error
    assert r.violation_kind == "div-zero"


def test_globals_default_initialized():
    r = run("int g; bool b; void main() { assert(g == 0); assert(!b); }")
    assert r.is_safe


def test_global_initializer():
    r = run("int g = 5; void main() { assert(g == 5); }")
    assert r.is_safe


def test_negative_global_initializer():
    r = run("int g = -3; void main() { assert(g == -3); }")
    assert r.is_safe


def test_if_both_branches_explored():
    r = run(
        "bool b; void main() { b = nondet; if (b) { assert(true); } else { assert(false); } }"
    )
    assert r.is_error


def test_assume_prunes_path():
    r = run("bool b; void main() { b = nondet; assume(b); assert(b); }")
    assert r.is_safe


def test_assume_false_blocks_sequential_program():
    # assume(false) in a sequential program means the path never continues,
    # so the assert after it is unreachable: safe.
    r = run("void main() { assume(false); assert(false); }")
    assert r.is_safe


def test_while_loop_terminates_via_memoization():
    r = run("int g; void main() { while (g < 5) { g = g + 1; } assert(g == 5); }")
    assert r.is_safe


def test_iter_explores_zero_or_more():
    r = run("int g; void main() { iter { g = g + 1; assume(g < 3); } assert(g < 3); }")
    assert r.is_safe


def test_function_call_and_return_value():
    r = run("int inc(int x) { return x + 1; } void main() { int y; y = inc(41); assert(y == 42); }")
    assert r.is_safe


def test_recursion_bounded():
    r = run(
        """
        int fact(int n) { if (n <= 1) { return 1; } int r; r = fact(n - 1); return n * r; }
        void main() { int x; x = fact(5); assert(x == 120); }
        """
    )
    assert r.is_safe


def test_fall_off_end_of_nonvoid_returns_default():
    r = run("int f() { skip; } void main() { int x; x = 1; x = f(); assert(x == 0); }")
    assert r.is_safe


def test_pointer_roundtrip_through_local():
    r = run("void main() { int x; int *p; p = &x; *p = 9; assert(x == 9); }")
    assert r.is_safe


def test_pointer_to_global():
    r = run("int g; void main() { int *p; p = &g; *p = 4; assert(g == 4); }")
    assert r.is_safe


def test_null_deref_detected():
    r = run("void main() { int *p; p = null; *p = 1; }")
    assert r.is_error
    assert r.violation_kind == "null-deref"


def test_malloc_and_field_access():
    r = run(
        "struct S { int a; bool b; } void main() { S *p; p = malloc(S); assert(p->a == 0); p->a = 3; assert(p->a == 3); }"
    )
    assert r.is_safe


def test_two_cells_independent():
    r = run(
        """
        struct S { int a; }
        void main() {
          S *p; S *q;
          p = malloc(S); q = malloc(S);
          p->a = 1; q->a = 2;
          assert(p->a == 1); assert(q->a == 2); assert(p != q);
        }
        """
    )
    assert r.is_safe


def test_address_of_field():
    r = run(
        "struct S { int a; } void main() { S *p; int *q; p = malloc(S); q = &p->a; *q = 8; assert(p->a == 8); }"
    )
    assert r.is_safe


def test_malloc_in_loop_converges_via_gc_canonicalization():
    # Each iteration leaks a cell; canonical freezing garbage-collects it,
    # so the state space stays finite.
    r = run(
        "struct S { int a; } void main() { int i; iter { S *p; p = malloc(S); p->a = 1; } assert(true); }",
        max_states=10_000,
    )
    assert r.is_safe


def test_call_in_loop_converges():
    r = run(
        "int id(int x) { return x; } void main() { int g; iter { g = id(g); } assert(g == 0); }",
        max_states=10_000,
    )
    assert r.is_safe


def test_indirect_call():
    r = run(
        "int f() { return 7; } void main() { func v; int x; v = f; x = v(); assert(x == 7); }"
    )
    assert r.is_safe


@pytest.mark.parametrize("check", [check_sequential, check_concurrent],
                         ids=["explicit", "interleaving"])
def test_indirect_call_undefined_function_value(check):
    r = check(parse_core("void main() { func v; v(); }"))
    assert r.is_error
    assert r.violation_kind == "undef-call"


def test_async_rejected():
    r = run("void f() { } void main() { async f(); }")
    assert r.is_error
    assert r.violation_kind == "not-sequential"


def test_atomic_executes_indivisibly_and_transparently():
    r = run("int g; void main() { atomic { g = g + 1; g = g + 1; } assert(g == 2); }")
    assert r.is_safe


def test_atomic_with_internal_choice():
    r = run(
        "int g; void main() { atomic { choice { g = 1; } or { g = 2; } } assert(g >= 1); assert(g <= 2); }"
    )
    assert r.is_safe


def test_atomic_leading_assume_blocks_path():
    r = run("bool b; void main() { atomic { assume(b); } assert(false); }")
    assert r.is_safe  # the only path is blocked


def test_state_budget_exhaustion_reported():
    r = run(
        "int g; void main() { iter { g = g + 1; } }",
        max_states=50,
    )
    assert r.exhausted


def test_error_trace_ends_with_failing_assert():
    r = run("int g; void main() { g = 1; g = 2; assert(g == 1); }")
    assert r.is_error
    assert "assert" in str(r.trace[-1]).lower()
    # trace is shortest-first BFS: two assigns, the lowered condition
    # evaluation, and the assert itself
    assert len(r.trace) == 4


def test_choice_explores_all_branches():
    r = run("int g; void main() { choice { g = 1; } or { g = 2; } or { g = 3; } assert(g != 2); }")
    assert r.is_error


def test_stats_populated():
    r = run("int g; void main() { g = 1; }")
    assert r.stats.states >= 2
    assert r.stats.transitions >= 1
