"""Unit tests for the value model, stores, and canonical freezing."""

import functools

import pytest
from hypothesis import given, strategies as st

from repro.cfg.build import build_program_cfg
from repro.lang import parse_core
from repro.lang.ast import BOOL, FUNC, INT, PtrType
from repro.seqcheck.interp import Interp, Violation, World
from repro.seqcheck.state import (
    NULL,
    Frame,
    FuncVal,
    MemoryError_,
    PtrVal,
    Store,
    default_value,
    field_addr,
)


# -- values -----------------------------------------------------------------


def test_default_values():
    assert default_value(INT) == 0
    assert default_value(BOOL) is False
    assert default_value(PtrType(INT)) == NULL
    assert isinstance(default_value(FUNC), FuncVal)


def test_null_pointer_identity():
    assert NULL.is_null
    assert PtrVal(None) == NULL
    assert PtrVal(("g", "x")) != NULL


def test_funcval_equality():
    assert FuncVal("f") == FuncVal("f")
    assert FuncVal("f") != FuncVal("g")


# -- store ----------------------------------------------------------------------


def prog_with_struct():
    return parse_core("struct S { int a; bool b; } void main() { }")


def test_malloc_creates_default_cell():
    store = Store()
    ptr = store.malloc(prog_with_struct(), "S")
    assert not ptr.is_null
    cid = ptr.addr[1]
    cell = store.heap[cid]
    sname, fields = cell.sname, cell.fields
    assert sname == "S"
    assert fields == {"a": 0, "b": False}


def test_global_read_write():
    store = Store()
    store.globals["g"] = 1
    assert store.read(("g", "g"), {}) == 1
    store.write(("g", "g"), 7, {})
    assert store.globals["g"] == 7


def test_unknown_global_read_raises():
    with pytest.raises(MemoryError_):
        Store().read(("g", "nope"), {})


def test_null_read_raises():
    with pytest.raises(MemoryError_) as exc:
        Store().read(None, {})
    assert exc.value.kind == "null-deref"


def test_local_read_through_frames():
    store = Store()
    frame = Frame("f", 0, {"x": 5}, frame_id=3)
    assert store.read(("l", 3, "x"), {3: frame}) == 5
    store.write(("l", 3, "x"), 6, {3: frame})
    assert frame.locals["x"] == 6


def test_dangling_local_read_raises():
    with pytest.raises(MemoryError_) as exc:
        Store().read(("l", 99, "x"), {})
    assert exc.value.kind == "dangling"


def test_field_addr_requires_cell_pointer():
    with pytest.raises(MemoryError_):
        field_addr(NULL, "a")
    with pytest.raises(MemoryError_):
        field_addr(PtrVal(("g", "x")), "a")
    assert field_addr(PtrVal(("c", 0)), "a") == ("f", 0, "a")


def test_field_read_unknown_field_raises():
    store = Store()
    ptr = store.malloc(prog_with_struct(), "S")
    with pytest.raises(MemoryError_):
        store.read(("f", ptr.addr[1], "zz"), {})


# -- canonical freezing -----------------------------------------------------------

#: the program the hand-built worlds below belong to.
WORLD_SRC = "struct S { int a; bool b; } int a; bool b; S *p; void main() { }"


@functools.lru_cache(maxsize=None)
def freezer_for(src):
    """The program-bound freezer of ``src`` (one per program, as a checker holds)."""
    return Interp(build_program_cfg(parse_core(src))).freezer


def freeze(world, src=WORLD_SRC):
    return freezer_for(src).freeze(world.store, world.stacks)


def world_with(globals_=None, heap_cells=0, prog=None):
    store = Store()
    store.globals.update({"a": 0, "b": False, "p": NULL})
    store.globals.update(globals_ or {})
    prog = prog or prog_with_struct()
    ptrs = [store.malloc(prog, "S") for _ in range(heap_cells)]
    frame = Frame("main", 0, {}, store.fresh_frame_id())
    return World(store, [[frame]]), ptrs


def test_freeze_is_deterministic():
    w, _ = world_with({"a": 1, "b": True})
    assert freeze(w) == freeze(w)


def test_freeze_differs_on_values():
    w1, _ = world_with({"a": 1})
    w2, _ = world_with({"a": 2})
    assert freeze(w1) != freeze(w2)


def test_unreachable_cells_are_garbage_collected():
    w1, _ = world_with({"a": 1})
    w2, _ = world_with({"a": 1}, heap_cells=3)  # never referenced
    assert freeze(w1) == freeze(w2)


def test_reachable_cells_kept():
    w1, ptrs = world_with({"a": 1}, heap_cells=1)
    w1.store.globals["p"] = ptrs[0]
    w2, _ = world_with({"a": 1})
    w2.store.globals["p"] = NULL
    assert freeze(w1) != freeze(w2)


def test_allocation_history_canonicalized():
    """Two worlds whose live heaps are isomorphic but with different
    allocation counters must freeze identically."""
    prog = prog_with_struct()
    w1, _ = world_with({}, prog=prog)
    p1 = w1.store.malloc(prog, "S")
    w1.store.globals["p"] = p1

    w2, _ = world_with({}, prog=prog)
    dead1 = w2.store.malloc(prog, "S")
    dead2 = w2.store.malloc(prog, "S")
    p2 = w2.store.malloc(prog, "S")  # different cell id than p1
    w2.store.globals["p"] = p2
    assert p1.addr != p2.addr
    assert freeze(w1) == freeze(w2)


def test_frame_ids_canonicalized_by_position():
    store1 = Store()
    f1 = Frame("main", 0, {"x": 1}, store1.fresh_frame_id())
    w1 = World(store1, [[f1]])

    store2 = Store()
    store2.fresh_frame_id()  # burn an id
    store2.fresh_frame_id()
    f2 = Frame("main", 0, {"x": 1}, store2.fresh_frame_id())
    w2 = World(store2, [[f2]])
    assert f1.frame_id != f2.frame_id
    assert freeze(w1, "void main() { int x; }") == freeze(w2, "void main() { int x; }")


def test_pointer_to_local_freezes_by_position():
    store = Store()
    f = Frame("main", 0, {"x": 1, "p": None}, store.fresh_frame_id())
    f.locals["p"] = PtrVal(("l", f.frame_id, "x"))
    w = World(store, [[f]])
    frozen = freeze(w, "void main() { int x; int *p; }")
    assert freeze(w, "void main() { int x; int *p; }") == frozen  # stable


def test_freezer_cache_survives_same_program_shape():
    fr = freezer_for("int a; int b; void main() { int x; int y; }")
    store = Store()
    store.globals.update({"b": 2, "a": 1})
    f = Frame("main", 0, {"y": 0, "x": 1}, store.fresh_frame_id())
    k1 = fr.freeze(store, [[f]])
    store.set_global("a", 5)
    k2 = fr.freeze(store, [[f]])
    assert k1 != k2
    store.set_global("a", 1)
    assert fr.freeze(store, [[f]]) == k1


def test_world_clone_is_deep():
    w, ptrs = world_with({"a": 1}, heap_cells=1)
    w.store.globals["p"] = ptrs[0]
    c = w.clone()
    c.store.write(("g", "a"), 99, c)
    c.store.write(("f", ptrs[0].addr[1], "a"), 42, c)
    assert w.store.globals["a"] == 1
    assert w.store.heap[ptrs[0].addr[1]].fields["a"] == 0


#: one state with every value shape a freeze renames (see shape_world).
SHAPE_SRC = """
struct S { int v; S *next; int *pv; }
S *g; int *gi; func gf; int n; bool ok;
void f(int *q) { int y; }
void main() { int x; S *c; int *dp; }
"""

#: the exact frozen form of shape_world(), the ``kiss-witness/1`` shape.
SHAPE_FROZEN = (
    # globals, sorted: g, gf, gi, n, ok
    (("ptr", "c", 0), ("fn", "f"), ("ptr", "f", 0, "v"), 3, True),
    # reachable cells in reach order; cell 0 is unreachable and vanishes
    (
        (0, "S", (("ptr", "c", 1), ("ptr", "f", 1, "v"), 5)),  # next, pv, v
        (1, "S", (("ptr", None), ("ptr", None), 0)),
    ),
    # one thread: main (locals c, dp, x) under f (locals q, y)
    ((
        ("main", 3, (("ptr", "c", 0), ("ptr", "ld", 0, "z"), 7)),
        ("f", 1, (("ptr", "l", (0, 0), "x"), 0)),
    ),),
)


def shape_world():
    """A state holding a reachable and an unreachable cell, pointers to a
    cell and into a cell field, a pointer to a live local, a dangling
    pointer to a dead frame's local, a function value and null."""
    interp, _ = interp_for(SHAPE_SRC)
    w = interp.initial_world()
    store = w.store
    store.malloc(interp.prog, "S")  # cell 0: never referenced
    a = store.malloc(interp.prog, "S")  # cell 1
    b = store.malloc(interp.prog, "S")  # cell 2
    main = w.top(0)
    main.node = 3
    w.stacks[0].append(interp.new_frame("f", [PtrVal(("l", main.frame_id, "x"))], store))
    w.top(0).node = 1
    for addr, value in [
        (("l", main.frame_id, "x"), 7),
        (("l", main.frame_id, "c"), a),
        (("l", main.frame_id, "dp"), PtrVal(("l", 99, "z"))),  # frame 99 is dead
        (("g", "g"), a),
        (("g", "gi"), PtrVal(("f", a.addr[1], "v"))),
        (("g", "gf"), FuncVal("f")),
        (("g", "n"), 3),
        (("g", "ok"), True),
        (("f", a.addr[1], "next"), b),
        (("f", a.addr[1], "pv"), PtrVal(("f", b.addr[1], "v"))),
        (("f", a.addr[1], "v"), 5),
    ]:
        store.write(addr, value, w)
    return interp, w


def test_freeze_shape_is_pinned():
    interp, w = shape_world()
    frozen = interp.freezer.freeze(w.store, w.stacks)
    assert frozen == SHAPE_FROZEN
    assert repr(frozen) == repr(SHAPE_FROZEN)  # True, not 1
    assert interp.freezer.freeze(w.store, w.stacks) == SHAPE_FROZEN  # memoised rows


def contents(w):
    """A deep copy of everything a world holds."""
    return (
        dict(w.store.globals),
        {cid: (cell.sname, dict(cell.fields)) for cid, cell in w.store.heap.items()},
        [[(f.func, f.node, dict(f.locals), f.frame_id) for f in s] for s in w.stacks],
    )


def replaced(t, path, value):
    """``t`` with the element at index path ``path`` replaced."""
    if not path:
        return value
    i = path[0]
    return t[:i] + (replaced(t[i], path[1:], value),) + t[i + 1:]


def _write_global(interp, w):
    w.store.write(("g", "n"), 4, w)


def _write_local(interp, w):
    interp._write_var("y", 9, w.top(0), w.store)


def _write_local_through_pointer(interp, w):
    w.store.write(("l", w.stacks[0][0].frame_id, "x"), 11, w)


def _write_field(interp, w):
    w.store.write(("f", 2, "v"), 8, w)


def _write_pc(interp, w):
    w.top(0).node = 2


@pytest.mark.parametrize("write, path, value", [
    (_write_global, (0, 3), 4),
    (_write_local, (2, 0, 1, 2, 1), 9),
    (_write_local_through_pointer, (2, 0, 0, 2, 2), 11),
    (_write_field, (1, 1, 2, 2), 8),
    (_write_pc, (2, 0, 1, 1), 2),
])
def test_clone_is_copy_on_write(write, path, value):
    interp, w = shape_world()
    freeze_ = interp.freezer.freeze
    assert freeze_(w.store, w.stacks) == SHAPE_FROZEN  # memoises w's rows first
    before = contents(w)
    w2 = w.clone()
    write(interp, w2)
    assert contents(w) == before
    assert freeze_(w2.store, w2.stacks) == replaced(SHAPE_FROZEN, path, value)
    assert freeze_(w.store, w.stacks) == SHAPE_FROZEN
    # the source may still write after the clone without reaching the clone
    w.store.write(("g", "n"), 5, w)
    w.top(0).node = 7
    assert freeze_(w2.store, w2.stacks) == replaced(SHAPE_FROZEN, path, value)


def test_renamed_rows_are_not_reused():
    """A memoised row that holds a cell pointer must follow a new cell order."""
    interp, w = shape_world()
    freeze_ = interp.freezer.freeze
    assert freeze_(w.store, w.stacks) == SHAPE_FROZEN
    w2 = w.clone()
    # reach cell 2 first: it becomes canonical cell 0, cell 1 becomes 1
    w2.store.write(("g", "g"), PtrVal(("c", 2)), w2)
    frozen = freeze_(w2.store, w2.stacks)
    assert frozen[0][0] == ("ptr", "c", 0)
    assert frozen[0][2] == ("ptr", "f", 1, "v")  # gi still points into cell 1
    assert frozen[2][0][0][2][0] == ("ptr", "c", 1)  # main's c, too


# -- interpreter primitive ops -------------------------------------------------------


def interp_for(src):
    pcfg = build_program_cfg(parse_core(src))
    return Interp(pcfg), pcfg


def test_eval_atom_locals_shadow_globals():
    interp, _ = interp_for("int x; void main() { int x; x = 1; }")
    store = Store()
    store.globals["x"] = 10
    frame = Frame("main", 0, {"x": 2}, 0)
    from repro.lang.ast import Var

    assert interp.eval_atom(Var("x"), frame, store) == 2


def test_eval_atom_function_name():
    interp, _ = interp_for("void f() { } void main() { }")
    from repro.lang.ast import Var

    v = interp.eval_atom(Var("f"), Frame("main", 0, {}, 0), Store())
    assert v == FuncVal("f")


def test_eval_atom_undefined_raises():
    interp, _ = interp_for("void main() { }")
    from repro.lang.ast import Var

    with pytest.raises(Violation):
        interp.eval_atom(Var("zzz"), Frame("main", 0, {}, 0), Store())


def test_eval_const_expr_rejects_nonconst():
    interp, _ = interp_for("int g; void main() { }")
    from repro.lang.ast import Binary, Var
    from repro.lang.types import KissTypeError

    with pytest.raises(KissTypeError):
        interp.eval_const_expr(Binary("+", Var("g"), Var("g")))


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_c_division_semantics(a, b):
    """The checker's / and % follow C: truncation toward zero, and
    (a/b)*b + a%b == a."""
    if b == 0:
        return
    src = f"int q; int r; void main() {{ q = {a} / {b}; r = {a} % {b}; assert(q * {b} + r == {a}); }}"
    from repro.seqcheck.explicit import check_sequential

    assert check_sequential(parse_core(src)).is_safe
