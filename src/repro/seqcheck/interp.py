"""Small-step execution of core statements over CFGs.

This module is the one thread-step relation shared by three engines: the
sequential checker (:mod:`repro.seqcheck.explicit`), the interleaving
checker (:mod:`repro.concheck.interleave`) and the trace replayer
(:mod:`repro.concheck.replay`).  It provides:

* :class:`World` — a full runtime configuration (store + one stack per
  thread), cloned copy-on-write,
* :class:`Freezer` — canonical freezing for visited-set deduplication,
  over a slot layout computed once per program,
* :class:`Interp` — evaluation of atoms and one step of one thread
  (:meth:`Interp.step`): primitive nodes, ``call``, ``async``,
  ``return`` and indivisible ``atomic`` regions,
* :class:`Violation` — a detected safety violation.

Canonical freezing renames heap cells (by deterministic reachability
order, which also garbage-collects unreachable cells) and frame ids (by
stack position), so that states differing only in allocation history
merge in the visited set.  Without this, any program that allocates or
calls functions inside a loop would have an unbounded state space.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.cfg.graph import Node, ProgramCfg
from repro.lang.ast import (
    Assign,
    Binary,
    BoolLit,
    Expr,
    Field,
    FuncType,
    IntLit,
    NullLit,
    Program,
    PtrType,
    Type,
    Unary,
    Var,
)
from repro.lang.types import KissTypeError

from .state import NULL, Frame, FuncVal, MemoryError_, PtrVal, Store, Value, default_value, field_addr


class Violation(Exception):
    """A safety violation (assertion failure, memory error, ...)."""

    def __init__(self, kind: str, message: str, node: Optional[Node] = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.node = node

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class ResourceLimit(Exception):
    """The checker exceeded its configured budget."""


class World:
    """A full configuration: shared store plus one stack per live thread.

    The sequential checker uses a single stack, and keeps it once it is
    empty: that world is the program's terminal state.  The concurrent
    engines drop a thread's stack as soon as it empties (see
    :meth:`repro.concheck.interleave.ConWorld.step`).

    A clone copies the stack lists and shares everything else (see
    :class:`~repro.seqcheck.state.Store`).  Write a frame only through
    :meth:`top` or :meth:`get`, which copy a shared frame first.
    """

    __slots__ = ("store", "stacks")

    def __init__(self, store: Store, stacks: List[List[Frame]]):
        self.store = store
        self.stacks = stacks

    def clone(self) -> "World":
        return World(self.store.clone(), [s[:] for s in self.stacks])

    def top(self, tid: int) -> Frame:
        """Thread ``tid``'s top frame, private to this world."""
        stack = self.stacks[tid]
        frame = stack[-1]
        owner = self.store.owner
        if frame.owner is not owner:
            frame = stack[-1] = frame.copy(owner)
        return frame

    def get(self, fid: int) -> Optional[Frame]:
        """The live frame with id ``fid``, private to this world (None if
        the frame is dead); this makes a world the frame mapping
        :meth:`Store.read` and :meth:`Store.write` take."""
        owner = self.store.owner
        for stack in self.stacks:
            for d, frame in enumerate(stack):
                if frame.frame_id == fid:
                    if frame.owner is not owner:
                        frame = stack[d] = frame.copy(owner)
                    return frame
        return None


#: the memo tag of a row that holds a pointer to a local: matches no renaming.
_NO_REUSE = object()


def _getter(keys: Tuple[str, ...]) -> Callable[[dict], tuple]:
    """``d -> tuple(d[k] for k in keys)``, in one C call when it can be."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        key = keys[0]
        return lambda d: (d[key],)
    return lambda d: ()


class Slots:
    """The frozen layout of one kind of record: the globals, one
    function's params plus locals, or one struct's fields.

    ``keys`` is the sorted key order, ``get`` pulls a record's values in
    that order, ``ptrs`` indexes the pointer-typed slots (the only ones
    reachability follows, through ``get_ptrs``) and ``refs`` the pointer-
    and function-typed slots (the only ones a freeze rewrites).  Every
    other slot holds an int or a bool and freezes as itself; the type
    checker guarantees a slot only ever holds values of its declared type.
    """

    __slots__ = ("keys", "get", "ptrs", "get_ptrs", "refs")

    def __init__(self, types: Dict[str, Type]):
        self.keys = tuple(sorted(types))
        self.get = _getter(self.keys)
        self.ptrs = tuple(i for i, k in enumerate(self.keys) if isinstance(types[k], PtrType))
        self.get_ptrs = _getter(tuple(self.keys[i] for i in self.ptrs))
        self.refs = tuple(i for i, k in enumerate(self.keys)
                          if isinstance(types[k], (PtrType, FuncType)))


class Freezer:
    """Canonical freezing over a per-program slot layout.

    Heap cells are renumbered in deterministic reachability order
    (unreachable cells vanish — this is what keeps allocate-in-a-loop
    programs finite-state); live frame ids become (thread, depth)
    positions; dead frame ids referenced by dangling pointers are
    renumbered in discovery order.

    The layout (:class:`Slots` for the globals, each function and each
    struct) is computed once from the program, so a freeze pulls each
    record in one call and touches only pointer and function slots one
    by one.  Frozen rows are memoised on the store (globals), each frame
    (locals) and each cell (fields) and reused until that record is
    written.  A row that holds a pointer to a cell is reused only under
    the same cell order; one that holds a pointer to a local is not
    memoised, since frame positions shift with every call and return.

    The frozen shape is the ``kiss-witness/1`` contract:
    ``(globals, heap, stacks)`` with globals in sorted-name order, heap
    entries ``(canonical index, struct, fields)`` in canonical order with
    fields sorted, and stacks of ``(function, node, locals)`` with locals
    sorted.  :mod:`repro.witness.encoding` serialises it and
    :mod:`repro.witness.validate` re-derives it independently.
    """

    def __init__(self, program: Program) -> None:
        self.globals = Slots({name: g.type for name, g in program.globals.items()})
        self.frames: Dict[str, Slots] = {}
        for name, decl in program.functions.items():
            types = {p.name: p.type for p in decl.params}
            types.update(decl.locals)
            self.frames[name] = Slots(types)
        self.structs = {name: Slots(decl.fields) for name, decl in program.structs.items()}
        self._cell_tag: Optional[Tuple[int, ...]] = None

    def freeze(self, store: Store, stacks: List[List[Frame]]) -> Tuple:
        live: Dict[int, Tuple[int, int]] = {}
        for t, stack in enumerate(stacks):
            for d, frame in enumerate(stack):
                live[frame.frame_id] = (t, d)

        # Reachability over pointer slots only: the roots (globals, then
        # every frame in stack order), then each reached cell's fields in
        # the order the cells were reached.
        heap = store.heap
        cells: Dict[int, int] = {}
        dead: Dict[int, int] = {}
        todo = list(self.globals.get_ptrs(store.globals))
        frames = self.frames
        for stack in stacks:
            for frame in stack:
                layout = frames[frame.func]
                if layout.ptrs:
                    todo += layout.get_ptrs(frame.locals)
        structs = self.structs
        for v in todo:  # grows while it is walked
            a = v.addr
            if a is None:
                continue
            k = a[0]
            if k == "c" or k == "f":
                cid = a[1]
                if cid not in cells and cid in heap:
                    cells[cid] = len(cells)
                    cell = heap[cid]
                    layout = structs[cell.sname]
                    if layout.ptrs:
                        todo += layout.get_ptrs(cell.fields)
            elif k == "l":
                fid = a[1]
                if fid not in live and fid not in dead:
                    dead[fid] = len(dead)

        # The cell order tags rows that hold cell or field pointers.
        # Equal tags are made identical, so a memoised row checks its tag
        # by identity.
        cell_tag = tuple(cells)
        if cell_tag == self._cell_tag:
            cell_tag = self._cell_tag
        else:
            self._cell_tag = cell_tag
        ren = (cells, live, dead, cell_tag)
        row = self._row
        globals_t = row(self.globals, store, store.globals, ren)
        heap_t = tuple(
            (canon, cell.sname, row(structs[cell.sname], cell, cell.fields, ren))
            for canon, cell in enumerate(map(heap.__getitem__, cells))
        )
        stacks_t = tuple(
            tuple((f.func, f.node, row(frames[f.func], f, f.locals, ren)) for f in stack)
            for stack in stacks
        )
        return (globals_t, heap_t, stacks_t)

    @staticmethod
    def _row(layout: Slots, holder, values: Dict[str, Value], ren: Tuple) -> Tuple:
        """The frozen row of one record under the renaming ``ren`` (see
        :meth:`freeze`), memoised on ``holder`` (its store, frame or
        cell) as ``(tag, row)``: the tag is None when no rewritten
        pointer depends on the renaming, else the cell order, or
        ``_NO_REUSE`` when the row points to a local."""
        memo = holder.row
        if memo is not None and (memo[0] is None or memo[0] is ren[3]):
            return memo[1]
        row = layout.get(values)
        tag = None
        if layout.refs:
            cells, live, dead, cell_tag = ren
            row = list(row)
            for i in layout.refs:
                v = row[i]
                if type(v) is FuncVal:
                    row[i] = ("fn", v.name)
                    continue
                a = v.addr
                if a is None:
                    row[i] = ("ptr", None)
                    continue
                k = a[0]
                if k == "g":
                    row[i] = ("ptr", "g", a[1])
                elif k == "l":
                    fid = a[1]
                    if fid in live:
                        row[i] = ("ptr", "l", live[fid], a[2])
                    else:
                        row[i] = ("ptr", "ld", dead[fid], a[2])
                    tag = _NO_REUSE
                else:
                    canon = cells.get(a[1], ("?", a[1]))
                    row[i] = ("ptr", "c", canon) if k == "c" else ("ptr", "f", canon, a[2])
                    if tag is None:
                        tag = cell_tag
            row = tuple(row)
        holder.row = (tag, row)
        return row


class Interp:
    """Execution of primitive core statements."""

    def __init__(self, pcfg: ProgramCfg, max_atomic_steps: int = 100_000):
        self.pcfg = pcfg
        self.prog: Program = pcfg.program
        self.max_atomic_steps = max_atomic_steps
        self.freezer = Freezer(self.prog)

    # -- configurations ------------------------------------------------------------

    def initial_world(self) -> World:
        """Globals at their initializers, one thread at the entry function."""
        store = Store()
        for name, g in self.prog.globals.items():
            if g.init is not None:
                store.globals[name] = self.eval_const_expr(g.init)
            else:
                store.globals[name] = default_value(g.type)
        entry = self.prog.function(self.pcfg.entry)
        if entry.params:
            raise Violation("entry", f"entry function '{entry.name}' must take no parameters")
        return World(store, [[self.new_frame(entry.name, [], store)]])

    def new_frame(self, func_name: str, args: List[Value], store: Store) -> Frame:
        """A fresh activation record of ``func_name`` owned by ``store``:
        params bound to ``args``, locals at their type defaults."""
        decl = self.prog.function(func_name)
        if len(args) != len(decl.params):
            raise Violation(
                "arity", f"call of {func_name} with {len(args)} args (expected {len(decl.params)})"
            )
        locals_: Dict[str, Value] = {p.name: a for p, a in zip(decl.params, args)}
        for name, typ in decl.locals.items():
            locals_[name] = default_value(typ)
        return Frame(func_name, self.pcfg.cfg(func_name).entry, locals_, store.fresh_frame_id(),
                     store.owner)

    # -- one thread step -------------------------------------------------------

    def step(self, world: World, idx: int, node: Node) -> List[World]:
        """Execute ``node``, the next node of thread ``idx``, and return
        the successor worlds; ``world`` itself is left unchanged.

        ``call`` pushes the callee's frame.  ``async`` appends the new
        thread's stack.  ``return`` pops the frame and, when a caller is
        left, writes the result and advances it past its ``call`` node;
        otherwise the thread's stack is left empty for the engine to keep
        or drop.  An empty list means the step is blocked (a failed
        ``assume``, or an ``atomic`` region every path of which fails
        one).  Raises :class:`Violation` on safety violations.
        """
        kind = node.kind
        if kind == "atomic":
            worlds = self.run_atomic(world, idx, node)
        else:
            w = world.clone()
            if kind == "return":
                return self._exec_return(w, idx, node)
            if kind == "call" or kind == "async":
                frame = w.stacks[idx][-1]
                stmt = node.stmt
                callee = self._resolve_callee(stmt.func.name, frame, w.store, node)
                args = [self.eval_atom(a, frame, w.store) for a in stmt.args]
                new = self.new_frame(callee, args, w.store)
                if kind == "call":
                    w.stacks[idx].append(new)  # the return advances the caller
                    return [w]
                w.stacks.append([new])
            elif not self.exec_simple(node, w.top(idx), w.store, w):
                return []
            worlds = [w]
        return self._advance(worlds, idx, node.succs)

    @staticmethod
    def _advance(worlds: List[World], idx: int, succs: List[int]) -> List[World]:
        """Fan each world out over ``succs``, moving thread ``idx`` there;
        every successor world but the last is a clone."""
        out: List[World] = []
        last = len(succs) - 1
        for w in worlds:
            for i, succ in enumerate(succs):
                w2 = w.clone() if i < last else w
                w2.top(idx).node = succ
                out.append(w2)
        return out

    def _resolve_callee(self, name: str, frame: Frame, store: Store, node: Node) -> str:
        if name in frame.locals or name in store.globals:
            v = frame.locals.get(name, store.globals.get(name))
            if not isinstance(v, FuncVal):
                raise Violation("bad-call", f"call through non-function value {v!r}", node)
            if v.name not in self.prog.functions:
                raise Violation("undef-call", f"call of undefined function value {v}", node)
            return v.name
        if name in self.prog.functions:
            return name
        raise Violation("undef-call", f"call of unknown function '{name}'", node)

    def _exec_return(self, w: World, idx: int, node: Node) -> List[World]:
        stack = w.stacks[idx]
        frame = stack[-1]
        stmt = node.stmt
        decl = self.prog.function(frame.func)
        if stmt.value is not None:
            value = self.eval_atom(stmt.value, frame, w.store)
        elif decl.ret is not None:
            value = default_value(decl.ret)  # fell off the end of a non-void fn
        else:
            value = None
        stack.pop()
        if not stack:
            return [w]  # the thread finished
        caller = w.top(idx)
        call_node = self.pcfg.cfg(caller.func).node(caller.node)
        if call_node.kind != "call":
            raise Violation("internal", "return into a non-call continuation", node)
        lhs = call_node.stmt.lhs
        if lhs is not None:
            if value is None:
                raise Violation("void-result", f"void result of {frame.func} used as a value", node)
            self._write_var(lhs.name, value, caller, w.store)
        return self._advance([w], idx, call_node.succs)

    # -- atoms -----------------------------------------------------------------

    def eval_atom(self, e: Expr, frame: Frame, store: Store) -> Value:
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, NullLit):
            return NULL
        if isinstance(e, Var):
            name = e.name
            if name in frame.locals:
                return frame.locals[name]
            if name in store.globals:
                return store.globals[name]
            if name in self.prog.functions:
                return FuncVal(name)
            raise Violation("undef-var", f"read of undefined variable '{name}'")
        raise Violation("not-atom", f"expression {e} is not an atom")

    def eval_const_expr(self, e: Expr) -> Value:
        """Evaluate a global initializer (constants and unary ops only)."""
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, NullLit):
            return NULL
        if isinstance(e, Unary) and e.op == "-":
            v = self.eval_const_expr(e.operand)
            return -v
        if isinstance(e, Unary) and e.op == "!":
            return not self.eval_const_expr(e.operand)
        if isinstance(e, Var) and e.name in self.prog.functions:
            return FuncVal(e.name)
        raise KissTypeError(f"global initializer must be constant, got {e}")

    def _write_var(self, name: str, value: Value, frame: Frame, store: Store) -> None:
        if name in frame.locals:
            frame.set(name, value)
        elif name in store.globals:
            store.set_global(name, value)
        else:
            raise Violation("undef-var", f"write to undefined variable '{name}'")

    def _addr_of_var(self, name: str, frame: Frame) -> Tuple:
        if name in frame.locals:
            return ("l", frame.frame_id, name)
        if name in self.prog.globals:
            return ("g", name)
        raise Violation("undef-var", f"address of undefined variable '{name}'")

    # -- primitive execution ------------------------------------------------------

    def exec_simple(self, node: Node, frame: Frame, store: Store, frames) -> bool:
        """Execute a non-control node in place.

        ``frame`` must be private to the world being stepped (see
        :meth:`World.top`); ``frames`` is that world.  Returns False when an ``assume`` is not satisfied (the configuration
        is blocked / the path is infeasible); True otherwise.  Raises
        :class:`Violation` on safety violations.
        """
        try:
            return self._exec_simple(node, frame, store, frames)
        except MemoryError_ as exc:
            raise Violation(exc.kind, str(exc), node) from None

    def _exec_simple(self, node: Node, frame: Frame, store: Store, frames) -> bool:
        kind = node.kind
        if kind == "skip":
            return True
        stmt = node.stmt
        if kind == "assume":
            cond = self.eval_atom(stmt.cond, frame, store)
            return bool(cond)
        if kind == "assert":
            cond = self.eval_atom(stmt.cond, frame, store)
            if not cond:
                raise Violation("assert", f"assertion failed: {stmt}", node)
            return True
        if kind == "malloc":
            ptr = store.malloc(self.prog, stmt.struct_name)
            self._write_var(stmt.lhs.name, ptr, frame, store)
            return True
        if kind == "assign":
            self._exec_assign(stmt, frame, store, frames, node)
            return True
        raise Violation("internal", f"exec_simple on node kind {kind}", node)

    def _exec_assign(self, stmt: Assign, frame: Frame, store: Store, frames, node: Node) -> None:
        lhs, rhs = stmt.lhs, stmt.rhs
        # Stores through pointers / into fields.
        if isinstance(lhs, Unary) and lhs.op == "*":
            ptr = self.eval_atom(lhs.operand, frame, store)
            self._expect_ptr(ptr, node)
            value = self.eval_atom(rhs, frame, store)
            store.write(ptr.addr, value, frames)
            return
        if isinstance(lhs, Field):
            base = self.eval_atom(lhs.base, frame, store)
            self._expect_ptr(base, node)
            addr = field_addr(base, lhs.name)
            value = self.eval_atom(rhs, frame, store)
            store.write(addr, value, frames)
            return
        # Var := ...
        name = lhs.name
        if isinstance(rhs, Unary) and rhs.op == "&":
            target = rhs.operand
            if isinstance(target, Var):
                addr = self._addr_of_var(target.name, frame)
                if addr[0] == "l" and target.name not in frame.locals:
                    raise Violation("undef-var", f"&{target.name}", node)
            else:  # Field
                base = self.eval_atom(target.base, frame, store)
                self._expect_ptr(base, node)
                addr = field_addr(base, target.name)
            self._write_var(name, PtrVal(addr), frame, store)
            return
        if isinstance(rhs, Unary) and rhs.op == "*":
            ptr = self.eval_atom(rhs.operand, frame, store)
            self._expect_ptr(ptr, node)
            self._write_var(name, store.read(ptr.addr, frames), frame, store)
            return
        if isinstance(rhs, Unary):
            v = self.eval_atom(rhs.operand, frame, store)
            if rhs.op == "-":
                self._write_var(name, -v, frame, store)
            elif rhs.op == "!":
                self._write_var(name, not v, frame, store)
            else:
                raise Violation("internal", f"unary {rhs.op}", node)
            return
        if isinstance(rhs, Binary):
            self._write_var(name, self._binop(rhs, frame, store, node), frame, store)
            return
        if isinstance(rhs, Field):
            base = self.eval_atom(rhs.base, frame, store)
            self._expect_ptr(base, node)
            self._write_var(name, store.read(field_addr(base, rhs.name), frames), frame, store)
            return
        # plain copy
        self._write_var(name, self.eval_atom(rhs, frame, store), frame, store)

    def _binop(self, e: Binary, frame: Frame, store: Store, node: Node) -> Value:
        a = self.eval_atom(e.left, frame, store)
        b = self.eval_atom(e.right, frame, store)
        op = e.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise Violation("div-zero", "division by zero", node)
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q  # C truncation semantics
        if op == "%":
            if b == 0:
                raise Violation("div-zero", "modulo by zero", node)
            return a - b * (self._binop(Binary("/", e.left, e.right), frame, store, node))
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        raise Violation("internal", f"binop {op}", node)

    @staticmethod
    def _expect_ptr(v: Value, node: Node) -> None:
        if not isinstance(v, PtrVal):
            raise Violation("bad-addr", f"pointer operation on non-pointer value {v!r}", node)

    # -- atomic regions -----------------------------------------------------------

    def run_atomic(self, world: World, tid: int, node: Node) -> List[World]:
        """Execute an ``atomic`` node indivisibly in thread ``tid``.

        Explores the atomic region's sub-CFG (it may branch via lowered
        ``choice``/``nondet``) and returns the resulting worlds at region
        exit, with the thread's pc NOT yet advanced (caller does that).
        Paths blocked by a failed ``assume`` are dropped; if every path is
        dropped, the returned list is empty — in concurrent semantics the
        atomic region is *blocked* and the thread is simply not enabled.
        """
        sub = node.sub
        assert sub is not None
        results: List[World] = []
        seen = set()
        start = world.clone()
        work: List[Tuple[World, int]] = [(start, sub.entry)]
        steps = 0
        while work:
            w, pc = work.pop()
            steps += 1
            if steps > self.max_atomic_steps:
                raise ResourceLimit("atomic region exceeded step budget")
            key = (pc, self.freezer.freeze(w.store, w.stacks))
            if key in seen:
                continue
            seen.add(key)
            sub_node = sub.node(pc)
            if sub_node.kind in ("call", "async", "return"):
                raise Violation("internal", f"{sub_node.kind} inside atomic", sub_node)
            w2 = w.clone()
            ok = self.exec_simple(sub_node, w2.top(tid), w2.store, w2)
            if not ok:
                continue
            if not sub_node.succs:
                results.append(w2)
            else:
                for s in sub_node.succs:
                    work.append((w2.clone() if len(sub_node.succs) > 1 else w2, s))
        return results
