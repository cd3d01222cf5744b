"""Small-step execution of core statements over CFGs.

This module is shared by the sequential checker (:mod:`repro.seqcheck.explicit`)
and the concurrent checker (:mod:`repro.concheck.interleave`).  It provides:

* :class:`World` — a full runtime configuration (store + one stack per
  thread) with canonical freezing for visited-set deduplication,
* :class:`Interp` — evaluation of atoms and execution of primitive nodes,
  including indivisible execution of ``atomic`` regions,
* :class:`Violation` — a detected safety violation.

Canonical freezing renames heap cells (by deterministic reachability
order, which also garbage-collects unreachable cells) and frame ids (by
stack position), so that states differing only in allocation history
merge in the visited set.  Without this, any program that allocates or
calls functions inside a loop would have an unbounded state space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cfg.graph import Cfg, Node, ProgramCfg
from repro.lang.ast import (
    Assert,
    Assign,
    Assume,
    Binary,
    BoolLit,
    Call,
    Expr,
    Field,
    FuncDecl,
    IntLit,
    Malloc,
    NullLit,
    Program,
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


@dataclass
class World:
    """A full configuration: shared store plus one stack per live thread.

    The sequential checker uses a single stack.  ``stacks`` entries are
    never empty lists except transiently; a thread whose stack empties is
    removed by the owning checker.
    """

    store: Store
    stacks: List[List[Frame]]

    def clone(self) -> "World":
        return World(self.store.clone(), [[f.clone() for f in s] for s in self.stacks])

    def frames(self) -> Dict[int, Frame]:
        out: Dict[int, Frame] = {}
        for s in self.stacks:
            for f in s:
                out[f.frame_id] = f
        return out

    def freeze(self) -> Tuple:
        return canonical_freeze(self.store, self.stacks)


class Freezer:
    """Canonical freezing with cached key orders.

    Heap cells are renumbered in deterministic reachability order
    (unreachable cells vanish — this is what keeps allocate-in-a-loop
    programs finite-state); live frame ids become (thread, depth)
    positions; dead frame ids referenced by dangling pointers are
    renumbered in discovery order.

    Key orders (global names, struct field names, per-function local
    names) are fixed for a program, so they are computed once and reused
    — freezing is the checker's hot path.
    """

    def __init__(self) -> None:
        self._global_keys: Optional[List[str]] = None
        self._local_keys: Dict[str, List[str]] = {}
        self._field_keys: Dict[int, List[str]] = {}

    def _globals_order(self, store: Store) -> List[str]:
        keys = self._global_keys
        if keys is None or len(keys) != len(store.globals):
            keys = self._global_keys = sorted(store.globals)
        return keys

    def _locals_order(self, frame: Frame) -> List[str]:
        keys = self._local_keys.get(frame.func)
        if keys is None or len(keys) != len(frame.locals):
            keys = self._local_keys[frame.func] = sorted(frame.locals)
        return keys

    def _fields_order(self, fields: Dict[str, Value]) -> List[str]:
        keys = self._field_keys.get(len(fields))
        # field sets are per struct; cache by cardinality with validation
        if keys is None or any(k not in fields for k in keys):
            keys = sorted(fields)
            self._field_keys[len(fields)] = keys
        return keys

    def freeze(self, store: Store, stacks: List[List[Frame]]) -> Tuple:
        live_pos: Dict[int, Tuple[int, int]] = {}
        for t, stack in enumerate(stacks):
            for d, frame in enumerate(stack):
                live_pos[frame.frame_id] = (t, d)

        cell_order: Dict[int, int] = {}
        dead_order: Dict[int, int] = {}
        queue: List[int] = []
        heap = store.heap

        def discover(v: Value) -> None:
            a = v.addr
            if a is None:
                return
            k = a[0]
            if k == "c" or k == "f":
                cid = a[1]
                if cid in heap and cid not in cell_order:
                    cell_order[cid] = len(cell_order)
                    queue.append(cid)
            elif k == "l":
                fid = a[1]
                if fid not in live_pos and fid not in dead_order:
                    dead_order[fid] = len(dead_order)

        gkeys = self._globals_order(store)
        globals_ = store.globals
        for name in gkeys:
            v = globals_[name]
            if type(v) is PtrVal:
                discover(v)
        frame_orders: List[List[str]] = []
        for stack in stacks:
            for frame in stack:
                order = self._locals_order(frame)
                frame_orders.append(order)
                locs = frame.locals
                for name in order:
                    v = locs[name]
                    if type(v) is PtrVal:
                        discover(v)
        qi = 0
        while qi < len(queue):
            cid = queue[qi]
            qi += 1
            fields = heap[cid][1]
            for fname in self._fields_order(fields):
                v = fields[fname]
                if type(v) is PtrVal:
                    discover(v)

        def rewrite(v: Value):
            t = type(v)
            if t is PtrVal:
                a = v.addr
                if a is None:
                    return ("ptr", None)
                k = a[0]
                if k == "c":
                    return ("ptr", "c", cell_order.get(a[1], ("?", a[1])))
                if k == "f":
                    return ("ptr", "f", cell_order.get(a[1], ("?", a[1])), a[2])
                if k == "l":
                    fid = a[1]
                    if fid in live_pos:
                        return ("ptr", "l", live_pos[fid], a[2])
                    return ("ptr", "ld", dead_order[fid], a[2])
                return ("ptr", "g", a[1])
            if t is FuncVal:
                return ("fn", v.name)
            return v

        globals_t = tuple(rewrite(globals_[n]) for n in gkeys)
        cells = sorted(cell_order.items(), key=lambda kv: kv[1])
        heap_t = tuple(
            (
                canon,
                heap[cid][0],
                tuple(rewrite(heap[cid][1][fn]) for fn in self._fields_order(heap[cid][1])),
            )
            for cid, canon in cells
        )
        fo = iter(frame_orders)
        stacks_t = tuple(
            tuple(
                (f.func, f.node, tuple(rewrite(f.locals[n]) for n in next(fo)))
                for f in stack
            )
            for stack in stacks
        )
        return (globals_t, heap_t, stacks_t)


def canonical_freeze(store: Store, stacks: List[List[Frame]]) -> Tuple:
    """Hashable canonical form of a configuration (module-level helper;
    checkers hold their own :class:`Freezer` for key-order caching)."""
    return Freezer().freeze(store, stacks)


class Interp:
    """Execution of primitive core statements."""

    def __init__(self, pcfg: ProgramCfg, max_atomic_steps: int = 100_000):
        self.pcfg = pcfg
        self.prog: Program = pcfg.program
        self.max_atomic_steps = max_atomic_steps
        self.freezer = Freezer()

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
            frame.locals[name] = value
        elif name in store.globals:
            store.globals[name] = value
        else:
            raise Violation("undef-var", f"write to undefined variable '{name}'")

    def _addr_of_var(self, name: str, frame: Frame) -> Tuple:
        if name in frame.locals:
            return ("l", frame.frame_id, name)
        if name in self.prog.globals:
            return ("g", name)
        raise Violation("undef-var", f"address of undefined variable '{name}'")

    # -- primitive execution ------------------------------------------------------

    def exec_simple(self, node: Node, frame: Frame, store: Store, frames: Dict[int, Frame]) -> bool:
        """Execute a non-control node in place.

        Returns False when an ``assume`` is not satisfied (the configuration
        is blocked / the path is infeasible); True otherwise.  Raises
        :class:`Violation` on safety violations.
        """
        try:
            return self._exec_simple(node, frame, store, frames)
        except MemoryError_ as exc:
            raise Violation(exc.kind, str(exc), node) from None

    def _exec_simple(self, node: Node, frame: Frame, store: Store, frames: Dict[int, Frame]) -> bool:
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

    def _exec_assign(self, stmt: Assign, frame: Frame, store: Store, frames: Dict[int, Frame], node: Node) -> None:
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
            frame = w.stacks[tid][-1]
            frames = w.frames()
            if sub_node.kind in ("call", "async", "return"):
                raise Violation("internal", f"{sub_node.kind} inside atomic", sub_node)
            w2 = w.clone()
            frame2 = w2.stacks[tid][-1]
            ok = self.exec_simple(sub_node, frame2, w2.store, w2.frames())
            if not ok:
                continue
            if not sub_node.succs:
                results.append(w2)
            else:
                for s in sub_node.succs:
                    work.append((w2.clone() if len(sub_node.succs) > 1 else w2, s))
        return results
