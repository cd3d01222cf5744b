"""Unification-based (Steensgaard-style) points-to analysis.

The paper (Section 5) uses Das's unification-based pointer analysis
[PLDI 2000] to prune ``check_r``/``check_w`` calls that cannot touch the
distinguished location ``r``.  This module implements the classic
Steensgaard variant: flow- and context-insensitive, almost-linear time,
with a field-sensitive, type-merged heap (all instances of a struct type
share one abstract cell per field — sound, and exact enough for device
extensions, which are allocated once).

Abstract locations:

* ``("g", name)`` — a global variable
* ``("l", func, name)`` — a local/parameter of ``func``
* ``("sf", struct, field)`` — field ``field`` of any ``struct`` instance
* ``("ret", func)`` — the return value of ``func``

Each location's equivalence class carries a ``pointee`` class: the class
of everything it may point to.  Assignments unify pointees; address-of
unifies a pointee with the addressed location's class.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.lang.ast import (
    Assign,
    AsyncCall,
    Call,
    Field,
    FuncDecl,
    Malloc,
    Program,
    PtrType,
    Return,
    StructType,
    Unary,
    Var,
    walk_stmts,
)
from repro.lang.types import Env, typeof

Loc = Tuple


class _Nodes:
    """Union-find over abstract locations, with lazy pointee edges."""

    def __init__(self) -> None:
        self._parent: Dict[object, object] = {}
        self._pointee: Dict[object, object] = {}
        self._fresh = 0

    def _node(self, key: object) -> object:
        if key not in self._parent:
            self._parent[key] = key
        return key

    def find(self, key: object) -> object:
        self._node(key)
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:  # path compression
            self._parent[key], key = root, self._parent[key]
        return root

    def pointee(self, key: object) -> object:
        root = self.find(key)
        if root not in self._pointee:
            self._fresh += 1
            fresh = ("fresh", self._fresh)
            self._node(fresh)
            self._pointee[root] = fresh
        return self.find(self._pointee[root])

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        pa = self._pointee.pop(ra, None)
        pb = self._pointee.pop(rb, None)
        self._parent[ra] = rb
        if pa is not None and pb is not None:
            self._pointee[rb] = pb
            self.union(pa, pb)
        elif pa is not None:
            self._pointee[rb] = pa
        elif pb is not None:
            self._pointee[rb] = pb

    def same(self, a: object, b: object) -> bool:
        return self.find(a) == self.find(b)


class AliasAnalysis:
    """Whole-program Steensgaard analysis over a core program."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.nodes = _Nodes()
        self._run()

    # -- location helpers ----------------------------------------------------------

    def _var_loc(self, func: FuncDecl, name: str) -> Optional[Loc]:
        if name in func.locals or any(p.name == name for p in func.params):
            return ("l", func.name, name)
        if name in self.prog.globals:
            return ("g", name)
        return None  # a function name used as a value

    def _field_loc(self, func: FuncDecl, base: Var, field: str) -> Optional[Loc]:
        env = Env(self.prog, func)
        try:
            t = typeof(env, base)
        except Exception:
            return None
        if isinstance(t, PtrType) and isinstance(t.elem, StructType):
            return ("sf", t.elem.name, field)
        return None

    # -- constraint generation ---------------------------------------------------------

    def _run(self) -> None:
        for func in self.prog.functions.values():
            for s in walk_stmts(func.body):
                self._stmt(func, s)

    def _unify_values(self, a: Optional[Loc], b: Optional[Loc]) -> None:
        if a is None or b is None:
            return
        self.nodes.union(self.nodes.pointee(a), self.nodes.pointee(b))

    def _stmt(self, func: FuncDecl, s) -> None:
        if isinstance(s, Assign):
            self._assign(func, s)
        elif isinstance(s, Malloc):
            # the malloc'd cell's fields are reachable via ("sf", S, f) —
            # nothing to unify for the pointer itself beyond its type
            lhs = self._var_loc(func, s.lhs.name)
            if lhs is not None:
                self.nodes.union(self.nodes.pointee(lhs), ("cell", s.struct_name))
        elif isinstance(s, Call):
            self._call(func, s.func.name, s.args, s.lhs)
        elif isinstance(s, AsyncCall):
            self._call(func, s.func.name, s.args, None)
        elif isinstance(s, Return):
            if s.value is not None and isinstance(s.value, Var):
                v = self._var_loc(func, s.value.name)
                self._unify_values(("ret", func.name), v)

    def _assign(self, func: FuncDecl, s: Assign) -> None:
        lhs, rhs = s.lhs, s.rhs
        # *p = a  /  p->f = a
        if isinstance(lhs, Unary) and lhs.op == "*":
            p = self._var_loc(func, lhs.operand.name)
            if p is None:
                return
            target = self.nodes.pointee(p)
            if isinstance(rhs, Var):
                r = self._var_loc(func, rhs.name)
                if r is not None:
                    self.nodes.union(self.nodes.pointee(target), self.nodes.pointee(r))
            return
        if isinstance(lhs, Field):
            floc = self._field_loc(func, lhs.base, lhs.name)
            if floc is not None and isinstance(rhs, Var):
                r = self._var_loc(func, rhs.name)
                if r is not None:
                    self.nodes.union(self.nodes.pointee(floc), self.nodes.pointee(r))
            return
        # v = ...
        v = self._var_loc(func, lhs.name)
        if v is None:
            return
        if isinstance(rhs, Unary) and rhs.op == "&":
            target = rhs.operand
            if isinstance(target, Var):
                tloc = self._var_loc(func, target.name)
                if tloc is not None:
                    self.nodes.union(self.nodes.pointee(v), tloc)
            elif isinstance(target, Field):
                floc = self._field_loc(func, target.base, target.name)
                if floc is not None:
                    self.nodes.union(self.nodes.pointee(v), floc)
            return
        if isinstance(rhs, Unary) and rhs.op == "*":
            p = self._var_loc(func, rhs.operand.name)
            if p is not None:
                deref = self.nodes.pointee(self.nodes.pointee(p))
                self.nodes.union(self.nodes.pointee(v), deref)
            return
        if isinstance(rhs, Field):
            floc = self._field_loc(func, rhs.base, rhs.name)
            if floc is not None:
                self.nodes.union(self.nodes.pointee(v), self.nodes.pointee(floc))
            return
        if isinstance(rhs, Var):
            self._unify_values(v, self._var_loc(func, rhs.name))
            return
        # constants / unary / binary over atoms: no pointer flow (the
        # language has no pointer arithmetic)

    def _call(self, func: FuncDecl, callee_name: str, args, lhs) -> None:
        # Direct calls unify parameters/return; indirect calls are
        # zero-argument and untyped, so only direct targets matter here.
        callee = self.prog.functions.get(callee_name)
        if callee is None or self._var_loc(func, callee_name) is not None:
            # Indirect call: the target may be any zero-parameter function,
            # so a result pointer may carry any of their return values.
            if lhs is not None and isinstance(lhs, Var):
                for fn in self.prog.functions.values():
                    if not fn.params:
                        self._unify_values(self._var_loc(func, lhs.name), ("ret", fn.name))
            return
        for p, a in zip(callee.params, args):
            if isinstance(a, Var):
                self._unify_values(("l", callee.name, p.name), self._var_loc(func, a.name))
        if lhs is not None and isinstance(lhs, Var):
            self._unify_values(self._var_loc(func, lhs.name), ("ret", callee.name))

    # -- queries -----------------------------------------------------------------------------

    def may_point_to(self, func: FuncDecl, pointer_var: str, target: Loc) -> bool:
        """May the *value* of ``pointer_var`` (in ``func``) be the address of
        ``target``?  Conservative: unknown variables answer True."""
        p = self._var_loc(func, pointer_var)
        if p is None:
            return True
        return self.nodes.same(self.nodes.pointee(p), target)

    def global_loc(self, name: str) -> Loc:
        return ("g", name)

    def field_loc(self, struct: str, field: str) -> Loc:
        return ("sf", struct, field)
