"""Race-detection instrumentation (Figure 5 of the paper).

Extends the Figure 4 sequentialization with a distinguished location ``r``
(a global variable, or a field of a designated struct instance — for
drivers, the device extension), an ``access`` flag in {0,1,2}, and
``check_r``/``check_w`` calls:

* before every statement, extra ``choice`` branches may *record* one of
  the statement's accesses to ``r`` (setting ``access``) and immediately
  RAISE, terminating the recording thread;
* a later conflicting access by a *different* thread finds ``access``
  already set and fails the assertion inside the check function.

Hence an assertion failure inside a check witnesses a read/write or
write/write race between two distinct threads.  Accesses inside
``atomic`` regions are not checked (Figure 5) — atomic blocks model the
internals of synchronization primitives.

Checks that cannot touch ``r`` are pruned in two layers, mirroring the
paper's use of Das's alias analysis:

1. a type filter (an ``int`` access can never alias a ``bool`` field);
2. the unification-based points-to analysis of
   :mod:`repro.analysis.alias` (for dereferences through pointers).

One transformed program is produced per target; drive the loop over all
fields of a struct with :class:`repro.core.checker.Kiss`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import obs
from repro.analysis.alias import AliasAnalysis
from repro.lang.ast import (
    BOOL,
    INT,
    Assert,
    Assign,
    Assume,
    AsyncCall,
    Binary,
    Block,
    Call,
    Choice,
    Expr,
    Field,
    FuncDecl,
    GlobalDecl,
    IntLit,
    Malloc,
    NullLit,
    Param,
    Program,
    PtrType,
    Return,
    Stmt,
    StructType,
    Type,
    Unary,
    Var,
)

from . import names
from .transform import TAG_CHECK, KissTransformer, TransformError, _FnCtx, _tag


@dataclass(frozen=True)
class RaceTarget:
    """The distinguished location ``r``.

    ``RaceTarget.global_var("g")`` — a global variable.
    ``RaceTarget.field("DEVICE_EXTENSION", "stoppingFlag")`` — a field of
    the ``instance``-th allocated DEVICE_EXTENSION (0 = first, the usual
    device-extension pattern).
    """

    kind: str  # "global" | "field"
    name: str  # global name or struct name
    field: Optional[str] = None
    instance: int = 0

    @staticmethod
    def global_var(name: str) -> "RaceTarget":
        return RaceTarget("global", name)

    @staticmethod
    def field_of(struct: str, field: str, instance: int = 0) -> "RaceTarget":
        return RaceTarget("field", struct, field, instance)

    def describe(self) -> str:
        if self.kind == "global":
            return self.name
        suffix = f"[{self.instance}]" if self.instance else ""
        return f"{self.name}{suffix}.{self.field}"

    def value_type(self, prog: Program) -> Type:
        if self.kind == "global":
            if self.name not in prog.globals:
                raise TransformError(f"race target: unknown global '{self.name}'")
            return prog.globals[self.name].type
        struct = prog.structs.get(self.name)
        if struct is None:
            raise TransformError(f"race target: unknown struct '{self.name}'")
        if self.field not in struct.fields:
            raise TransformError(f"race target: {self.name} has no field '{self.field}'")
        return struct.fields[self.field]


# An access is (mode, shape, payload):
#   mode  : "r" | "w"
#   shape : "var"   — payload = variable name           (address &v)
#           "field" — payload = (ptr_var_name, field)   (address &p->f)
#           "deref" — payload = ptr_var_name            (address = value of p)
Access = Tuple[str, str, object]


def statement_accesses(s: Stmt) -> List[Access]:
    """The memory accesses a core statement performs, Figure 5 style."""
    acc: List[Access] = []

    def rd_atom(e: Expr) -> None:
        if isinstance(e, Var):
            acc.append(("r", "var", e.name))

    if isinstance(s, Assign):
        lhs, rhs = s.lhs, s.rhs
        if isinstance(lhs, Unary) and lhs.op == "*":
            rd_atom(lhs.operand)
            acc.append(("w", "deref", lhs.operand.name))
            rd_atom(rhs)
            return acc
        if isinstance(lhs, Field):
            rd_atom(lhs.base)
            rd_atom(rhs)
            acc.append(("w", "field", (lhs.base.name, lhs.name)))
            return acc
        # v = ...
        if isinstance(rhs, Unary) and rhs.op == "&":
            pass  # address-of reads nothing
        elif isinstance(rhs, Unary) and rhs.op == "*":
            rd_atom(rhs.operand)
            acc.append(("r", "deref", rhs.operand.name))
        elif isinstance(rhs, Unary):
            rd_atom(rhs.operand)
        elif isinstance(rhs, Binary):
            rd_atom(rhs.left)
            rd_atom(rhs.right)
        elif isinstance(rhs, Field):
            rd_atom(rhs.base)
            acc.append(("r", "field", (rhs.base.name, rhs.name)))
        else:
            rd_atom(rhs)
        acc.append(("w", "var", lhs.name))
        return acc
    if isinstance(s, Malloc):
        acc.append(("w", "var", s.lhs.name))
        return acc
    if isinstance(s, (Assert, Assume)):
        rd_atom(s.cond)
        return acc
    if isinstance(s, Call):
        for a in s.args:
            rd_atom(a)
        if s.lhs is not None:
            acc.append(("w", "var", s.lhs.name))
        return acc
    if isinstance(s, AsyncCall):
        for a in s.args:
            rd_atom(a)
        return acc
    if isinstance(s, Return):
        if s.value is not None:
            rd_atom(s.value)
        return acc
    # Skip, Atomic (not checked inside), Choice/Iter/Block (structural)
    return acc


class RaceTransformer(KissTransformer):
    """Figure 5: Figure 4 plus access recording for one target location."""

    def __init__(
        self,
        target: RaceTarget,
        max_ts: int = 0,
        use_alias_analysis: bool = True,
    ):
        super().__init__(max_ts=max_ts)
        self.target = target
        self.use_alias_analysis = use_alias_analysis
        self._alias: Optional[AliasAnalysis] = None
        self._target_type: Optional[Type] = None
        self.checks_emitted = 0
        self.checks_pruned = 0

    # -- setup ------------------------------------------------------------------

    def transform(self, prog: Program) -> Program:
        self._target_type = self.target.value_type(prog)
        if isinstance(self._target_type, StructType):
            raise TransformError("race target must be a scalar location")
        self._alias = AliasAnalysis(prog) if self.use_alias_analysis else None
        out = super().transform(prog)
        obs.inc("race_checks_emitted", self.checks_emitted)
        obs.inc("alias_prunes", self.checks_pruned)
        return out

    def extra_globals(self) -> List[GlobalDecl]:
        decls = [
            GlobalDecl(names.ACCESS_VAR, INT, IntLit(0)),
            GlobalDecl(names.TARGET_VAR, PtrType(self._target_type), NullLit()),
        ]
        if self.target.kind == "field":
            decls.append(GlobalDecl(names.ALLOC_SEEN, INT, IntLit(0)))
        return decls

    def extra_functions(self) -> List[FuncDecl]:
        return [self._make_check_fn("r"), self._make_check_fn("w")]

    def _make_check_fn(self, mode: str) -> FuncDecl:
        """``check_r(x) { if (x == &r) { assert(access != 2); access = 1; } }``
        and the write analogue, in core form."""
        fname = names.CHECK_R_FN if mode == "r" else names.CHECK_W_FN
        decl = FuncDecl(fname, [Param("x", PtrType(self._target_type))], None, Block([]))
        decl.locals = {"hit": BOOL, "ok": BOOL, "miss": BOOL, "bad": BOOL}
        if mode == "r":
            # assert(access != 2); access = 1
            guarded = [
                _tag(Assign(Var("bad"), Binary("==", Var(names.ACCESS_VAR), IntLit(2))), TAG_CHECK),
                _tag(Assign(Var("ok"), Unary("!", Var("bad"))), TAG_CHECK),
                _tag(Assert(Var("ok")), TAG_CHECK),
                _tag(Assign(Var(names.ACCESS_VAR), IntLit(1)), TAG_CHECK),
            ]
        else:
            # assert(access == 0); access = 2
            guarded = [
                _tag(Assign(Var("ok"), Binary("==", Var(names.ACCESS_VAR), IntLit(0))), TAG_CHECK),
                _tag(Assert(Var("ok")), TAG_CHECK),
                _tag(Assign(Var(names.ACCESS_VAR), IntLit(2)), TAG_CHECK),
            ]
        body = [
            _tag(Assign(Var("hit"), Binary("==", Var("x"), Var(names.TARGET_VAR))), TAG_CHECK),
            _tag(
                Choice(
                    [
                        Block([_tag(Assume(Var("hit")), TAG_CHECK)] + guarded),
                        Block(
                            [
                                _tag(Assign(Var("miss"), Unary("!", Var("hit"))), TAG_CHECK),
                                _tag(Assume(Var("miss")), TAG_CHECK),
                            ]
                        ),
                    ]
                ),
                TAG_CHECK,
            ),
        ]
        decl.body = Block(body)
        return decl

    # -- target registration -----------------------------------------------------

    def extra_check_prologue(self) -> List[Stmt]:
        if self.target.kind == "global":
            return [_tag(Assign(Var(names.TARGET_VAR), Unary("&", Var(self.target.name))))]
        return []

    def post_malloc(self, fctx: _FnCtx, stmt: Malloc) -> List[Stmt]:
        if self.target.kind != "field" or stmt.struct_name != self.target.name:
            return []
        is_nth = fctx.fresh(BOOL)
        tneg = fctx.tneg()
        register = Block(
            [
                _tag(Assume(is_nth)),
                _tag(
                    Assign(
                        Var(names.TARGET_VAR),
                        Unary("&", Field(Var(stmt.lhs.name), self.target.field)),
                    )
                ),
            ]
        )
        skip_reg = Block([_tag(Assign(tneg, Unary("!", is_nth))), _tag(Assume(tneg))])
        return [
            _tag(Assign(is_nth, Binary("==", Var(names.ALLOC_SEEN), IntLit(self.target.instance)))),
            _tag(Choice([register, skip_reg])),
            _tag(Assign(Var(names.ALLOC_SEEN), Binary("+", Var(names.ALLOC_SEEN), IntLit(1)))),
        ]

    # -- access checks ---------------------------------------------------------------

    def access_check_branches(self, fctx: _FnCtx, stmt: Stmt, out_pre: List[Stmt]) -> List[Block]:
        if getattr(stmt, "kiss_benign", False):
            # §6.1: the programmer vouched for these accesses ("benign
            # race") — the instrumentation skips them
            return []
        branches: List[Block] = []
        for mode, shape, payload in statement_accesses(stmt):
            if not self._may_alias(fctx.decl, shape, payload):
                self.checks_pruned += 1
                continue
            self.checks_emitted += 1
            addr_atom = self._address_atom(fctx, shape, payload, out_pre)
            check_fn = names.CHECK_R_FN if mode == "r" else names.CHECK_W_FN
            call = Call(None, Var(check_fn), [addr_atom])
            _tag(call, TAG_CHECK, sid=stmt.sid)
            branches.append(Block([call] + self._raise_stmts(fctx)))
        return branches

    def _address_atom(self, fctx: _FnCtx, shape: str, payload, out_pre: List[Stmt]) -> Expr:
        if shape == "deref":
            return Var(payload)  # the pointer value *is* the address
        tmp = fctx.fresh(PtrType(self._target_type))
        if shape == "var":
            out_pre.append(_tag(Assign(tmp, Unary("&", Var(payload))), TAG_CHECK))
        else:  # field
            base, fld = payload
            out_pre.append(_tag(Assign(tmp, Unary("&", Field(Var(base), fld))), TAG_CHECK))
        return tmp

    # -- pruning ---------------------------------------------------------------------

    def _may_alias(self, func: FuncDecl, shape: str, payload) -> bool:
        if not self.use_alias_analysis:
            # Figure 5 without the §5 pruning: every access whose value
            # type matches the target's is checked (C's types give this
            # much for free; everything else is the analysis's job).
            return self._type_matches(func, shape, payload)
        prog = self.prog
        target = self.target
        if shape == "var":
            name = payload
            # locals can never be the shared target; a global matches only
            # itself
            if target.kind == "global":
                is_local = name in func.locals or any(p.name == name for p in func.params)
                return name == target.name and not is_local
            return False
        if shape == "field":
            base, fld = payload
            if target.kind != "field" or fld != target.field:
                return False
            struct = self._static_struct_of(func, base)
            return struct is None or struct == target.name
        # deref: type filter + points-to
        name = payload
        ptype = self._static_type_of(func, name)
        if ptype is not None:
            if not (isinstance(ptype, PtrType) and ptype.elem == self._target_type):
                return False
        if self._alias is None:
            return True
        if target.kind == "global":
            loc = self._alias.global_loc(target.name)
        else:
            loc = self._alias.field_loc(target.name, target.field)
        return self._alias.may_point_to(func, name, loc)

    def _type_matches(self, func: FuncDecl, shape: str, payload) -> bool:
        if shape == "var":
            return self._static_type_of(func, payload) == self._target_type
        if shape == "field":
            base, fld = payload
            struct_name = self._static_struct_of(func, base)
            if struct_name is None:
                return True
            struct = self.prog.structs.get(struct_name)
            if struct is None or fld not in struct.fields:
                return True
            return struct.fields[fld] == self._target_type
        ptype = self._static_type_of(func, payload)
        if ptype is None:
            return True
        return isinstance(ptype, PtrType) and ptype.elem == self._target_type

    def _static_type_of(self, func: FuncDecl, name: str) -> Optional[Type]:
        if name in func.locals:
            return func.locals[name]
        for p in func.params:
            if p.name == name:
                return p.type
        g = self.prog.globals.get(name)
        return g.type if g is not None else None

    def _static_struct_of(self, func: FuncDecl, name: str) -> Optional[str]:
        t = self._static_type_of(func, name)
        if isinstance(t, PtrType) and isinstance(t.elem, StructType):
            return t.elem.name
        return None
