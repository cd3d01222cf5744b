"""Abstract syntax for the KISS parallel language.

The language is the one formalized in Figure 3 of the paper, extended with
the features the paper says KISS handles as well: struct fields, function
parameters and return values, ``malloc``, and rich expressions in the
concrete syntax.  The *surface* AST defined here allows nested expressions,
``if``/``while``, and declarations; :mod:`repro.lang.lower` normalizes
surface programs into the paper's *core* statement forms (decisions on
variables, three-address statements, ``if``/``while`` encoded with
``choice``/``iter``/``assume``).

Core statements are a subset of the surface statement forms, marked below.
After lowering, a program contains only core statements; the KISS
instrumentation (:mod:`repro.core.transform`) consumes core programs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Type:
    """Base class for language types.  Type objects are immutable values."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == getattr(other, "__dict__", None)

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


class IntType(Type):
    """Mathematical integers (bounded only by the checker)."""

    def __str__(self) -> str:
        return "int"


class BoolType(Type):
    def __str__(self) -> str:
        return "bool"


class FuncType(Type):
    """The type of function *values* (targets of indirect calls)."""

    def __str__(self) -> str:
        return "func"


class PtrType(Type):
    """Pointer to ``elem`` (a value type or a struct)."""

    def __init__(self, elem: Type):
        self.elem = elem

    def __str__(self) -> str:
        return f"{self.elem}*"


class StructType(Type):
    """A named struct type; field layout lives in the program's struct table."""

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name


INT = IntType()
BOOL = BoolType()
FUNC = FuncType()


def ptr(elem: Type) -> PtrType:
    """Convenience constructor: ``ptr(INT)`` is ``int*``."""
    return PtrType(elem)


# ---------------------------------------------------------------------------
# Positions (for error messages and trace mapping)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pos:
    """Source position; ``line == 0`` means synthesized code."""

    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}" if self.line else "<synth>"


NOPOS = Pos()

_stmt_ids = itertools.count(1)


def fresh_stmt_id() -> int:
    """Allocate a program-unique statement id (used for trace origins)."""
    return next(_stmt_ids)


# ---------------------------------------------------------------------------
# Expressions (surface)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class NullLit(Expr):
    def __str__(self) -> str:
        return "null"


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference; may also name a function (a ``func`` value)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Unary(Expr):
    """Unary operators: ``-`` ``!`` ``*`` (deref) ``&`` (address-of)."""

    op: str
    operand: Expr

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operators: arithmetic, comparison, ``&&``/``||``."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Field(Expr):
    """``base->name`` (``arrow=True``) or ``base.name``.

    ``base.name`` is only legal when ``base`` is itself a dereference; the
    type checker rewrites it.  In practice driver models use ``->``.
    """

    base: Expr
    name: str
    arrow: bool = True

    def __str__(self) -> str:
        sep = "->" if self.arrow else "."
        return f"{self.base}{sep}{self.name}"


@dataclass(frozen=True)
class Nondet(Expr):
    """Nondeterministic boolean (``nondet`` keyword); lowered to a choice."""

    def __str__(self) -> str:
        return "nondet"


# ---------------------------------------------------------------------------
# Lvalues (assignment targets, address-of operands)
# ---------------------------------------------------------------------------

# Lvalues are a subset of expressions: Var, Unary('*', e), Field(e, f).
Lvalue = Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class.  Every statement carries a unique id and a position.

    Statement ids survive lowering: a core statement produced from a surface
    statement inherits the surface statement's id, which is what error
    traces report.

    ``kiss_tag``/``kiss_spawn`` are provenance markers set by the KISS
    instrumentation (see :mod:`repro.core.transform`); ``None`` means the
    statement belongs to the original program.  ``kiss_benign`` marks
    statements inside a ``benign { ... }`` block: the §6.1 annotation
    directing the race instrumentation to skip their accesses.
    """

    __slots__ = ("sid", "pos", "kiss_tag", "kiss_spawn", "kiss_benign")

    def __init__(self, pos: Pos = NOPOS, sid: Optional[int] = None):
        self.sid = fresh_stmt_id() if sid is None else sid
        self.pos = pos
        self.kiss_tag: Optional[str] = None
        self.kiss_spawn: Optional[str] = None
        self.kiss_benign: bool = False


class Skip(Stmt):
    """No-op (``assume(true)`` in the paper's encoding)."""

    def __str__(self) -> str:
        return "skip;"


class VarDecl(Stmt):
    """Local variable declaration with optional initializer (surface only)."""

    __slots__ = ("name", "type", "init")

    def __init__(self, name: str, typ: Type, init: Optional[Expr] = None, pos: Pos = NOPOS):
        super().__init__(pos)
        self.name = name
        self.type = typ
        self.init = init

    def __str__(self) -> str:
        init = f" = {self.init}" if self.init is not None else ""
        return f"{self.type} {self.name}{init};"


class Assign(Stmt):
    """``lhs = rhs`` where ``lhs`` is an lvalue (surface form)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Lvalue, rhs: Expr, pos: Pos = NOPOS, sid: Optional[int] = None):
        super().__init__(pos, sid)
        self.lhs = lhs
        self.rhs = rhs

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs};"


class Malloc(Stmt):
    """``lhs = malloc(StructName)`` — core statement."""

    __slots__ = ("lhs", "struct_name")

    def __init__(self, lhs: Lvalue, struct_name: str, pos: Pos = NOPOS, sid: Optional[int] = None):
        super().__init__(pos, sid)
        self.lhs = lhs
        self.struct_name = struct_name

    def __str__(self) -> str:
        return f"{self.lhs} = malloc({self.struct_name});"


class Assert(Stmt):
    """``assert(e)`` — core when ``e`` is a variable or constant."""

    __slots__ = ("cond",)

    def __init__(self, cond: Expr, pos: Pos = NOPOS, sid: Optional[int] = None):
        super().__init__(pos, sid)
        self.cond = cond

    def __str__(self) -> str:
        return f"assert({self.cond});"


class Assume(Stmt):
    """``assume(e)`` — blocks (concurrent) / kills the path (sequential)."""

    __slots__ = ("cond",)

    def __init__(self, cond: Expr, pos: Pos = NOPOS, sid: Optional[int] = None):
        super().__init__(pos, sid)
        self.cond = cond

    def __str__(self) -> str:
        return f"assume({self.cond});"


class Atomic(Stmt):
    """``atomic { s }`` — body must be call-free, return-free, atomic-free."""

    __slots__ = ("body",)

    def __init__(self, body: "Block", pos: Pos = NOPOS, sid: Optional[int] = None):
        super().__init__(pos, sid)
        self.body = body

    def __str__(self) -> str:
        return f"atomic {self.body}"


class Call(Stmt):
    """``lhs = f(args)`` or ``f(args)``; ``func`` is a Var naming either a
    declared function (direct call) or a variable of ``func`` type
    (indirect call)."""

    __slots__ = ("lhs", "func", "args")

    def __init__(
        self,
        lhs: Optional[Lvalue],
        func: Var,
        args: Sequence[Expr],
        pos: Pos = NOPOS,
        sid: Optional[int] = None,
    ):
        super().__init__(pos, sid)
        self.lhs = lhs
        self.func = func
        self.args = list(args)

    def __str__(self) -> str:
        call = f"{self.func}({', '.join(map(str, self.args))})"
        return f"{self.lhs} = {call};" if self.lhs is not None else f"{call};"


class AsyncCall(Stmt):
    """``async f(args)`` — fork a thread running ``f(args)``."""

    __slots__ = ("func", "args")

    def __init__(self, func: Var, args: Sequence[Expr], pos: Pos = NOPOS, sid: Optional[int] = None):
        super().__init__(pos, sid)
        self.func = func
        self.args = list(args)

    def __str__(self) -> str:
        return f"async {self.func}({', '.join(map(str, self.args))});"


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr] = None, pos: Pos = NOPOS, sid: Optional[int] = None):
        super().__init__(pos, sid)
        self.value = value

    def __str__(self) -> str:
        return f"return {self.value};" if self.value is not None else "return;"


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt], pos: Pos = NOPOS):
        super().__init__(pos)
        self.stmts = list(stmts)

    def __str__(self) -> str:
        inner = " ".join(str(s) for s in self.stmts)
        return "{ " + inner + " }"


class If(Stmt):
    """Surface ``if``; lowered to ``choice{assume(v);...[]assume(!v);...}``."""

    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Block, els: Optional[Block] = None, pos: Pos = NOPOS):
        super().__init__(pos)
        self.cond = cond
        self.then = then
        self.els = els

    def __str__(self) -> str:
        s = f"if ({self.cond}) {self.then}"
        if self.els is not None:
            s += f" else {self.els}"
        return s


class While(Stmt):
    """Surface ``while``; lowered to ``iter{assume(v); s}; assume(!v)``."""

    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Block, pos: Pos = NOPOS):
        super().__init__(pos)
        self.cond = cond
        self.body = body

    def __str__(self) -> str:
        return f"while ({self.cond}) {self.body}"


class Choice(Stmt):
    """``choice { s1 } or { s2 } ...`` — nondeterministic branch (core)."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[Block], pos: Pos = NOPOS, sid: Optional[int] = None):
        super().__init__(pos, sid)
        self.branches = list(branches)

    def __str__(self) -> str:
        return "choice " + " or ".join(str(b) for b in self.branches)


class Iter(Stmt):
    """``iter { s }`` — execute body a nondeterministic number of times."""

    __slots__ = ("body",)

    def __init__(self, body: Block, pos: Pos = NOPOS, sid: Optional[int] = None):
        super().__init__(pos, sid)
        self.body = body

    def __str__(self) -> str:
        return f"iter {self.body}"


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------


@dataclass
class StructDecl:
    """``struct Name { type field; ... }``; field order is significant."""

    name: str
    fields: "Dict[str, Type]"
    pos: Pos = NOPOS

    def __str__(self) -> str:
        body = " ".join(f"{t} {f};" for f, t in self.fields.items())
        return f"struct {self.name} {{ {body} }}"


@dataclass
class Param:
    name: str
    type: Type

    def __str__(self) -> str:
        return f"{self.type} {self.name}"


@dataclass
class FuncDecl:
    """A function: parameters, optional return type, locals, body."""

    name: str
    params: List[Param]
    ret: Optional[Type]
    body: Block
    locals: Dict[str, Type] = field(default_factory=dict)
    pos: Pos = NOPOS

    def __str__(self) -> str:
        rt = str(self.ret) if self.ret is not None else "void"
        ps = ", ".join(str(p) for p in self.params)
        return f"{rt} {self.name}({ps}) {self.body}"


@dataclass
class GlobalDecl:
    name: str
    type: Type
    init: Optional[Expr] = None
    pos: Pos = NOPOS

    def __str__(self) -> str:
        init = f" = {self.init}" if self.init is not None else ""
        return f"{self.type} {self.name}{init};"


@dataclass
class Program:
    """A whole program: struct table, globals, functions, entry point."""

    structs: Dict[str, StructDecl] = field(default_factory=dict)
    globals: Dict[str, GlobalDecl] = field(default_factory=dict)
    functions: Dict[str, FuncDecl] = field(default_factory=dict)
    entry: str = "main"

    def struct(self, name: str) -> StructDecl:
        try:
            return self.structs[name]
        except KeyError:
            raise KeyError(f"unknown struct '{name}'") from None

    def function(self, name: str) -> FuncDecl:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"unknown function '{name}'") from None

    def __str__(self) -> str:
        parts: List[str] = []
        parts.extend(str(s) for s in self.structs.values())
        parts.extend(str(g) for g in self.globals.values())
        parts.extend(str(f) for f in self.functions.values())
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

Const = Union[IntLit, BoolLit, NullLit]


def is_const(e: Expr) -> bool:
    """True for literal constants (including function names is NOT const)."""
    return isinstance(e, (IntLit, BoolLit, NullLit))


def is_atom(e: Expr) -> bool:
    """Atoms are the operands allowed in core statements: vars and consts."""
    return isinstance(e, Var) or is_const(e)


def walk_stmts(stmt: Stmt):
    """Yield ``stmt`` and all statements nested inside it, pre-order."""
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            yield from walk_stmts(s)
    elif isinstance(stmt, If):
        yield from walk_stmts(stmt.then)
        if stmt.els is not None:
            yield from walk_stmts(stmt.els)
    elif isinstance(stmt, While):
        yield from walk_stmts(stmt.body)
    elif isinstance(stmt, (Iter, Atomic)):
        yield from walk_stmts(stmt.body)
    elif isinstance(stmt, Choice):
        for b in stmt.branches:
            yield from walk_stmts(b)


def walk_exprs(e: Expr):
    """Yield ``e`` and all subexpressions, pre-order."""
    yield e
    if isinstance(e, Unary):
        yield from walk_exprs(e.operand)
    elif isinstance(e, Binary):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, Field):
        yield from walk_exprs(e.base)


def stmt_exprs(stmt: Stmt):
    """Yield the immediate expressions of a single statement (not nested
    statements' expressions)."""
    if isinstance(stmt, Assign):
        yield stmt.lhs
        yield stmt.rhs
    elif isinstance(stmt, Malloc):
        yield stmt.lhs
    elif isinstance(stmt, (Assert, Assume)):
        yield stmt.cond
    elif isinstance(stmt, Call):
        if stmt.lhs is not None:
            yield stmt.lhs
        yield stmt.func
        yield from stmt.args
    elif isinstance(stmt, AsyncCall):
        yield stmt.func
        yield from stmt.args
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, VarDecl):
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
