"""Pretty-printer: emit concrete syntax that re-parses to an equal program."""

from __future__ import annotations

from typing import List

from .ast import (
    Assert,
    Assign,
    Assume,
    AsyncCall,
    Atomic,
    Binary,
    Block,
    BoolLit,
    Call,
    Choice,
    Expr,
    Field,
    FuncDecl,
    If,
    IntLit,
    Iter,
    Malloc,
    Nondet,
    NullLit,
    Program,
    Return,
    Skip,
    Stmt,
    Unary,
    Var,
    VarDecl,
    While,
)

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}
_UNARY_PREC = 7
_POSTFIX_PREC = 8


def pretty_expr(e: Expr, parent_prec: int = 0) -> str:
    """Render an expression with minimal parentheses."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, NullLit):
        return "null"
    if isinstance(e, Nondet):
        return "nondet"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        inner = pretty_expr(e.operand, _UNARY_PREC)
        text = f"{e.op}{inner}"
        return f"({text})" if parent_prec > _UNARY_PREC else text
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        left = pretty_expr(e.left, prec)
        right = pretty_expr(e.right, prec + 1)
        text = f"{left} {e.op} {right}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(e, Field):
        sep = "->" if e.arrow else "."
        return f"{pretty_expr(e.base, _POSTFIX_PREC)}{sep}{e.name}"
    raise ValueError(f"cannot pretty-print {e!r}")


class _Printer:
    def __init__(self, indent: str = "    "):
        self._indent = indent
        self._lines: List[str] = []
        self._level = 0

    def line(self, text: str) -> None:
        self._lines.append(self._indent * self._level + text)

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"

    def block(self, b: Block, suffix: str = "") -> None:
        self._lines[-1] += " {"
        self._level += 1
        for s in b.stmts:
            self.stmt(s)
        self._level -= 1
        self.line("}" + suffix)

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, Skip):
            self.line("skip;")
        elif isinstance(s, VarDecl):
            init = f" = {pretty_expr(s.init)}" if s.init is not None else ""
            self.line(f"{s.type} {s.name}{init};")
        elif isinstance(s, Assign):
            self.line(f"{pretty_expr(s.lhs)} = {pretty_expr(s.rhs)};")
        elif isinstance(s, Malloc):
            self.line(f"{pretty_expr(s.lhs)} = malloc({s.struct_name});")
        elif isinstance(s, Assert):
            self.line(f"assert({pretty_expr(s.cond)});")
        elif isinstance(s, Assume):
            self.line(f"assume({pretty_expr(s.cond)});")
        elif isinstance(s, Atomic):
            self.line("atomic")
            self.block(s.body)
        elif isinstance(s, Call):
            call = f"{s.func.name}({', '.join(pretty_expr(a) for a in s.args)})"
            if s.lhs is not None:
                self.line(f"{pretty_expr(s.lhs)} = {call};")
            else:
                self.line(f"{call};")
        elif isinstance(s, AsyncCall):
            self.line(f"async {s.func.name}({', '.join(pretty_expr(a) for a in s.args)});")
        elif isinstance(s, Return):
            if s.value is not None:
                self.line(f"return {pretty_expr(s.value)};")
            else:
                self.line("return;")
        elif isinstance(s, Block):
            self.line("{")
            self._level += 1
            for sub in s.stmts:
                self.stmt(sub)
            self._level -= 1
            self.line("}")
        elif isinstance(s, If):
            self.line(f"if ({pretty_expr(s.cond)})")
            if s.els is not None:
                self.block(s.then)
                self._lines[-1] += " else {"
                self._level += 1
                for sub in s.els.stmts:
                    self.stmt(sub)
                self._level -= 1
                self.line("}")
            else:
                self.block(s.then)
        elif isinstance(s, While):
            self.line(f"while ({pretty_expr(s.cond)})")
            self.block(s.body)
        elif isinstance(s, Choice):
            self.line("choice {")
            self._level += 1
            for sub in s.branches[0].stmts:
                self.stmt(sub)
            self._level -= 1
            for b in s.branches[1:]:
                self.line("} or {")
                self._level += 1
                for sub in b.stmts:
                    self.stmt(sub)
                self._level -= 1
            self.line("}")
        elif isinstance(s, Iter):
            self.line("iter")
            self.block(s.body)
        else:
            raise ValueError(f"cannot pretty-print statement {type(s).__name__}")


def pretty_program(prog: Program) -> str:
    """Emit a whole program as re-parseable source text."""
    p = _Printer()
    for s in prog.structs.values():
        p.line(f"struct {s.name}")
        p._lines[-1] += " {"
        p._level += 1
        for fname, ftype in s.fields.items():
            p.line(f"{ftype} {fname};")
        p._level -= 1
        p.line("}")
        p.line("")
    for g in prog.globals.values():
        init = f" = {pretty_expr(g.init)}" if g.init is not None else ""
        p.line(f"{g.type} {g.name}{init};")
    if prog.globals:
        p.line("")
    for f in prog.functions.values():
        _print_function(p, f)
        p.line("")
    return p.text()


def _print_function(p: _Printer, f: FuncDecl) -> None:
    ret = str(f.ret) if f.ret is not None else "void"
    params = ", ".join(f"{q.type} {q.name}" for q in f.params)
    p.line(f"{ret} {f.name}({params})")
    # Emit hoisted locals (minus parameters) as declarations at the top so
    # the output re-parses to a program with the same locals table.
    body = f.body
    p._lines[-1] += " {"
    p._level += 1
    declared = {q.name for q in f.params}
    for name, typ in f.locals.items():
        if name not in declared and not _declared_in(body, name):
            p.line(f"{typ} {name};")
    for s in body.stmts:
        p.stmt(s)
    p._level -= 1
    p.line("}")


def _declared_in(b: Block, name: str) -> bool:
    from .ast import walk_stmts

    for s in walk_stmts(b):
        if isinstance(s, VarDecl) and s.name == name:
            return True
    return False
