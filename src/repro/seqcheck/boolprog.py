"""Boolean programs — the input language of the Bebop-style engine.

A boolean program (Ball & Rajamani's formalism, the output of SLAM's
predicate-abstraction step) has only ``bool`` variables; expressions may
use the unknown value ``*`` (nondeterministic choice).  Procedures take
bool parameters and return a tuple of bools.  Control is structured as a
statement list per procedure with nondeterministic ``goto`` over labels.

The complexity the paper cites for the sequential backend —
``O(|C| · 2^(g+l))`` — is the cost of reachability over this IR, realized
by :mod:`repro.seqcheck.bebop`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


# -- expressions ---------------------------------------------------------------


class BExpr:
    """Base class of boolean-program expressions."""
    pass


@dataclass(frozen=True)
class BConst(BExpr):
    value: bool

    def __str__(self) -> str:
        return "T" if self.value else "F"


@dataclass(frozen=True)
class BVar(BExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BNondet(BExpr):
    """The unknown value ``*``."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class BNot(BExpr):
    operand: BExpr

    def __str__(self) -> str:
        return f"!{self.operand}"


@dataclass(frozen=True)
class BAnd(BExpr):
    left: BExpr
    right: BExpr

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class BOr(BExpr):
    left: BExpr
    right: BExpr

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


def bor_many(es: Sequence[BExpr]) -> BExpr:
    """Disjunction of a list (False when empty)."""
    if not es:
        return BConst(False)
    out = es[0]
    for e in es[1:]:
        out = BOr(out, e)
    return out


def eval_bexpr(e: BExpr, env: Dict[str, bool], choice: Optional[bool] = None) -> List[bool]:
    """All possible values of ``e`` under ``env`` (``*`` yields both)."""
    if isinstance(e, BConst):
        return [e.value]
    if isinstance(e, BVar):
        return [env[e.name]]
    if isinstance(e, BNondet):
        return [True, False] if choice is None else [choice]
    if isinstance(e, BNot):
        return [not v for v in eval_bexpr(e.operand, env, choice)]
    if isinstance(e, BAnd):
        return sorted({a and b for a in eval_bexpr(e.left, env, choice) for b in eval_bexpr(e.right, env, choice)})
    if isinstance(e, BOr):
        return sorted({a or b for a in eval_bexpr(e.left, env, choice) for b in eval_bexpr(e.right, env, choice)})
    raise TypeError(f"unknown BExpr {e!r}")


# -- statements -----------------------------------------------------------------


@dataclass
class BStmt:
    # keyword-only so subclass payloads can be passed positionally
    label: Optional[str] = field(default=None, kw_only=True)


@dataclass
class BSkip(BStmt):
    def __str__(self) -> str:
        return "skip"


@dataclass
class BAssign(BStmt):
    """Parallel assignment ``x1, x2 := e1, e2``."""

    targets: List[str] = field(default_factory=list)
    exprs: List[BExpr] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{', '.join(self.targets)} := {', '.join(map(str, self.exprs))}"


@dataclass
class BAssume(BStmt):
    cond: BExpr = field(default_factory=lambda: BConst(True))

    def __str__(self) -> str:
        return f"assume({self.cond})"


@dataclass
class BAssert(BStmt):
    cond: BExpr = field(default_factory=lambda: BConst(True))

    def __str__(self) -> str:
        return f"assert({self.cond})"


@dataclass
class BGoto(BStmt):
    labels: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        return f"goto {', '.join(self.labels)}"


@dataclass
class BCall(BStmt):
    proc: str = ""
    args: List[BExpr] = field(default_factory=list)
    rets: List[str] = field(default_factory=list)  # caller variables receiving returns

    def __str__(self) -> str:
        rets = f"{', '.join(self.rets)} := " if self.rets else ""
        return f"{rets}{self.proc}({', '.join(map(str, self.args))})"


@dataclass
class BReturn(BStmt):
    exprs: List[BExpr] = field(default_factory=list)

    def __str__(self) -> str:
        return f"return {', '.join(map(str, self.exprs))}"


# -- procedures and programs -------------------------------------------------------


@dataclass
class BProc:
    name: str
    params: List[str] = field(default_factory=list)
    locals: List[str] = field(default_factory=list)
    nrets: int = 0
    body: List[BStmt] = field(default_factory=list)

    def label_index(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for i, s in enumerate(self.body):
            if s.label is not None:
                if s.label in out:
                    raise ValueError(f"duplicate label '{s.label}' in {self.name}")
                out[s.label] = i
        return out

    @property
    def frame_vars(self) -> List[str]:
        return self.params + self.locals

    def __str__(self) -> str:
        lines = [f"proc {self.name}({', '.join(self.params)}) returns {self.nrets}"]
        for s in self.body:
            prefix = f"{s.label}: " if s.label else "    "
            lines.append(f"  {prefix}{s}")
        return "\n".join(lines)


@dataclass
class BProgram:
    globals: List[str] = field(default_factory=list)
    procs: Dict[str, BProc] = field(default_factory=dict)
    entry: str = "main"

    def proc(self, name: str) -> BProc:
        try:
            return self.procs[name]
        except KeyError:
            raise KeyError(f"no procedure '{name}'") from None

    def validate(self) -> None:
        gset = set(self.globals)
        if len(gset) != len(self.globals):
            raise ValueError("duplicate global")
        if self.entry not in self.procs:
            raise ValueError(f"missing entry '{self.entry}'")
        for p in self.procs.values():
            labels = p.label_index()
            scope = gset | set(p.frame_vars)
            for s in p.body:
                if isinstance(s, BGoto):
                    for lbl in s.labels:
                        if lbl not in labels:
                            raise ValueError(f"{p.name}: goto to unknown label '{lbl}'")
                if isinstance(s, BAssign):
                    if len(s.targets) != len(s.exprs):
                        raise ValueError(f"{p.name}: malformed parallel assignment {s}")
                    for t in s.targets:
                        if t not in scope:
                            raise ValueError(f"{p.name}: assignment to unknown '{t}'")
                if isinstance(s, BCall):
                    callee = self.proc(s.proc)
                    if len(s.args) != len(callee.params):
                        raise ValueError(f"{p.name}: call {s} arity mismatch")
                    if len(s.rets) != callee.nrets:
                        raise ValueError(f"{p.name}: call {s} return arity mismatch")
                if isinstance(s, BReturn) and len(s.exprs) != p.nrets:
                    raise ValueError(f"{p.name}: return arity mismatch")

    def __str__(self) -> str:
        head = f"globals: {', '.join(self.globals)}"
        return head + "\n" + "\n".join(str(p) for p in self.procs.values())
