"""Seeded random generator of well-typed concurrent core-language programs.

The generator draws from the fragment of the paper's parallel language
where Theorem 1 is an *exact* equivalence the differential oracle can
test mechanically (see :mod:`repro.fuzz.oracle`):

* a handful of shared ``int`` globals plus one *distinguished race
  location* (the global named by ``GenConfig.race_global``) that worker
  threads read and write, sometimes under a lock;
* locks in the Section 3 encoding — plain ``int`` cells manipulated
  inside ``atomic`` blocks (``atomic { assume(l == 0); l = 1; }`` /
  ``atomic { l = 0; }``);
* bounded forks: ``async wN()`` statements at the top level of ``main``
  only, so the number of dynamic threads equals the number of ``async``
  statements and ``max_ts = forks`` makes the KISS simulation cover
  every balanced execution;
* ``assert`` / ``assume`` over globals, ``if`` with optional ``else``,
  and ``while`` loops over *local* counters (always terminating, so the
  explored state spaces stay finite);
* no pointers, no division — every runtime violation a generated
  program can exhibit is an assertion failure, the "goes wrong" of
  Theorem 1.

Determinism: all randomness flows through one ``random.Random(seed)``;
the same ``(seed, config)`` always yields the same source text, which is
what makes fuzz findings replayable (``python -m repro fuzz --seed N``)
and lets campaign caching work across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.lang.ast import (
    Assert,
    Assign,
    Assume,
    AsyncCall,
    Atomic,
    Binary,
    Block,
    Expr,
    If,
    INT,
    IntLit,
    Program,
    Skip,
    Stmt,
    Var,
    VarDecl,
    While,
    walk_stmts,
)
from repro.lang.builder import ProgramBuilder
from repro.lang.pretty import pretty_program

#: Comparison operators usable in generated conditions.
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

#: Statement kinds and their relative weights (cumulative sampling keeps
#: the draw order stable across Python versions).
_KIND_WEIGHTS = (
    ("write", 6),
    ("incr", 4),
    ("read", 3),
    ("assert", 4),
    ("assume", 1),
    ("if", 3),
    ("loop", 1),
    ("locked", 2),
    ("skip", 1),
)


@dataclass(frozen=True)
class GenConfig:
    """Size/shape knobs for the generator.

    ``max_workers`` bounds the number of forked thread functions (and
    hence ``async`` statements — each worker is spawned exactly once);
    ``max_stmts`` bounds the statements drawn per region; ``max_depth``
    bounds ``if``/``while`` nesting; ``max_const`` bounds the integer
    literals; ``loop_bound`` is the trip count of generated counter
    loops.  ``race_global`` names the distinguished race location every
    program declares and most touch.
    """

    max_workers: int = 2
    max_stmts: int = 4
    max_depth: int = 2
    n_globals: int = 2
    n_locks: int = 1
    max_const: int = 2
    loop_bound: int = 2
    race_global: str = "shared"

    def __post_init__(self):
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_stmts < 1:
            raise ValueError("max_stmts must be >= 1")
        if self.n_globals < 1:
            raise ValueError("n_globals must be >= 1")


@dataclass
class GeneratedProgram:
    """One generator output: the type-checked surface AST, its source
    text (the canonical replay artifact), and the fork count that sizes
    ``max_ts`` for an exact differential comparison."""

    seed: int
    config: GenConfig
    program: Program
    source: str
    n_forks: int


def count_statements(prog: Program) -> int:
    """Number of executable statements across all function bodies
    (``Block`` containers are structure, not statements; declarations
    without initializers are bookkeeping)."""
    n = 0
    for func in prog.functions.values():
        for s in walk_stmts(func.body):
            if isinstance(s, Block):
                continue
            if isinstance(s, VarDecl) and s.init is None:
                continue
            n += 1
    return n


class _FuncGen:
    """Per-function generation state: the locals allocated so far (loop
    counters) and the set of locks currently held on the generation path
    (so lock regions nest without self-deadlocking on the same lock)."""

    def __init__(self):
        self.locals: List[str] = []
        self.held: List[str] = []


class ProgramGenerator:
    """Draws :class:`GeneratedProgram` values from a seeded stream."""

    def __init__(self, config: Optional[GenConfig] = None):
        self.config = config or GenConfig()

    # -- random pieces -----------------------------------------------------------

    def _pick_kind(self, rng: random.Random, depth: int, in_atomic: bool) -> str:
        kinds = []
        for kind, w in _KIND_WEIGHTS:
            if kind in ("if", "loop", "locked") and depth >= self.config.max_depth:
                continue
            if kind == "locked" and (in_atomic or not self.config.n_locks):
                continue
            kinds.extend([kind] * w)
        return rng.choice(kinds)

    def _global(self, rng: random.Random) -> str:
        """Any shared int cell, the race location included (it is just a
        global the generator is told to favour)."""
        names = [f"g{i}" for i in range(self.config.n_globals)] + [self.config.race_global] * 2
        return rng.choice(names)

    def _const(self, rng: random.Random) -> IntLit:
        return IntLit(rng.randint(0, self.config.max_const))

    def _cond(self, rng: random.Random) -> Expr:
        return Binary(rng.choice(_CMP_OPS), Var(self._global(rng)), self._const(rng))

    # -- statements --------------------------------------------------------------

    def _stmt(self, rng: random.Random, fg: _FuncGen, depth: int) -> List[Stmt]:
        kind = self._pick_kind(rng, depth, in_atomic=False)
        if kind == "write":
            return [Assign(Var(self._global(rng)), self._const(rng))]
        if kind == "incr":
            g = self._global(rng)
            return [Assign(Var(g), Binary("+", Var(g), IntLit(1)))]
        if kind == "read":
            src, dst = self._global(rng), self._global(rng)
            return [Assign(Var(dst), Var(src))]
        if kind == "assert":
            return [Assert(self._cond(rng))]
        if kind == "assume":
            # Assumptions only over equality/inequality close to the
            # initial values, so most generated paths stay live.
            op = rng.choice(("==", "!=", "<="))
            return [Assume(Binary(op, Var(self._global(rng)), self._const(rng)))]
        if kind == "if":
            then = self._stmts(rng, fg, depth + 1, rng.randint(1, 2))
            els = self._stmts(rng, fg, depth + 1, rng.randint(1, 2)) if rng.random() < 0.4 else None
            return [If(self._cond(rng), Block(then), Block(els) if els is not None else None)]
        if kind == "loop":
            counter = f"i{len(fg.locals)}"
            fg.locals.append(counter)
            body = self._stmts(rng, fg, depth + 1, rng.randint(1, 2))
            body.append(Assign(Var(counter), Binary("+", Var(counter), IntLit(1))))
            # Declaration and initialisation are emitted as separate
            # statements because that is the form the parser itself
            # produces for ``int x = 0;`` — keeping parse∘pretty an
            # identity on generated sources.
            return [
                VarDecl(counter, INT, None),
                Assign(Var(counter), IntLit(0)),
                While(Binary("<", Var(counter), IntLit(self.config.loop_bound)), Block(body)),
            ]
        if kind == "locked":
            free = [f"l{i}" for i in range(self.config.n_locks) if f"l{i}" not in fg.held]
            if not free:
                return [Skip()]
            lock = rng.choice(free)
            fg.held.append(lock)
            inner = self._stmts(rng, fg, depth + 1, rng.randint(1, 2))
            fg.held.pop()
            acquire = Atomic(Block([Assume(Binary("==", Var(lock), IntLit(0))),
                                    Assign(Var(lock), IntLit(1))]))
            release = Atomic(Block([Assign(Var(lock), IntLit(0))]))
            return [acquire] + inner + [release]
        return [Skip()]

    def _stmts(self, rng: random.Random, fg: _FuncGen, depth: int, n: int) -> List[Stmt]:
        out: List[Stmt] = []
        for _ in range(n):
            out.extend(self._stmt(rng, fg, depth))
        return out

    # -- whole programs ----------------------------------------------------------

    def generate(self, seed: int) -> GeneratedProgram:
        rng = random.Random(seed)
        cfg = self.config
        b = ProgramBuilder()
        for i in range(cfg.n_globals):
            b.global_var(f"g{i}", INT, IntLit(0))
        b.global_var(cfg.race_global, INT, IntLit(0))
        for i in range(cfg.n_locks):
            b.global_var(f"l{i}", INT, IntLit(0))

        n_workers = rng.randint(1, cfg.max_workers)
        for w in range(n_workers):
            fg = _FuncGen()
            body = self._stmts(rng, fg, 0, rng.randint(1, cfg.max_stmts))
            b.function(f"w{w}").stmts(body)

        # main: statements with the asyncs spliced in at random top-level
        # positions (forks stay at depth 0 so the dynamic thread count is
        # exactly the static async count).
        fg = _FuncGen()
        body = self._stmts(rng, fg, 0, rng.randint(1, cfg.max_stmts))
        for w in range(n_workers):
            body.insert(rng.randint(0, len(body)), AsyncCall(Var(f"w{w}"), []))
        b.function("main").stmts(body)

        prog = b.build()
        return GeneratedProgram(
            seed=seed,
            config=cfg,
            program=prog,
            source=pretty_program(prog),
            n_forks=n_workers,
        )

    def generate_batch(self, count: int, seed: int = 0) -> List[GeneratedProgram]:
        """``count`` programs at consecutive seeds ``seed .. seed+count-1``."""
        return [self.generate(seed + i) for i in range(count)]
