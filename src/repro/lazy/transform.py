"""The lazy pc-guarded round-robin sequentialization (Lazy-CSeq style).

The emitted sequential program executes the round-robin schedule in its
real order, so the shared globals always hold their true values and no
round-entry snapshot has to be guessed.

The encoding is a CFG interpreter with one-hot boolean pc flags:

* the static *thread instances* are enumerated up front — the entry
  function is instance 0, and every ``async`` site adds one instance of
  its (direct) target, breadth-first, so a parent's index is always
  smaller than its children's;
* each instance's body is flattened into *nodes*: one per simple
  statement (``skip``/assign/``assert``/``assume``/``atomic``), one per
  ``choice``/``iter`` head (no payload, several successors), one per
  ``async`` site (the spawn arms the child's entry flag);
* a direct, non-recursive ``call`` is flattened into the caller's
  instance: one node binds every parameter and resets every callee
  local in a single ``atomic`` (the one call step of the concurrent
  semantics), the callee's body follows, and every ``return`` jumps to
  the call's continuation — through one node writing the result when
  the call has a left-hand side (the type default when the callee falls
  off its end).  Callee locals are promoted per (instance, call site);
* instance ``t`` gets a step function ``__kiss_lz_step<t>()``: a single
  ``choice`` with one branch per node — ``assume`` the node's pc flag,
  clear it, run the payload, set a successor flag (``__kiss_lz_done<t>``
  past the last statement).  Locals and parameters are promoted to
  per-instance globals (``__kiss_lz<t>_x``) so they survive across
  segment boundaries;
* the driver ``__kiss_check`` unrolls ``K`` rounds; in each round every
  instance in spawn order runs ``iter { __kiss_lz_step<t>(); }`` — zero
  or more consecutive nodes.  An instance that is unspawned, finished,
  or blocked at an unsatisfied ``assume`` simply takes the
  zero-iteration path and retries next round.

Every execution of the emitted program *is* a K-round round-robin
execution of the input, so asserts fail on the spot, there is no
deferred error flag, and the trace mapper (:mod:`repro.lazy.tracemap`)
is a transliteration: payload nodes in sequential execution order are
the concurrent interleaving.

Two optional restrictions narrow where a segment may *end* (both only
restrict coverage, never soundness — every surviving execution is still
a real round-robin prefix):

* ``por=True`` runs :func:`repro.analysis.sharedaccess.analyze_shared_access`
  and, after each non-final segment, constrains the instance to have
  stopped at a node whose payload touches a shared global, can block
  (any ``assume``), or spawns — purely thread-local suffixes commute
  forward into the next segment, so nothing is lost;
* ``cs_tile`` (a list of ``"<instance>:<pc>"`` strings, see
  :mod:`repro.campaign.swarm`) keeps only the listed context-switch
  points enabled; tiles jointly covering all candidate points recover
  the full schedule set by a pigeonhole argument (an execution stops at
  most ``(K-1) * instances`` times, so some tile of any covering family
  with more tiles than that contains all of its stop points).

Stopping "at entry" (spawned but no step taken), ``off`` (never
spawned) and ``done`` are always allowed — they encode "this instance
was not scheduled (further)", which every schedule may do.

The transform supports the scalar fragment: no heap
(``malloc``/pointers/fields), ``int``/``bool`` variables and results
only, direct non-recursive calls only, direct ``async`` targets only,
no ``async`` under ``iter`` or inside ``atomic`` (instances are
static), and no spawn cycles.  Everything else raises
:class:`~repro.core.transform.TransformError` naming ``strategy="kiss"``,
which checks the whole language.  Division *is* allowed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.lang.ast import (
    Assert,
    Assign,
    Assume,
    AsyncCall,
    Atomic,
    BOOL,
    Binary,
    Block,
    BoolLit,
    BoolType,
    Call,
    Choice,
    Expr,
    Field,
    FuncDecl,
    GlobalDecl,
    IntLit,
    IntType,
    Iter,
    Malloc,
    Program,
    Return,
    Skip,
    Stmt,
    Type,
    Unary,
    Var,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.analysis.sharedaccess import analyze_shared_access
from repro.core import names
from repro.core.transform import KissTransformer, TransformError, _tag
from repro.lang.lower import clone_program, is_core_program

TAG_LZ_SPAWN = "lz-spawn"  # skip marker at a spawn node (carries the async sid)
TAG_LZ_CALL = "lz-call"  # a call's binding node (carries the call sid)
TAG_LZ_RETURN = "lz-return"  # a call's result write (carries the call sid)

#: Sentinel pc: the instance ran past its last statement.
DONE = -1


def _default_init(typ: Type) -> Expr:
    if isinstance(typ, IntType):
        return IntLit(0)
    if isinstance(typ, BoolType):
        return BoolLit(False)
    raise TransformError(f"lazy: cannot default-initialize type {typ}")


def _falls_through(stmts: Sequence[Stmt]) -> bool:
    """May control fall off the end of ``stmts``?  Only ``return`` stops
    it: a ``choice`` falls through when some branch does, and an
    ``iter`` may always run zero times."""
    for s in stmts:
        if isinstance(s, Return):
            return False
        if isinstance(s, Block) and not _falls_through(s.stmts):
            return False
        if isinstance(s, Choice) and not any(_falls_through(b.stmts) for b in s.branches):
            return False
    return True


def _unsupported(what: str) -> TransformError:
    """A dropped input: the error names the strategy that accepts it."""
    return TransformError(f"lazy: {what}; use strategy='kiss'")


@dataclass
class _Node:
    """One flattened CFG node of an instance."""

    pc: int
    payload: Optional[Stmt] = None  # a simple core statement, or None
    spawn: Optional[AsyncCall] = None  # set instead of payload at async sites
    succs: List[int] = dc_field(default_factory=list)  # pcs (DONE allowed)


@dataclass
class _Instance:
    """One static thread instance (the entry, or one async site's target)."""

    index: int
    func: str  # original function name (for diagnostics)
    decl: FuncDecl  # per-instance deep copy; locals renamed in place
    chain: tuple  # ancestor function names, for spawn-cycle detection
    entry: int = DONE
    nodes: List[_Node] = dc_field(default_factory=list)
    #: promoted callee locals and params (:func:`names.lz_frame`) -> type
    frames: Dict[str, Type] = dc_field(default_factory=dict)


class LazyTransformer(KissTransformer):
    """``transform(P)`` emits an ordinary sequential core program whose
    executions are exactly the K-round round-robin executions of ``P``.

    Parameters
    ----------
    rounds:
        The round budget ``K >= 1``: every instance is preempted at most
        ``K - 1`` times.
    max_ts:
        Accepted for constructor uniformity with the other strategies
        and ignored — the instance tree is static, so no parked-thread
        multiset exists.
    por:
        Restrict segment ends to shared-access/blocking/spawn nodes
        (see the module docstring).
    cs_tile:
        Optional list of enabled context-switch points as
        ``"<instance>:<pc>"`` strings; ``None`` enables all of them.
    """

    def __init__(
        self,
        rounds: int = 2,
        max_ts: int = 0,
        por: bool = False,
        cs_tile: Optional[Sequence[str]] = None,
    ):
        super().__init__(max_ts=max_ts)
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.rounds = rounds
        self.por = por
        self.cs_tile = list(cs_tile) if cs_tile is not None else None
        # Populated by transform():
        self.instances: List[_Instance] = []
        #: every context-switch candidate as ``"<instance>:<pc>"`` — the
        #: universe :mod:`repro.campaign.swarm` partitions into tiles.
        self.cs_points: List[str] = []

    # -- public API -------------------------------------------------------------------

    def transform(self, prog: Program) -> Program:
        with obs.span(
            "transform",
            transformer=type(self).__name__,
            rounds=self.rounds,
            por=self.por,
        ):
            return self._transform(prog)

    # -- orchestration ----------------------------------------------------------------

    def _transform(self, prog: Program) -> Program:
        if not is_core_program(prog):
            raise TransformError("input must be a core program (run repro.lang.lower first)")
        self._check_no_reserved(prog)
        self._check_globals(prog)
        out = clone_program(prog)
        self.prog = out

        self._src = prog
        self._spawn_child: Dict[int, int] = {}  # id(AsyncCall) -> child instance
        # id(Call) -> (renamed private copy of the callee, its name mapping)
        self._callees: Dict[int, Tuple[FuncDecl, Dict[str, str]]] = {}
        self.instances = self._build_instances(prog)
        for inst in self.instances:
            self._flatten(inst)

        shared: Optional[Set[str]] = None
        if self.por:
            shared = analyze_shared_access(prog).shared
        allowed = self._allowed_stops(shared)

        out.functions = {}
        for inst in self.instances:
            out.functions[names.lz_step(inst.index)] = self._make_step(inst)
        # The driver takes over the original entry's name: the source
        # functions are gone from the output, and reusing the name keeps
        # the pretty-print/reparse round trip canonical (witness emission
        # re-parses the text, and parsing fixes the entry to ``main``).
        out.functions[prog.entry] = self._make_driver(allowed, name=prog.entry)
        out.entry = prog.entry
        self._add_lazy_globals(out)

        self.cs_points = [
            f"{inst.index}:{n.pc}"
            for inst in self.instances
            for n in inst.nodes
            if n.pc != inst.entry
        ]
        obs.inc("lazy_instances", len(self.instances))
        obs.inc("lazy_nodes", sum(len(i.nodes) for i in self.instances))
        obs.inc("lazy_cs_candidates", len(self.cs_points))
        return out

    # -- instance tree ----------------------------------------------------------------

    def _build_instances(self, prog: Program) -> List[_Instance]:
        try:
            entry_decl = prog.functions[prog.entry]
        except KeyError:
            raise TransformError(f"unknown entry function '{prog.entry}'") from None
        if entry_decl.params:
            raise _unsupported("entry function with parameters is unsupported")
        instances = [
            _Instance(0, prog.entry, copy.deepcopy(entry_decl), chain=(prog.entry,))
        ]
        i = 0
        while i < len(instances):
            inst = instances[i]
            self._prepare(inst)
            for s in self._walk(inst.decl.body):
                if not isinstance(s, AsyncCall):
                    continue
                target = s.func.name
                if target not in prog.functions:
                    raise _unsupported(f"async target '{target}' is not a direct function name")
                if target in inst.chain:
                    raise _unsupported(
                        f"spawn cycle through '{target}' "
                        f"(instance tree must be finite): {' -> '.join(inst.chain)}"
                    )
                child = _Instance(
                    len(instances),
                    target,
                    copy.deepcopy(prog.functions[target]),
                    chain=inst.chain + (target,),
                )
                self._spawn_child[id(s)] = child.index
                instances.append(child)
            i += 1
        return instances

    def _prepare(self, inst: _Instance) -> None:
        """Check the instance's function, promote its locals, and give
        every call it makes (transitively) a private callee copy."""
        t = inst.index
        self._check_decl(inst.func, inst.decl)
        self._rename(inst.decl.body, self._promotions(inst.decl, lambda n: names.lz_local(t, n)))
        self._expand_calls(inst, inst.decl, (inst.func,))
        for s in self._walk(inst.decl.body):
            if not isinstance(s, (Iter, Atomic)):
                continue
            where = "iter" if isinstance(s, Iter) else "atomic"
            for inner in self._walk(s.body):
                if isinstance(inner, AsyncCall):
                    raise _unsupported(
                        f"async under {where} in '{inst.func}' is unsupported "
                        "(thread instances must be static)"
                    )
                if isinstance(inner, Call) and where == "atomic":
                    raise _unsupported(f"call inside atomic in '{inst.func}' is unsupported")

    def _expand_calls(self, inst: _Instance, decl: FuncDecl, chain: tuple) -> None:
        for s in walk_stmts(decl.body):
            if not isinstance(s, Call):
                continue
            target = s.func.name
            if target not in self._src.functions:
                raise _unsupported(
                    f"indirect call through '{target}' in '{chain[-1]}' is unsupported"
                )
            if target in chain:
                raise _unsupported(
                    f"recursive call of '{target}' is unsupported: {' -> '.join(chain + (target,))}"
                )
            callee = copy.deepcopy(self._src.functions[target])
            self._check_decl(target, callee)
            mapping = self._promotions(callee, lambda n: names.lz_frame(inst.index, s.sid, n))
            self._rename(callee.body, mapping)
            for p in callee.params:
                inst.frames[mapping[p.name]] = p.type
            for lname, typ in callee.locals.items():
                inst.frames[mapping[lname]] = typ
            self._callees[id(s)] = (callee, mapping)
            self._expand_calls(inst, callee, chain + (target,))

    def _walk(self, body: Stmt):
        """``walk_stmts``, descending into each call's callee copy."""
        for s in walk_stmts(body):
            yield s
            if isinstance(s, Call):
                yield from self._walk(self._callees[id(s)][0].body)

    # -- restrictions -----------------------------------------------------------------

    @staticmethod
    def _check_globals(prog: Program) -> None:
        for g in prog.globals.values():
            if not isinstance(g.type, (IntType, BoolType)):
                raise _unsupported(
                    f"global '{g.name}' has unsupported type {g.type} "
                    "(int/bool scalar fragment only)"
                )

    @staticmethod
    def _check_decl(func: str, decl: FuncDecl) -> None:
        if decl.ret is not None and not isinstance(decl.ret, (IntType, BoolType)):
            raise _unsupported(f"'{func}' has unsupported return type {decl.ret}")
        for p in decl.params:
            if not isinstance(p.type, (IntType, BoolType)):
                raise _unsupported(
                    f"parameter '{p.name}' of '{func}' has unsupported type {p.type}"
                )
        for name, typ in decl.locals.items():
            if not isinstance(typ, (IntType, BoolType)):
                raise _unsupported(f"local '{name}' of '{func}' has unsupported type {typ}")
        for s in walk_stmts(decl.body):
            if isinstance(s, Malloc):
                raise _unsupported(f"malloc in '{func}' is unsupported (no heap)")
            for e in stmt_exprs(s):
                for sub in walk_exprs(e):
                    if isinstance(sub, Field):
                        raise _unsupported(f"field access in '{func}' is unsupported (no heap)")
                    if isinstance(sub, Unary) and sub.op in ("*", "&"):
                        raise _unsupported(
                            f"pointer operation in '{func}' is unsupported (no heap)"
                        )

    # -- local promotion --------------------------------------------------------------

    @staticmethod
    def _promotions(decl: FuncDecl, promote) -> Dict[str, str]:
        mapping = {n: promote(n) for n in decl.locals}
        mapping.update({p.name: promote(p.name) for p in decl.params})
        return mapping

    @staticmethod
    def _rename(body: Block, mapping: Dict[str, str]) -> None:
        if not mapping:
            return

        def ren(e: Expr) -> Expr:
            if isinstance(e, Var):
                return Var(mapping[e.name]) if e.name in mapping else e
            if isinstance(e, Unary):
                return Unary(e.op, ren(e.operand))
            if isinstance(e, Binary):
                return Binary(e.op, ren(e.left), ren(e.right))
            return e

        for s in walk_stmts(body):
            if isinstance(s, Assign):
                s.lhs = ren(s.lhs)
                s.rhs = ren(s.rhs)
            elif isinstance(s, (Assert, Assume)):
                s.cond = ren(s.cond)
            elif isinstance(s, (AsyncCall, Call)):
                s.args = [ren(a) for a in s.args]
                if isinstance(s, Call) and s.lhs is not None:
                    s.lhs = ren(s.lhs)
            elif isinstance(s, Return):
                if s.value is not None:
                    s.value = ren(s.value)

    # -- flattening -------------------------------------------------------------------

    def _flatten(self, inst: _Instance) -> None:
        self._cur = inst
        # innermost call being flattened last: (call, callee copy, continuation)
        self._returns: List[Tuple[Call, FuncDecl, int]] = []
        inst.entry = self._flat_seq(inst.decl.body.stmts, DONE)
        del self._cur, self._returns

    def _new_node(self) -> _Node:
        node = _Node(pc=len(self._cur.nodes))
        self._cur.nodes.append(node)
        return node

    def _flat_seq(self, stmts: Sequence[Stmt], follow: int) -> int:
        entry = follow
        for s in reversed(stmts):
            entry = self._flat_stmt(s, entry)
        return entry

    def _flat_stmt(self, s: Stmt, follow: int) -> int:
        if isinstance(s, Block):
            return self._flat_seq(s.stmts, follow)
        if isinstance(s, Choice):
            node = self._new_node()
            node.succs = [self._flat_seq(b.stmts, follow) for b in s.branches]
            return node.pc
        if isinstance(s, Iter):
            # Head first, so the body's fall-through can loop back to it.
            head = self._new_node()
            body_entry = self._flat_seq(s.body.stmts, head.pc)
            head.succs = [body_entry, follow]
            return head.pc
        if isinstance(s, Return):
            if not self._returns:
                return DONE  # the thread finishes: not an observable step
            call, callee, cont = self._returns[-1]
            if call.lhs is None:
                return cont
            value = s.value if s.value is not None else _default_init(callee.ret)
            return self._result_node(call, value, cont)
        if isinstance(s, Call):
            return self._flat_call(s, follow)
        if isinstance(s, AsyncCall):
            node = self._new_node()
            node.spawn = s
            node.succs = [follow]
            return node.pc
        if isinstance(s, (Skip, Assign, Assert, Assume, Atomic)):
            node = self._new_node()
            node.payload = s
            node.succs = [follow]
            return node.pc
        raise TransformError(f"lazy: cannot flatten statement {type(s).__name__}")

    def _flat_call(self, call: Call, follow: int) -> int:
        """The binding node, then the callee's body; falling off its end
        continues at ``follow`` (through a default-result write when the
        call has a left-hand side and some path can fall off)."""
        callee, mapping = self._callees[id(call)]
        end = follow
        if call.lhs is not None and _falls_through(callee.body.stmts):
            end = self._result_node(call, _default_init(callee.ret), follow)
        self._returns.append((call, callee, follow))
        body_entry = self._flat_seq(callee.body.stmts, end)
        self._returns.pop()
        binds: List[Stmt] = [
            _tag(Assign(Var(mapping[p.name]), arg)) for p, arg in zip(callee.params, call.args)
        ]
        binds += [
            _tag(Assign(Var(mapping[n]), _default_init(typ))) for n, typ in callee.locals.items()
        ]
        node = self._new_node()
        node.payload = _tag(Atomic(Block(binds)) if binds else Skip(), TAG_LZ_CALL, sid=call.sid)
        node.succs = [body_entry]
        return node.pc

    def _result_node(self, call: Call, value: Expr, follow: int) -> int:
        node = self._new_node()
        node.payload = _tag(Assign(Var(call.lhs.name), value), TAG_LZ_RETURN, sid=call.sid)
        node.succs = [follow]
        return node.pc

    # -- step functions ---------------------------------------------------------------

    def _goto(self, t: int, pc: int) -> Stmt:
        flag = names.lz_done(t) if pc == DONE else names.lz_at(t, pc)
        return _tag(Assign(Var(flag), BoolLit(True)))

    def _spawn_stmts(self, inst: _Instance, node: _Node) -> List[Stmt]:
        s = node.spawn
        child = self.instances[self._spawn_child[id(s)]]
        out: List[Stmt] = []
        for p, arg in zip(child.decl.params, s.args):
            out.append(_tag(Assign(Var(names.lz_local(child.index, p.name)), arg)))
        out.append(_tag(Assign(Var(names.lz_off(child.index)), BoolLit(False))))
        out.append(self._goto(child.index, child.entry))
        out.append(_tag(Skip(), TAG_LZ_SPAWN, spawn=str(child.index), sid=s.sid))
        return out

    def _make_step(self, inst: _Instance) -> FuncDecl:
        t = inst.index
        branches: List[Block] = []
        for node in inst.nodes:
            stmts: List[Stmt] = [
                _tag(Assume(Var(names.lz_at(t, node.pc)))),
                _tag(Assign(Var(names.lz_at(t, node.pc)), BoolLit(False))),
            ]
            if node.spawn is not None:
                stmts.extend(self._spawn_stmts(inst, node))
            elif node.payload is not None:
                stmts.append(node.payload)  # keeps its sid, untagged: the user step
            if len(node.succs) == 1:
                stmts.append(self._goto(t, node.succs[0]))
            else:
                stmts.append(
                    _tag(Choice([Block([self._goto(t, pc)]) for pc in node.succs]))
                )
            branches.append(Block(stmts))
        body = Block([_tag(Choice(branches))]) if branches else Block([])
        return FuncDecl(names.lz_step(t), [], None, body)

    # -- segment-end constraints ------------------------------------------------------

    def _node_is_stop_relevant(self, node: _Node, shared: Set[str]) -> bool:
        """POR: may a schedule need to *stop* here?  Yes when the node's
        payload touches a shared global (the preemption is observable),
        can block (``assume`` — a blocked run legitimately halts at it),
        or spawns (conservatively kept).  Purely-local nodes commute
        forward into the next segment."""
        if node.spawn is not None:
            return True
        s = node.payload
        if s is None:
            return False  # choice/iter heads: no effect, always commute
        for inner in walk_stmts(s):
            if isinstance(inner, Assume):
                return True
            for e in stmt_exprs(inner):
                for sub in walk_exprs(e):
                    if isinstance(sub, Var) and sub.name in shared:
                        return True
        return False

    def _allowed_stops(self, shared: Optional[Set[str]]) -> Dict[int, Optional[Set[int]]]:
        """Per instance: the set of candidate pcs a non-final segment may
        stop at, or ``None`` when unconstrained (no check emitted)."""
        tile: Optional[Dict[int, Set[int]]] = None
        if self.cs_tile is not None:
            tile = {}
            for point in self.cs_tile:
                try:
                    t_str, pc_str = point.split(":")
                    tile.setdefault(int(t_str), set()).add(int(pc_str))
                except ValueError:
                    raise TransformError(f"lazy: malformed cs_tile point {point!r}") from None

        out: Dict[int, Optional[Set[int]]] = {}
        pruned = 0
        for inst in self.instances:
            candidates = {n.pc for n in inst.nodes if n.pc != inst.entry}
            allowed = set(candidates)
            if shared is not None:
                by_pc = {n.pc: n for n in inst.nodes}
                allowed &= {pc for pc in allowed if self._node_is_stop_relevant(by_pc[pc], shared)}
            if tile is not None:
                allowed &= tile.get(inst.index, set())
            pruned += len(candidates) - len(allowed)
            out[inst.index] = None if allowed == candidates else allowed
        if self.por:
            obs.inc("por_schedule_points_pruned", pruned)
        return out

    # -- the driver -------------------------------------------------------------------

    def _make_driver(
        self, allowed: Dict[int, Optional[Set[int]]], name: str = "main"
    ) -> FuncDecl:
        stmts: List[Stmt] = []
        for k in range(self.rounds):
            last_round = k == self.rounds - 1
            for inst in self.instances:
                if not inst.nodes:
                    continue  # the instance can take no step; nothing to run
                seg = _tag(Iter(Block([_tag(Call(None, Var(names.lz_step(inst.index)), []))])))
                stmts.append(seg)
                stops = allowed[inst.index]
                if last_round or stops is None:
                    continue
                branches = [
                    Block([_tag(Assume(Var(names.lz_off(inst.index))))]),
                    Block([_tag(Assume(Var(names.lz_done(inst.index))))]),
                ]
                if inst.entry != DONE:
                    branches.append(
                        Block([_tag(Assume(Var(names.lz_at(inst.index, inst.entry))))])
                    )
                for pc in sorted(stops):
                    branches.append(Block([_tag(Assume(Var(names.lz_at(inst.index, pc))))]))
                stmts.append(_tag(Choice(branches)))
        return FuncDecl(name, [], None, Block(stmts))

    # -- globals ----------------------------------------------------------------------

    def _add_lazy_globals(self, out: Program) -> None:
        for inst in self.instances:
            t = inst.index
            is_main = t == 0
            out.globals[names.lz_off(t)] = GlobalDecl(names.lz_off(t), BOOL, BoolLit(not is_main))
            out.globals[names.lz_done(t)] = GlobalDecl(
                names.lz_done(t), BOOL, BoolLit(is_main and inst.entry == DONE)
            )
            for node in inst.nodes:
                flag = names.lz_at(t, node.pc)
                out.globals[flag] = GlobalDecl(
                    flag, BOOL, BoolLit(is_main and node.pc == inst.entry)
                )
            for p in inst.decl.params:
                pname = names.lz_local(t, p.name)
                out.globals[pname] = GlobalDecl(pname, p.type, _default_init(p.type))
            for lname, typ in inst.decl.locals.items():
                gname = names.lz_local(t, lname)
                out.globals[gname] = GlobalDecl(gname, typ, _default_init(typ))
            for gname, typ in inst.frames.items():
                out.globals[gname] = GlobalDecl(gname, typ, _default_init(typ))


def lazy_transform(
    prog: Program,
    rounds: int = 2,
    por: bool = False,
    cs_tile: Optional[Sequence[str]] = None,
) -> Program:
    """Sequentialize a concurrent core program with the lazy K-round schema."""
    return LazyTransformer(rounds=rounds, por=por, cs_tile=cs_tile).transform(prog)
