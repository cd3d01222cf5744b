"""A small DPLL SAT solver (unit propagation + watched-literal-free
two-level search with activity-free branching).

This is the decision-procedure core of the SLAM-lite tier: the
bit-blasting layer (:mod:`repro.seqcheck.decide`) reduces queries about
program expressions to CNF, and predicate abstraction
(:mod:`repro.seqcheck.abstraction`) asks implication questions through
it.  The solver is deliberately simple — formulas here are small (tens
of variables) — but complete.

Representation: variables are positive integers; a literal is ``+v`` or
``-v``; a clause is a tuple of literals; a formula is a list of clauses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Literal = int
Clause = Tuple[Literal, ...]


class CnfBuilder:
    """Fresh-variable management and Tseitin-style gate encoding."""

    def __init__(self) -> None:
        self._next = 1
        self.clauses: List[Clause] = []

    def fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    @property
    def num_vars(self) -> int:
        return self._next - 1

    def add(self, *lits: Literal) -> None:
        self.clauses.append(tuple(lits))

    # -- gates (each returns the output literal) ------------------------------

    def const(self, value: bool) -> Literal:
        v = self.fresh()
        self.add(v if value else -v)
        return v

    def and_(self, a: Literal, b: Literal) -> Literal:
        o = self.fresh()
        self.add(-o, a)
        self.add(-o, b)
        self.add(o, -a, -b)
        return o

    def or_(self, a: Literal, b: Literal) -> Literal:
        o = self.fresh()
        self.add(o, -a)
        self.add(o, -b)
        self.add(-o, a, b)
        return o

    def xor_(self, a: Literal, b: Literal) -> Literal:
        o = self.fresh()
        self.add(-o, a, b)
        self.add(-o, -a, -b)
        self.add(o, -a, b)
        self.add(o, a, -b)
        return o

    def iff(self, a: Literal, b: Literal) -> Literal:
        return -self.xor_(a, b)

    def ite(self, c: Literal, t: Literal, e: Literal) -> Literal:
        o = self.fresh()
        self.add(-o, -c, t)
        self.add(-o, c, e)
        self.add(o, -c, -t)
        self.add(o, c, -e)
        return o

    def and_many(self, lits: Sequence[Literal]) -> Literal:
        if not lits:
            return self.const(True)
        out = lits[0]
        for l in lits[1:]:
            out = self.and_(out, l)
        return out


def solve(
    clauses: Iterable[Clause], num_vars: int, assumptions: Sequence[Literal] = ()
) -> Optional[Dict[int, bool]]:
    """DPLL with unit propagation.  Returns a satisfying assignment
    (complete over 1..num_vars) or ``None`` if unsatisfiable."""
    clause_list = [tuple(c) for c in clauses]
    assign: Dict[int, bool] = {}
    for lit in assumptions:
        v, val = abs(lit), lit > 0
        if assign.get(v, val) != val:
            return None
        assign[v] = val

    def propagate(local: Dict[int, bool]) -> Optional[Dict[int, bool]]:
        changed = True
        while changed:
            changed = False
            for clause in clause_list:
                unassigned: List[Literal] = []
                satisfied = False
                for lit in clause:
                    v = abs(lit)
                    if v in local:
                        if local[v] == (lit > 0):
                            satisfied = True
                            break
                    else:
                        unassigned.append(lit)
                if satisfied:
                    continue
                if not unassigned:
                    return None  # conflict
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    local[abs(lit)] = lit > 0
                    changed = True
        return local

    def dpll(local: Dict[int, bool]) -> Optional[Dict[int, bool]]:
        local = dict(local)
        if propagate(local) is None:
            return None
        pick = None
        for clause in clause_list:
            for lit in clause:
                if abs(lit) not in local:
                    pick = abs(lit)
                    break
            if pick:
                break
        if pick is None:
            return local
        for val in (True, False):
            trial = dict(local)
            trial[pick] = val
            result = dpll(trial)
            if result is not None:
                return result
        return None

    model = dpll(assign)
    if model is None:
        return None
    for v in range(1, num_vars + 1):
        model.setdefault(v, False)
    return model
