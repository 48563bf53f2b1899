"""Incremental CDCL SAT solver over integer-literal CNF.

Watched literals, 1UIP conflict analysis, VSIDS-style activities with
phase saving, Luby restarts and periodic learnt-clause reduction.  The
solver is fully deterministic: no randomness, ties broken by variable
index.  A per-call conflict budget turns hard calls into an explicit
UNKNOWN instead of an unbounded search.  Clauses are plain lists; learnt-
clause reduction detaches the clauses it deletes from every watch list in
one pass, and an activity rescale rebuilds the decision heap, which holds a
current entry for every unassigned variable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_LUBY_UNIT = 128
_ACT_RESCALE = 1e100


def luby(i: int) -> int:
    """i-th term (1-based) of the Luby restart sequence: 1 1 2 1 1 2 4 ..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


@dataclass
class SolveResult:
    status: str
    model: list | None        # bool per var, index 0 unused; None unless SAT
    conflicts: int


class CdclSolver:
    def __init__(self, num_vars: int = 0):
        self.num_vars = 0
        self.num_clauses = 0                  # problem clauses of 2+ literals
        self.learnts: list[list[int]] = []
        self.watches: dict[int, list[list[int]]] = {}
        self.assign: list = [None]            # var -> bool | None
        self.level: list[int] = [0]
        self.reason: list = [None]
        self.activity: list[float] = [0.0]
        self.polarity: list[bool] = [False]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.order: list[tuple[float, int]] = []
        self.unsat = False
        if num_vars:
            self.ensure_vars(num_vars)

    # -- variables ---------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        v = self.num_vars
        self.assign.append(None)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.polarity.append(False)
        self.watches.setdefault(v, [])
        self.watches.setdefault(-v, [])
        heapq.heappush(self.order, (0.0, v))
        return v

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.new_var()

    def _value(self, lit: int):
        a = self.assign[abs(lit)]
        if a is None:
            return None
        return a if lit > 0 else not a

    # -- clause database ----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; duplicates removed, tautologies dropped.

        Must be called with the solver at decision level 0 (i.e. before or
        between solve() calls).
        """
        assert not self.trail_lim, "add_clause only at decision level 0"
        seen = set()
        out = []
        for lit in lits:
            v = abs(lit)
            if v == 0:
                raise ValueError("literal 0 is not allowed")
            self.ensure_vars(v)
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            val = self._value(lit)
            if val is not None and self.level[v] == 0:
                if val:
                    return  # already satisfied forever
                continue  # falsified forever: drop literal
            out.append(lit)
        if not out:
            self.unsat = True
            return
        if len(out) == 1:
            self._enqueue(out[0], None)  # unassigned here; solve() propagates it
            return
        cl = out[:]  # exact-size copy
        self.num_clauses += 1
        self.watches[out[0]].append(cl)
        self.watches[out[1]].append(cl)

    def _attach_learnt(self, lits: list[int]) -> list[int]:
        cl = lits[:]  # exact-size copy
        self.learnts.append(cl)
        self.watches[lits[0]].append(cl)
        self.watches[lits[1]].append(cl)
        return cl

    # -- trail --------------------------------------------------------------

    @property
    def dlevel(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = abs(lit)
        self.assign[v] = lit > 0
        self.level[v] = self.dlevel
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_until(self, lvl: int) -> None:
        if self.dlevel <= lvl:
            return
        bound = self.trail_lim[lvl]
        for lit in reversed(self.trail[bound:]):
            v = abs(lit)
            self.polarity[v] = self.assign[v]
            self.assign[v] = None
            self.reason[v] = None
            heapq.heappush(self.order, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            neg = -p
            ws = self.watches[neg]
            if not ws:
                continue
            keep: list[list[int]] = []
            conflict = None
            i = 0
            n = len(ws)
            while i < n:
                cl = ws[i]
                i += 1
                if cl[0] == neg:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                v0 = self._value(first)
                if v0 is True:
                    keep.append(cl)
                    continue
                for k in range(2, len(cl)):
                    if self._value(cl[k]) is not False:
                        cl[1], cl[k] = cl[k], cl[1]
                        self.watches[cl[1]].append(cl)
                        break
                else:
                    keep.append(cl)
                    if v0 is False:
                        conflict = cl
                        keep.extend(ws[i:])
                        break
                    self._enqueue(first, cl)
            self.watches[neg] = keep
            if conflict is not None:
                return conflict
        return None

    # -- VSIDS ----------------------------------------------------------------

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > _ACT_RESCALE:
            for u in range(1, self.num_vars + 1):
                self.activity[u] *= 1.0 / _ACT_RESCALE
            self.var_inc *= 1.0 / _ACT_RESCALE
            act, assign = self.activity, self.assign  # every heap key is stale now
            self.order = [(-act[u], u) for u in range(1, self.num_vars + 1) if assign[u] is None]
            heapq.heapify(self.order)
        elif self.assign[v] is None:
            heapq.heappush(self.order, (-self.activity[v], v))

    def _decay(self) -> None:
        self.var_inc *= 1.0 / 0.95

    def _pick_var(self) -> int | None:
        """The most active unassigned variable (lowest index on ties), or None."""
        while self.order:
            act, v = heapq.heappop(self.order)
            if self.assign[v] is None and -act == self.activity[v]:
                return v
        return None

    # -- conflict analysis ------------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen = bytearray(self.num_vars + 1)
        counter = 0
        p = 0
        cl: list[int] | None = conflict
        index = len(self.trail)
        while True:
            assert cl is not None
            # reason clauses keep their implied literal at index 0; skip it
            for q in (cl if p == 0 else cl[1:]):
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if self.level[v] >= self.dlevel:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                p = self.trail[index]
                if seen[abs(p)]:
                    break
            counter -= 1
            seen[abs(p)] = 0
            if counter == 0:
                break
            cl = self.reason[abs(p)]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # sort tail so learnt[1] carries the backjump level (second watch)
        max_i = 1
        for i in range(2, len(learnt)):
            if self.level[abs(learnt[i])] > self.level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _reduce_db(self) -> None:
        """Delete the longer half of the learnt clauses, except binary ones and
        current reasons, and detach them from every watch list in one pass."""
        locked = {id(self.reason[abs(lit)]) for lit in self.trail if self.reason[abs(lit)]}
        self.learnts.sort(key=len)
        keep = len(self.learnts) // 2
        dead = [cl for cl in self.learnts[keep:] if id(cl) not in locked and len(cl) > 2]
        gone = {id(cl) for cl in dead}  # `dead` keeps these ids alive
        self.learnts = [cl for cl in self.learnts if id(cl) not in gone]
        for lit, ws in self.watches.items():
            self.watches[lit] = [cl for cl in ws if id(cl) not in gone]

    # -- main search --------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = (), conflict_limit: int | None = None) -> SolveResult:
        if self.unsat:
            return SolveResult(UNSAT, None, 0)
        assumptions = list(assumptions)
        for a in assumptions:
            self.ensure_vars(abs(a))
        self._cancel_until(0)

        conflicts = 0
        restarts = 0
        budget = luby(restarts + 1) * _LUBY_UNIT
        max_learnts = max(2000, 2 * self.num_clauses)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                if self.dlevel == 0:
                    self.unsat = True
                    return SolveResult(UNSAT, None, conflicts)
                learnt, back_lvl = self._analyze(conflict)
                self._cancel_until(back_lvl)
                if len(learnt) == 1:
                    if self._value(learnt[0]) is False:
                        self.unsat = True
                        return SolveResult(UNSAT, None, conflicts)
                    if self._value(learnt[0]) is None:
                        self._enqueue(learnt[0], None)
                else:
                    cl = self._attach_learnt(learnt)
                    self._enqueue(learnt[0], cl)
                self._decay()
                if conflict_limit is not None and conflicts > conflict_limit:
                    self._cancel_until(0)
                    return SolveResult(UNKNOWN, None, conflicts)
                if conflicts >= budget:
                    restarts += 1
                    budget = conflicts + luby(restarts + 1) * _LUBY_UNIT
                    self._cancel_until(0)
                if len(self.learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts += 500
                continue

            # assumption handling: one decision level per assumption
            if self.dlevel < len(assumptions):
                a = assumptions[self.dlevel]
                val = self._value(a)
                if val is False:
                    self._cancel_until(0)
                    return SolveResult(UNSAT, None, conflicts)
                self.trail_lim.append(len(self.trail))
                if val is None:
                    self._enqueue(a, None)
                continue

            v = self._pick_var()
            if v is None:
                model = list(self.assign)
                self._cancel_until(0)
                return SolveResult(SAT, model, conflicts)
            self.trail_lim.append(len(self.trail))
            self._enqueue(v if self.polarity[v] else -v, None)


def solve_cnf(
    num_vars: int,
    clauses: Iterable[Iterable[int]],
    assumptions: Iterable[int] = (),
    conflict_limit: int | None = None,
) -> SolveResult:
    """One-shot convenience wrapper."""
    s = CdclSolver(num_vars)
    for cl in clauses:
        s.add_clause(cl)
    return s.solve(assumptions, conflict_limit)


# -- DIMACS ------------------------------------------------------------------


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    num_vars = 0
    clauses: list[list[int]] = []
    cur: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: '{line}'")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(cur)
                cur = []
            else:
                cur.append(lit)
                num_vars = max(num_vars, abs(lit))
    if cur:
        clauses.append(cur)
    return num_vars, clauses


def to_dimacs(num_vars: int, clauses: Iterable[Iterable[int]], comments: Iterable[str] = ()) -> str:
    clauses = [list(cl) for cl in clauses]
    out = [f"c {c}" for c in comments]
    out.append(f"p cnf {num_vars} {len(clauses)}")
    out.extend(" ".join(map(str, cl)) + " 0" for cl in clauses)
    return "\n".join(out) + "\n"
