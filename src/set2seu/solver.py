"""Incremental CDCL SAT solver over integer-literal CNF.

Watched literals, 1UIP conflict analysis, VSIDS-style activities with
phase saving, Luby restarts and periodic learnt-clause reduction.  The
solver is fully deterministic: no randomness, ties broken by variable
index.  A per-call conflict budget turns hard calls into an explicit
UNKNOWN instead of an unbounded search.  Clauses are plain lists; learnt-
clause reduction detaches the clauses it deletes from every watch list in
one pass, and an activity rescale rebuilds the decision heap, which holds a
current entry for every unassigned variable.

The per-literal state is kept in lists indexed by the literal itself, as
in MiniSat (Een & Sorensson, "An extensible SAT-solver", SAT 2003): with n
variables such a list has 2n + 1 slots, literal v (1 <= v <= n) at index v
and literal -v read through Python's negative indexing, at index 2n + 1 - v.
A literal's value, watch list, decision level and reason are each one list
read, without abs() or a sign test.  A new variable therefore goes in the
middle of each such list, between the positive and the negative half.
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
        # indexed by literal (see the module docstring); slot 0 is unused
        self.value: list = [None]             # bool | None
        self.watches: list[list[list[int]]] = [[]]
        self.level: list[int] = [0]           # the same for v and -v
        self.reason: list = [None]            # at the literal made true
        # indexed by variable
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

    def ensure_vars(self, n: int) -> None:
        old = self.num_vars
        if n <= old:
            return
        grow = 2 * (n - old)
        mid = old + 1   # new positive literals, then the new negative ones
        self.value[mid:mid] = [None] * grow
        self.watches[mid:mid] = [[] for _ in range(grow)]
        self.level[mid:mid] = [0] * grow
        self.reason[mid:mid] = [None] * grow
        self.activity += [0.0] * (n - old)
        self.polarity += [False] * (n - old)
        for v in range(old + 1, n + 1):
            heapq.heappush(self.order, (0.0, v))
        self.num_vars = n

    # -- clause database ----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; duplicates removed, tautologies dropped.

        Must be called with the solver at decision level 0 (i.e. before or
        between solve() calls).
        """
        assert not self.trail_lim, "add_clause only at decision level 0"
        n = self.num_vars
        value = self.value
        out: list[int] = []
        for lit in lits:
            if lit > n or -lit > n:
                n = abs(lit)
                self.ensure_vars(n)
            elif not lit:
                raise ValueError("literal 0 is not allowed")
            val = value[lit]
            if val is not None:       # assigned at level 0, so for good
                if val:
                    return  # already satisfied forever
                continue  # falsified forever: drop literal
            if lit in out:
                continue
            if -lit in out:
                return  # tautology
            out.append(lit)
        if not out:
            self.unsat = True
            return
        if len(out) == 1:
            self._enqueue(out[0], None)  # unassigned here; solve() propagates it
            return
        self.num_clauses += 1
        self._watch(out[:])  # exact-size copy

    def _watch(self, cl: list[int]) -> None:
        self.watches[cl[0]].append(cl)
        self.watches[cl[1]].append(cl)

    # -- trail --------------------------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        value, level = self.value, self.level
        value[lit] = True
        value[-lit] = False
        level[lit] = level[-lit] = len(self.trail_lim)
        self.reason[lit] = reason
        self.trail.append(lit)

    def _cancel_until(self, lvl: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= lvl:
            return
        bound = trail_lim[lvl]
        trail, value, reason = self.trail, self.value, self.reason
        polarity, activity, order = self.polarity, self.activity, self.order
        push = heapq.heappush
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            value[lit] = value[-lit] = reason[lit] = None
            if lit > 0:
                polarity[lit] = True
                push(order, (-activity[lit], lit))
            else:
                polarity[-lit] = False
                push(order, (-activity[-lit], -lit))
        del trail[bound:]
        del trail_lim[lvl:]
        self.qhead = bound

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        trail, value, watches = self.trail, self.value, self.watches
        level, reason = self.level, self.reason
        d = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            ws = watches[neg]
            # ws[:j] holds the clauses that keep watching `neg`; i counts
            # the clauses looked at
            i = j = 0
            for cl in ws:
                i += 1
                first = cl[0]
                if first == neg:
                    first = cl[0] = cl[1]
                    cl[1] = neg
                v0 = value[first]
                if v0:
                    ws[j] = cl
                    j += 1
                    continue
                for k in range(2, len(cl)):
                    lit = cl[k]
                    if value[lit] is not False:
                        cl[1] = lit
                        cl[k] = neg
                        watches[lit].append(cl)
                        break
                else:
                    ws[j] = cl
                    j += 1
                    if v0 is False:
                        del ws[j:i]  # the clauses after it keep their watch
                        self.qhead = qhead
                        return cl
                    value[first] = True
                    value[-first] = False
                    level[first] = level[-first] = d
                    reason[first] = cl
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    # -- VSIDS ----------------------------------------------------------------

    def _bump(self, v: int) -> None:
        act = self.activity
        act[v] += self.var_inc
        if act[v] > _ACT_RESCALE:
            for u in range(1, self.num_vars + 1):
                act[u] *= 1.0 / _ACT_RESCALE
            self.var_inc *= 1.0 / _ACT_RESCALE
            value = self.value  # every heap key is stale now
            self.order = [(-act[u], u) for u in range(1, self.num_vars + 1) if value[u] is None]
            heapq.heapify(self.order)
        elif self.value[v] is None:
            heapq.heappush(self.order, (-act[v], v))

    def _decay(self) -> None:
        self.var_inc *= 1.0 / 0.95

    def _pick_var(self) -> int | None:
        """The most active unassigned variable (lowest index on ties), or None."""
        order, value, act = self.order, self.value, self.activity
        while order:
            a, v = heapq.heappop(order)
            if value[v] is None and -a == act[v]:
                return v
        return None

    # -- conflict analysis ------------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        level, trail = self.level, self.trail
        d = len(self.trail_lim)
        # every literal met here is false, so a variable is marked at its
        # false literal, which is minus its literal on the trail
        seen = bytearray(len(self.value))
        learnt: list[int] = [0]
        counter = 0
        p = 0
        cl: list[int] | None = conflict
        index = len(trail)
        while True:
            assert cl is not None
            # reason clauses keep their implied literal at index 0; skip it
            for q in (cl if p == 0 else cl[1:]):
                if not seen[q]:
                    lq = level[q]
                    if lq > 0:
                        seen[q] = 1
                        self._bump(q if q > 0 else -q)
                        if lq >= d:
                            counter += 1
                        else:
                            learnt.append(q)
            while True:
                index -= 1
                p = trail[index]
                if seen[-p]:
                    break
            counter -= 1
            seen[-p] = 0
            if counter == 0:
                break
            cl = self.reason[p]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # sort tail so learnt[1] carries the backjump level (second watch)
        max_i = 1
        for i in range(2, len(learnt)):
            if level[learnt[i]] > level[learnt[max_i]]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1]]

    def _reduce_db(self) -> None:
        """Delete the longer half of the learnt clauses, except binary ones and
        current reasons, and detach them from every watch list in one pass."""
        reason = self.reason
        locked = {id(reason[lit]) for lit in self.trail if reason[lit] is not None}
        self.learnts.sort(key=len)
        keep = len(self.learnts) // 2
        dead = [cl for cl in self.learnts[keep:] if id(cl) not in locked and len(cl) > 2]
        gone = {id(cl) for cl in dead}  # `dead` keeps these ids alive
        self.learnts = [cl for cl in self.learnts if id(cl) not in gone]
        for ws in self.watches:
            ws[:] = [cl for cl in ws if id(cl) not in gone]

    # -- main search --------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = (), conflict_limit: int | None = None) -> SolveResult:
        assumptions = list(assumptions)
        if 0 in assumptions:
            raise ValueError("literal 0 is not allowed")
        if self.unsat:
            return SolveResult(UNSAT, None, 0)
        self.ensure_vars(max(map(abs, assumptions), default=0))
        self._cancel_until(0)
        trail, trail_lim, value = self.trail, self.trail_lim, self.value

        conflicts = 0
        restarts = 0
        budget = luby(restarts + 1) * _LUBY_UNIT
        max_learnts = max(2000, 2 * self.num_clauses)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                if not trail_lim:
                    self.unsat = True
                    return SolveResult(UNSAT, None, conflicts)
                learnt, back_lvl = self._analyze(conflict)
                self._cancel_until(back_lvl)
                if len(learnt) == 1:
                    val = value[learnt[0]]
                    if val is False:
                        self.unsat = True
                        return SolveResult(UNSAT, None, conflicts)
                    if val is None:
                        self._enqueue(learnt[0], None)
                else:
                    cl = learnt[:]  # exact-size copy
                    self.learnts.append(cl)
                    self._watch(cl)
                    self._enqueue(cl[0], cl)
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
            d = len(trail_lim)
            if d < len(assumptions):
                a = assumptions[d]
                val = value[a]
                if val is False:
                    self._cancel_until(0)
                    return SolveResult(UNSAT, None, conflicts)
                trail_lim.append(len(trail))
                if val is None:
                    self._enqueue(a, None)
                continue

            v = self._pick_var()
            if v is None:
                model = value[: self.num_vars + 1]
                self._cancel_until(0)
                return SolveResult(SAT, model, conflicts)
            trail_lim.append(len(trail))
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
