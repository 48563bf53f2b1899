"""Sensitizability analysis: which FF-upset combinations can a SET really cause.

For each fault site a miter is built: the good circuit and a faulty copy in
which the site net is inverted for the whole cycle, sharing every net that
is not downstream of the site.  Difference variables compare the good and
faulty values at each reachable flip-flop's D pin.  Iterated SAT with
blocking clauses projected onto the difference variables enumerates the
achievable upset patterns exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat

from .cones import FaultSite, relevant_closure
from .ffsets import FFSet, SetCollection
from .netlist import Circuit
from .solver import UNKNOWN, UNSAT, CdclSolver, to_dimacs

DEFAULT_PATTERN_CAP = 4096
DEFAULT_CONFLICT_CAP = 10**6


@dataclass(frozen=True)
class DifferencePattern:
    """One achievable simultaneous-upset combination for a fault site."""

    site: str
    ffs: FFSet


@dataclass(frozen=True)
class MiterInstance:
    site: FaultSite
    region_nets: frozenset[int]        # everything the comparison depends on
    region_gates: tuple[int, ...]      # topo-ordered gate ids of the region
    dup_gates: tuple[int, ...]         # gates duplicated into the faulty copy


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[tuple[int, ...]]
    good_vars: dict[int, int] = field(default_factory=dict)
    faulty_vars: dict[int, int] = field(default_factory=dict)
    diff_vars: dict[int, int] = field(default_factory=dict)
    site_net: int | None = None

    def faulty_lit(self, net: int) -> int:
        if net in self.faulty_vars:
            return self.faulty_vars[net]
        good = self.good_vars[net]
        return -good if net == self.site_net else good


@dataclass(frozen=True)
class PatternResult:
    site: str
    patterns: tuple[DifferencePattern, ...]   # discovery order
    complete: bool
    overflow: bool
    unknown: bool
    static_ffs: FFSet                          # fallback when overflow/unknown
    seconds: float = field(default=0.0, compare=False)  # wall time of the analysis

    def effective_sets(self) -> tuple[FFSet, ...]:
        """Sets this site contributes to the optimized collection.

        Only the maximal achievable combinations: a vector that is a strict
        subset of another achievable vector of the same site is already
        counted among that set's 2^k - 1 injection combinations, so listing
        it separately would double-count.
        """
        if self.overflow or self.unknown:
            return (self.static_ffs,)
        sets = [frozenset(p.ffs.members) for p in self.patterns]
        keep = [s for s in sets if not any(s < t for t in sets)]
        seen: set[frozenset] = set()
        out = []
        for s in keep:
            if s not in seen:
                seen.add(s)
                out.append(FFSet(tuple(sorted(s))))
        return tuple(out)


def build_miter(c: Circuit, site: FaultSite) -> MiterInstance:
    """Pair a good copy with a faulty copy of the site's fanout closure.

    Only the logic inside the affected flip-flops' fan-in cones matters for
    the comparison, so the encoding region is restricted to it.
    """
    if not site.static_ffs:
        raise ValueError(
            f"site '{c.net_names[site.site_net]}' reaches no flip-flop; nothing to analyze"
        )
    region = relevant_closure(c, site)
    region_gates = tuple(
        gid for gid in c.topo_gates if c.gates[gid].output in region
    )
    down = {site.site_net}
    for gid in region_gates:
        g = c.gates[gid]
        if any(n in down for n in g.inputs):
            down.add(g.output)
    dup = tuple(
        gid for gid in region_gates
        if c.gates[gid].output in down and c.gates[gid].output != site.site_net
    )
    return MiterInstance(site=site, region_nets=region, region_gates=region_gates, dup_gates=dup)


# -- Tseitin encoding ------------------------------------------------------


def gate_clauses(kind: str, out: int, ins: list[int], new_var) -> list[tuple[int, ...]]:
    """CNF block asserting out <-> KIND(ins); literals may be negative.

    Multi-input XOR/XNOR chain through auxiliary variables from new_var().
    """
    if kind == "AND":
        return [(-out, i) for i in ins] + [tuple([out] + [-i for i in ins])]
    if kind == "NAND":
        return [(out, i) for i in ins] + [tuple([-out] + [-i for i in ins])]
    if kind == "OR":
        return [(out, -i) for i in ins] + [tuple([-out] + list(ins))]
    if kind == "NOR":
        return [(-out, -i) for i in ins] + [tuple([out] + list(ins))]
    if kind == "NOT":
        (a,) = ins
        return [(-out, -a), (out, a)]
    if kind == "BUFF":
        (a,) = ins
        return [(-out, a), (out, -a)]
    if kind in ("XOR", "XNOR"):
        clauses: list[tuple[int, ...]] = []
        acc = ins[0]
        for nxt in ins[1:-1]:
            aux = new_var()
            clauses += _xor2(aux, acc, nxt)
            acc = aux
        last = ins[-1]
        if kind == "XOR":
            clauses += _xor2(out, acc, last)
        else:
            clauses += _xor2(-out, acc, last)
        return clauses
    raise ValueError(f"unknown gate kind '{kind}'")


def _xor2(o: int, a: int, b: int) -> list[tuple[int, int, int]]:
    return [(-o, a, b), (-o, -a, -b), (o, -a, b), (o, a, -b)]


def encode_cnf(m: MiterInstance, c: Circuit) -> CnfFormula:
    """Tseitin-encode the miter; equisatisfiable with its circuit semantics.

    Variables: one per region net (good copy), one per duplicated gate
    output (faulty copy), one difference variable per reachable FF.  The
    faulty value of the site itself is the negation of its good variable.
    """
    counter = 0

    def new_var() -> int:
        nonlocal counter
        counter += 1
        return counter

    good = {net: new_var() for net in sorted(m.region_nets)}
    faulty = {c.gates[gid].output: new_var() for gid in m.dup_gates}
    diff = {f: new_var() for f in m.site.static_ffs}
    formula = CnfFormula(
        num_vars=counter,
        clauses=[],
        good_vars=good,
        faulty_vars=faulty,
        diff_vars=diff,
        site_net=m.site.site_net,
    )

    cls = formula.clauses
    for gid in m.region_gates:
        g = c.gates[gid]
        cls.extend(gate_clauses(g.kind, good[g.output], [good[n] for n in g.inputs], new_var))
    for gid in m.dup_gates:
        g = c.gates[gid]
        cls.extend(
            gate_clauses(
                g.kind, faulty[g.output], [formula.faulty_lit(n) for n in g.inputs], new_var
            )
        )
    for f in m.site.static_ffs:
        d_net = c.flipflops[f].d_net
        glit = good[d_net]
        flit = formula.faulty_lit(d_net)
        if flit == -glit:
            cls.append((diff[f],))          # flip always observed at this FF
        elif flit == glit:
            cls.append((-diff[f],))         # not downstream: never differs
        else:
            cls.extend(_xor2(diff[f], glit, flit))
    formula.num_vars = counter
    return formula


def enumerate_patterns(
    c: Circuit,
    site: FaultSite,
    cap: int = DEFAULT_PATTERN_CAP,
    conflict_limit: int | None = DEFAULT_CONFLICT_CAP,
) -> PatternResult:
    """All distinct nonempty difference vectors achievable at this site.

    Iterated SAT: each found vector is blocked by a clause over the
    difference variables only, so patterns (not models) are enumerated.
    More than `cap` patterns, or a solver budget exhaustion, yields an
    Overflow result that falls back to the static set (sound, never wrong).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    t0 = time.perf_counter()
    site_name = c.net_names[site.site_net]
    static = FFSet(site.static_ffs)
    m = build_miter(c, site)
    f = encode_cnf(m, c)
    solver = CdclSolver(f.num_vars)
    for cl in f.clauses:
        solver.add_clause(cl)
    dvars = [f.diff_vars[ff] for ff in m.site.static_ffs]
    solver.add_clause(dvars)  # some difference must be observed

    patterns: list[DifferencePattern] = []
    overflow = unknown = complete = False
    while True:
        res = solver.solve(conflict_limit=conflict_limit)
        if res.status == UNKNOWN:
            unknown = True
            overflow = True
            break
        if res.status == UNSAT:
            complete = True
            break
        if len(patterns) >= cap:
            overflow = True
            break
        model = res.model
        members = tuple(ff for ff, dv in zip(m.site.static_ffs, dvars) if model[dv])
        patterns.append(DifferencePattern(site_name, FFSet(members)))
        solver.add_clause([-dv if model[dv] else dv for dv in dvars])
    return PatternResult(
        site=site_name,
        patterns=tuple(patterns),
        complete=complete,
        overflow=overflow,
        unknown=unknown,
        static_ffs=static,
        seconds=time.perf_counter() - t0,
    )


def analyze_sites(
    c: Circuit,
    sites: list[FaultSite],
    cap: int = DEFAULT_PATTERN_CAP,
    conflict_limit: int | None = DEFAULT_CONFLICT_CAP,
    jobs: int = 1,
) -> dict[str, PatternResult]:
    """Run pattern enumeration for every FF-reaching site.

    Sites are independent; with jobs > 1 they are distributed over worker
    processes.  Result order is fixed by site net id either way.
    """
    work = [s for s in sites if s.static_ffs]
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            out = ex.map(enumerate_patterns, repeat(c), work, repeat(cap), repeat(conflict_limit))
            return {r.site: r for r in out}
    return {
        r.site: r for r in (enumerate_patterns(c, s, cap, conflict_limit) for s in work)
    }


def optimize_sets(static: SetCollection, results: dict[str, PatternResult]) -> SetCollection:
    """Replace each site's static set by its maximal achievable combinations.

    Overflow/unknown sites keep their static set; sites with no achievable
    pattern disappear.  Dedup semantics are those of SetCollection: exact
    duplicates collapse, subsets from different sites are retained.
    """
    raw: list[tuple[str, FFSet]] = []
    for ref, s in static.raw_sets:
        r = results.get(ref)
        if r is None:
            raise ValueError(f"no pattern result for site '{ref}'")
        for eff in r.effective_sets():
            raw.append((ref, eff))
    return SetCollection(static.ff_names, tuple(raw))


def export_site_cnf(c: Circuit, site: FaultSite) -> str:
    """DIMACS text of the site's miter, difference forced nonempty."""
    m = build_miter(c, site)
    f = encode_cnf(m, c)
    clauses = list(f.clauses)
    clauses.append(tuple(f.diff_vars[ff] for ff in m.site.static_ffs))
    label = {v: f"good {c.net_names[n]}" for n, v in f.good_vars.items()}
    label.update({v: f"faulty {c.net_names[n]}" for n, v in f.faulty_vars.items()})
    label.update({v: f"diff {c.flipflops[ff].name}" for ff, v in f.diff_vars.items()})
    comments = [f"miter for SET site {c.net_names[site.site_net]}"]
    comments += [f"var {v}: {label.get(v, 'aux')}" for v in range(1, f.num_vars + 1)]
    return to_dimacs(f.num_vars, clauses, comments)
