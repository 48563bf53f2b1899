"""Sensitizability analysis: which FF-upset combinations can a SET really cause.

The region of a set of flip-flops is the union of their fan-in cones
(`build_region`: its support, the PIs and FF Q nets it reads, and its gates
in topological order), the OR of their masks in `Circuit.cone_masks`.  Each
site gets one miter (`build_miter`) over a region that holds the flip-flops
it reaches (its `static_ffs`): the region's good circuit paired with a
faulty copy of the site's fan-out in it, in which the site net is inverted
for the whole cycle; every other net is shared.  Every such region gives
the same fan-out: a gate downstream of the site that lies in any
flip-flop's cone reaches a flip-flop the site reaches, so it lies in the
site's own region too, and the site's D pins read only their own cones.
Two exact engines evaluate that miter by bit-parallel simulation, one bit
per support assignment, and differ only in which assignments they simulate:

- Simulation, when the support has at most SIM_SUPPORT_LIMIT nets: every
  assignment at once, in a 2**k-bit integer.  The sites whose own regions
  have one support share one sweep of the good circuit, over the region of
  all their flip-flops, which has that same support.
- SAT otherwise, after simulation.  The seeds (support assignments) not
  simulated yet form one queue: first the probe's, WAVE_SEEDS pseudo-random
  ones that depend on the support size alone, then witnesses.  A wave takes
  at most WAVE_SEEDS seeds off the queue and simulates, in one batch, each
  of them and every assignment one flip away from it; the lowest assignment
  that gives each new difference vector (its witness) joins the queue.  The
  solver is asked only when the queue is empty, so only where simulation
  stops finding patterns.  When it first empties with every nonempty vector
  over the site's flip-flops listed, or once more than the cap are, that
  list needs no proof: the site is settled by simulation, and no CNF is
  encoded (random patterns before deterministic search, as in ATPG; Schulz,
  Trischler and Sarfert, "SOCRATES", IEEE TCAD 1988).  Otherwise the miter
  is Tseitin-encoded, with difference variables that compare the good and
  faulty values at each reachable flip-flop's D pin; at each empty queue,
  the vectors listed since the last call are blocked and the solver is
  called, and its model's assignment becomes the one seed (after Larrabee's
  fault simulation of SAT-generated test vectors, IEEE TCAD 1992).  Blocking
  is by cubes: a new vector is widened, one flip-flop at a time, to a
  subcube of vectors that are all listed already, and one clause over the
  difference variables of the cube's fixed flip-flops blocks the whole cube
  (cube enlargement as in McMillan, "Applying SAT methods in unbounded
  symbolic model checking", CAV 2002, here only over listed vectors).  Every
  listed vector thus comes from a concrete assignment, no unlisted vector is
  ever blocked, and the loop ends only when the solver proves that no
  unblocked vector is left.

Both engines re-simulate only the site's faulty fan-out, and event-driven:
only the nets whose faulty value differs from the good one are kept, and a
fan-out gate none of whose inputs differs is skipped, so a difference stops
where it dies (as in concurrent fault simulation, Ulrich and Baker, IEEE
Computer 1974).  One listing step serves both: each simulated batch (the
sweep, or one wave) is split into classes of equal difference vectors
at the flip-flops, and the vectors not listed yet are added.  A vector is
one mask from the split to the blocking clause, bit j for the site's j-th
flip-flop, decoded into flip-flop ids only for the result.  Both give the
same patterns; the sweep's cost grows as 2**k times the swept gates, so it
is only used where that is small.
"""

from __future__ import annotations

import random
import time
from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import repeat

from .cones import FaultSite, _select
from .ffsets import FFSet, SetCollection
from .netlist import GATE_KINDS, Circuit
from .solver import SAT, UNKNOWN, CdclSolver, to_dimacs

DEFAULT_PATTERN_CAP = 4096
DEFAULT_CONFLICT_CAP = 10**6
# Largest support a region is simulated for.  A sweep's cost doubles with
# each support net.  Measured on wide50 (2-vCPU x86 machine), a region of
# support 16-20 costs 0.3-5 ms to sweep and simulate, against 1-2.6 ms for
# SAT to answer its sites.
SIM_SUPPORT_LIMIT = 16
# Most seeds a flood wave simulates, each with its k one-flip neighbours
# (support k); the witnesses beyond them seed later waves, and the probe is
# one wave of WAVE_SEEDS pseudo-random seeds.  On wide50's largest site
# (support 52, 3,047 patterns, 2-vCPU x86 machine, best of 3), Hamming balls
# of radius 0, 1, 2 and 3 took 3,048, 11, 5 and 2 solve calls and 5.1, 0.19,
# 1.8 and 45 s (one run): a wider ball mostly re-simulates listed patterns.
# On wide100's 312 complete SAT-answered sites (2-vCPU Intel Xeon, Python
# 3.11, best of 5, waves of 64), no probe and probes of 32, 64, 128 and 256
# seeds took 1.28, 1.09, 1.10, 1.07 and 1.16 s and left 312, 185, 183, 177
# and 177 sites to the solver.  A site over the cap stops after the wave
# that passes it: on wide100's 8 such sites (64 probe seeds), waves of 64,
# 128, 256 and 512 seeds took 0.99, 1.03, 1.08 and 1.21 s, unbounded waves
# 1.59 s, and the complete sites stayed at 1.10-1.18 s.
WAVE_SEEDS = 64


@dataclass(frozen=True)
class DifferencePattern:
    """One achievable simultaneous-upset combination for a fault site."""

    site: str
    ffs: FFSet


@dataclass(frozen=True)
class Region:
    """The union of the fan-in cones of a set of flip-flops.

    Any site whose flip-flops it holds can be analysed over it.  Its gates
    are also kept as a mask, bit i for `topo_gates[i]` (see
    `Circuit.cone_masks`), so a miter intersects it by one mask operation.
    """

    static_ffs: tuple[int, ...]    # the flip-flops, ascending
    support: tuple[int, ...]       # its PI and FF Q nets, ascending
    gates: tuple[int, ...]         # its gate ids, in topological order
    mask: int                      # the same gates as a mask

    @property
    def simulated(self) -> bool:
        """Whether the simulation engine answers the region's sites."""
        return len(self.support) <= SIM_SUPPORT_LIMIT


@dataclass(frozen=True)
class MiterInstance:
    site: FaultSite
    region: Region
    dup_gates: tuple[int, ...]         # gates duplicated into the faulty copy


@dataclass(frozen=True)
class Sweep:
    """Each `region` net's good value under every support assignment: bit i
    is its value under the assignment whose j-th support net is (i >> j) & 1."""

    region: Region
    values: dict[int, int]


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[tuple[int, ...]]
    good_vars: dict[int, int]
    faulty_vars: dict[int, int]
    diff_vars: dict[int, int]


@dataclass(frozen=True)
class PatternResult:
    site: str
    patterns: tuple[DifferencePattern, ...]   # discovery order
    overflow: bool
    unknown: bool
    static_ffs: FFSet                          # fallback when overflow/unknown
    seconds: float = field(default=0.0, compare=False)  # wall time of the analysis
    engine: str = field(default="", compare=False)      # "sim" or "sat"; "" when read back
    solves: int = field(default=0, compare=False)       # SAT solve calls; 0 when no solver ran

    @property
    def complete(self) -> bool:
        """Whether `patterns` are all of the site's patterns (no overflow)."""
        return not self.overflow

    def effective_sets(self) -> tuple[FFSet, ...]:
        """Sets this site contributes to the optimized collection.

        Only the maximal achievable combinations: a vector that is a strict
        subset of another achievable vector of the same site is already
        counted among that set's 2^k - 1 injection combinations, so listing
        it separately would double-count.
        """
        if self.overflow:  # an unknown site is also an overflowed one
            return (self.static_ffs,)
        sets = dict.fromkeys(p.ffs for p in self.patterns)
        maximal: dict[FFSet, frozenset[int]] = {}
        # a strict superset is larger, so it is already kept when s comes up
        for s in sorted(sets, key=lambda s: s.multiplicity, reverse=True):
            members = frozenset(s.members)
            if not any(members < t for t in maximal.values()):
                maximal[s] = members
        return tuple(s for s in sets if s in maximal)


def build_region(c: Circuit, ffs: tuple[int, ...]) -> Region:
    """The region of the flip-flops `ffs` (ascending ids): the OR of their
    cone masks in `Circuit.cone_masks`, the gate mask decoded in
    topological order and the support mask in ascending net order."""
    cm = c.cone_masks
    mask = support = 0
    for f in ffs:
        mask |= cm.gates[f]
        support |= cm.support[f]
    gates = _select(c.topo_gates, mask)
    return Region(ffs, _select(range(c.num_nets), support), gates, mask)


def build_miter(c: Circuit, site: FaultSite, region: Region | None = None) -> MiterInstance:
    """Pair a good copy of `region`, which must hold the site's flip-flops
    (the site's own region when not given), with a faulty copy of the
    site's fan-out in it: the region's gates downstream of the site, in
    topological order, whose faulty value can differ from their good one.
    They are the site's downstream mask ANDed with the region's, the same
    gates for every region that holds the site's flip-flops (see the module
    docstring).
    """
    if not site.static_ffs:
        raise ValueError(
            f"site '{c.net_names[site.site_net]}' reaches no flip-flop; nothing to analyze"
        )
    if region is None:
        region = build_region(c, site.static_ffs)
    elif not set(region.static_ffs).issuperset(site.static_ffs):
        raise ValueError("the region does not hold the site's flip-flops")
    fanout = c.cone_masks.downstream[site.site_net] & region.mask
    return MiterInstance(site, region, _select(c.topo_gates, fanout))


# -- Tseitin encoding ------------------------------------------------------


def gate_clauses(kind: str, out: int, ins: list[int], new_var) -> list[tuple[int, ...]]:
    """CNF block asserting out <-> KIND(ins); literals may be negative.

    One template per base function of `GATE_KINDS`; an inverted kind negates
    the output literal, but NOT is BUFF of the negated input, which keeps its
    clause order.  Multi-input XOR/XNOR chain through aux vars from new_var().
    """
    base, inverted = GATE_KINDS[kind]
    if base == "BUFF":
        (a,) = ins
        a = -a if inverted else a
        return [(-out, a), (out, -a)]
    out = -out if inverted else out
    if base == "AND":
        return [(-out, i) for i in ins] + [(out, *(-i for i in ins))]
    if base == "OR":
        return [(out, -i) for i in ins] + [(-out, *ins)]
    clauses: list[tuple[int, ...]] = []
    acc = ins[0]
    for nxt in ins[1:-1]:
        aux = new_var()
        clauses += _xor2(aux, acc, nxt)
        acc = aux
    return clauses + _xor2(out, acc, ins[-1])


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

    region = m.region
    nets = sorted((*region.support, *(c.gates[gid].output for gid in region.gates)))
    good = {net: new_var() for net in nets}
    faulty = {c.gates[gid].output: new_var() for gid in m.dup_gates}
    diff = {f: new_var() for f in m.site.static_ffs}

    def faulty_lit(net: int) -> int:
        if net in faulty:
            return faulty[net]
        return -good[net] if net == m.site.site_net else good[net]

    cls: list[tuple[int, ...]] = []
    for gid in region.gates:
        g = c.gates[gid]
        cls.extend(gate_clauses(g.kind, good[g.output], [good[n] for n in g.inputs], new_var))
    for gid in m.dup_gates:
        g = c.gates[gid]
        cls.extend(
            gate_clauses(g.kind, faulty[g.output], [faulty_lit(n) for n in g.inputs], new_var)
        )
    for f in m.site.static_ffs:
        d_net = c.flipflops[f].d_net
        glit = good[d_net]
        flit = faulty_lit(d_net)
        if flit == -glit:
            cls.append((diff[f],))          # flip always observed at this FF
        elif flit == glit:
            cls.append((-diff[f],))         # not downstream: never differs
        else:
            cls.extend(_xor2(diff[f], glit, flit))
    return CnfFormula(counter, cls, good, faulty, diff)


# -- bit-parallel simulation ----------------------------------------------


@lru_cache(maxsize=None)
def _var_mask(v: int, k: int) -> int:
    """Bit i of the result is (i >> v) & 1, over all i < 2**k, for v < k.

    One period (2**v zeros, then 2**v ones) is doubled onto itself until it
    covers 2**k bits.  Cached, since every sweep of width k needs the same k
    masks; all masks for k <= 20 take about 5 MB.
    """
    half = 1 << v
    mask = ((1 << half) - 1) << half
    width = half << 1
    while width < 1 << k:
        mask |= mask << width
        width <<= 1
    return mask


def _evaluate(c: Circuit, gids: Iterable[int], values: dict[int, int], full: int) -> None:
    """Evaluate the gates `gids` in order, one bit per assignment (the bits
    of `full`): each gate's output value is stored in `values`, computed
    from its inputs' values there."""
    table, get = c.gate_table, values.__getitem__
    for gid in gids:
        op, inverted, ins, out = table[gid]
        v = reduce(op, map(get, ins))
        values[out] = full ^ v if inverted else v


def _distinct_patterns(
    diffs: list[int], full: int, limit: int | None = None
) -> list[tuple[int, int]]:
    """Distinct nonempty difference vectors, as masks with bit j for the
    FF of `diffs[j]`, each with the lowest assignment (bit of `full`) that
    gives it, in the order the split finds them; sort with `_canonical`.

    Partitions the assignments (the bits of `full`) by FF: each class is
    split into the assignments where FF j differs (`hit`) and the rest.  The
    nonempty classes left after the last FF are the distinct vectors.  The
    stack replaces recursion, whose depth would be the FF count, and holds
    at most one pending sibling per level: a class is followed down to the
    last FF on its `hit` side, and only where an FF splits it does the rest
    wait on the stack, so a level that does not split it costs no stack
    entry.  With `limit`, the split stops once that many vectors are found.
    """
    n = len(diffs)
    out = []
    stack = [(full, 0, 0)]
    while stack and len(out) != limit:
        mask, j, v = stack.pop()
        while j < n:
            hit = mask & diffs[j]
            if hit == mask:
                v |= 1 << j
            elif hit:
                stack.append((mask ^ hit, j + 1, v))
                mask = hit
                v |= 1 << j
            j += 1
        if v:
            out.append((v, (mask & -mask).bit_length() - 1))
    return out


def _canonical(leaf: tuple[int, int]) -> tuple[int, int]:
    """Sort key of a `_distinct_patterns` vector: fewer flip-flops first,
    then by mask value (colexicographic order)."""
    return leaf[0].bit_count(), leaf[0]


def _good_values(c: Circuit, region: Region, inputs: Iterable[int], full: int) -> dict[int, int]:
    """Good-circuit value of every region net, one bit per assignment (the
    bits of `full`), from the value of each support net in `inputs`."""
    good = dict(zip(region.support, inputs))
    _evaluate(c, region.gates, good, full)
    return good


def _sweep(c: Circuit, region: Region) -> Sweep:
    """`_good_values` of the region under every support assignment."""
    k = len(region.support)
    values = _good_values(c, region, [_var_mask(j, k) for j in range(k)], (1 << (1 << k)) - 1)
    return Sweep(region, values)


def _difference_masks(c: Circuit, m: MiterInstance, good: dict[int, int], full: int) -> list[int]:
    """Per flip-flop of the miter's site, the assignments (bits of `full`)
    under which its D pin differs between the good and the faulty circuit.

    `good` holds the good value of every region net.  Only the miter's
    faulty fan-out is re-simulated with the site inverted, event-driven:
    only the faulty values that differ from the good ones are kept, and a
    gate none of whose inputs differs is skipped.
    """
    site = m.site.site_net
    table = c.gate_table
    faulty = {site: good[site] ^ full}    # the nets whose faulty value differs
    isdisjoint = faulty.keys().isdisjoint
    for gid in m.dup_gates:
        op, inverted, ins, out = table[gid]
        if isdisjoint(ins):
            continue
        # the common arities without `reduce`; a BUFF or NOT of a differing
        # input differs
        if len(ins) == 1:
            faulty[out] = faulty[ins[0]] ^ full if inverted else faulty[ins[0]]
            continue
        if len(ins) == 2:
            a, b = ins
            v = op(faulty[a] if a in faulty else good[a], faulty[b] if b in faulty else good[b])
        else:
            v = reduce(op, [faulty[n] if n in faulty else good[n] for n in ins])
        if inverted:
            v ^= full
        if v != good[out]:
            faulty[out] = v
    return [
        good[d] ^ faulty[d] if d in faulty else 0
        for d in (c.flipflops[f].d_net for f in m.site.static_ffs)
    ]


def _neighbourhood_diffs(c: Circuit, m: MiterInstance, seeds: list[int]) -> tuple[list[int], int]:
    """`_difference_masks` of the miter's site over every seed and its one-flip
    neighbours, and the mask of their bits.

    A seed is a support assignment, bit j the value of the j-th support
    net.  Seed s has the s-th block of k + 1 bits, for support k: bit 0 of
    the block is the seed itself, and bit j + 1 the seed with support net j
    flipped; `_ball_assignment` recovers the assignment of any bit.
    Packing each seed into the low bits of its block gives, by one shift
    and mask per support net, the blocks whose seed sets that net.
    """
    k = len(m.region.support)
    ball = (1 << k + 1) - 1
    rep = ((1 << (k + 1) * len(seeds)) - 1) // ball   # bit 0 of every block
    packed = int("".join(format(seed, f"0{k + 1}b") for seed in reversed(seeds)), 2)
    full = ball * rep
    inputs = [ball * (packed >> j & rep) ^ (2 << j) * rep for j in range(k)]
    good = _good_values(c, m.region, inputs, full)
    return _difference_masks(c, m, good, full), full


def _ball_assignment(seeds: list[int], bit: int, k: int) -> int:
    """The support assignment that bit `bit` of `_neighbourhood_diffs(c, m,
    seeds)` simulates, for a support of k nets."""
    s, b = divmod(bit, k + 1)
    return seeds[s] ^ (1 << b) >> 1


def _probe_seeds(k: int) -> list[int]:
    """The WAVE_SEEDS support assignments of k nets that seed a site's
    probe: pseudo-random, but drawn from a generator of their own seeded by
    k alone, so that they do not depend on what ran before them in the
    process, and every `jobs` lists the same patterns."""
    rng = random.Random(k)
    return [rng.getrandbits(k) for _ in range(WAVE_SEEDS)]


def _blocking_cube(v: int, listed: Container[int], k: int) -> tuple[int, int, list[int]]:
    """A subcube of `listed` that holds `v`, as (base, free) bitmasks over k
    positions, and its vectors: the cube is every vector that agrees with
    `base` outside `free`.

    Positions are freed greedily in order 0..k-1; position j is freed only
    when flipping bit j of every vector of the cube so far gives a listed
    vector.  No fixed position can then be freed, and blocking the cube
    blocks only listed vectors.
    """
    cube = [v]
    free = 0
    for j in range(k):
        bit = 1 << j
        flipped = [u ^ bit for u in cube]
        if all(u in listed for u in flipped):
            cube += flipped
            free |= bit
    return v & ~free, free, cube


def enumerate_patterns(
    c: Circuit,
    site: FaultSite,
    cap: int = DEFAULT_PATTERN_CAP,
    conflict_limit: int | None = DEFAULT_CONFLICT_CAP,
    region: Region | None = None,
    sweep: Sweep | None = None,
) -> PatternResult:
    """All distinct nonempty difference vectors achievable at this site.

    The site's miter is built over `region`, any region that holds the
    site's flip-flops (`build_miter`); with `sweep`, that is the swept
    region (another `region` is refused), and without either, the site's
    own region.  Both engines simulate the miter and list each new vector
    they see, in `_canonical` order within each simulated batch.  With
    `sweep`, the one batch is every support assignment, cut after cap + 1
    vectors.  Without it, the batches are waves (see `_neighbourhood_diffs`)
    over one queue of seeds: first the probe's, from `_probe_seeds`, then
    the witnesses of each wave's new vectors.  Only an empty queue asks the
    solver, unless every nonempty vector is listed: the vectors listed since
    its last call are blocked by clauses over difference variables only (see
    `_blocking_cube`), and its model's assignment is the next seed, so
    patterns (not models) are enumerated until the solver proves none is
    left.  More than `cap` patterns (the first `cap` are listed), or a
    solver budget exhaustion, yields an Overflow result that falls back to
    the static set (sound, never wrong).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if sweep is not None:
        if region is not None and region != sweep.region:
            raise ValueError("the region is not the one the sweep is of")
        region = sweep.region
    t0 = time.perf_counter()
    m = build_miter(c, site, region)
    site_name = c.net_names[site.site_net]
    ffs = site.static_ffs
    found: dict[int, None] = {}   # the listed vectors, bit j for ffs[j], in listing order

    def list_new(diffs: list[int], full: int, limit: int | None = None) -> list[tuple[int, int]]:
        """List the vectors of one simulated batch not listed yet, in
        `_canonical` order, each with the lowest bit of the batch that gives it."""
        leaves = _distinct_patterns(diffs, full, limit)
        new = sorted((leaf for leaf in leaves if leaf[0] not in found), key=_canonical)
        found.update(dict.fromkeys(v for v, _ in new))
        return new

    unknown = False
    solves = 0
    if sweep is not None:
        full = (1 << (1 << len(m.region.support))) - 1
        list_new(_difference_masks(c, m, sweep.values, full), full, limit=cap + 1)
    else:
        k = len(m.region.support)
        pending = _probe_seeds(k)   # seeds not simulated yet: the probe's, then witnesses
        unblocked: list[int] = []   # the vectors listed since the last solver call
        own: int | None = None      # the vector of the model that seeds the next wave
        solver = None
        # every model's wave lists its own, unblocked vector, so the loop
        # stops after at most cap + 1 SAT answers
        while len(found) <= cap:
            if pending:
                seeds, pending = pending[:WAVE_SEEDS], pending[WAVE_SEEDS:]
                diffs, full = _neighbourhood_diffs(c, m, seeds)
                if own is not None:
                    if own != sum(1 << j for j, d in enumerate(diffs) if d & 1):
                        raise RuntimeError(
                            f"site '{site_name}': the SAT model's difference vector "
                            f"{_select(ffs, own)} is not what simulating its assignment gives; "
                            "encoding and evaluator disagree"
                        )
                    if own in found:  # else the solver would return it forever
                        raise RuntimeError(
                            f"site '{site_name}': the listed vector {_select(ffs, own)} "
                            "was not blocked"
                        )
                    own = None
                new = list_new(diffs, full)
                unblocked += (v for v, _ in new)
                pending += (_ball_assignment(seeds, bit, k) for _, bit in new)
                continue
            if solver is None:
                if len(found) == (1 << len(ffs)) - 1:  # the probe listed every vector
                    break
                f = encode_cnf(m, c)
                solver = CdclSolver(f.num_vars)
                for cl in f.clauses:
                    solver.add_clause(cl)
                dvars = [f.diff_vars[ff] for ff in ffs]
                solver.add_clause(dvars)  # some difference must be observed
                svars = [f.good_vars[net] for net in m.region.support]
            covered: set[int] = set()
            for v in unblocked:
                if v in covered:
                    continue
                base, free, cube = _blocking_cube(v, found, len(ffs))
                covered.update(cube)
                solver.add_clause(
                    [-dv if base >> j & 1 else dv
                     for j, dv in enumerate(dvars) if not free >> j & 1]
                )
            unblocked = []
            res = solver.solve(conflict_limit=conflict_limit)
            solves += 1
            if res.status != SAT:
                unknown = res.status == UNKNOWN
                break
            own = sum(1 << j for j, dv in enumerate(dvars) if res.model[dv])
            pending = [sum(1 << j for j, v in enumerate(svars) if res.model[v])]
    overflow = unknown or len(found) > cap
    return PatternResult(
        site=site_name,
        patterns=tuple(
            DifferencePattern(site_name, FFSet(_select(ffs, v))) for v in list(found)[:cap]
        ),
        overflow=overflow,
        unknown=unknown,
        static_ffs=FFSet(site.static_ffs),
        seconds=time.perf_counter() - t0,
        engine="sat" if sweep is None else "sim",
        solves=solves,
    )


def analyze_sites(
    c: Circuit,
    sites: list[FaultSite],
    cap: int = DEFAULT_PATTERN_CAP,
    conflict_limit: int | None = DEFAULT_CONFLICT_CAP,
    jobs: int = 1,
    regions: dict[tuple[int, ...], Region] | None = None,
) -> dict[str, PatternResult]:
    """Run pattern enumeration for every FF-reaching site.

    `regions` holds the region of each distinct `static_ffs` of the sites
    (`site_regions`), and is built here when not given.  The units of work
    (see `_work_units`) do not depend on `jobs`; with jobs > 1 they are
    shared by at most `jobs` worker processes, each sent the circuit once,
    when it starts.  Result order is fixed by site net id.
    """
    work = [s for s in sites if s.static_ffs]
    units = _work_units(c, work, regions)
    if jobs > 1 and len(units) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the executor forks all its workers at the first submit
        workers = min(jobs, len(units))
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(c,)) as ex:
            done = list(ex.map(_analyze_worker_unit, units, repeat(cap), repeat(conflict_limit)))
    else:
        done = [_analyze_unit(c, u, cap, conflict_limit) for u in units]
    found = {r.site: r for rs in done for r in rs}
    return {name: found[name] for name in (c.net_names[s.site_net] for s in work)}


# A unit of work: a region and the sites analysed over it, each of whose
# flip-flops the region holds.
WorkUnit = tuple[Region, list[FaultSite]]


def site_regions(c: Circuit, sites: list[FaultSite]) -> dict[tuple[int, ...], Region]:
    """The region of each distinct `static_ffs` of the FF-reaching `sites`,
    in the order the sites first name it."""
    return {ffs: build_region(c, ffs) for ffs in dict.fromkeys(s.static_ffs for s in sites)}


def _work_units(
    c: Circuit, sites: list[FaultSite], regions: dict[tuple[int, ...], Region] | None = None
) -> list[WorkUnit]:
    """The sites of all simulated own regions with one support as one unit,
    over the region of all their flip-flops, and every SAT-answered site as
    a unit of its own, over its own region.  The sites' own regions come
    from `regions`, or from `site_regions` when it is not given; no region
    is built twice."""
    groups: dict[tuple[int, ...], list[FaultSite]] = {}
    for s in sites:
        groups.setdefault(s.static_ffs, []).append(s)
    if regions is None:
        regions = site_regions(c, sites)
    by_support: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    sat_units: list[WorkUnit] = []
    for ffs, members in groups.items():
        region = regions[ffs]
        if region.simulated:
            by_support.setdefault(region.support, []).append(ffs)
        else:
            sat_units.extend((region, [s]) for s in members)
    sim_units: list[WorkUnit] = []
    for sets in by_support.values():
        ffs = tuple(sorted(set().union(*sets)))
        # built already when one of the sets holds all the others
        region = regions.get(ffs) or build_region(c, ffs)
        sim_units.append((region, [s for fs in sets for s in groups[fs]]))
    return sim_units + sat_units


def _analyze_unit(
    c: Circuit, unit: WorkUnit, cap: int, conflict_limit: int | None
) -> list[PatternResult]:
    """Results for the unit's sites, in the order given; a simulated region
    is swept once, and every site reads that one sweep."""
    region, sites = unit
    sweep = _sweep(c, region) if region.simulated else None
    return [enumerate_patterns(c, s, cap, conflict_limit, region, sweep) for s in sites]


def _init_worker(c: Circuit) -> None:
    """Start a worker process: `_analyze_worker_unit` reads its circuit from here."""
    global _worker_circuit
    _worker_circuit = c


def _analyze_worker_unit(unit: WorkUnit, cap: int, conflict_limit: int | None):
    return _analyze_unit(_worker_circuit, unit, cap, conflict_limit)


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


def export_site_cnf(c: Circuit, site: FaultSite, region: Region | None = None) -> str:
    """DIMACS text of the site's miter over `region` (see `build_miter`),
    difference forced nonempty; a larger region encodes more good nets."""
    m = build_miter(c, site, region)
    f = encode_cnf(m, c)
    clauses = list(f.clauses)
    clauses.append(tuple(f.diff_vars[ff] for ff in m.site.static_ffs))
    label = {v: f"good {c.net_names[n]}" for n, v in f.good_vars.items()}
    label.update({v: f"faulty {c.net_names[n]}" for n, v in f.faulty_vars.items()})
    label.update({v: f"diff {c.flipflops[ff].name}" for ff, v in f.diff_vars.items()})
    comments = [f"miter for SET site {c.net_names[site.site_net]}"]
    comments += [f"var {v}: {label.get(v, 'aux')}" for v in range(1, f.num_vars + 1)]
    return to_dimacs(f.num_vars, clauses, comments)
