import io
import pickle
import re
from itertools import combinations

import pytest

from set2seu import parse_bench, propagation
from set2seu.cones import closure_support, enumerate_fault_sites, relevant_closure, site_support
from set2seu.ffsets import FFSet, SetCollection, collect_static_sets, ffset
from set2seu.netlist import Circuit, build_circuit
from set2seu.oracle import _eval_gate, exhaustive_patterns, simulate
from set2seu.propagation import (
    SIM_SUPPORT_LIMIT,
    DifferencePattern,
    PatternResult,
    _ball_assignment,
    _blocking_cube,
    _canonical,
    _difference_masks,
    _distinct_patterns,
    _evaluate,
    _flip_masks,
    _neighbourhood_diffs,
    _sweep,
    _var_mask,
    _work_units,
    analyze_sites,
    build_miter,
    build_region,
    encode_cnf,
    enumerate_patterns,
    export_site_cnf,
    gate_clauses,
    optimize_sets,
)
from set2seu.random_circuits import corpus, make_random_circuit
from set2seu.solver import SAT, UNSAT, CdclSolver, parse_dimacs, solve_cnf


def sites_by_name(c):
    return {c.net_names[s.site_net]: s for s in enumerate_fault_sites(c)}


def pattern_set(result):
    return {p.ffs.members for p in result.patterns}


def in_listing_order(patterns, site):
    """Whether `patterns` come by size, then by their mask over the site's
    flip-flops (bit j for `site.static_ffs[j]`)."""
    bit = {f: 1 << j for j, f in enumerate(site.static_ffs)}
    keys = [(len(p.ffs.members), sum(bit[f] for f in p.ffs.members)) for p in patterns]
    return keys == sorted(keys)


def outcome(result):
    """What both engines must agree on: the pattern set and the three flags."""
    return pattern_set(result), result.complete, result.overflow, result.unknown


def enumerate_with(engine, c, site, **kwargs):
    """enumerate_patterns through the named engine; "sim" sweeps the site's region."""
    region = build_region(c, site.static_ffs)
    sweep = None
    if engine == "sim":
        assert region.simulated
        sweep = _sweep(c, region)
    r = enumerate_patterns(c, site, region=region, sweep=sweep, **kwargs)
    assert r.engine == engine
    return r


def plain_sat(c, site, **kwargs):
    """The SAT engine with a harvest radius of 0: one pattern per solve call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "HARVEST_RADIUS", 0)
        return enumerate_patterns(c, site, **kwargs)


def downstream(c, net):
    """Nets reachable forward from `net` through gates, `net` included."""
    down, todo = {net}, [net]
    while todo:
        for gid in c.fanout_gates[todo.pop()]:
            out = c.gates[gid].output
            if out not in down:
                down.add(out)
                todo.append(out)
    return down


# -- Tseitin blocks ----------------------------------------------------------


# (arity, kind): every gate kind at each arity the gate tests cover
GATE_CASES = [
    (arity, kind)
    for arity in (2, 3, 4)
    for kind in ("AND", "NAND", "NOR", "OR", "XNOR", "XOR")
] + [(1, "NOT"), (1, "BUFF")]


def test_gate_clause_lists():
    """The exact clauses, in order: the solver's search depends on it."""
    aux = iter(range(100, 200)).__next__
    assert gate_clauses("AND", 3, [1, 2], aux) == [(-3, 1), (-3, 2), (3, -1, -2)]
    assert gate_clauses("NAND", 3, [1, 2], aux) == [(3, 1), (3, 2), (-3, -1, -2)]
    assert gate_clauses("OR", 3, [1, 2], aux) == [(3, -1), (3, -2), (-3, 1, 2)]
    assert gate_clauses("NOR", 3, [1, 2], aux) == [(-3, -1), (-3, -2), (3, 1, 2)]
    assert gate_clauses("XOR", 3, [1, 2], aux) == [
        (-3, 1, 2), (-3, -1, -2), (3, -1, 2), (3, 1, -2)
    ]
    assert gate_clauses("XNOR", 3, [1, 2], aux) == [
        (3, 1, 2), (3, -1, -2), (-3, -1, 2), (-3, 1, -2)
    ]
    assert gate_clauses("NOT", 2, [1], aux) == [(-2, -1), (2, 1)]
    assert gate_clauses("BUFF", 2, [1], aux) == [(-2, 1), (2, -1)]
    assert gate_clauses("AND", 4, [1, 2, 3], aux) == [(-4, 1), (-4, 2), (-4, 3), (4, -1, -2, -3)]
    # one aux chain link: 100 <-> 1 ^ 2, then 4 <-> 100 ^ 3
    assert gate_clauses("XOR", 4, [1, 2, 3], aux) == [
        (-100, 1, 2), (-100, -1, -2), (100, -1, 2), (100, 1, -2),
        (-4, 100, 3), (-4, -100, -3), (4, -100, 3), (4, 100, -3),
    ]


@pytest.mark.parametrize("arity,kind", GATE_CASES)
def test_gate_clauses_encode_truth_table(kind, arity):
    import itertools

    counter = [arity + 1]

    def aux():
        counter[0] += 1
        return counter[0]

    out = arity + 1
    ins = list(range(1, arity + 1))
    clauses = gate_clauses(kind, out, ins, aux)
    for bits in itertools.product([False, True], repeat=arity):
        want = _eval_gate(kind, list(bits))
        assume = [v if b else -v for v, b in zip(ins, bits)]
        res = solve_cnf(counter[0], clauses, assumptions=assume)
        assert res.status == SAT
        assert res.model[out] == want


# -- miter structure ----------------------------------------------------------


def test_wire_miter_diff_is_structurally_true(wire):
    s = sites_by_name(wire)["x"]
    m = build_miter(wire, s)
    f = encode_cnf(m, wire)
    assert len(m.dup_gates) == 0
    assert (f.diff_vars[0],) in [tuple(cl) for cl in f.clauses]
    r = enumerate_patterns(wire, s)
    assert pattern_set(r) == {(0,)}


def test_single_and_before_ff_duplicates_one_gate():
    c = parse_bench("INPUT(s)\nINPUT(k)\ng = AND(s,k)\nf = DFF(g)\nOUTPUT(f)")
    site = next(
        x for x in enumerate_fault_sites(c, "all_nets") if c.net_names[x.site_net] == "s"
    )
    m = build_miter(c, site)
    assert len(m.dup_gates) == 1


def test_fanout_demo_and1_has_four_diff_vars(fanout_demo):
    s = sites_by_name(fanout_demo)["and1"]
    f = encode_cnf(build_miter(fanout_demo, s), fanout_demo)
    assert len(f.diff_vars) == 4


def test_po_only_site_rejected():
    c = parse_bench("INPUT(a)\nINPUT(b)\ny = AND(a, b)\nf = DFF(b)\nOUTPUT(y)\nOUTPUT(f)")
    site = next(s for s in enumerate_fault_sites(c) if s.po_only)
    # every region holds the site's empty set of flip-flops
    for region in (None, build_region(c, c.ff_ids)):
        with pytest.raises(ValueError, match="reaches no flip-flop"):
            build_miter(c, site, region)


def test_nets_outside_fanout_are_shared(fanout_demo):
    s = sites_by_name(fanout_demo)["or1"]
    m = build_miter(fanout_demo, s)
    f = encode_cnf(m, fanout_demo)
    down = downstream(fanout_demo, s.site_net)
    for net in (*m.region.support, *(fanout_demo.gates[g].output for g in m.region.gates)):
        if net not in down:
            assert net not in f.faulty_vars


# -- solve_cnf over encoded formulas -------------------------------------------


def test_sat_solve_assumption_api(divergent):
    s = sites_by_name(divergent)["x"]
    f = encode_cnf(build_miter(divergent, s), divergent)
    res = solve_cnf(f.num_vars, f.clauses)
    assert res.status == SAT  # some difference or none; formula is satisfiable
    both = [f.diff_vars[0], f.diff_vars[1]]
    res2 = solve_cnf(f.num_vars, f.clauses, assumptions=tuple(both))
    assert res2.status == UNSAT  # both FFs can never differ together


def test_model_decodes_to_consistent_simulation():
    for seed in range(15):
        c = make_random_circuit(seed * 17 + 3, n_pis=3, n_ffs=3, n_gates=10)
        for site in enumerate_fault_sites(c):
            if not site.static_ffs:
                continue
            m = build_miter(c, site)
            f = encode_cnf(m, c)
            clauses = list(f.clauses)
            clauses.append([f.diff_vars[ff] for ff in site.static_ffs])
            res = solve_cnf(f.num_vars, clauses)
            if res.status != SAT:
                continue
            assignment = {
                n: False for n in range(c.num_nets) if c.driver[n][0] != "gate"
            }
            assignment.update(
                {net: res.model[f.good_vars[net]] for net in site_support(c, site)}
            )
            good = simulate(c, assignment)
            bad = simulate(c, assignment, forced_flip=site.site_net)
            for net in (*m.region.support, *(c.gates[g].output for g in m.region.gates)):
                assert good[net] == res.model[f.good_vars[net]]
            for net, var in f.faulty_vars.items():
                assert bad[net] == res.model[var]
            for ff in site.static_ffs:
                d = c.flipflops[ff].d_net
                assert res.model[f.diff_vars[ff]] == (good[d] != bad[d])
            break


# -- pattern enumeration ---------------------------------------------------------


def test_divergent_patterns(divergent):
    s = sites_by_name(divergent)["x"]
    r = enumerate_patterns(divergent, s)
    assert pattern_set(r) == {(0,), (1,)}
    assert r.complete and not r.overflow


def test_reconvergent_false_path_removed(reconv):
    s = sites_by_name(reconv)["x"]
    r = enumerate_patterns(reconv, s)
    assert r.patterns == ()
    assert r.complete
    static = collect_static_sets(reconv, enumerate_fault_sites(reconv))
    opt = optimize_sets(static, analyze_sites(reconv, enumerate_fault_sites(reconv)))
    assert "x" not in {ref for ref, _ in opt.raw_sets}


@pytest.mark.parametrize("seed", range(25))
def test_pattern_enumeration_matches_oracle(seed):
    c = make_random_circuit(seed * 101 + 7, n_pis=4, n_ffs=4, n_gates=16)
    for site in enumerate_fault_sites(c):
        if not site.static_ffs:
            continue
        got = pattern_set(enumerate_patterns(c, site))
        want = {p.ffs.members for p in exhaustive_patterns(c, site)}
        assert got == want


def test_patterns_subset_of_static(b01ish):
    sites = enumerate_fault_sites(b01ish)
    for ref, r in analyze_sites(b01ish, sites).items():
        static = set(r.static_ffs.members)
        for p in r.patterns:
            assert set(p.ffs.members) <= static


@pytest.mark.parametrize("engine", ["sim", "sat"])
def test_cap_overflow_falls_back_to_static(divergent, engine):
    s = sites_by_name(divergent)["x"]
    r = enumerate_with(engine, divergent, s, cap=1)
    assert r.overflow and not r.complete and not r.unknown
    assert len(r.patterns) == 1
    assert pattern_set(r) <= pattern_set(enumerate_patterns(divergent, s))
    assert r.effective_sets() == (ffset([0, 1]),)
    with pytest.raises(ValueError):
        enumerate_with(engine, divergent, s, cap=0)


@pytest.mark.parametrize("engine", ["sim", "sat"])
def test_exactly_cap_patterns_is_not_overflow(divergent, engine):
    s = sites_by_name(divergent)["x"]
    r = enumerate_with(engine, divergent, s, cap=2)
    assert r.complete and not r.overflow
    assert len(r.patterns) == 2


@pytest.mark.parametrize("engine", ["sim", "sat"])
def test_overflow_lists_by_size_then_declaration_order(engine):
    # x upsets z when y is 1 and a when y is 0, so every batch of either
    # engine, a sweep or a Hamming ball, holds both patterns; z is declared
    # before a, so {z} comes first though "a" < "z" by name
    c = parse_bench(
        "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = DFF(g1)\na = DFF(g2)\n"
        "ny = NOT(y)\ng1 = AND(x, y)\ng2 = AND(x, ny)"
    )
    r = enumerate_with(engine, c, sites_by_name(c)["x"], cap=1)
    assert r.overflow
    assert [[c.flipflops[f].name for f in p.ffs.members] for p in r.patterns] == [["z"]]


def test_solver_unknown_becomes_overflow(reconv):
    s = sites_by_name(reconv)["x"]
    r = enumerate_patterns(reconv, s, conflict_limit=0)
    assert r.unknown and r.overflow
    assert r.effective_sets() == (ffset([0]),)


def test_determinism(b01ish):
    sites = enumerate_fault_sites(b01ish)
    a = analyze_sites(b01ish, sites)
    b = analyze_sites(b01ish, sites)
    assert a == b


def test_parallel_jobs_match_serial(divergent3):
    sites = enumerate_fault_sites(divergent3)
    serial = analyze_sites(divergent3, sites, jobs=1)
    parallel = analyze_sites(divergent3, sites, jobs=2)
    assert serial == parallel


@pytest.fixture
def in_process_pool(monkeypatch):
    """A stand-in for the worker pool that runs its initializer and the
    units in this process; the list of the pools asked for, each with its
    worker count, its `initargs` and the argument tuples given to `map`."""
    import concurrent.futures

    pools = []

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            self.max_workers, self.initargs, self.mapped = max_workers, initargs, []
            pools.append(self)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            mapped = list(zip(*iterables))
            self.mapped += mapped
            return [fn(*args) for args in mapped]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools


def holds_circuit(obj) -> bool:
    """Whether pickling `obj` pickles a `Circuit`."""
    seen = []

    class Spy(pickle.Pickler):
        def persistent_id(self, o):
            seen.append(isinstance(o, Circuit))

    Spy(io.BytesIO()).dump(obj)
    return any(seen)


def test_worker_pool_is_capped_at_the_work_units(divergent3, in_process_pool):
    """A large `jobs` asks for no more workers than there are units of work."""
    sites = enumerate_fault_sites(divergent3)
    units = _work_units(divergent3, [s for s in sites if s.static_ffs])
    assert len(units) > 1
    assert analyze_sites(divergent3, sites, jobs=5000) == analyze_sites(divergent3, sites, jobs=1)
    assert [p.max_workers for p in in_process_pool] == [len(units)]


def test_circuit_goes_to_each_worker_once(in_process_pool):
    """The pool's workers get the circuit when they start, and `map` sends
    only the units and the limits."""
    c = make_random_circuit(1, n_pis=6, n_ffs=24, n_gates=90, n_pos=2)
    sites = enumerate_fault_sites(c)
    assert analyze_sites(c, sites, jobs=2) == analyze_sites(c, sites, jobs=1)
    (pool,) = in_process_pool
    assert pool.initargs == (c,)
    assert len(pool.mapped) > 1
    assert not any(holds_circuit(args) for args in pool.mapped)
    assert holds_circuit(pool.initargs)


# -- hybrid engine: simulation for small regions, SAT for the rest ----------------


def test_hybrid_matches_sat_on_corpus():
    """Every corpus support is below the limit, so every site is simulated."""
    checked = 0
    for c in corpus(12345, 200, max_gates=40, max_ffs=8, max_pis=6):
        sites = enumerate_fault_sites(c)
        hybrid = analyze_sites(c, sites)
        for site in sites:
            if not site.static_ffs:
                continue
            r = hybrid[c.net_names[site.site_net]]
            assert r.engine == "sim"
            assert outcome(r) == outcome(enumerate_patterns(c, site)), c.net_names[site.site_net]
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("seed", range(3))
def test_hybrid_matches_sat_across_support_limit(seed):
    c = make_random_circuit(seed, n_pis=6, n_ffs=24, n_gates=90, n_pos=2)
    sites = enumerate_fault_sites(c)
    hybrid = analyze_sites(c, sites)
    engines = set()
    for site in sites:
        if not site.static_ffs:
            continue
        r = hybrid[c.net_names[site.site_net]]
        small = len(site_support(c, site)) <= SIM_SUPPORT_LIMIT
        assert r.engine == ("sim" if small else "sat")
        assert outcome(r) == outcome(enumerate_patterns(c, site))
        engines.add(r.engine)
    assert engines == {"sim", "sat"}
    parallel = analyze_sites(c, sites, jobs=2)
    assert list(parallel) == list(hybrid)
    assert [r.engine for r in parallel.values()] == [r.engine for r in hybrid.values()]
    assert parallel == hybrid


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_work_units_hold_one_support_each_and_split_sat_sites(jobs, in_process_pool):
    """A simulated unit holds every site of one support and sweeps the
    region of all their flip-flops, the union of their own regions; every
    SAT-answered site is a unit of its own, over its own region.  Any
    `jobs` analyses these same units."""
    # seed 1 has supports shared by several regions and a SAT region of 2 sites
    c = make_random_circuit(1, n_pis=6, n_ffs=24, n_gates=90, n_pos=2)
    work = [s for s in enumerate_fault_sites(c) if s.static_ffs]
    units = _work_units(c, work)
    assert sorted(s.site_net for _, u in units for s in u) == sorted(s.site_net for s in work)
    sat_regions = []
    for region, u in units:
        if not region.simulated:
            assert len(u) == 1 and region == build_region(c, u[0].static_ffs)
            sat_regions.append(region.static_ffs)
            continue
        own = [build_region(c, ffs) for ffs in dict.fromkeys(s.static_ffs for s in u)]
        assert {r.support for r in own} == {region.support}
        assert region.static_ffs == tuple(sorted({f for r in own for f in r.static_ffs}))
        gates = {g for r in own for g in r.gates}
        assert region.gates == tuple(g for g in c.topo_gates if g in gates)
        mine = [s.site_net for s in work if site_support(c, s) == region.support]
        assert sorted(s.site_net for s in u) == sorted(mine)
    shared = [u for region, u in units if region.simulated and len({s.static_ffs for s in u}) > 1]
    assert shared
    assert len(set(sat_regions)) < len(sat_regions)
    analyze_sites(c, work, jobs=jobs)
    mapped = [unit for p in in_process_pool for unit, _, _ in p.mapped]
    assert mapped == ([] if jobs == 1 else units)


def local50():
    """The circuit of the local50 benchmark fixture."""
    return make_random_circuit(4242, n_pis=10, n_ffs=50, n_gates=500, n_pos=10, locality=25)


# Gates listed out of topological order, so that gate ids and topological
# positions differ, unlike in every circuit that make_random_circuit builds.
OUT_OF_ORDER_BENCH = """
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
q1 = DFF(y2)
q2 = DFF(y1)
q3 = DFF(x3)
q4 = DFF(w)
y2 = AND(x1, q1)
y1 = OR(x2, x1, q4)
x1 = NAND(a, x2)
x2 = XOR(b, q3)
x3 = NOT(x1)
z = NOR(y1, c)
w = XNOR(z, q2)
"""


def out_of_order():
    c = parse_bench(OUT_OF_ORDER_BENCH)
    assert c.topo_gates == (3, 2, 0, 1, 4, 5, 6)
    return [c]


def closure_scan(c, site):
    """The site's support, region gates and faulty fan-out by the reference
    construction: the closure scan of `relevant_closure`, its gates picked
    from `topo_gates`, and a forward scan of them from the site."""
    closure = relevant_closure(c, site)
    gates = tuple(g for g in c.topo_gates if c.gates[g].output in closure)
    down, fanout = {site.site_net}, []
    for g in gates:
        if not down.isdisjoint(c.gates[g].inputs):
            down.add(c.gates[g].output)
            fanout.append(g)
    return closure_support(c, closure), gates, tuple(fanout)


@pytest.mark.parametrize(
    "circuits, mode",
    [
        pytest.param(
            lambda: corpus(12345, 200, max_gates=40, max_ffs=8, max_pis=6), mode, id=f"corpus-{mode}"
        )
        for mode in ("collapsed", "all_nets")
    ]
    + [
        pytest.param(lambda: [local50()], "collapsed", id="local50"),
        pytest.param(
            lambda: [make_random_circuit(7, n_pis=10, n_ffs=50, n_gates=500, n_pos=10)],
            "collapsed",
            id="wide50",
        ),
        pytest.param(out_of_order, "all_nets", id="out_of_order"),
    ],
)
def test_mask_regions_and_miters_match_the_closure_scan(circuits, mode):
    """`build_region` and `build_miter`, read off `Circuit.cone_masks`, give
    every FF-reaching site the support, gates and faulty fan-out of the
    closure scan, and the region's mask holds the topological positions of
    its gates."""
    checked = 0
    for c in circuits():
        pos = {g: i for i, g in enumerate(c.topo_gates)}
        for site in enumerate_fault_sites(c, mode):
            if not site.static_ffs:
                continue
            region = build_region(c, site.static_ffs)
            m = build_miter(c, site, region)
            assert (region.support, region.gates, m.dup_gates) == closure_scan(c, site)
            assert region.mask == sum(1 << pos[g] for g in region.gates)
            checked += 1
    assert checked > 0


SHARED_SWEEP_CIRCUITS = [
    pytest.param(lambda: corpus(12345, 200, max_gates=40, max_ffs=8, max_pis=6), id="corpus"),
    pytest.param(lambda: [local50()], id="local50"),
]


@pytest.mark.parametrize("circuits", SHARED_SWEEP_CIRCUITS)
def test_support_sweep_matches_each_region_sweep(circuits):
    """The one sweep of a unit gives every net of each of its regions the
    value that the region's own sweep gives it."""
    shared = 0
    for c in circuits():
        units = _work_units(c, [s for s in enumerate_fault_sites(c) if s.static_ffs])
        for region, members in units:
            if not region.simulated:
                continue
            sweep = _sweep(c, region)
            own_sets = dict.fromkeys(s.static_ffs for s in members)
            shared += len(own_sets) > 1
            for ffs in own_sets:
                own = _sweep(c, build_region(c, ffs))
                assert own.region.support == sweep.region.support
                assert all(sweep.values[n] == v for n, v in own.values.items())
    assert shared > 0


@pytest.mark.parametrize("circuits", SHARED_SWEEP_CIRCUITS)
def test_any_region_that_holds_the_sites_flip_flops_gives_its_patterns(circuits):
    """Over the site's own region, its work unit's region and the region of
    every flip-flop, a site gets the same faulty fan-out; the simulation
    engine lists the same patterns in the same order over each of them that
    is simulated, by size and then by mask value, the order of the oracle's
    list, and the SAT engine finds the same pattern set over each of
    support 12 or less."""
    larger = 0
    for c in circuits():
        every = build_region(c, c.ff_ids)
        sweeps = {}

        def sweep_of(region):
            if region.static_ffs not in sweeps:
                sweeps[region.static_ffs] = _sweep(c, region)
            return sweeps[region.static_ffs]

        for unit, sites in _work_units(c, [s for s in enumerate_fault_sites(c) if s.static_ffs]):
            for site in sites:
                own = build_region(c, site.static_ffs)
                assert own.simulated
                want = enumerate_patterns(c, site, sweep=sweep_of(own))
                assert in_listing_order(want.patterns, site)
                assert exhaustive_patterns(c, site) == list(want.patterns)
                regions = (own, unit, every)
                assert len({build_miter(c, site, r).dup_gates for r in regions}) == 1
                for r in regions:
                    if r.simulated:
                        assert enumerate_patterns(c, site, sweep=sweep_of(r)) == want
                    if len(r.support) <= 12:
                        sat = enumerate_patterns(c, site, region=r)
                        assert pattern_set(sat) == pattern_set(want)
                larger += (unit != own) + (every != own)
    assert larger > 0


@pytest.mark.parametrize("circuits", SHARED_SWEEP_CIRCUITS)
def test_event_driven_difference_masks_match_full_resimulation(circuits):
    """Skipping fan-out gates with no differing input, where a faulty value
    equal to the good one does not count as differing, changes no
    difference mask."""
    skipped = 0
    for c in circuits():
        for site in enumerate_fault_sites(c):
            if not site.static_ffs:
                continue
            m = build_miter(c, site)
            if not m.region.simulated:
                continue
            good = _sweep(c, m.region).values
            full = (1 << (1 << len(m.region.support))) - 1
            faulty = dict(good)
            faulty[site.site_net] ^= full
            _evaluate(c, m.dup_gates, faulty, full)
            outs = [c.gates[g].output for g in m.dup_gates]
            skipped += sum(faulty[n] == good[n] for n in outs)
            want = [good[d] ^ faulty[d] for d in (c.flipflops[f].d_net for f in site.static_ffs)]
            got = _difference_masks(c, m, good, full)
            wrong = [c.flipflops[f].name for f, g, w in zip(site.static_ffs, got, want) if g != w]
            assert not wrong, (c.net_names[site.site_net], wrong)
    assert skipped > 0


def test_jobs_give_the_same_results_in_the_same_order_on_corpus(in_process_pool):
    """Analysing the units in a pool changes no result, no result order and
    no pattern order."""
    for c in corpus(12345, 200, max_gates=40, max_ffs=8, max_pis=6):
        sites = enumerate_fault_sites(c)
        serial = analyze_sites(c, sites, jobs=1)
        for jobs in (2, 3):
            parallel = analyze_sites(c, sites, jobs=jobs)
            assert list(parallel.items()) == list(serial.items())
    assert len(in_process_pool) > 100   # runs with more than one unit


def test_jobs_give_the_same_results_in_the_same_order_on_local50():
    c = local50()
    sites = enumerate_fault_sites(c)
    serial = analyze_sites(c, sites, jobs=1)
    parallel = analyze_sites(c, sites, jobs=2)
    assert list(parallel.items()) == list(serial.items())
    assert [r.engine for r in parallel.values()] == ["sim"] * len(serial)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda: make_random_circuit(7, n_pis=10, n_ffs=50, n_gates=500, n_pos=10),
            id="wide50",
        ),
        *(
            pytest.param(
                lambda seed=seed: make_random_circuit(seed, n_pis=6, n_ffs=24, n_gates=90, n_pos=2),
                id=f"support_limit{seed}",
            )
            for seed in range(3)
        ),
    ],
)
def test_each_region_is_built_once(make):
    """One region build per flip-flop set, shared by all its sites and by
    both engines: each distinct `static_ffs`, and the flip-flops of each
    shared sweep."""
    c = make()
    sites = enumerate_fault_sites(c)
    units = _work_units(c, [s for s in sites if s.static_ffs])
    built = []

    def counting(circ, ffs):
        built.append(ffs)
        return build_region(circ, ffs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "build_region", counting)
        results = analyze_sites(c, sites, jobs=1)
    want = {s.static_ffs for s in sites if s.static_ffs} | {r.static_ffs for r, _ in units}
    assert sorted(built) == sorted(want)
    assert {r.engine for r in results.values()} == {"sim", "sat"}


# -- SAT engine: each model seeds a flood of simulation ---------------------------


@pytest.mark.parametrize(
    "circuits",
    [
        pytest.param(lambda: corpus(12345, 200, max_gates=40, max_ffs=8, max_pis=6), id="corpus"),
        pytest.param(
            lambda: [make_random_circuit(seed, n_pis=6, n_ffs=24, n_gates=90, n_pos=2)
                     for seed in range(3)],
            id="support_limit",
        ),
    ],
)
def test_harvest_matches_plain_sat(circuits):
    checked = 0
    for c in circuits():
        for site in enumerate_fault_sites(c):
            if not site.static_ffs:
                continue
            plain = plain_sat(c, site)
            assert plain.solves == len(plain.patterns) + 1
            r = enumerate_patterns(c, site)
            assert r.engine == "sat" and 1 <= r.solves <= plain.solves
            assert outcome(r) == outcome(plain), c.net_names[site.site_net]
            checked += 1
    assert checked > 100


def wide_fanout():
    """s = XOR(a0..a6) fans out to d_i = AND(s, p_i): an upset of s reaches
    exactly the FFs whose p_i is 1, so every nonempty subset of the 10 FFs
    is a pattern, and the support (17 nets) is above the limit."""
    lines = [f"INPUT(a{j})" for j in range(7)] + [f"INPUT(p{i})" for i in range(10)]
    lines.append(f"s = XOR({', '.join(f'a{j}' for j in range(7))})")
    for i in range(10):
        lines += [f"d{i} = AND(s, p{i})", f"f{i} = DFF(d{i})", f"OUTPUT(f{i})"]
    c = parse_bench("\n".join(lines))
    return c, sites_by_name(c)["s"]


def test_harvest_takes_few_solves_on_wide_fanout():
    c, site = wide_fanout()
    assert len(site_support(c, site)) > SIM_SUPPORT_LIMIT
    r = analyze_sites(c, [site])["s"]
    assert r.engine == "sat" and r.complete and not r.overflow
    assert pattern_set(r) == {
        m for size in range(1, 11) for m in combinations(range(10), size)
    }
    assert r.solves * 10 < len(r.patterns)  # one call a pattern would be 1,024 calls


def test_flood_reaches_patterns_beyond_the_first_ball():
    """A radius-1 ball around one model holds at most 11 of wide_fanout's
    1,023 patterns, but every pattern is one flip-flop away from another:
    the flood's waves list them all from the first model, and the second
    solve proves that none is left."""
    c, site = wide_fanout()
    r = enumerate_patterns(c, site)
    assert r.complete and len(r.patterns) == 1023
    assert r.solves == 2


def test_cube_blocking_adds_fewer_clauses_than_patterns():
    c, site = wide_fanout()
    f = encode_cnf(build_miter(c, site), c)
    added = []
    add_clause = CdclSolver.add_clause

    def recording(self, lits):
        added.append(list(lits))
        add_clause(self, added[-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CdclSolver, "add_clause", recording)
        r = enumerate_patterns(c, site)
    assert r.complete and len(r.patterns) == 1023
    assert added[: len(f.clauses)] == [list(cl) for cl in f.clauses]
    blocking = added[len(f.clauses) + 1 :]  # after "some difference is observed"
    dvars = set(f.diff_vars.values())
    assert all(abs(lit) in dvars for cl in blocking for lit in cl)
    assert len(blocking) < len(r.patterns)  # one clause a pattern would be 1,023


@pytest.mark.parametrize("k", range(1, 9))
def test_blocking_cube_is_a_maximal_listed_subcube(k):
    import random

    rng = random.Random(k)
    for density in (0.2, 0.5, 0.8, 1.0):
        listed = {v for v in range(1, 1 << k) if rng.random() < density}
        for v in listed:
            base, free, members = _blocking_cube(v, listed, k)
            assert base & free == 0 and v & ~free == base
            cube = [base | sub for sub in range(1 << k) if sub & ~free == 0]
            assert sorted(members) == cube and set(cube) <= listed
            for j in range(k):
                if not free >> j & 1:
                    assert any(u ^ 1 << j not in listed for u in cube), (v, j)


def test_distinct_patterns_sets_bit_j_for_the_jth_flip_flop():
    """Seven assignments over flip-flops 0..3, of which 2 never differs:
    each vector is a mask with bit j for the j-th difference mask, given
    with its lowest assignment; assignment 6 upsets nothing and is dropped,
    and assignment 5 repeats the vector of assignment 0."""
    diffs = [0b0000110, 0b0110011, 0, 0b0011010]
    leaves = _distinct_patterns(diffs, 0b1111111)
    assert sorted(leaves, key=_canonical) == [
        (0b0001, 2), (0b0010, 0), (0b1000, 3), (0b1010, 4), (0b1011, 1)
    ]
    assert _distinct_patterns(diffs, 0b1111111, limit=2) == leaves[:2]


def test_sat_model_that_simulation_contradicts_raises(b01ish, monkeypatch):
    """A SAT model whose simulated assignment upsets no flip-flop stops the
    analysis, and the message names the model's flip-flops by id."""
    real = propagation._neighbourhood_diffs

    def no_difference(c, m, seeds):
        diffs, full = real(c, m, seeds)
        return [0] * len(diffs), full

    monkeypatch.setattr(propagation, "_neighbourhood_diffs", no_difference)
    msg = "site 'line1': the SAT model's difference vector (0, 1, 2, 3, 4) is not what simulating"
    with pytest.raises(RuntimeError, match=re.escape(msg)):
        enumerate_patterns(b01ish, sites_by_name(b01ish)["line1"])


def test_listed_vector_left_unblocked_raises(b01ish, monkeypatch):
    """A blocking clause over the complement of each listed vector leaves
    them unblocked: the solver returns a listed vector, which stops the
    analysis, and the message names its flip-flops by id."""

    def complement(v, listed, k):
        return v ^ ((1 << k) - 1), 0, [v]

    monkeypatch.setattr(propagation, "_blocking_cube", complement)
    msg = "site 'line1': the listed vector (0, 1, 2, 3, 4) was not blocked"
    with pytest.raises(RuntimeError, match=re.escape(msg)):
        enumerate_patterns(b01ish, sites_by_name(b01ish)["line1"])


def test_harvest_overshooting_cap_lists_cap_real_patterns():
    c = make_random_circuit(1, n_pis=6, n_ffs=24, n_gates=90, n_pos=2)
    site = sites_by_name(c)["n4"]  # support 19, 41 patterns
    real = {p.ffs.members for p in exhaustive_patterns(c, site)}
    full = enumerate_patterns(c, site)
    assert full.complete and pattern_set(full) == real
    r = enumerate_patterns(c, site, cap=3)
    assert r.solves == 1  # the first flood alone passed the cap
    assert r.overflow and not r.complete and not r.unknown
    assert len(r.patterns) == 3 and pattern_set(r) <= real
    assert r.effective_sets() == (FFSet(site.static_ffs),)
    exact = enumerate_patterns(c, site, cap=len(real))
    assert exact.complete and not exact.overflow
    assert pattern_set(exact) == real


def test_neighbourhood_bits_match_scalar_simulation():
    """Bit b of one flood wave's difference masks is the difference vector,
    as `oracle.simulate` gives it, of the assignment that the flood reads
    back as bit b's witness: a seed of the wave with some support nets of
    the Hamming ball flipped."""
    import random

    rng = random.Random(5)
    c = make_random_circuit(0, n_pis=6, n_ffs=24, n_gates=90, n_pos=2)
    work = [s for s in enumerate_fault_sites(c) if s.static_ffs]
    for site in sorted(work, key=lambda s: -len(site_support(c, s)))[:4]:
        support = site_support(c, site)
        k = len(support)
        seeds = [rng.getrandbits(k) for _ in range(3)]
        diffs, full = _neighbourhood_diffs(c, build_miter(c, site), seeds)
        ball, width, _, _ = _flip_masks(k, propagation.HARVEST_RADIUS)
        assert full == sum(ball << s * width for s in range(len(seeds)))
        for b in range(full.bit_length()):
            witness = _ball_assignment(seeds, b, k)
            if b % width == 0:
                assert witness == seeds[b // width]
            assignment = {n: False for n in range(c.num_nets) if c.driver[n][0] != "gate"}
            assignment.update({net: bool(witness >> j & 1) for j, net in enumerate(support)})
            good = simulate(c, assignment)
            bad = simulate(c, assignment, forced_flip=site.site_net)
            want = [good[c.flipflops[f].d_net] != bad[c.flipflops[f].d_net] for f in site.static_ffs]
            assert [bool(d >> b & 1) for d in diffs] == want


@pytest.mark.parametrize("k", range(1, 11))
def test_var_mask_matches_definition(k):
    for v in range(k):
        assert _var_mask(v, k) == sum(((i >> v) & 1) << i for i in range(1 << k))


@pytest.mark.parametrize("arity,kind", GATE_CASES)
def test_eval_gate_masked_matches_scalar_reference(kind, arity):
    """Bit i of the bit-parallel output is the scalar reference's output
    under the assignment whose input j is (i >> j) & 1."""
    names = [f"i{j}" for j in range(arity)] + ["o"]
    c = build_circuit(names, [(kind, tuple(range(arity)), arity)], [], range(arity), [arity])
    full = (1 << (1 << arity)) - 1
    values = {j: _var_mask(j, arity) for j in range(arity)}
    _evaluate(c, [0], values, full)
    v = values[arity]
    assert v & ~full == 0
    for i in range(1 << arity):
        assert bool(v >> i & 1) == _eval_gate(kind, [bool(i >> j & 1) for j in range(arity)])


@pytest.mark.parametrize("radius", range(3))
@pytest.mark.parametrize("k", range(1, 7))
def test_flip_masks_cover_the_hamming_ball_once(k, radius):
    full, width, flips, offsets = _flip_masks(k, radius)
    bits = full.bit_length()
    assert full == (1 << bits) - 1 and all(fl & ~full == 0 for fl in flips)
    assert width == max(bits, k)
    flipped = [tuple(j for j in range(k) if flips[j] >> b & 1) for b in range(bits)]
    assert flipped[0] == ()
    want = [m for r in range(radius + 1) for m in combinations(range(k), r)]
    assert flipped == want
    assert offsets == tuple(sum(1 << j for j in m) for m in want)


def dimacs_vectors(text):
    """The flip-flop names of each difference vector a DIMACS miter of
    `export_site_cnf` allows, each model's vector blocked in turn."""
    nv, clauses = parse_dimacs(text)
    diff = {int(v): name for v, name in re.findall(r"^c var (\d+): diff (\S+)$", text, re.M)}
    found = set()
    while (r := solve_cnf(nv, clauses)).status == SAT:
        found.add(frozenset(name for v, name in diff.items() if r.model[v]))
        clauses.append([-v if r.model[v] else v for v in diff])
    return found


@pytest.mark.parametrize(
    "call", ["sim", "sat", "build_miter", "export_site_cnf", "sweep_of_another_support"]
)
def test_sweep_of_another_region_rejected(divergent3, call):
    """Every reader of a region refuses one that does not hold the site's
    flip-flops, and the simulation engine a `region` other than the one its
    sweep is of.  Each accepts a larger region that holds the site's
    flip-flops, and gives over it what it gives over the site's own."""
    sites = sites_by_name(divergent3)
    x = sites["x"]
    small = build_region(divergent3, sites["c"].static_ffs)   # f1, f2: not x's f3
    large = build_region(divergent3, x.static_ffs)            # every flip-flop

    def run(site, region):
        if call in ("sim", "sweep_of_another_support"):
            return enumerate_patterns(divergent3, site, sweep=_sweep(divergent3, region))
        if call == "sat":
            return pattern_set(enumerate_patterns(divergent3, site, region=region))
        if call == "build_miter":
            return build_miter(divergent3, site, region).dup_gates
        return dimacs_vectors(export_site_cnf(divergent3, site, region))

    with pytest.raises(ValueError):
        if call == "sweep_of_another_support":
            # x's sweep (support x, c) holds every net of xb's region (support x)
            xb = sites["xb"]
            own = build_region(divergent3, xb.static_ffs)
            enumerate_patterns(divergent3, xb, region=own, sweep=_sweep(divergent3, large))
        else:
            run(x, small)
    # c's region lacks xb's gate; xb's has a smaller support than the large one
    for name in ("c", "xb"):
        site = sites[name]
        own = build_region(divergent3, site.static_ffs)
        assert own != large
        assert run(site, large) == run(site, own)


# -- optimize_sets -----------------------------------------------------------------


def motivational_static():
    universe = ("ff1", "ff2", "ff3", "ff4")
    return SetCollection(
        universe,
        (
            ("x", ffset([0, 1, 2, 3])),
            ("and1", ffset([0, 1, 2, 3])),
            ("or1", ffset([0, 1])),
            ("or2", ffset([1, 2])),
        ),
    )


def mk_result(site, vectors, static):
    return PatternResult(
        site=site,
        patterns=tuple(DifferencePattern(site, ffset(v)) for v in vectors),
        overflow=False,
        unknown=False,
        static_ffs=static,
    )


def maximal_by_definition(r):
    """`effective_sets` of a complete result as the quadratic definition
    gives it: every set with no strict superset, in pattern order, once."""
    sets = [frozenset(p.ffs.members) for p in r.patterns]
    keep = [s for s in sets if not any(s < t for t in sets)]
    return tuple(FFSet(tuple(sorted(s))) for s in dict.fromkeys(keep))


def test_effective_sets_match_quadratic_definition():
    static = ffset(range(6))
    crafted = mk_result(
        "s",
        # duplicates, the chain {1} < {1,2} < {1,2,3,5}, and two incomparable
        # maximal sets, the larger one listed last
        [[1], [4], [1, 2], [1], [0, 4, 5], [1, 2, 3, 5], [4, 5], [1, 2, 3, 5], [0, 4, 5], [2, 3]],
        static,
    )
    assert crafted.effective_sets() == (ffset([0, 4, 5]), ffset([1, 2, 3, 5]))
    results = [crafted]
    for c in corpus(12345, 200, max_gates=40, max_ffs=8, max_pis=6):
        results += analyze_sites(c, enumerate_fault_sites(c)).values()
    assert sum(len(r.patterns) > 1 for r in results) > 100
    for r in results:
        assert r.effective_sets() == maximal_by_definition(r)
        # the listed patterns' own sets, not copies
        listed = {id(p.ffs) for p in r.patterns}
        assert all(id(s) in listed for s in r.effective_sets())


def test_optimize_motivational_transformation():
    static = motivational_static()
    results = {
        "x": mk_result("x", [[0, 1, 2]], ffset([0, 1, 2, 3])),
        "and1": mk_result("and1", [[0, 3], [1, 2]], ffset([0, 1, 2, 3])),
        "or1": mk_result("or1", [[0, 1]], ffset([0, 1])),
        "or2": mk_result("or2", [[1, 2]], ffset([1, 2])),
    }
    opt = optimize_sets(static, results)
    assert {s.members for s in opt.unique_sets} == {(0, 1), (1, 2), (0, 3), (0, 1, 2)}
    assert opt.num_unique == 4
    # raw keeps the duplicate (1,2) from or2 and and1
    assert opt.num_sets == 5


def test_optimize_cone_rows_multiplicities():
    universe = ("A", "B", "C", "D")
    static = SetCollection(
        universe,
        (
            ("cone:A", ffset([0, 1])),
            ("cone:B", ffset([0, 1, 2])),
            ("cone:C", ffset([1, 2, 3])),
            ("cone:D", ffset([2, 3])),
        ),
    )
    results = {
        "cone:A": mk_result("cone:A", [[0, 1]], ffset([0, 1])),
        "cone:B": mk_result("cone:B", [[0, 1]], ffset([0, 1, 2])),
        "cone:C": mk_result("cone:C", [[2]], ffset([1, 2, 3])),
        "cone:D": mk_result("cone:D", [[3]], ffset([2, 3])),
    }
    opt = optimize_sets(static, results)
    assert [s.members for _, s in opt.raw_sets] == [(0, 1), (0, 1), (2,), (3,)]
    assert [s.multiplicity for _, s in opt.raw_sets] == [2, 2, 1, 1]
    assert opt.num_unique == 3


def test_optimize_fixed_point_when_fully_sensitizable(wire):
    c = parse_bench("INPUT(a)\nb1 = BUFF(a)\nb2 = BUFF(b1)\nf = DFF(b2)\nOUTPUT(f)")
    for circuit in (wire, c):
        sites = enumerate_fault_sites(circuit)
        static = collect_static_sets(circuit, sites)
        opt = optimize_sets(static, analyze_sites(circuit, sites))
        assert opt.unique_sets == static.unique_sets
        assert opt.num_sets == static.num_sets


def test_optimize_keeps_maximal_vectors_only():
    static = SetCollection(("a", "b"), (("s", ffset([0, 1])),))
    results = {"s": mk_result("s", [[0], [0, 1]], ffset([0, 1]))}
    opt = optimize_sets(static, results)
    assert [s.members for _, s in opt.raw_sets] == [(0, 1)]


def test_optimize_requires_result_per_site():
    static = SetCollection(("a",), (("s", ffset([0])),))
    with pytest.raises(ValueError):
        optimize_sets(static, {})


# -- DIMACS export ------------------------------------------------------------------


def test_export_site_cnf_round_trips_and_solves(divergent):
    s = sites_by_name(divergent)["x"]
    text = export_site_cnf(divergent, s)
    assert "miter for SET site x" in text
    assert "good x" in text and "diff f1" in text
    nv, clauses = parse_dimacs(text)
    assert solve_cnf(nv, clauses).status == SAT
    s2 = sites_by_name(parse_bench(open("tests/data/reconv.bench").read()))["x"]
    c2 = parse_bench(open("tests/data/reconv.bench").read())
    nv2, clauses2 = parse_dimacs(export_site_cnf(c2, sites_by_name(c2)["x"]))
    assert solve_cnf(nv2, clauses2).status == UNSAT
