import itertools
from functools import partial

import pytest

from set2seu import parse_bench
from set2seu.cones import enumerate_fault_sites, site_support
from set2seu.oracle import _var_mask, brute_force_sat, exhaustive_patterns, simulate
from set2seu.random_circuits import make_random_circuit
from set2seu.solver import SAT, UNSAT


def test_simulate_and_gate_and_flip():
    c = parse_bench("INPUT(a)\nINPUT(b)\ng = AND(a,b)\nf = DFF(g)\nOUTPUT(f)")
    a, b, g = c.net_id("a"), c.net_id("b"), c.net_id("g")
    assert simulate(c, {a: True, b: True})[g] is True
    assert simulate(c, {a: True, b: True}, forced_flip=g)[g] is False


def test_simulate_xor_chain_parity():
    c = parse_bench("INPUT(a)\nINPUT(b)\nINPUT(d)\nx1 = XOR(a,b)\nx2 = XOR(x1,d)\nf = DFF(x2)")
    vals = simulate(c, {c.net_id("a"): True, c.net_id("b"): False, c.net_id("d"): True})
    assert vals[c.net_id("x2")] is False


def test_simulate_flip_on_input_net(wire):
    x = wire.net_id("x")
    assert simulate(wire, {x: True}, forced_flip=x)[x] is False


def test_simulate_incomplete_assignment():
    c = parse_bench("INPUT(a)\nINPUT(b)\ng = AND(a,b)\nf = DFF(g)")
    with pytest.raises(ValueError) as ei:
        simulate(c, {c.net_id("a"): True})
    assert "incomplete assignment" in str(ei.value)


def test_var_mask_bits():
    k = 4
    for v in range(k):
        m = _var_mask(v, k)
        for i in range(1 << k):
            assert (m >> i) & 1 == (i >> v) & 1


def test_exhaustive_wire(wire):
    (site,) = enumerate_fault_sites(wire)
    pats = exhaustive_patterns(wire, site)
    assert [p.ffs.members for p in pats] == [(0,)]


def test_exhaustive_divergent(divergent):
    sites = {divergent.net_names[s.site_net]: s for s in enumerate_fault_sites(divergent)}
    pats = {p.ffs.members for p in exhaustive_patterns(divergent, sites["x"])}
    assert pats == {(0,), (1,)}


def test_exhaustive_reconvergent_false_path(reconv):
    sites = {reconv.net_names[s.site_net]: s for s in enumerate_fault_sites(reconv)}
    assert exhaustive_patterns(reconv, sites["x"]) == []


def test_support_limit_refusal(divergent):
    sites = {divergent.net_names[s.site_net]: s for s in enumerate_fault_sites(divergent)}
    with pytest.raises(ValueError) as ei:
        exhaustive_patterns(divergent, sites["x"], support_limit=1)
    assert "refusing" in str(ei.value)


def _naive_patterns(c, site):
    """Reference for the bit-parallel sweep: one simulate() call per assignment.

    Inputs outside the affected cones cannot influence the compared D nets,
    so they are pinned to 0 to make the full-circuit simulation total.
    """
    support = site_support(c, site)
    others = {
        n: False
        for n in range(c.num_nets)
        if c.driver[n][0] != "gate" and n not in support
    }
    found = set()
    for bits in itertools.product([False, True], repeat=len(support)):
        a = dict(zip(support, bits)) | others
        good = simulate(c, a)
        bad = simulate(c, a, forced_flip=site.site_net)
        members = tuple(
            f for f in site.static_ffs
            if good[c.flipflops[f].d_net] != bad[c.flipflops[f].d_net]
        )
        if members:
            found.add(members)
    return found


def _fanout70():
    """Stem s feeds 70 FFs through mixed gates: a site wider than 64 FFs
    whose support is only the 4 PIs."""
    lines = ["INPUT(a)", "INPUT(b)", "INPUT(c)", "INPUT(e)", "s = XOR(a, b)"]
    gates = ["AND(s, c)", "OR(s, e)", "XOR(s, c)", "NAND(s, c, e)", "NOR(s, e)", "BUFF(s)"]
    for i in range(70):
        lines += [f"d{i} = {gates[i % len(gates)]}", f"f{i} = DFF(d{i})", f"OUTPUT(f{i})"]
    return parse_bench("\n".join(lines))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(partial(make_random_circuit, s * 31 + 2, n_pis=3, n_ffs=3, n_gates=12), id=str(s))
        for s in range(20)
    ]
    + [pytest.param(_fanout70, id="fanout70")],
)
def test_bitparallel_matches_naive_simulation(make):
    c = make()
    for site in enumerate_fault_sites(c):
        if not site.static_ffs:
            continue
        fast = [p.ffs.members for p in exhaustive_patterns(c, site)]
        assert fast == sorted(_naive_patterns(c, site), key=lambda m: (len(m), m))


def test_brute_force_sat_basics():
    assert brute_force_sat(1, [[1], [-1]]).status == UNSAT
    res = brute_force_sat(2, [[1, 2], [-1, 2]])
    assert res.status == SAT
    assert res.model[2] is True
    with pytest.raises(ValueError):
        brute_force_sat(30, [[1]])


def test_simulation_agrees_with_cnf_models_on_random_assignments():
    import random

    from set2seu.propagation import build_miter, encode_cnf
    from set2seu.solver import solve_cnf

    c = make_random_circuit(2024, n_pis=4, n_ffs=4, n_gates=30)
    site = next(s for s in enumerate_fault_sites(c) if s.static_ffs)
    m = build_miter(c, site)
    f = encode_cnf(m, c)
    rng = random.Random(55)
    others = {
        n: False for n in range(c.num_nets) if c.driver[n][0] != "gate"
    }
    for _ in range(100):
        bits = {net: rng.random() < 0.5 for net in site_support(c, site)}
        assumptions = [
            f.good_vars[net] if v else -f.good_vars[net] for net, v in bits.items()
        ]
        res = solve_cnf(f.num_vars, f.clauses, assumptions=assumptions)
        assert res.status == SAT  # circuit clauses are always satisfiable
        vals = simulate(c, others | bits)
        for net in (*m.region.support, *(c.gates[g].output for g in m.region.gates)):
            assert res.model[f.good_vars[net]] == vals[net]
