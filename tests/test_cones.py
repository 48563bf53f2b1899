import random

import pytest

from set2seu import parse_bench
from set2seu.cones import (
    FFR_TERMINAL,
    STEM,
    _select,
    all_cones,
    cone_ff_set,
    enumerate_fault_sites,
    static_ff_set,
)
from set2seu.netlist import NetlistError, to_bench
from set2seu.random_circuits import make_random_circuit


def names(c, ids):
    return sorted(c.net_names[n] for n in ids)


def ff_names(c, ids):
    return [c.flipflops[f].name for f in ids]


def backward_closure(c, ff_id):
    """Reference cone closure: walk back from the D pin, stopping at PIs and FF Qs."""
    d = c.flipflops[ff_id].d_net
    seen = {d}
    stack = [d]
    while stack:
        kind, idx = c.driver[stack.pop()]
        if kind != "gate":
            continue
        for src in c.gates[idx].inputs:
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return seen


def test_degenerate_cone_d_is_pi(wire):
    cone = all_cones(wire)[0]
    # boundary net doubles as the D net: it is the single member, no gates
    assert names(wire, cone.member_nets) == ["x"]
    assert cone.support == frozenset()


def test_degenerate_cone_d_is_ff_output():
    c = parse_bench("INPUT(a)\nq1 = DFF(a)\nq2 = DFF(q1)\nOUTPUT(q2)")
    cone = all_cones(c)[1]
    assert names(c, cone.member_nets) == ["q1"]
    assert cone.support == frozenset()


def test_two_gate_chain_cone():
    c = parse_bench("INPUT(p)\nINPUT(q)\nn1 = NOT(p)\nn2 = AND(n1, q)\nf = DFF(n2)\nOUTPUT(f)")
    cone = all_cones(c)[0]
    assert names(c, cone.member_nets) == ["n1", "n2"]
    assert names(c, cone.support) == ["p", "q"]


def test_cone_chain_pairwise_intersections(cone_chain):
    c = cone_chain
    closures = [k.member_nets | k.support for k in all_cones(c)]
    expect = {(0, 1): True, (1, 2): True, (2, 3): True, (0, 2): False, (0, 3): False, (1, 3): False}
    for (i, j), nonempty in expect.items():
        assert bool(closures[i] & closures[j]) == nonempty


def test_cone_chain_per_cone_sets(cone_chain):
    rows = [ff_names(cone_chain, cone_ff_set(cone_chain, f.id)) for f in cone_chain.flipflops]
    assert rows == [["A", "B"], ["A", "B", "C"], ["B", "C", "D"], ["C", "D"]]


def test_static_ff_set_single_sink(wire):
    assert ff_names(wire, static_ff_set(wire, wire.net_id("x"))) == ["f"]


def test_static_ff_set_shared_input(cone_chain):
    got = static_ff_set(cone_chain, cone_chain.net_id("x12"))
    assert ff_names(cone_chain, got) == ["A", "B"]


def test_static_ff_set_unknown_net(wire):
    with pytest.raises(NetlistError):
        static_ff_set(wire, 99)


def test_wire_site_is_ffr_terminal(wire):
    sites = enumerate_fault_sites(wire)
    assert len(sites) == 1
    s = sites[0]
    assert s.kind == FFR_TERMINAL
    assert wire.net_names[s.site_net] == "x"
    assert ff_names(wire, s.static_ffs) == ["f"]
    assert not s.po_only


def test_fanout_demo_collapsed_sites(fanout_demo):
    c = fanout_demo
    sites = enumerate_fault_sites(c)
    got = sorted(c.net_names[s.site_net] for s in sites)
    d_nets = {c.net_names[f.d_net] for f in c.flipflops}
    assert set(got) == {"x", "and1", "or1", "or2"} | d_nets
    by_name = {c.net_names[s.site_net]: s for s in sites}
    assert ff_names(c, by_name["x"].static_ffs) == ["f1", "f2", "f3", "f4"]
    assert ff_names(c, by_name["and1"].static_ffs) == ["f1", "f2", "f3", "f4"]
    assert ff_names(c, by_name["or1"].static_ffs) == ["f1", "f2"]
    assert ff_names(c, by_name["or2"].static_ffs) == ["f2", "f3"]
    assert by_name["x"].kind == STEM
    assert by_name["or1"].kind == FFR_TERMINAL  # D net that is also a stem


def test_po_only_site_flagged():
    c = parse_bench("INPUT(a)\nINPUT(b)\ny = AND(a, b)\nf = DFF(b)\nOUTPUT(y)\nOUTPUT(f)")
    sites = {c.net_names[s.site_net]: s for s in enumerate_fault_sites(c)}
    assert sites["y"].po_only and not sites["y"].static_ffs
    assert names(c, sites["y"].represented_nets) == ["a", "y"]
    assert not sites["b"].po_only


def test_excluded_nets_never_sites(cone_chain):
    from set2seu.netlist import parse_bench as pb
    from tests.conftest import DATA

    text = (DATA / "cone_chain.bench").read_text()
    c = pb(text, exclude=["x12", "pa"])
    for mode in ("collapsed", "all_nets"):
        sites = enumerate_fault_sites(c, mode)
        site_names = {c.net_names[s.site_net] for s in sites}
        assert "x12" not in site_names and "pa" not in site_names
        for s in sites:
            assert not (s.represented_nets & c.excluded)
    kept = {n for n in range(c.num_nets) if c.is_combinational(n)} - c.excluded
    assert {s.site_net for s in sites} == kept


@pytest.mark.parametrize("seed", range(8))
def test_collapsed_regions_partition_combinational_nets(seed):
    c = make_random_circuit(seed, n_pis=4, n_ffs=3, n_gates=18, n_pos=2)
    sites = enumerate_fault_sites(c)
    covered = []
    for s in sites:
        covered.extend(s.represented_nets)
    universe = [n for n in range(c.num_nets) if c.is_combinational(n)]
    assert sorted(covered) == sorted(universe)  # each net exactly once


def _wide50():
    return make_random_circuit(7, n_pis=10, n_ffs=50, n_gates=500, n_pos=10)


def _gates_reversed(c):
    """`c` parsed back from its `.bench` text with the gate lines in reverse,
    so that every gate is listed before the gates that drive it."""
    lines = to_bench(c).splitlines()
    gates = [i for i, line in enumerate(lines) if " = " in line and "DFF(" not in line]
    for i, line in zip(gates, reversed([lines[i] for i in gates])):
        lines[i] = line
    out = parse_bench("\n".join(lines))
    assert out.topo_gates != tuple(range(len(out.gates)))
    return out


DUALITY_CIRCUITS = {
    "local50": lambda: make_random_circuit(
        4242, n_pis=10, n_ffs=50, n_gates=500, n_pos=10, locality=25
    ),
    "wide50": _wide50,
    "wide50_gates_reversed": lambda: _gates_reversed(_wide50()),
}


@pytest.mark.parametrize("seed", [*range(8), *DUALITY_CIRCUITS])
def test_cone_reach_duality(seed):
    """The cones, static sets and per-cone sets read off the masks, against
    the backward closure: on small circuits, on the local50 and wide50
    designs, and on wide50 listed out of topological order."""
    if seed in DUALITY_CIRCUITS:
        c = DUALITY_CIRCUITS[seed]()
    else:
        c = make_random_circuit(seed * 7 + 1, n_pis=3, n_ffs=4, n_gates=15)
    closures = [backward_closure(c, f.id) for f in c.flipflops]
    for k, closure in zip(all_cones(c), closures):
        d = c.flipflops[k.ff_id].d_net
        assert k.member_nets == {n for n in closure if n == d or c.driver[n][0] == "gate"}
        assert k.support == closure - k.member_nets
    for net in range(c.num_nets):
        fwd = set(static_ff_set(c, net))
        bwd = {f for f, closure in enumerate(closures) if net in closure}
        assert fwd == bwd
    for f, closure in enumerate(closures):
        overlapping = {g for g, other in enumerate(closures) if other & closure}
        assert set(cone_ff_set(c, f)) == overlapping


@pytest.mark.parametrize("seed", range(8))
def test_represented_reach_subset_of_site_reach(seed):
    c = make_random_circuit(seed * 13 + 5, n_pis=4, n_ffs=4, n_gates=20)
    for s in enumerate_fault_sites(c):
        site_reach = set(s.static_ffs)
        for n in s.represented_nets:
            assert set(static_ff_set(c, n)) <= site_reach


def test_sites_sorted_and_deterministic(b01ish):
    sites = enumerate_fault_sites(b01ish)
    assert [s.site_net for s in sites] == sorted(s.site_net for s in sites)
    assert sites == enumerate_fault_sites(b01ish)


def test_all_nets_mode_covers_every_combinational_net(fanout_demo):
    c = fanout_demo
    sites = enumerate_fault_sites(c, "all_nets")
    got = {s.site_net for s in sites}
    assert got == {n for n in range(c.num_nets) if c.is_combinational(n)}
    assert all(s.represented_nets == {s.site_net} for s in sites)
    collapsed = {s.site_net for s in enumerate_fault_sites(c)}
    assert collapsed <= got


def test_all_nets_mode_rejects_bad_mode(wire):
    with pytest.raises(ValueError):
        enumerate_fault_sites(wire, "everything")


_rng = random.Random(2021)


@pytest.mark.parametrize(
    "mask",
    [0, 1, 2, 5, 1 << 63, (1 << 400) | (1 << 17) | 1, (1 << 64) - 1, 2**500 - 1]
    + [_rng.getrandbits(n) for n in (8, 64, 390, 1000)]
    + [_rng.getrandbits(512) & _rng.getrandbits(512) & _rng.getrandbits(512)],
)
def test_decode_mask_lists_set_bits(mask):
    bits = range(mask.bit_length())
    assert _select(bits, mask) == tuple(i for i in bits if mask >> i & 1)


@pytest.mark.parametrize("mode", ["collapsed", "all_nets"])
def test_sites_with_equal_masks_share_static_ffs(mode):
    c = make_random_circuit(1, n_pis=6, n_ffs=24, n_gates=90, n_pos=2)
    by_mask = {}
    for s in enumerate_fault_sites(c, mode):
        by_mask.setdefault(c.ff_reach[s.site_net], []).append(s.static_ffs)
    assert any(len(group) > 1 for group in by_mask.values())
    for group in by_mask.values():
        assert all(ffs is group[0] for ffs in group)
