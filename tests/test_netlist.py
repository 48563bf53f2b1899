from dataclasses import astuple

import pytest

from set2seu import (
    NetlistError,
    circuit_from_json,
    circuit_to_json,
    parse_bench,
    to_bench,
)
from set2seu.random_circuits import corpus, make_random_circuit

SMALLEST = "INPUT(a)\nINPUT(b)\ng = AND(a,b)\nf = DFF(g)\nOUTPUT(f)"


def test_parse_smallest_ff_circuit():
    c = parse_bench(SMALLEST)
    assert len(c.gates) == 1
    assert len(c.flipflops) == 1
    assert len(c.primary_inputs) == 2
    assert len(c.primary_outputs) == 1


def test_undefined_net_reports_line():
    with pytest.raises(NetlistError) as ei:
        parse_bench("g = AND(a,b)")
    assert "line 1" in str(ei.value)
    assert ei.value.line == 1


def test_three_gate_chain_counts():
    c = parse_bench("INPUT(x)\ny = NOT(x)\nz = AND(x,y)\nf = DFF(z)")
    assert len(c.gates) == 2
    assert len(c.flipflops) == 1
    assert c.num_nets == 4


def test_stats_empty_circuit():
    c = parse_bench("")
    assert astuple(c.stats()) == (0, 0, 0, 0, 0)


def test_stats_smallest():
    # nets are a, b, g and the FF output f
    c = parse_bench(SMALLEST)
    assert astuple(c.stats()) == (1, 1, 2, 1, 4)


def test_stats_b01ish_ff_count(b01ish):
    assert b01ish.stats().num_ffs == 5


def test_excluded_counted_in_nets():
    c = parse_bench(SMALLEST, exclude=["a"])
    assert c.net_id("a") in c.excluded
    assert c.stats().num_nets == 4


def test_unknown_exclude_name_rejected():
    with pytest.raises(NetlistError) as ei:
        parse_bench(SMALLEST, exclude=["nope"])
    assert "excluded net 'nope' does not exist" in str(ei.value)
    assert ei.value.line is None


# (text, fragment, line): each error names the line of the net's last INPUT,
# gate or DFF definition, or of its first mention when it has none; syntax
# errors name their own line.
_BENCH_ERRORS = [
    ("INPUT(a)\nINPUT(a)\n", "multiple drivers", 2),
    ("INPUT(a)\na = NOT(a)\n", "multiple drivers", 2),
    ("INPUT(a)\nINPUT(b)\nx = AND(a,b)\nx = OR(a,b)\n", "multiple drivers", 4),
    ("x = NOT(a)\n\nINPUT(a)\nINPUT(a)\n", "net 'a' has multiple drivers", 4),
    ("f = DFF(g)\nINPUT(a)\ng = NOT(f)\nf = DFF(a)\n", "net 'f' has multiple drivers", 4),
    ("INPUT(a)\nx = AND(a,y)\ny = OR(a,x)\n", "cycle", 2),
    ("INPUT(a)\nOUTPUT(x)\nx = NOT(x)\n", "cycle through net(s): x", 3),
    ("INPUT(a)\nINPUT(b)\nx = NOT(a,b)\n", "exactly 1 input", 3),
    ("INPUT(a)\nx = AND(a)\n", "at least 2 inputs", 2),
    ("INPUT(a)\nx = AND(  )\n", "at least 2 inputs", 2),
    ("INPUT(a)\nINPUT(b)\nf = DFF(a,b)\n", "exactly 1 input", 3),
    ("INPUT(a)\nx = MAJ(a,a,a)\n", "unknown gate kind", 2),
    ("q = DFF(q)\n", "feeds its own output", 1),
    ("INPUT(a)\nOUTPUT(z)\n", "never defined", 2),
    ("INPUT(a)\nOUTPUT(z)\nx = NOT(a)\n", "'z' is never defined", 2),
    (
        "INPUT(a)\nINPUT(b)\n\n# c\nx = AND(a,u)\nOUTPUT(x)\ny = OR(u,a)\n",
        "'u' is never defined",
        5,
    ),
    ("INPUT(a)\nx = NOT(a)\ny = DFF(x)\nz = DFF(q)\n", "'q' is never defined", 4),
    ("INPUT(a)\nx = AND(a, b c)\nOUTPUT(x)\n", "net name 'b c' cannot be written", 2),
    ("INPUT(a)\nINPUT(b)\nx = AND(a,,b)\n", "empty argument", 3),
    ("INPUT(a)\nx = AND( , )\n", "empty argument", 2),
    ("INPUT(a)\nwhat is this\n", "cannot parse", 2),
    ("INPUT(a)\nx = AND(a, ( )\n", "cannot parse", 2),
]


# each case is named by its text and fragment
@pytest.mark.parametrize(
    "text,fragment,line", _BENCH_ERRORS, ids=[f"{t}-{f}" for t, f, _ in _BENCH_ERRORS]
)
def test_validation_errors(text, fragment, line):
    with pytest.raises(NetlistError) as ei:
        parse_bench(text)
    assert fragment in str(ei.value)
    assert ei.value.line == line


# the one gate of SMALLEST: g = AND(a, b)
_AND_GATE = {"id": 0, "kind": "AND", "inputs": [0, 1], "output": 2}


def _json_circuit(**changes):
    """SMALLEST as a JSON circuit (nets a, b, g, f) with top-level keys replaced; None drops one."""
    data = circuit_to_json(parse_bench(SMALLEST))
    data.update(changes)
    return {k: v for k, v in data.items() if v is not None}


@pytest.mark.parametrize(
    "data,fragment",
    [
        (
            _json_circuit(gates=[{"id": 0, "kind": "AND", "inputs": [0, 7], "output": 2}]),
            "not an id",
        ),
        (_json_circuit(excluded=[-1]), "not an id"),
        (_json_circuit(inputs=None), "no key 'inputs'"),
        (_json_circuit(inputs=[0, 1, 0]), "multiple drivers"),
        (
            _json_circuit(nets=[{"id": i, "name": n} for i, n in enumerate("abgfz")]),
            "'z' is never defined",
        ),
        (
            _json_circuit(
                nets=[{"id": i, "name": n} for i, n in enumerate("abgfh")],
                gates=[_AND_GATE, {"id": 0, "kind": "NOT", "inputs": [2], "output": 4}],
                outputs=[3, 4],
            ),
            "gate ids must be",
        ),
        (_json_circuit(gates=[dict(_AND_GATE, id=7)]), "gate ids must be"),
        (_json_circuit(ffs=[{"id": 1, "name": "f", "d": 2, "q": 3}]), "flip-flop ids must be"),
        (
            _json_circuit(nets=[{"id": i, "name": n} for i, n in zip([0, 1, 2, 2], "abgf")]),
            "net ids must be",
        ),
        (
            _json_circuit(nets=[{"id": i, "name": n} for i, n in zip([0, True, 2, 3], "abgf")]),
            "net ids must be",
        ),
        (
            _json_circuit(nets=[{"id": i, "name": n} for i, n in zip([0, 1.0, 2, 3], "abgf")]),
            "net ids must be",
        ),
        (_json_circuit(gates=[dict(_AND_GATE, id="0")]), "gate ids must be"),
        (
            _json_circuit(
                nets=[{"id": i, "name": n} for i, n in enumerate("abgfh")],
                ffs=[
                    {"id": 0, "name": "f", "d": 2, "q": 3},
                    {"id": 1, "name": "f", "d": 2, "q": 4},
                ],
                outputs=[3, 4],
            ),
            "duplicate flip-flop name 'f'",
        ),
    ],
    ids=[
        "gate_input_out_of_range",
        "negative_excluded",
        "missing_inputs",
        "duplicate_pi",
        "undriven_net",
        "duplicate_gate_id",
        "gapped_gate_id",
        "gapped_ff_id",
        "duplicate_net_id",
        "bool_net_id",
        "float_net_id",
        "string_gate_id",
        "duplicate_ff_name",
    ],
)
def test_json_validation_errors(data, fragment):
    with pytest.raises(NetlistError) as ei:
        circuit_from_json(data)
    assert fragment in str(ei.value)


@pytest.mark.parametrize("name", ["", "a b", "a\tb", "a(", "a)", "a,b", "a=b", "a#b"])
def test_json_names_that_bench_cannot_write_are_rejected(name):
    nets = [{"id": i, "name": n} for i, n in enumerate([name, "b", "g", "f"])]
    with pytest.raises(NetlistError) as ei:
        circuit_from_json(_json_circuit(nets=nets))
    assert f"net name {name!r} cannot be written in .bench" in str(ei.value)
    ffs = [{"id": 0, "name": name, "d": 2, "q": 3}]
    with pytest.raises(NetlistError) as ei:
        circuit_from_json(_json_circuit(ffs=ffs))
    assert f"flip-flop name {name!r} cannot be written in .bench" in str(ei.value)


def test_duplicate_output_collapsed_in_both_formats():
    c = parse_bench(SMALLEST + "\nOUTPUT(f)")
    data = _json_circuit(outputs=[c.net_id("f")] * 2)
    assert circuit_from_json(data).stats() == c.stats() == parse_bench(SMALLEST).stats()


def test_duplicate_input_error_points_at_second_declaration():
    with pytest.raises(NetlistError) as ei:
        parse_bench("INPUT(a)\nINPUT(b)\nINPUT(a)\ng = AND(a,b)")
    assert "multiple drivers" in str(ei.value)
    assert ei.value.line == 3


def test_duplicate_gate_error_points_at_second_definition():
    with pytest.raises(NetlistError) as ei:
        parse_bench("INPUT(a)\nINPUT(b)\nx = AND(a,b)\nx = OR(a,b)")
    assert ei.value.line == 4


def test_crlf_comments_and_case():
    text = "INPUT(a)\r\nINPUT(A)\r\n# comment\r\ng = and(a, A)  # trailing\r\nOUTPUT(g)\r\n"
    c = parse_bench(text)
    assert len(c.primary_inputs) == 2  # names are case-sensitive
    assert c.gates[0].kind == "AND"    # kinds are not


def _shape(c):
    """Name-based structural signature for isomorphism checks."""
    gates = sorted(
        (g.kind, tuple(sorted(c.net_names[i] for i in g.inputs)), c.net_names[g.output])
        for g in c.gates
    )
    ffs = sorted((c.net_names[f.d_net], c.net_names[f.q_net]) for f in c.flipflops)
    pis = sorted(c.net_names[n] for n in c.primary_inputs)
    pos = sorted(c.net_names[n] for n in c.primary_outputs)
    return gates, ffs, pis, pos


@pytest.mark.parametrize("name", ["cone_chain", "fanout_demo", "b01ish", "wire"])
def test_bench_round_trip(name, request):
    c = request.getfixturevalue(name)
    c2 = parse_bench(to_bench(c))
    assert _shape(c) == _shape(c2)
    assert c.stats() == c2.stats()


def test_json_round_trip(fanout_demo):
    data = circuit_to_json(fanout_demo)
    c2 = circuit_from_json(data)
    assert _shape(fanout_demo) == _shape(c2)
    assert fanout_demo.stats() == c2.stats()


def test_topo_order_valid_and_stable(b01ish):
    pos_of = {gid: i for i, gid in enumerate(b01ish.topo_gates)}
    assert sorted(pos_of) == list(range(len(b01ish.gates)))
    for g in b01ish.gates:
        for n in g.inputs:
            kind, idx = b01ish.driver[n]
            if kind == "gate":
                assert pos_of[idx] < pos_of[g.id]
    again = parse_bench(to_bench(b01ish))
    assert parse_bench(to_bench(b01ish)).topo_gates == again.topo_gates


def _kahn_smallest_ready_first(c):
    """Reference topological order: at each step the smallest gate id whose
    gate-driven inputs are all placed."""
    placed: set[int] = set()
    order = []
    while True:
        ready = [
            g.id for g in c.gates
            if g.id not in placed
            and all(c.driver[n][0] != "gate" or c.driver[n][1] in placed for n in g.inputs)
        ]
        if not ready:
            return tuple(order)
        order.append(min(ready))
        placed.add(order[-1])


def test_topo_order_is_smallest_ready_id_first_on_corpus():
    circuits = corpus(12345, 200, max_gates=40, max_ffs=8, max_pis=6)
    circuits += [make_random_circuit(s, n_pis=8, n_ffs=10, n_gates=300, n_pos=4) for s in (1, 2)]
    for c in circuits:
        assert c.topo_gates == _kahn_smallest_ready_first(c)


def test_ff_d_and_q_are_distinct(b01ish, cone_chain):
    for c in (b01ish, cone_chain):
        for f in c.flipflops:
            assert f.d_net != f.q_net


def test_single_driver_invariant(b01ish):
    drive_count = [0] * b01ish.num_nets
    for n in b01ish.primary_inputs:
        drive_count[n] += 1
    for g in b01ish.gates:
        drive_count[g.output] += 1
    for f in b01ish.flipflops:
        drive_count[f.q_net] += 1
    assert all(d == 1 for d in drive_count)
