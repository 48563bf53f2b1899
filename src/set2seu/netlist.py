"""Gate-level circuit model and `.bench` / JSON netlist parsing.

The circuit is a flat, immutable graph: nets are integer ids, each driven by
exactly one of a primary input, a gate output, or a flip-flop Q output.
Flip-flops cut the graph into a purely combinational (acyclic) part plus
state elements; all downstream analyses rely on that.

`GATE_KINDS` maps each gate kind to (base, inverted): its base function,
AND, OR or XOR of two or more inputs or BUFF of exactly one, and whether it
inverts the output.  NAND, NOR, XNOR and NOT are inverted AND, OR, XOR and
BUFF.  The validator, the evaluator and the CNF encoder all read this table;
the evaluator through `Circuit.gate_table`, built from it once per circuit.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from functools import cached_property
from operator import and_, or_, xor
from typing import Callable, Iterable, NamedTuple

GATE_KINDS: dict[str, tuple[str, bool]] = {
    "AND": ("AND", False),
    "OR": ("OR", False),
    "NAND": ("AND", True),
    "NOR": ("OR", True),
    "XOR": ("XOR", False),
    "XNOR": ("XOR", True),
    "NOT": ("BUFF", True),
    "BUFF": ("BUFF", False),
}

# The bitwise operator of each base function, for gates evaluated on
# integers that hold one assignment per bit.  A BUFF's one input is what
# `functools.reduce` returns, whatever the operator.
_BITWISE = {"AND": and_, "OR": or_, "XOR": xor, "BUFF": and_}
# A gate as the evaluator reads it: (operator, inverted, inputs, output).
GateRow = tuple[Callable[[int, int], int], bool, tuple[int, ...], int]

# a net or flip-flop name as `.bench` can write it: nonempty, without
# whitespace, '(', ')', ',', '=' or '#' (which starts a comment)
_NAME = r"[^\s(),=#]+"
_NAME_RE = re.compile(_NAME)
_NOT_BENCH = "cannot be written in .bench (empty, or holds whitespace, '(', ')', ',', '=' or '#')"


class NetlistError(ValueError):
    """Raised for malformed or semantically invalid netlists.

    `line` is the 1-based source line the problem was detected at, or None
    when the input has no line structure (e.g. JSON circuits).
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Gate:
    id: int
    kind: str
    inputs: tuple[int, ...]
    output: int


@dataclass(frozen=True)
class FlipFlop:
    id: int
    name: str
    d_net: int
    q_net: int


@dataclass(frozen=True)
class CircuitStats:
    num_ffs: int
    num_gates: int
    num_pis: int
    num_pos: int
    num_nets: int


class ConeMasks(NamedTuple):
    """Cones and fan-outs of a circuit as bitmasks.  A gate mask has bit i
    for the gate `topo_gates[i]`, so decoding one lists its gates in
    topological order; a net mask has bit n for net n."""

    gates: tuple[int, ...]        # per flip-flop: the gates of its fan-in cone
    support: tuple[int, ...]      # per flip-flop: net mask of the PI and FF Q nets of its cone
    downstream: tuple[int, ...]   # per net: the gates it reaches through gates


@dataclass(frozen=True)
class Circuit:
    """Immutable gate-level netlist.

    Net ids index `net_names`. `excluded` nets (clock/reset style signals)
    keep their circuit semantics but are never fault sites.
    """

    net_names: tuple[str, ...]
    gates: tuple[Gate, ...]
    flipflops: tuple[FlipFlop, ...]
    primary_inputs: tuple[int, ...]
    primary_outputs: tuple[int, ...]
    excluded: frozenset[int]

    # -- lookups ---------------------------------------------------------

    @cached_property
    def name_to_id(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.net_names)}

    def net_id(self, name: str) -> int:
        try:
            return self.name_to_id[name]
        except KeyError:
            raise NetlistError(f"unknown net '{name}'") from None

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @cached_property
    def ff_ids(self) -> tuple[int, ...]:
        """0 .. number of flip-flops - 1: the ids a flip-flop mask selects from,
        so that every decoded set shares these int objects."""
        return tuple(range(len(self.flipflops)))

    @cached_property
    def driver(self) -> tuple[tuple[str, int], ...]:
        """Per net: ("pi", -1) | ("gate", gate_id) | ("ff", ff_id)."""
        drv: list[tuple[str, int] | None] = [None] * self.num_nets
        for n in self.primary_inputs:
            drv[n] = ("pi", -1)
        for g in self.gates:
            drv[g.output] = ("gate", g.id)
        for f in self.flipflops:
            drv[f.q_net] = ("ff", f.id)
        assert all(d is not None for d in drv)
        return tuple(drv)          # type: ignore[arg-type]

    @cached_property
    def fanout_gates(self) -> tuple[tuple[int, ...], ...]:
        """Per net: gate ids consuming it."""
        out: list[list[int]] = [[] for _ in range(self.num_nets)]
        for g in self.gates:
            for n in g.inputs:
                out[n].append(g.id)
        return tuple(tuple(v) for v in out)

    @cached_property
    def fanout_ffs(self) -> tuple[tuple[int, ...], ...]:
        """Per net: flip-flop ids whose D pin it drives."""
        out: list[list[int]] = [[] for _ in range(self.num_nets)]
        for f in self.flipflops:
            out[f.d_net].append(f.id)
        return tuple(tuple(v) for v in out)

    @cached_property
    def gate_table(self) -> tuple[GateRow, ...]:
        """Per gate id: the bitwise operator of its base function, whether it
        inverts, its inputs and its output (see `GATE_KINDS`)."""
        rows = []
        for g in self.gates:
            base, inverted = GATE_KINDS[g.kind]
            rows.append((_BITWISE[base], inverted, g.inputs, g.output))
        return tuple(rows)

    @cached_property
    def topo_gates(self) -> tuple[int, ...]:
        """Gate ids in topological order (inputs before consumers).

        Kahn's algorithm, smallest ready id first for a stable order; gates
        on a combinational cycle never become ready and are left out.
        """
        indeg = [0] * len(self.gates)
        for g in self.gates:
            for n in g.inputs:
                if self.driver[n][0] == "gate":
                    indeg[g.id] += 1
        ready = [gid for gid, d in enumerate(indeg) if d == 0]  # ascending: a heap
        order: list[int] = []
        while ready:
            gid = heapq.heappop(ready)
            order.append(gid)
            for sink in self.fanout_gates[self.gates[gid].output]:
                indeg[sink] -= 1
                if indeg[sink] == 0:
                    heapq.heappush(ready, sink)
        return tuple(order)

    @cached_property
    def ff_reach(self) -> tuple[int, ...]:
        """Per net: bitmask of flip-flop ids reachable forward through gates only.

        Bit f is set iff a SET on this net can statically reach FF f's D pin
        without crossing another flip-flop.
        """
        reach = [0] * self.num_nets
        for net in range(self.num_nets):
            for f in self.fanout_ffs[net]:
                reach[net] |= 1 << f
        for gid in reversed(self.topo_gates):
            g = self.gates[gid]
            r = reach[g.output]
            for n in g.inputs:
                reach[n] |= r
        return tuple(reach)

    @cached_property
    def cone_reach(self) -> tuple[int, ...]:
        """Per flip-flop: OR of `ff_reach` over every net of its fan-in cone.

        Bit g is set iff cone(g) and cone(f) share a net, i.e. a SET inside
        f's cone can reach g.
        """
        back = list(self.ff_reach)
        for gid in self.topo_gates:
            g = self.gates[gid]
            b = back[g.output]
            for n in g.inputs:
                b |= back[n]
            back[g.output] = b
        return tuple(back[f.d_net] for f in self.flipflops)

    @cached_property
    def cone_masks(self) -> ConeMasks:
        """The fan-in cone of every flip-flop and the fan-out of every net, as
        bitmasks (see `ConeMasks`); one forward and one backward pass over
        `topo_gates`."""
        topo, table = self.topo_gates, self.gate_table
        gates = [0] * self.num_nets       # gates of each net's fan-in cone
        support = [0] * self.num_nets     # PI and FF Q nets of its cone closure
        for n, (kind, _) in enumerate(self.driver):
            if kind != "gate":
                support[n] = 1 << n
        for i, gid in enumerate(topo):
            _, _, ins, out = table[gid]
            g, s = 1 << i, 0
            for n in ins:
                g |= gates[n]
                s |= support[n]
            gates[out], support[out] = g, s
        down = [0] * self.num_nets
        for i in reversed(range(len(topo))):
            _, _, ins, out = table[topo[i]]
            d = down[out] | 1 << i
            for n in ins:
                down[n] |= d
        d_nets = [f.d_net for f in self.flipflops]
        return ConeMasks(
            tuple(gates[d] for d in d_nets), tuple(support[d] for d in d_nets), tuple(down)
        )

    def is_combinational(self, net: int) -> bool:
        """True for nets eligible as SET locations: PIs and gate outputs."""
        return self.driver[net][0] != "ff"

    def stats(self) -> CircuitStats:
        return CircuitStats(
            num_ffs=len(self.flipflops),
            num_gates=len(self.gates),
            num_pis=len(self.primary_inputs),
            num_pos=len(self.primary_outputs),
            num_nets=self.num_nets,
        )


# -- construction / validation ------------------------------------------


def build_circuit(
    net_names: Iterable[str],
    gates: Iterable[tuple[str, tuple[int, ...], int]],
    flipflops: Iterable[tuple[str | None, int, int]],
    primary_inputs: Iterable[int],
    primary_outputs: Iterable[int],
    excluded_names: Iterable[str] = (),
    line_of: Callable[[int], int | None] | None = None,
    excluded_ids: Iterable[int] = (),
) -> Circuit:
    """Validate raw netlist pieces and assemble the Circuit.

    The one structural check of every netlist source.  gates: (kind, input
    net ids, output net id); flipflops: (name or None for the Q net's name,
    d, q).  Repeated primary outputs are kept once, in first-seen order.
    line_of maps a net id to the source line an error about it names; it is
    called only for the net of an error.
    """
    names = tuple(net_names)
    where = line_of or (lambda n: None)
    ids = dict(zip(names, range(len(names))))
    if len(ids) != len(names):
        raise NetlistError("duplicate net names")
    if not all(map(_NAME_RE.fullmatch, names)):
        n = next(n for n, nm in enumerate(names) if not _NAME_RE.fullmatch(nm))
        raise NetlistError(f"net name {names[n]!r} {_NOT_BENCH}", where(n))

    gate_rows = [(k, tuple(ins), out) for k, ins, out in gates]
    ff_rows = list(flipflops)
    pis, pos, excl = tuple(primary_inputs), tuple(primary_outputs), list(excluded_ids)
    outs = [out for _, _, out in gate_rows]
    qs = [q for _, _, q in ff_rows]
    refs = [*pis, *pos, *excl, *outs, *qs, *(d for _, d, _ in ff_rows)]
    for _, ins, _ in gate_rows:
        refs += ins
    # labels are built only to name the first bad reference
    if refs and (set(map(type, refs)) != {int} or min(refs) < 0 or max(refs) >= len(names)):
        labelled = [("a primary input", pis), ("a primary output", pos), ("the excluded list", excl)]
        labelled += [(f"gate {i}", (*ins, out)) for i, (_, ins, out) in enumerate(gate_rows)]
        labelled += [(f"flip-flop {i}", (d, q)) for i, (_, d, q) in enumerate(ff_rows)]
        for what, nets in labelled:
            for n in nets:
                if type(n) is not int or not 0 <= n < len(names):
                    raise NetlistError(f"{what} refers to net {n!r}, not an id in [0, {len(names)})")
    for nm in excluded_names:
        if nm not in ids:
            raise NetlistError(f"excluded net '{nm}' does not exist in the netlist")
        excl.append(ids[nm])

    # one driver per net, and every net driven
    drivers = [*pis, *outs, *qs]
    driven = set(drivers)
    if len(driven) != len(drivers):
        seen: set[int] = set()
        for n in drivers:
            if n in seen:
                raise NetlistError(f"net '{names[n]}' has multiple drivers", where(n))
            seen.add(n)
    ff_names = [names[q] if nm is None else nm for nm, _, q in ff_rows]
    seen_ffs: set[str] = set()
    for name, (_, d, q) in zip(ff_names, ff_rows):
        if not _NAME_RE.fullmatch(name):
            raise NetlistError(f"flip-flop name {name!r} {_NOT_BENCH}", where(q))
        if d == q:
            raise NetlistError(
                f"flip-flop '{name}' feeds its own output net back as data input", where(q)
            )
        if name in seen_ffs:
            raise NetlistError(f"duplicate flip-flop name '{name}'", where(q))
        seen_ffs.add(name)
    if len(driven) != len(names):
        n = next(n for n in range(len(names)) if n not in driven)
        raise NetlistError(f"net '{names[n]}' is never defined", where(n))

    # kind and arity
    for kind, ins, out in gate_rows:
        if kind not in GATE_KINDS:
            raise NetlistError(f"unknown gate kind '{kind}'", where(out))
        unary = GATE_KINDS[kind][0] == "BUFF"
        if unary and len(ins) != 1:
            raise NetlistError(
                f"{kind} gate '{names[out]}' must have exactly 1 input", where(out)
            )
        if not unary and len(ins) < 2:
            raise NetlistError(f"{kind} gate '{names[out]}' needs at least 2 inputs", where(out))

    c = Circuit(
        net_names=names,
        gates=tuple(Gate(i, k, ins, out) for i, (k, ins, out) in enumerate(gate_rows)),
        flipflops=tuple(
            FlipFlop(i, name, d, q) for i, (name, (_, d, q)) in enumerate(zip(ff_names, ff_rows))
        ),
        primary_inputs=pis,
        primary_outputs=tuple(dict.fromkeys(pos)),
        excluded=frozenset(excl),
    )

    # acyclic combinational subgraph: gates left out of the order sit on a cycle
    order = c.topo_gates
    if len(order) < len(c.gates):
        stuck = sorted(set(range(len(c.gates))) - set(order))
        cyc = ", ".join(names[c.gates[g].output] for g in stuck[:8])
        raise NetlistError(
            f"combinational cycle through net(s): {cyc}", where(c.gates[stuck[0]].output)
        )
    return c


# -- .bench parsing ------------------------------------------------------

_DECL_RE = re.compile(rf"^(INPUT|OUTPUT)\s*\(\s*({_NAME})\s*\)$")
_ASSIGN_RE = re.compile(rf"^({_NAME})\s*=\s*([A-Za-z]+)\s*\(\s*([^()]*)\s*\)$")


def parse_bench(text: str, exclude: Iterable[str] = ()) -> Circuit:
    """Parse ISCAS-89 style `.bench` text into a validated Circuit.

    Accepted statements (one per line, `#` comments, blank lines ignored):
        INPUT(x) / OUTPUT(x)
        q = DFF(d)
        y = KIND(a, b, ...)      with KIND in AND OR NAND NOR XOR XNOR NOT BUFF

    Only the syntax is checked here; `build_circuit` checks the netlist.  An
    error about a net names the line of its last INPUT, gate or DFF
    definition, or of its first mention when it has none.
    """
    ids: dict[str, int] = {}       # net ids in order of first mention
    defined: dict[int, int] = {}   # net id -> line of its last definition
    lines: list[int] = []          # the line of each statement ...
    known: list[int] = []          # ... and the number of nets named up to it
    pis: list[int] = []
    pos: list[int] = []
    gates: list[tuple[str, tuple[int, ...], int]] = []
    ffs: list[tuple[str, int, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _ASSIGN_RE.match(line)
        if m:
            out_name, kind, args = m.groups()
            out = ids.setdefault(out_name, len(ids))
            defined[out] = lineno
            arg_names = [a.strip() for a in args.split(",")] if args.strip() else []
            if not all(arg_names):
                raise NetlistError("empty argument in gate input list", lineno)
            arg_ids = tuple([ids.setdefault(a, len(ids)) for a in arg_names])
            kind = kind.upper()
            if kind == "DFF":
                if len(arg_ids) != 1:
                    raise NetlistError(f"DFF '{out_name}' must have exactly 1 input", lineno)
                ffs.append((out_name, arg_ids[0], out))
            else:
                gates.append((kind, arg_ids, out))
        else:
            m = _DECL_RE.match(line)
            if not m:
                raise NetlistError(f"cannot parse statement: '{line}'", lineno)
            net = ids.setdefault(m.group(2), len(ids))
            if m.group(1) == "INPUT":
                defined[net] = lineno
                pis.append(net)
            else:
                pos.append(net)
        lines.append(lineno)
        known.append(len(ids))

    def line_of(net: int) -> int:
        return defined.get(net) or next(ln for ln, k in zip(lines, known) if k > net)

    return build_circuit(ids, gates, ffs, pis, pos, exclude, line_of)


def to_bench(c: Circuit) -> str:
    """Serialize back to `.bench` text (stable order: PIs, POs, FFs, gates)."""
    out: list[str] = []
    for n in c.primary_inputs:
        out.append(f"INPUT({c.net_names[n]})")
    for n in c.primary_outputs:
        out.append(f"OUTPUT({c.net_names[n]})")
    for f in c.flipflops:
        out.append(f"{c.net_names[f.q_net]} = DFF({c.net_names[f.d_net]})")
    for g in c.gates:
        args = ", ".join(c.net_names[i] for i in g.inputs)
        out.append(f"{c.net_names[g.output]} = {g.kind}({args})")
    return "\n".join(out) + "\n"


# -- JSON circuit format --------------------------------------------------


def circuit_to_json(c: Circuit) -> dict:
    return {
        "nets": [{"id": i, "name": n} for i, n in enumerate(c.net_names)],
        "gates": [
            {"id": g.id, "kind": g.kind, "inputs": list(g.inputs), "output": g.output}
            for g in c.gates
        ],
        "ffs": [{"id": f.id, "name": f.name, "d": f.d_net, "q": f.q_net} for f in c.flipflops],
        "inputs": list(c.primary_inputs),
        "outputs": list(c.primary_outputs),
        "excluded": sorted(c.excluded),
    }


def circuit_from_json(data: dict | str, exclude: Iterable[str] = ()) -> Circuit:
    """Build a Circuit from the JSON schema emitted by `circuit_to_json`.

    Only the JSON shape is checked here (keys, types, and the ids of nets,
    gates and flip-flops, each exactly 0..n-1); a missing key or a value of
    the wrong type is a NetlistError.  The netlist itself is checked by
    `build_circuit`, as for `.bench` input.
    """
    try:
        if isinstance(data, str):
            data = json.loads(data)
        names = [r["name"] for r in _by_id(data["nets"], "net")]
        gates = [
            (g["kind"].upper(), tuple(g["inputs"]), g["output"])
            for g in _by_id(data["gates"], "gate")
        ]
        ffs = [(f.get("name"), f["d"], f["q"]) for f in _by_id(data["ffs"], "flip-flop")]
        pis, pos = list(data["inputs"]), list(data["outputs"])
        excluded = list(data.get("excluded", []))
    except KeyError as e:
        raise NetlistError(f"JSON circuit has no key {e}") from None
    except (TypeError, AttributeError, json.JSONDecodeError) as e:
        raise NetlistError(f"malformed JSON circuit: {e}") from None
    if not all(isinstance(n, str) for n in names + [nm for nm, _, _ in ffs if nm is not None]):
        raise NetlistError("net and flip-flop names must be strings")
    return build_circuit(names, gates, ffs, pis, pos, exclude, excluded_ids=excluded)


def _by_id(rows: list[dict], what: str) -> list[dict]:
    """`rows` ordered by their "id", which must be the integers 0..n-1, each once."""
    ids = [r["id"] for r in rows]
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(len(ids))):
        raise NetlistError(f"{what} ids must be the integers 0..{len(ids) - 1}, each once")
    return sorted(rows, key=lambda r: r["id"])
