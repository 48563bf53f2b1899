"""Gate-level circuit model and `.bench` / JSON netlist parsing.

The circuit is a flat, immutable graph: nets are integer ids, each driven by
exactly one of a primary input, a gate output, or a flip-flop Q output.
Flip-flops cut the graph into a purely combinational (acyclic) part plus
state elements; all downstream analyses rely on that.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

GATE_KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUFF")
_UNARY = ("NOT", "BUFF")


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
    def fanout_count(self) -> tuple[int, ...]:
        """Per net: number of gate-input plus FF-D sinks (POs not counted)."""
        return tuple(
            len(self.fanout_gates[n]) + len(self.fanout_ffs[n]) for n in range(self.num_nets)
        )

    @cached_property
    def topo_gates(self) -> tuple[int, ...]:
        """Gate ids in topological order (inputs before consumers)."""
        order, _ = _toposort(self)
        return order

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


def _toposort(c: Circuit) -> tuple[tuple[int, ...], list[int]]:
    """Kahn's algorithm over gates; returns (order, gate ids left in a cycle)."""
    indeg = [0] * len(c.gates)
    for g in c.gates:
        for n in g.inputs:
            kind, _ = c.driver[n]
            if kind == "gate":
                indeg[g.id] += 1
    ready = [gid for gid, d in enumerate(indeg) if d == 0]
    order: list[int] = []
    while ready:
        # pop smallest id for a stable order
        ready.sort(reverse=True)
        gid = ready.pop()
        order.append(gid)
        for sink in c.fanout_gates[c.gates[gid].output]:
            indeg[sink] -= 1
            if indeg[sink] == 0:
                ready.append(sink)
    stuck = [gid for gid, d in enumerate(indeg) if d > 0]
    return tuple(order), stuck


def build_circuit(
    net_names: Iterable[str],
    gates: Iterable[tuple[str, tuple[int, ...], int]],
    flipflops: Iterable[tuple[str, int, int]],
    primary_inputs: Iterable[int],
    primary_outputs: Iterable[int],
    excluded_names: Iterable[str] = (),
    def_lines: dict[int, int] | None = None,
) -> Circuit:
    """Assemble and validate a Circuit from raw pieces.

    gates: (kind, input net ids, output net id); flipflops: (name, d, q).
    def_lines maps net id -> source line for error reporting.
    """
    names = tuple(net_names)
    lines = def_lines or {}

    def where(net: int) -> int | None:
        return lines.get(net)

    c = Circuit(
        net_names=names,
        gates=tuple(Gate(i, k, tuple(ins), out) for i, (k, ins, out) in enumerate(gates)),
        flipflops=tuple(FlipFlop(i, nm, d, q) for i, (nm, d, q) in enumerate(flipflops)),
        primary_inputs=tuple(primary_inputs),
        primary_outputs=tuple(primary_outputs),
        excluded=frozenset(),
    )

    # single driver per net
    seen: dict[int, str] = {}
    for n in c.primary_inputs:
        seen[n] = "input"
    for g in c.gates:
        if g.output in seen:
            raise NetlistError(
                f"net '{names[g.output]}' has multiple drivers", where(g.output)
            )
        seen[g.output] = "gate"
    for f in c.flipflops:
        if f.q_net in seen:
            raise NetlistError(
                f"net '{names[f.q_net]}' has multiple drivers", where(f.q_net)
            )
        seen[f.q_net] = "ff"
        if f.d_net == f.q_net:
            raise NetlistError(
                f"flip-flop '{f.name}' feeds its own output net back as data input",
                where(f.q_net),
            )

    # every referenced net defined (has a driver)
    for g in c.gates:
        for n in g.inputs:
            if n not in seen:
                raise NetlistError(f"net '{names[n]}' is never defined", where(n))
    for f in c.flipflops:
        if f.d_net not in seen:
            raise NetlistError(f"net '{names[f.d_net]}' is never defined", where(f.d_net))
    for n in c.primary_outputs:
        if n not in seen:
            raise NetlistError(f"net '{names[n]}' is never defined", where(n))

    # arity
    for g in c.gates:
        if g.kind not in GATE_KINDS:
            raise NetlistError(f"unknown gate kind '{g.kind}'", where(g.output))
        if g.kind in _UNARY and len(g.inputs) != 1:
            raise NetlistError(
                f"{g.kind} gate '{names[g.output]}' must have exactly 1 input",
                where(g.output),
            )
        if g.kind not in _UNARY and len(g.inputs) < 2:
            raise NetlistError(
                f"{g.kind} gate '{names[g.output]}' needs at least 2 inputs",
                where(g.output),
            )

    # acyclic combinational subgraph
    order, stuck = _toposort(c)
    if stuck:
        cyc = ", ".join(names[c.gates[g].output] for g in stuck[:8])
        raise NetlistError(
            f"combinational cycle through net(s): {cyc}", where(c.gates[stuck[0]].output)
        )

    excl = set()
    for nm in excluded_names:
        if nm not in c.name_to_id:
            raise NetlistError(f"excluded net '{nm}' does not exist in the netlist")
        excl.add(c.name_to_id[nm])
    if excl:
        c = Circuit(
            net_names=c.net_names,
            gates=c.gates,
            flipflops=c.flipflops,
            primary_inputs=c.primary_inputs,
            primary_outputs=c.primary_outputs,
            excluded=frozenset(excl),
        )
    return c


# -- .bench parsing ------------------------------------------------------

_DECL_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^\s(),=]+)\s*\)$")
_ASSIGN_RE = re.compile(r"^([^\s(),=]+)\s*=\s*([A-Za-z]+)\s*\(\s*([^()]*)\s*\)$")


def parse_bench(text: str, exclude: Iterable[str] = ()) -> Circuit:
    """Parse ISCAS-89 style `.bench` text into a validated Circuit.

    Accepted statements (one per line, `#` comments, blank lines ignored):
        INPUT(x) / OUTPUT(x)
        q = DFF(d)
        y = KIND(a, b, ...)      with KIND in AND OR NAND NOR XOR XNOR NOT BUFF
    """
    names: list[str] = []
    ids: dict[str, int] = {}
    def_lines: dict[int, int] = {}

    def intern(name: str, line: int) -> int:
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
            def_lines[ids[name]] = line
        return ids[name]

    pis: list[int] = []
    pos: list[int] = []
    gates: list[tuple[str, tuple[int, ...], int]] = []
    ffs: list[tuple[str, int, int]] = []
    pi_seen: set[str] = set()
    po_seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DECL_RE.match(line)
        if m:
            kind, name = m.group(1), m.group(2)
            net = intern(name, lineno)
            if kind == "INPUT":
                if name in pi_seen:
                    raise NetlistError(f"net '{name}' has multiple drivers", lineno)
                pi_seen.add(name)
                pis.append(net)
            else:
                if name not in po_seen:
                    po_seen.add(name)
                    pos.append(net)
            continue
        m = _ASSIGN_RE.match(line)
        if m:
            out_name, kind, args = m.group(1), m.group(2).upper(), m.group(3)
            out = intern(out_name, lineno)
            def_lines[out] = lineno  # point errors at the definition site
            arg_names = [a.strip() for a in args.split(",")] if args.strip() else []
            if any(not a for a in arg_names):
                raise NetlistError("empty argument in gate input list", lineno)
            arg_ids = tuple(intern(a, lineno) for a in arg_names)
            if kind == "DFF":
                if len(arg_ids) != 1:
                    raise NetlistError(
                        f"DFF '{out_name}' must have exactly 1 input", lineno
                    )
                ffs.append((out_name, arg_ids[0], out))
            elif kind in GATE_KINDS:
                gates.append((kind, arg_ids, out))
            else:
                raise NetlistError(f"unknown gate kind '{kind}'", lineno)
            continue
        raise NetlistError(f"cannot parse statement: '{line}'", lineno)

    return build_circuit(names, gates, ffs, pis, pos, exclude, def_lines)


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
    """Build a Circuit from the JSON schema emitted by `circuit_to_json`."""
    if isinstance(data, str):
        data = json.loads(data)
    nets = sorted(data["nets"], key=lambda r: r["id"])
    if [r["id"] for r in nets] != list(range(len(nets))):
        raise NetlistError("net ids must be dense and zero-based")
    names = [r["name"] for r in nets]
    if len(set(names)) != len(names):
        raise NetlistError("duplicate net names")
    gates = [
        (g["kind"].upper(), tuple(g["inputs"]), g["output"])
        for g in sorted(data["gates"], key=lambda r: r["id"])
    ]
    ffs = [
        (f.get("name", names[f["q"]]), f["d"], f["q"])
        for f in sorted(data["ffs"], key=lambda r: r["id"])
    ]
    excluded_names = [names[i] for i in data.get("excluded", [])]
    excluded_names += [n for n in exclude if n not in excluded_names]
    return build_circuit(
        names, gates, ffs, data["inputs"], data["outputs"], excluded_names
    )
