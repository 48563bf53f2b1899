"""Simulation ground truth for validating both pattern engines.

Two-valued simulation only, matching the CNF semantics.  `simulate` is the
scalar, one-assignment-at-a-time reference for the bit-parallel gate
evaluator.  `exhaustive_patterns` is the per-site reference sweep: it
evaluates all support assignments of one site at once, packed into big
integers (net value = one bit per assignment), with the evaluator, the
pattern split and the listing order (size, then mask value) that the
simulation engine in `propagation` uses for regions of support at most
SIM_SUPPORT_LIMIT.  It re-simulates the whole region for every site and
its whole fan-out, so it cross-checks that engine's per-support sweep and
event-driven fan-out re-simulation as well as the SAT engine; the hard
support-size precondition keeps it from being misused.
"""

from __future__ import annotations

from .cones import FaultSite, _select, closure_support, relevant_closure
from .ffsets import FFSet
from .netlist import Circuit
from .propagation import (
    DifferencePattern,
    _canonical,
    _distinct_patterns,
    _evaluate,
    _var_mask,
)
from .solver import SAT, UNSAT, SolveResult

DEFAULT_SUPPORT_LIMIT = 20


def _eval_gate(kind: str, vals: list[bool]) -> bool:
    if kind == "AND":
        return all(vals)
    if kind == "NAND":
        return not all(vals)
    if kind == "OR":
        return any(vals)
    if kind == "NOR":
        return not any(vals)
    if kind == "XOR":
        return sum(vals) % 2 == 1
    if kind == "XNOR":
        return sum(vals) % 2 == 0
    if kind == "NOT":
        return not vals[0]
    if kind == "BUFF":
        return vals[0]
    raise ValueError(f"unknown gate kind '{kind}'")


def simulate(
    c: Circuit, assignment: dict[int, bool], forced_flip: int | None = None
) -> dict[int, bool]:
    """Topological two-valued evaluation of the whole circuit.

    `assignment` must cover every PI and FF Q net the evaluation touches;
    with `forced_flip` set, that net's value is complemented before its
    fanout is evaluated (one-cycle SET semantics).
    """
    values: dict[int, bool] = {}
    for net in range(c.num_nets):
        if c.driver[net][0] != "gate":
            if net in assignment:
                values[net] = bool(assignment[net])
    if forced_flip is not None and forced_flip in values:
        values[forced_flip] = not values[forced_flip]
    for gid in c.topo_gates:
        g = c.gates[gid]
        try:
            vals = [values[n] for n in g.inputs]
        except KeyError as e:
            name = c.net_names[e.args[0]]
            raise ValueError(f"incomplete assignment: net '{name}' has no value") from None
        out = _eval_gate(g.kind, vals)
        if g.output == forced_flip:
            out = not out
        values[g.output] = out
    if forced_flip is not None and forced_flip not in values:
        raise ValueError("forced_flip net was never evaluated")
    return values


# -- bit-parallel sweep ----------------------------------------------------


def exhaustive_patterns(
    c: Circuit, site: FaultSite, support_limit: int = DEFAULT_SUPPORT_LIMIT
) -> list[DifferencePattern]:
    """Ground-truth pattern list: sweep every support assignment.

    Refuses (rather than samples) when the support exceeds the limit; the
    sweep is 2**k simulations of the affected region.
    """
    if not site.static_ffs:
        raise ValueError("site reaches no flip-flop; nothing to enumerate")
    region = relevant_closure(c, site)
    support = closure_support(c, region)
    k = len(support)
    if k > support_limit:
        raise ValueError(
            f"support of size {k} exceeds limit {support_limit}; refusing exhaustive sweep"
        )
    region_gates = [gid for gid in c.topo_gates if c.gates[gid].output in region]
    full = (1 << (1 << k)) - 1

    good = {net: _var_mask(j, k) for j, net in enumerate(support)}
    _evaluate(c, region_gates, good, full)

    down = {site.site_net}
    fanout = []
    for gid in region_gates:
        g = c.gates[gid]
        if g.output != site.site_net and any(n in down for n in g.inputs):
            down.add(g.output)
            fanout.append(gid)
    faulty = dict(good)
    faulty[site.site_net] = good[site.site_net] ^ full
    _evaluate(c, fanout, faulty, full)

    diffs = []
    for f in site.static_ffs:
        d = c.flipflops[f].d_net
        diffs.append(good[d] ^ faulty[d])

    site_name = c.net_names[site.site_net]
    return [
        DifferencePattern(site_name, FFSet(_select(site.static_ffs, v)))
        for v, _ in sorted(_distinct_patterns(diffs, full), key=_canonical)
    ]


# -- CNF truth-table oracle --------------------------------------------------


def brute_force_sat(num_vars: int, clauses, limit: int = 24) -> SolveResult:
    """Decide a CNF by full truth-table enumeration (bit-parallel).

    Independent of the CDCL path; used as ground truth for solver checks.
    """
    if num_vars > limit:
        raise ValueError(f"{num_vars} variables exceed brute-force limit {limit}")
    full = (1 << (1 << num_vars)) - 1
    masks = [_var_mask(v, num_vars) for v in range(num_vars)]
    sat = full
    for cl in clauses:
        m = 0
        for lit in cl:
            vm = masks[abs(lit) - 1]
            m |= vm if lit > 0 else full ^ vm
        sat &= m
        if not sat:
            return SolveResult(UNSAT, None, 0)
    idx = (sat & -sat).bit_length() - 1  # lowest satisfying assignment
    model: list = [None] * (num_vars + 1)
    for v in range(num_vars):
        model[v + 1] = bool((idx >> v) & 1)
    return SolveResult(SAT, model, 0)
