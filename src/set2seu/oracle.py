"""Exhaustive-simulation ground truth for validating the SAT engine.

Two-valued simulation only, matching the CNF semantics.  The exhaustive
sweep evaluates all support assignments at once by packing them into big
integers (net value = one bit per assignment), so small instances stay
cheap; the hard support-size precondition keeps it from being misused.
"""

from __future__ import annotations

from functools import lru_cache

from .cones import FaultSite, relevant_closure, site_support
from .ffsets import FFSet
from .netlist import Circuit
from .propagation import DifferencePattern
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


@lru_cache(maxsize=None)
def _var_mask(v: int, k: int) -> int:
    """Bit i of the result is (i >> v) & 1, over all i < 2**k.

    Cached: building a mask costs a big-int multiply of 2**k bits, and every
    sweep of width k needs the same k masks.  All masks for k <= 20 take
    about 5 MB.
    """
    width = 1 << k
    window = 1 << (v + 1)
    ones = ((1 << (1 << v)) - 1) << (1 << v)
    rep = ((1 << width) - 1) // ((1 << window) - 1) if window <= width else 1
    return ones * rep


def _eval_gate_masked(kind: str, ins: list[int], full: int) -> int:
    if kind in ("AND", "NAND"):
        v = ins[0]
        for x in ins[1:]:
            v &= x
        return v if kind == "AND" else full ^ v
    if kind in ("OR", "NOR"):
        v = ins[0]
        for x in ins[1:]:
            v |= x
        return v if kind == "OR" else full ^ v
    if kind in ("XOR", "XNOR"):
        v = ins[0]
        for x in ins[1:]:
            v ^= x
        return v if kind == "XOR" else full ^ v
    if kind == "NOT":
        return full ^ ins[0]
    if kind == "BUFF":
        return ins[0]
    raise ValueError(f"unknown gate kind '{kind}'")


def exhaustive_patterns(
    c: Circuit, site: FaultSite, support_limit: int = DEFAULT_SUPPORT_LIMIT
) -> list[DifferencePattern]:
    """Ground-truth pattern list: sweep every support assignment.

    Refuses (rather than samples) when the support exceeds the limit; the
    sweep is 2**k simulations of the affected region.
    """
    if not site.static_ffs:
        raise ValueError("site reaches no flip-flop; nothing to enumerate")
    support = site_support(c, site)
    k = len(support)
    if k > support_limit:
        raise ValueError(
            f"support of size {k} exceeds limit {support_limit}; refusing exhaustive sweep"
        )
    region = relevant_closure(c, site)
    region_gates = [gid for gid in c.topo_gates if c.gates[gid].output in region]
    full = (1 << (1 << k)) - 1

    good: dict[int, int] = {}
    for j, net in enumerate(support):
        good[net] = _var_mask(j, k)
    for gid in region_gates:
        g = c.gates[gid]
        good[g.output] = _eval_gate_masked(g.kind, [good[n] for n in g.inputs], full)

    down = {site.site_net}
    faulty = dict(good)
    faulty[site.site_net] = good[site.site_net] ^ full
    for gid in region_gates:
        g = c.gates[gid]
        if g.output != site.site_net and any(n in down for n in g.inputs):
            down.add(g.output)
            faulty[g.output] = _eval_gate_masked(g.kind, [faulty[n] for n in g.inputs], full)

    diffs = []
    for f in site.static_ffs:
        d = c.flipflops[f].d_net
        diffs.append(good[d] ^ faulty[d])

    site_name = c.net_names[site.site_net]
    return [
        DifferencePattern(site_name, FFSet(members))
        for members in _distinct_patterns(diffs, site.static_ffs, full)
    ]


def _distinct_patterns(
    diffs: list[int], ff_ids: tuple[int, ...], full: int
) -> list[tuple[int, ...]]:
    """Distinct nonempty difference vectors, canonically sorted.

    Partitions the assignments (the bits of `full`) by FF: each class is
    split into the assignments where FF j differs (`hit`) and the rest.  The
    nonempty classes left after the last FF are the distinct vectors.  The
    stack replaces recursion, whose depth would be the FF count, and holds
    at most one pending sibling per level.
    """
    out = []
    stack = [(full, 0, ())]
    while stack:
        mask, j, members = stack.pop()
        if j == len(ff_ids):
            if members:
                out.append(members)
            continue
        hit = mask & diffs[j]
        if hit != mask:
            stack.append((mask ^ hit, j + 1, members))
        if hit:
            stack.append((hit, j + 1, members + (ff_ids[j],)))
    out.sort(key=lambda m: (len(m), m))
    return out


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
