"""Fan-in cones of flip-flops and collapsed SET fault-site enumeration.

A transient on a combinational net can only upset the flip-flops whose
fan-in cones contain that net.  Cones stop at primary inputs and at other
flip-flops' Q outputs; those boundary nets form the cone's support.

Fault sites are collapsed to fan-out stems plus flip-flop D nets: every
net inside a fan-out-free region is represented by the region's head, and
the head's achievable upset patterns over-approximate the region's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

from .netlist import Circuit, NetlistError

STEM = "stem"
FFR_TERMINAL = "ffr_terminal"


@dataclass(frozen=True)
class FaninCone:
    ff_id: int
    member_nets: frozenset[int]
    support: frozenset[int]


@dataclass(frozen=True)
class FaultSite:
    site_net: int
    kind: str                      # STEM or FFR_TERMINAL
    represented_nets: frozenset[int]
    static_ffs: tuple[int, ...]    # sorted ff ids reachable from site_net

    @property
    def po_only(self) -> bool:
        """Reaches primary outputs (or nothing) but no FF."""
        return not self.static_ffs


def all_cones(c: Circuit) -> tuple[FaninCone, ...]:
    """Every flip-flop's fan-in cone, read off `Circuit.cone_masks`.

    A net lies in the cone closure of FF f iff it reaches f's D pin through
    gates only.  member_nets: the D net plus the outputs of the cone's
    gates.  support: its PI / FF-Q boundary nets (disjoint from
    member_nets; empty when the D net itself is the boundary).
    """
    cm = c.cone_masks
    outputs = [c.gates[g].output for g in c.topo_gates]
    return tuple(
        FaninCone(
            f.id,
            frozenset(_select(outputs, cm.gates[f.id])) | {f.d_net},
            frozenset(_select(range(c.num_nets), cm.support[f.id])) - {f.d_net},
        )
        for f in c.flipflops
    )


def static_ff_set(c: Circuit, net: int) -> tuple[int, ...]:
    """Sorted FF ids reachable forward from `net` without crossing a FF."""
    if not 0 <= net < c.num_nets:
        raise NetlistError(f"unknown net id {net}")
    return _select(c.ff_ids, c.ff_reach[net])


def cone_ff_set(c: Circuit, ff_id: int) -> tuple[int, ...]:
    """FFs a transient anywhere inside cone(ff_id) could reach.

    Equals {g : cone(g) intersects cone(ff_id)}; this is the per-cone
    upset set (worst case over the cone's nets).
    """
    if not 0 <= ff_id < len(c.flipflops):
        raise NetlistError(f"unknown flip-flop id {ff_id}")
    return _select(c.ff_ids, c.cone_reach[ff_id])


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _select(items: Sequence[int], mask: int) -> tuple[int, ...]:
    """The items at the set bits of `mask` (nonnegative), in order.

    The binary digits, least significant first, select the items in one
    C-level pass, so the cost per bit is not a Python step.
    """
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return tuple(compress(items, bits))


def _region_heads(c: Circuit) -> list[int]:
    """Map each net to its fan-out-free region head.

    A net is its own head when it has fan-out >= 2 (stem), drives a FF D
    pin, or has no gate/FF sink at all (dangling or PO-only).  Otherwise it
    has exactly one gate sink and inherits that gate's output's head, which
    the reverse topological order has already settled.
    """
    heads = list(range(c.num_nets))
    for gid in reversed(c.topo_gates):
        g = c.gates[gid]
        for n in g.inputs:
            if len(c.fanout_gates[n]) == 1 and not c.fanout_ffs[n]:
                heads[n] = heads[g.output]
    return heads


def enumerate_fault_sites(c: Circuit, mode: str = "collapsed") -> list[FaultSite]:
    """List SET fault sites, sorted by net id.

    collapsed: fan-out stems plus FF D nets; each also carries the nets of
    the fan-out-free region it represents.  all_nets: every PI / gate
    output net individually.  Excluded nets never appear as sites nor in
    represented regions.
    """
    if mode not in ("collapsed", "all_nets"):
        raise ValueError(f"unknown mode '{mode}'")
    universe = [
        n for n in range(c.num_nets) if c.is_combinational(n) and n not in c.excluded
    ]
    sites: list[FaultSite] = []
    decoded: dict[int, tuple[int, ...]] = {}   # ff_reach mask -> its static_ffs
    # in all_nets mode every net heads a region of its own; an excluded net
    # is never in `universe`, so it never heads one
    heads = range(c.num_nets) if mode == "all_nets" else _region_heads(c)
    regions: dict[int, set[int]] = {}
    for net in universe:
        regions.setdefault(heads[net], set()).add(net)
    for head in sorted(regions):
        if head in c.excluded:
            # region head itself excluded: fall back to per-net sites so the
            # remaining region nets stay covered
            for net in sorted(regions[head] - {head}):
                sites.append(_make_site(c, net, frozenset({net}), decoded))
            continue
        sites.append(_make_site(c, head, frozenset(regions[head]), decoded))
    sites.sort(key=lambda s: s.site_net)
    return sites


def _make_site(
    c: Circuit, net: int, region: frozenset[int], decoded: dict[int, tuple[int, ...]]
) -> FaultSite:
    """The site at `net`; sites whose nets reach the same flip-flops share
    one `static_ffs` tuple, decoded once into `decoded`."""
    mask = c.ff_reach[net]
    ffs = decoded.get(mask)
    if ffs is None:
        ffs = decoded[mask] = _select(c.ff_ids, mask)
    kind = FFR_TERMINAL if c.fanout_ffs[net] else STEM
    return FaultSite(site_net=net, kind=kind, represented_nets=region, static_ffs=ffs)


def relevant_closure(c: Circuit, site: FaultSite) -> frozenset[int]:
    """Union of the affected FFs' cone closures (the analysis region), from
    one scan of every net's `ff_reach`.

    The engine reads its regions (`propagation.build_region`) and its cones
    (`all_cones`) off `Circuit.cone_masks` instead; the oracle keeps this
    scan as the independent reference that construction is checked against.
    """
    mask = sum(1 << f for f in site.static_ffs)
    return frozenset(net for net, r in enumerate(c.ff_reach) if r & mask)


def closure_support(c: Circuit, closure: frozenset[int]) -> tuple[int, ...]:
    """The PI and FF Q nets of `closure`, ascending."""
    return tuple(sorted(n for n in closure if c.driver[n][0] != "gate"))


def site_support(c: Circuit, site: FaultSite) -> tuple[int, ...]:
    """Free inputs governing the site's fault behaviour.

    The PIs and FF Q nets of its `relevant_closure`; these are the
    variables the good/faulty comparison is quantified over.
    """
    return closure_support(c, relevant_closure(c, site))


# -- JSON views -----------------------------------------------------------


def cones_to_json(c: Circuit) -> list[dict]:
    return [
        {
            "ff": c.flipflops[cone.ff_id].name,
            "member_nets": sorted(c.net_names[n] for n in cone.member_nets),
            "support": sorted(c.net_names[n] for n in cone.support),
        }
        for cone in all_cones(c)
    ]


def sites_to_json(c: Circuit, sites: list[FaultSite]) -> list[dict]:
    return [
        {
            "site_net": c.net_names[s.site_net],
            "kind": s.kind,
            "po_only": s.po_only,
            "represented_nets": sorted(c.net_names[n] for n in s.represented_nets),
            "static_ffs": [c.flipflops[f].name for f in s.static_ffs],
        }
        for s in sites
    ]
