"""Collections of flip-flop upset sets with dedup and multiplicity stats.

Each fault site contributes one FF set (its statically reachable or its
actually sensitizable flip-flops).  Collections keep the raw per-site
list for traceability, plus the deduplicated unique sets; subsets are
deliberately retained (only exact duplicates are removed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cones import FaultSite, cone_ff_set
from .netlist import Circuit


@dataclass(frozen=True, order=True)
class FFSet:
    """Sorted, unique, nonempty tuple of flip-flop ids."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("FF set must be nonempty")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("FF set members must be sorted and unique")

    @property
    def multiplicity(self) -> int:
        return len(self.members)


def ffset(members) -> FFSet:
    """Normalize any iterable of ff ids into an FFSet."""
    return FFSet(tuple(sorted(set(members))))


@dataclass(frozen=True)
class SetCollection:
    """Raw (site -> FF set) pairs plus the deduplicated unique sets.

    ff_names fixes the id space; collections over different universes
    cannot be merged.
    """

    ff_names: tuple[str, ...]
    raw_sets: tuple[tuple[str, FFSet], ...]
    unique_sets: tuple[FFSet, ...] = field(init=False)
    origins: dict = field(init=False, repr=False)

    def __post_init__(self):
        uniq: dict[FFSet, list[str]] = {}
        for ref, s in self.raw_sets:
            uniq.setdefault(s, []).append(ref)
        ordered = sorted(uniq, key=lambda s: (s.multiplicity, s.members))
        object.__setattr__(self, "unique_sets", tuple(ordered))
        object.__setattr__(self, "origins", {s: tuple(uniq[s]) for s in ordered})

    @property
    def num_sets(self) -> int:
        return len(self.raw_sets)

    @property
    def num_unique(self) -> int:
        return len(self.unique_sets)

    @property
    def max_multiplicity(self) -> int:
        return max((s.multiplicity for s in self.unique_sets), default=0)

    def member_names(self, s: FFSet) -> list[str]:
        return [self.ff_names[f] for f in s.members]


def collect_static_sets(c: Circuit, sites: list[FaultSite]) -> SetCollection:
    """One raw set per fault site; po_only sites (empty sets) are skipped.
    Sites with equal `static_ffs` share one FFSet."""
    names = tuple(f.name for f in c.flipflops)
    shared: dict[tuple[int, ...], FFSet] = {}
    raw = []
    for s in sites:
        if s.static_ffs:
            ffs = shared.get(s.static_ffs)
            if ffs is None:
                ffs = shared[s.static_ffs] = FFSet(s.static_ffs)
            raw.append((c.net_names[s.site_net], ffs))
    return SetCollection(names, tuple(raw))


def collect_cone_sets(c: Circuit) -> SetCollection:
    """One raw set per flip-flop cone (worst-case upset set of the cone)."""
    names = tuple(f.name for f in c.flipflops)
    raw = tuple((f"cone:{f.name}", FFSet(cone_ff_set(c, f.id))) for f in c.flipflops)
    return SetCollection(names, raw)


def collection_to_json(coll: SetCollection) -> list[dict]:
    return [
        {
            "members": coll.member_names(s),
            "multiplicity": s.multiplicity,
            "sites": list(coll.origins[s]),
        }
        for s in coll.unique_sets
    ]


def collection_to_csv(coll: SetCollection) -> str:
    lines = ["members,multiplicity,sites"]
    for s in coll.unique_sets:
        members = " ".join(coll.member_names(s))
        sites = " ".join(coll.origins[s])
        lines.append(f"{members},{s.multiplicity},{sites}")
    return "\n".join(lines) + "\n"
