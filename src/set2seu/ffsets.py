"""Collections of flip-flop upset sets with dedup and multiplicity stats.

Each fault site contributes one FF set (its statically reachable or its
actually sensitizable flip-flops).  Collections keep the raw per-site
list for traceability, plus the deduplicated unique sets; subsets are
deliberately retained (only exact duplicates are removed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter, lt

from .cones import FaultSite, cone_ff_set
from .netlist import Circuit


@dataclass(frozen=True, order=True)
class FFSet:
    """Sorted, unique, nonempty tuple of flip-flop ids.

    The hash is computed once: collections, their origins and the row
    index of `sets.json` look sets of hundreds of members up many times.
    """

    members: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.members
        if not m:
            raise ValueError("FF set must be nonempty")
        if not all(map(lt, m, m[1:])):
            raise ValueError("FF set members must be sorted and unique")
        object.__setattr__(self, "_hash", hash(m))

    def __hash__(self) -> int:
        return self._hash

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

    @cached_property
    def encoded_names(self) -> tuple[str, ...]:
        """Each flip-flop name as a JSON string, encoded once."""
        return tuple(map(_encode_str, self.ff_names))

    @cached_property
    def member_names(self) -> tuple[MemberNames, ...]:
        """The names of each unique set's members, picked once for both
        `collection_to_json` and `collection_to_csv`."""
        return tuple(MemberNames(s.members, self) for s in self.unique_sets)


class MemberNames(list):
    """The names of flip-flops `ids` of collection `coll`, as a plain JSON
    list.  It also keeps `ids` and `encoded`, the collection's JSON string
    of every name, so that a writer joins encoded names picked by id
    instead of encoding each member again."""

    __slots__ = ("ids", "encoded")

    def __init__(self, ids: tuple[int, ...], coll: SetCollection):
        super().__init__(pick(coll.ff_names, ids))
        self.ids = ids
        self.encoded = coll.encoded_names


def pick(table, ids: tuple[int, ...]) -> tuple:
    """`table[i]` for each i of `ids`, in one C-level call."""
    if len(ids) > 1:
        return itemgetter(*ids)(table)
    return tuple(table[i] for i in ids)  # itemgetter(i) gives a bare item, itemgetter() fails


def collect_static_sets(c: Circuit, sites: list[FaultSite]) -> SetCollection:
    """One raw set per fault site; po_only sites (empty sets) are skipped.

    Sites that share one `static_ffs` tuple, as `enumerate_fault_sites`
    gives every site of one flip-flop set, share one FFSet, so each set is
    checked and hashed once; the lookup goes by the tuple's identity, which
    `sites` keeps alive, instead of hashing its members at every site.
    Equal tuples of different identity get equal FFSets, which the
    collection merges.
    """
    names = tuple(f.name for f in c.flipflops)
    shared: dict[int, FFSet] = {}  # id of a static_ffs tuple -> its FFSet
    raw = []
    for s in sites:
        if s.static_ffs:
            ffs = shared.get(id(s.static_ffs))
            if ffs is None:
                ffs = shared[id(s.static_ffs)] = FFSet(s.static_ffs)
            raw.append((c.net_names[s.site_net], ffs))
    return SetCollection(names, tuple(raw))


def collect_cone_sets(c: Circuit) -> SetCollection:
    """One raw set per flip-flop cone (worst-case upset set of the cone);
    cones with one `cone_reach` mask share one FFSet, decoded and checked once."""
    shared: dict[int, FFSet] = {}  # cone_reach mask -> its FFSet
    for f, mask in enumerate(c.cone_reach):
        if mask not in shared:
            shared[mask] = FFSet(cone_ff_set(c, f))
    raw = tuple((f"cone:{f.name}", shared[m]) for f, m in zip(c.flipflops, c.cone_reach))
    return SetCollection(tuple(f.name for f in c.flipflops), raw)


def collection_to_json(coll: SetCollection) -> list[dict]:
    return [
        {"members": names, "multiplicity": s.multiplicity, "sites": list(coll.origins[s])}
        for s, names in zip(coll.unique_sets, coll.member_names)
    ]


def collection_to_csv(coll: SetCollection) -> str:
    lines = ["members,multiplicity,sites"]
    for s, names in zip(coll.unique_sets, coll.member_names):
        members = " ".join(names)
        sites = " ".join(coll.origins[s])
        lines.append(f"{members},{s.multiplicity},{sites}")
    return "\n".join(lines) + "\n"
