import json
import random
from dataclasses import replace

import pytest

from set2seu.cones import enumerate_fault_sites
from set2seu.ffsets import (
    FFSet,
    SetCollection,
    collect_cone_sets,
    collect_static_sets,
    collection_to_csv,
    collection_to_json,
    ffset,
)

UNIVERSE = ("A", "B", "C", "D")


def coll(pairs):
    return SetCollection(UNIVERSE, tuple((ref, ffset(m)) for ref, m in pairs))


def test_ffset_validation():
    assert FFSet((0, 2, 3)).multiplicity == 3
    assert ffset([3, 0, 2, 0]).members == (0, 2, 3)
    with pytest.raises(ValueError):
        FFSet(())
    with pytest.raises(ValueError):
        FFSet((2, 1))
    with pytest.raises(ValueError):
        FFSet((1, 1))


def test_ffset_hash_is_computed_once():
    class Counted(tuple):
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return tuple.__hash__(self)

    s = FFSet(Counted((0, 2, 3)))
    for _ in range(3):
        assert hash(s) == hash((0, 2, 3))
    assert Counted.calls == 1
    assert s == FFSet((0, 2, 3)) and repr(s) == "FFSet(members=(0, 2, 3))"


def test_affected_cone_rows():
    c = coll([("s1", [0, 1]), ("s2", [0, 1, 2]), ("s3", [1, 2, 3]), ("s4", [2, 3])])
    assert c.num_sets == 4
    assert c.num_unique == 4
    assert c.max_multiplicity == 3


def test_dedup_keeps_subsets():
    c = coll([("x", [0, 1, 2, 3]), ("and1", [0, 1, 2, 3]), ("or1", [0, 1]), ("or2", [1, 2])])
    assert c.num_sets == 4
    assert c.num_unique == 3
    assert {s.members for s in c.unique_sets} == {(0, 1, 2, 3), (0, 1), (1, 2)}
    assert c.origins[ffset([0, 1, 2, 3])] == ("x", "and1")


def test_dedup_idempotent_many_duplicates():
    c = coll([(f"s{i}", [1]) for i in range(5)])
    assert c.num_sets == 5
    assert c.num_unique == 1
    assert c.max_multiplicity == 1


def test_order_independence():
    pairs = [("a", [0, 1]), ("b", [2]), ("c", [0, 1, 2]), ("d", [0, 1])]
    shuffled = pairs[:]
    random.Random(7).shuffle(shuffled)
    assert coll(pairs).unique_sets == coll(shuffled).unique_sets


def test_collect_static_skips_po_only(fanout_demo):
    from set2seu.netlist import parse_bench

    c = parse_bench("INPUT(a)\nINPUT(b)\ny = AND(a, b)\nf = DFF(b)\nOUTPUT(y)\nOUTPUT(f)")
    sites = enumerate_fault_sites(c)
    sc = collect_static_sets(c, sites)
    assert sc.num_sets == 1  # only the b site, y's region is po_only


def test_collect_static_shares_one_ffset_per_distinct_set(b01ish):
    sites = [s for s in enumerate_fault_sites(b01ish) if s.static_ffs]
    sc = collect_static_sets(b01ish, sites)
    assert sc.num_unique < sc.num_sets
    for s in sc.unique_sets:
        assert sum(t is s for _, t in sc.raw_sets) == len(sc.origins[s])


def test_collect_static_merges_equal_sets_held_in_distinct_tuples(b01ish):
    sites = [s for s in enumerate_fault_sites(b01ish) if s.static_ffs]
    copies = [replace(s, static_ffs=tuple(list(s.static_ffs))) for s in sites]
    assert all(a.static_ffs is not b.static_ffs for a, b in zip(sites, copies))
    shared, distinct = collect_static_sets(b01ish, sites), collect_static_sets(b01ish, copies)
    assert distinct.raw_sets == shared.raw_sets
    assert distinct.unique_sets == shared.unique_sets and distinct.origins == shared.origins
    assert collection_to_csv(distinct) == collection_to_csv(shared)


def test_collect_cone_sets_chain(cone_chain):
    sc = collect_cone_sets(cone_chain)
    rows = [(ref, s.members) for ref, s in sc.raw_sets]
    assert rows == [
        ("cone:A", (0, 1)),
        ("cone:B", (0, 1, 2)),
        ("cone:C", (1, 2, 3)),
        ("cone:D", (2, 3)),
    ]
    assert [s.multiplicity for _, s in sc.raw_sets] == [2, 3, 3, 2]


def test_json_and_csv_views():
    c = coll([("s1", [0, 1]), ("s2", [0, 1])])
    rows = collection_to_json(c)
    assert rows == [{"members": ["A", "B"], "multiplicity": 2, "sites": ["s1", "s2"]}]
    csv = collection_to_csv(c)
    assert csv.splitlines()[0] == "members,multiplicity,sites"
    assert "A B,2,s1 s2" in csv


def test_json_members_are_names_that_keep_their_ids():
    c = coll([("s1", [0, 2]), ("s2", [3])])
    rows = collection_to_json(c)
    assert rows == [
        {"members": ["D"], "multiplicity": 1, "sites": ["s2"]},
        {"members": ["A", "C"], "multiplicity": 2, "sites": ["s1"]},
    ]
    assert [r["members"].ids for r in rows] == [(3,), (0, 2)]
    assert json.loads(json.dumps(rows)) == rows
    assert collection_to_csv(c) == "members,multiplicity,sites\nD,1,s2\nA C,2,s1\n"
