import pytest

from set2seu.campaign import (
    build_campaign,
    cutoff_for_confidence,
    fault_space_total,
    random_multibit_space,
    sci3,
    sfi_sample_size,
)
from set2seu.ffsets import SetCollection, ffset


def names(n):
    return tuple(f"ff{i}" for i in range(n))


UNIVERSE = names(8)


def coll(sets, universe=UNIVERSE):
    return SetCollection(universe, tuple((f"s{i}", ffset(m)) for i, m in enumerate(sets)))


def test_motivational_totals():
    assert fault_space_total(coll([[1, 2, 3, 4], [1, 2], [2, 3]])) == 21
    assert fault_space_total(coll([[1, 2], [2, 3], [1, 4], [1, 2, 3]])) == 16
    assert fault_space_total(coll([[0]])) == 1


def test_total_over_unique_sets_only():
    assert fault_space_total(coll([[1, 2], [1, 2], [1, 2]])) == 3


def test_random_multibit_space():
    assert random_multibit_space(5) == 31
    assert random_multibit_space(30) == 1_073_741_823
    assert random_multibit_space(0) == 0
    assert random_multibit_space(66) == 2**66 - 1
    with pytest.raises(ValueError):
        random_multibit_space(-1)


def test_sample_sizes_from_published_populations():
    assert sfi_sample_size(511, 0.05) == 220
    assert sfi_sample_size(4140, 0.05) == 352
    assert sfi_sample_size(9 * 10**9, 0.05) == 384
    assert sfi_sample_size(9 * 10**9, 0.01) == 9604
    assert sfi_sample_size(9 * 10**9, 0.001) == 960_298  # 9.60E+05 at 3 digits
    assert sfi_sample_size(1, 0.05) == 1


def test_sample_size_asymptotes():
    big = 10**30
    assert sfi_sample_size(big, 0.05) == 384
    assert sfi_sample_size(big, 0.01) == 9604
    assert sfi_sample_size(big, 0.001) == 960_400


def test_sample_size_domain_checks():
    with pytest.raises(ValueError):
        sfi_sample_size(0, 0.05)
    with pytest.raises(ValueError):
        sfi_sample_size(10, 1.5)
    with pytest.raises(ValueError):
        sfi_sample_size(10, 0.05, t=0)
    with pytest.raises(ValueError):
        sfi_sample_size(10, 0.05, p=1.0)


def test_sample_size_monotone_in_population():
    prev = 0
    for N in [1, 2, 5, 10, 100, 1000, 10**4, 10**6, 10**9, 10**15, 2**66]:
        n = sfi_sample_size(N, 0.05)
        assert 1 <= n <= N
        assert n >= prev
        prev = n


def test_sample_size_antitone_in_margin():
    N = 123_457
    prev = N + 1
    for e in [0.001, 0.005, 0.01, 0.05, 0.1, 0.3]:
        n = sfi_sample_size(N, e)
        assert n <= prev
        prev = n


def test_cutoffs():
    assert cutoff_for_confidence(95) == 1.96
    assert cutoff_for_confidence(90) == 1.645
    assert cutoff_for_confidence(99.8) == 3.09
    assert cutoff_for_confidence("95") == 1.96
    with pytest.raises(ValueError):
        cutoff_for_confidence(80)
    with pytest.raises(ValueError, match="confidence"):
        cutoff_for_confidence(95.0000001)


def test_sci3_formatting():
    assert sci3(4140) == "4.14E+03"
    assert sci3(2**34) == "1.72E+10"
    assert sci3(2**66) == "7.38E+19"
    assert sci3(31) == "3.10E+01"
    assert sci3(999) == "9.99E+02"
    assert sci3(9996) == "1.00E+04"
    assert sci3(0) == "0.00E+00"


def test_campaign_equal_collections_ratio_one():
    static = coll([[0, 1], [2]])
    rep = build_campaign(static, static)
    assert rep.static_over_propagated == 1.0
    assert rep.monotonic_reduction


def test_campaign_eq1_growth_not_monotonic():
    # {a,b,c} at two sites: 7.  Propagated {a,b,c} and {a,b}: 7 + 3 = 10, although
    # {a,b} adds no combination that {a,b,c} does not already cover.
    static = coll([[0, 1, 2], [0, 1, 2]])
    optimized = coll([[0, 1, 2], [0, 1]])
    rep = build_campaign(static, optimized)
    assert rep.static.total_faults == 7
    assert rep.propagated.total_faults == 10
    assert not rep.monotonic_reduction
    assert rep.to_json()["reduction"]["monotonic"] is False


def test_campaign_motivational_ratio():
    static = coll([[1, 2, 3, 4], [1, 2], [2, 3]])
    optimized = coll([[1, 2], [2, 3], [1, 4], [1, 2, 3]])
    rep = build_campaign(static, optimized)
    assert rep.static.total_faults == 21
    assert rep.propagated.total_faults == 16
    assert rep.static_over_propagated == 21 / 16 == 1.3125


def test_campaign_random_versus_optimized_ratio():
    static = coll([[0, 1, 2, 3]], names(5))
    optimized = coll([[0, 1, 2, 3]], names(5))
    rep = build_campaign(static, optimized)
    assert rep.random.total_faults == 31
    assert rep.random_over_propagated == 31 / 15


def test_campaign_plans_and_csv():
    static = coll([[0, 1], [2]])
    rep = build_campaign(static, static, margins=(0.05, 0.01), confidence=95)
    assert len(rep.plans) == 6
    plan = next(p for p in rep.plans if p.method == "random" and p.margin == 0.05)
    assert plan.population == 255
    assert plan.sample == sfi_sample_size(255, 0.05)
    csv = rep.to_csv()
    head = csv.splitlines()[0]
    assert head == "method,num_sets,num_superset,max_multiplicity,total_faults,n(0.05),n(0.01)"
    assert len(csv.splitlines()) == 4


def test_campaign_exact_huge_population():
    static = coll([[0, 1]], names(66))
    rep = build_campaign(static, static)
    assert rep.random.total_faults == 2**66 - 1
    assert rep.to_json()["methods"]["random"]["total_faults"] == str(2**66 - 1)
    assert rep.to_json()["methods"]["random"]["total_faults_sci"] == "7.38E+19"


def test_campaign_ratio_beyond_float_range():
    # 2^1100 - 1 random combinations over 3 propagated ones exceeds the float range
    static = coll([[0, 1]], names(1100))
    rep = build_campaign(static, static)
    reduction = rep.to_json()["reduction"]
    assert reduction["static_over_propagated"] == 1.0
    assert reduction["random_over_propagated"] == sci3((2**1100 - 1) // 3) == "4.53E+330"
    rows = rep.to_csv().splitlines()
    assert rows[3].split(",")[:5] == ["random", "1", "1", "1100", str(2**1100 - 1)]


def test_per_set_bound_within_universe():
    c = coll([[0, 1, 2], [3], [0, 7]])
    n = len(UNIVERSE)
    for s in c.unique_sets:
        assert (1 << s.multiplicity) - 1 <= (1 << n) - 1


def test_campaign_without_flip_flops():
    # a circuit such as `INPUT(a) OUTPUT(b) b = NOT(a)` has no flip-flop and no set
    empty = SetCollection((), ())
    rep = build_campaign(empty, empty)
    assert rep.num_ffs == 0
    assert rep.static_over_propagated is None and rep.random_over_propagated is None
    assert all(p.population == 0 and p.sample == 0 for p in rep.plans)
    assert rep.to_csv().splitlines()[1:] == [
        "static,0,0,0,0,0,0,0",
        "propagated,0,0,0,0,0,0,0",
        "random,0,0,0,0,0,0,0",
    ]
