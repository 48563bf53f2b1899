import random

import pytest

from set2seu.oracle import brute_force_sat
from set2seu.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    CdclSolver,
    luby,
    parse_dimacs,
    solve_cnf,
    to_dimacs,
)


def clause_satisfied(cl, model):
    return any(model[abs(l)] == (l > 0) for l in cl)


def random_3cnf(rng, num_vars, num_clauses):
    out = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        out.append([v if rng.random() < 0.5 else -v for v in vs])
    return out


def test_trivial_unsat():
    assert solve_cnf(1, [[1], [-1]]).status == UNSAT


def test_assumption_forces_other_branch():
    res = solve_cnf(2, [[1, 2]], assumptions=[-1])
    assert res.status == SAT
    assert res.model[2] is True
    assert res.model[1] is False


def test_unsat_under_assumptions_sat_without():
    s = CdclSolver(2)
    s.add_clause([1, 2])
    s.add_clause([-1, 2])
    assert s.solve([-2]).status == UNSAT
    assert s.solve().status == SAT


def test_empty_clause_is_unsat():
    s = CdclSolver(1)
    s.add_clause([])
    assert s.solve().status == UNSAT


def test_tautology_dropped():
    assert solve_cnf(1, [[1, -1]]).status == SAT


def test_luby_prefix():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@pytest.mark.parametrize("seed", range(40))
def test_random_3cnf_matches_truth_table(seed):
    rng = random.Random(seed)
    nv = rng.randint(5, 20)
    nc = rng.randint(nv, int(nv * 4.5))
    clauses = random_3cnf(rng, nv, nc)
    res = solve_cnf(nv, clauses)
    ref = brute_force_sat(nv, clauses)
    assert res.status == ref.status
    if res.status == SAT:
        assert all(clause_satisfied(cl, res.model) for cl in clauses)


def test_model_is_total():
    res = solve_cnf(6, [[1, 2], [-3, 4]])
    assert res.status == SAT
    assert all(isinstance(res.model[v], bool) for v in range(1, 7))


def pigeonhole(holes):
    """holes+1 pigeons into `holes` holes; classic small UNSAT family."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    return (holes + 1) * holes, clauses


def test_pigeonhole_unsat_and_conflict_cap():
    nv, clauses = pigeonhole(6)
    assert solve_cnf(nv, clauses).status == UNSAT
    capped = solve_cnf(nv, clauses, conflict_limit=3)
    assert capped.status == UNKNOWN
    assert capped.conflicts > 3


def test_unknown_never_misreported_as_unsat():
    nv, clauses = pigeonhole(7)
    res = solve_cnf(nv, clauses, conflict_limit=5)
    assert res.status == UNKNOWN


def test_incremental_blocking_enumeration():
    s = CdclSolver(3)
    s.add_clause([1, 2, 3])
    seen = set()
    while True:
        res = s.solve()
        if res.status != SAT:
            break
        model = tuple(res.model[v] for v in (1, 2, 3))
        seen.add(model)
        s.add_clause([-v if res.model[v] else v for v in (1, 2, 3)])
    assert len(seen) == 7  # all assignments except all-false


def test_determinism():
    rng = random.Random(99)
    clauses = random_3cnf(rng, 15, 60)
    a = solve_cnf(15, clauses)
    b = solve_cnf(15, clauses)
    assert a.status == b.status
    assert a.model == b.model
    assert a.conflicts == b.conflicts


def test_dimacs_round_trip():
    clauses = [[1, -2], [2, 3, -1], [-3]]
    text = to_dimacs(3, clauses, comments=["hello"])
    nv, parsed = parse_dimacs(text)
    assert nv == 3
    assert parsed == clauses
    assert text.startswith("c hello\np cnf 3 3\n")


def test_parse_dimacs_header_and_multiline():
    nv, cls = parse_dimacs("c x\np cnf 4 2\n1 -2\n0\n3 4 0\n")
    assert nv == 4
    assert cls == [[1, -2], [3, 4]]
    with pytest.raises(ValueError):
        parse_dimacs("p dnf 3 1\n1 0\n")


def test_learnt_db_reduction_keeps_correctness():
    # enough conflicts on one instance to trigger reduction paths
    rng = random.Random(5)
    nv, clauses = pigeonhole(5)
    s = CdclSolver(nv)
    for cl in clauses:
        s.add_clause(cl)
    assert s.solve().status == UNSAT


def test_decisions_follow_activity_after_rescale():
    s = CdclSolver(5)
    for v in (4, 4, 4, 1):
        s._bump(v)
    s.var_inc = 2e100
    s._bump(2)  # activity 2e100 crosses the rescale threshold
    picks = []
    while (v := s._pick_var()) is not None:
        picks.append(v)
        s.trail_lim.append(len(s.trail))
        s._enqueue(v, None)
    assert picks == [2, 4, 1, 3, 5]


def _enumerate_models(nv, clauses, reduce):
    """Every model of `clauses`, found by blocking each one on one incremental
    solver; with `reduce`, the learnt clauses are reduced before every solve.
    Returns the models and the number of learnt clauses deleted."""
    s = CdclSolver(nv)
    for cl in clauses:
        s.add_clause(cl)
    models, deleted = [], 0
    while True:
        if reduce:
            before = list(s.learnts)  # keeps the ids of deleted clauses unique
            s._reduce_db()
            kept = {id(cl) for cl in s.learnts}
            dead = {id(cl) for cl in before if id(cl) not in kept}
            assert not any(id(cl) in dead for ws in s.watches for cl in ws)
            deleted += len(dead)
        res = s.solve()
        if res.status != SAT:
            return models, deleted
        models.append(tuple(res.model))
        s.add_clause([-v if res.model[v] else v for v in range(1, nv + 1)])


def test_learnt_clause_reduction_detaches_and_keeps_enumeration():
    rng = random.Random(2024)
    deleted = 0
    for _ in range(30):
        clauses = random_3cnf(rng, 18, 72)
        models, dropped = _enumerate_models(18, clauses, reduce=True)
        deleted += dropped
        assert len(set(models)) == len(models)
        assert all(clause_satisfied(cl, m) for m in models for cl in clauses)
        assert len(models) == len(_enumerate_models(18, clauses, reduce=False)[0])
    assert deleted > 0


def test_assumption_literal_zero_rejected_before_any_state_change():
    s = CdclSolver(2)
    s.add_clause([1, 2])
    s.add_clause([-1, 2])
    for assumptions in ([0], [1, 0], [5, 0]):
        with pytest.raises(ValueError):
            s.solve(assumptions)
        assert (s.trail_lim, s.num_vars) == ([], 2)
    s.add_clause([-2, 1])  # still at decision level 0
    res = s.solve()
    assert res.status == SAT and res.model[1:] == [True, True]
    assert s.solve([-1]).status == UNSAT
    assert s.solve().status == SAT


def _agrees_with_truth_table(res, num_vars, clauses):
    ref = brute_force_sat(num_vars, clauses)
    assert res.status == ref.status
    if res.status == SAT:
        assert len(res.model) == num_vars + 1
        assert all(clause_satisfied(cl, res.model) for cl in clauses)


@pytest.mark.parametrize("seed", range(30))
def test_variables_that_appear_after_construction(seed):
    """Clauses over new variables between solve calls, and an assumption on
    a variable above num_vars, grow the literal-indexed state without
    disturbing what is stored for the old variables."""
    rng = random.Random(seed)
    old = rng.randint(4, 9)
    new = old + rng.randint(2, 6)
    clauses = random_3cnf(rng, old, rng.randint(old, 3 * old))
    s = CdclSolver(old)
    for cl in clauses:
        s.add_clause(cl)
    _agrees_with_truth_table(s.solve(), old, clauses)
    for cl in random_3cnf(rng, new, rng.randint(new, 3 * new)):
        clauses.append(cl)
        s.add_clause(cl)
    _agrees_with_truth_table(s.solve(), new, clauses)
    top = new + rng.randint(1, 3)
    lit = rng.choice((top, -top))
    res = s.solve([lit])
    _agrees_with_truth_table(res, top, clauses + [[lit]])
    _agrees_with_truth_table(s.solve(), top, clauses)
