import numpy as np
import pytest

import umbellab as U
from umbellab import search
from umbellab.invariants import compile_plan
from umbellab.search import (BudgetExceeded, NO_FEASIBLE, SearchError,
                             canonical_start, pins_from_json)

from search_oracle import sequential_local_search_max


def path_target(n):
    return U.FiniteMatrixSpace(
        np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float))


def test_exhaustive_small_markov_instance():
    spec = U.parse_tree_spec("bin:h=2")
    prob = U.SearchProblem(spec=spec, target=path_target(3),
                           invariant=U.InvariantId.MARKOV_DIRECTED,
                           exponent=2.0, pins={(): 0})
    res = U.exhaustive_max(prob)
    assert res.feasible
    assert res.best_ratio == pytest.approx(2.0)
    assert res.best_map.point(()) == 0


def test_exhaustive_matches_second_enumeration():
    # independent re-enumeration with itertools over the free vertices
    import itertools
    spec = U.parse_tree_spec("bin:h=2")
    tgt = path_target(3)
    pins = {(): 0, (1,): 1}
    prob = U.SearchProblem(spec=spec, target=tgt,
                           invariant=U.InvariantId.MARKOV_DIRECTED,
                           exponent=2.0, pins=pins)
    res = U.exhaustive_max(prob)
    free = [v for v in U.vertices(spec) if v not in pins]
    best = -np.inf
    for combo in itertools.product(range(tgt.n), repeat=len(free)):
        assign = dict(pins)
        assign.update(zip(free, combo))
        f = U.TreeMap(spec, tgt, assign)
        denom = U.rhs(U.InvariantId.MARKOV_DIRECTED, f, 2.0)
        if denom <= 0:
            continue
        best = max(best, U.lhs(U.InvariantId.MARKOV_DIRECTED, f, 2.0) / denom)
    assert res.best_ratio == pytest.approx(best)


def test_budget_exceeded():
    spec = U.parse_tree_spec("bin:h=4")
    prob = U.SearchProblem(spec=spec, target=path_target(4),
                           invariant=U.InvariantId.FORK_COTYPE,
                           exponent=2.0, pins={(): 0})
    with pytest.raises(BudgetExceeded):
        U.exhaustive_max(prob, budget=10 ** 6)


def test_local_search_matches_exhaustive():
    spec = U.parse_tree_spec("bin:h=2")
    prob = U.SearchProblem(spec=spec, target=path_target(3),
                           invariant=U.InvariantId.MARKOV_DIRECTED,
                           exponent=2.0, pins={(): 0})
    res = U.exhaustive_max(prob)
    hits = 0
    for seed in range(10):
        r = U.local_search_max(prob, restarts=8, steps=300, seed=seed)
        if r.feasible and abs(r.best_ratio - res.best_ratio) < 1e-9:
            hits += 1
    assert hits >= 9


def test_local_search_seed_deterministic():
    spec = U.parse_tree_spec("bin:h=2")
    prob = U.SearchProblem(spec=spec, target=path_target(3),
                           invariant=U.InvariantId.MARKOV_DIRECTED,
                           exponent=2.0, pins={(): 0})
    a = U.local_search_max(prob, restarts=4, steps=100, seed=11)
    b = U.local_search_max(prob, restarts=4, steps=100, seed=11)
    assert a.best_ratio == b.best_ratio


def test_canonical_start_propagates_pins():
    spec = U.parse_tree_spec("bin:h=2")
    prob = U.SearchProblem(spec=spec, target=path_target(3),
                           invariant=U.InvariantId.MARKOV_DIRECTED,
                           exponent=2.0, pins={(): 2, (1,): 1})
    start = canonical_start(prob)
    assert start[()] == 2
    assert start[(1,)] == 1
    assert start[(1, 1)] == 1
    assert start[(-1,)] == 2


def test_pins_validated():
    spec = U.parse_tree_spec("bin:h=2")
    with pytest.raises(Exception):
        U.SearchProblem(spec=spec, target=path_target(3),
                        invariant=U.InvariantId.MARKOV_DIRECTED,
                        exponent=2.0, pins={(): 7})
    with pytest.raises(Exception):
        U.SearchProblem(spec=spec, target=path_target(3),
                        invariant=U.InvariantId.MARKOV_DIRECTED,
                        exponent=2.0, pins={(9, 9): 0})


def test_no_feasible_sentinel():
    assert not NO_FEASIBLE.feasible
    assert NO_FEASIBLE.best_map is None
    assert NO_FEASIBLE.best_ratio == -np.inf


def test_identity_report_helper():
    spec = U.parse_tree_spec("bin:h=4")
    rep = U.report(U.InvariantId.FORK_COTYPE, U.TreeMap.identity(spec), 1.0)
    assert rep.ratio_root == pytest.approx(2.0)


def test_search_result_json():
    spec = U.parse_tree_spec("bin:h=2")
    prob = U.SearchProblem(spec=spec, target=path_target(3),
                           invariant=U.InvariantId.MARKOV_DIRECTED,
                           exponent=2.0, pins={(): 0})
    res = U.exhaustive_max(prob)
    import json
    obj = json.loads(res.to_json())
    assert obj["feasible"] is True
    assert obj["best_ratio"] == pytest.approx(2.0)


@pytest.mark.parametrize("pins", [{(): "a"}, {(): 1.5}, {(): True}, {(): -1},
                                  {(): 3}, {(1.0,): 0}, {(True,): 0},
                                  {("1",): 0}, {(9, 9): 0}])
def test_bad_pins_raise_search_error(pins):
    with pytest.raises(SearchError, match="pinned"):
        U.SearchProblem(spec=U.parse_tree_spec("bin:h=2"), target=path_target(3),
                        invariant=U.InvariantId.MARKOV_DIRECTED, exponent=2.0,
                        pins=pins)


def test_pins_from_json():
    assert pins_from_json({"pins": [[[], 0], [[1, -1], np.int64(2)]]}) == \
        {(): 0, (1, -1): 2}
    # the shape of the document; SearchProblem checks labels and points
    for bad in ({"pins": [[5, 0]]}, {"pins": [[[[1]], 0]]}, {"pins": [[[]]]},
                {}, [], {"pins": 3}):
        with pytest.raises(SearchError):
            pins_from_json(bad)
    with pytest.raises(SearchError, match="pins a vertex twice"):
        pins_from_json({"pins": [[[], 0], [[], 1]]})


def random_target(seed, n=6):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    return U.FiniteMatrixSpace(
        np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)))


LOCKSTEP_CASES = ([("bin:h=4", inv) for inv in (
    U.InvariantId.FORK_CONVEXITY, U.InvariantId.FORK_COTYPE,
    U.InvariantId.TESSERA, U.InvariantId.MARKOV_DIRECTED)]
    + [("inc:h=4,b=5", inv) for inv in (
        U.InvariantId.UMBEL_CONVEXITY, U.InvariantId.RELAXED_UMBEL,
        U.InvariantId.UMBEL_COTYPE)])


@pytest.mark.parametrize("cap", [None, 2], ids=["one-group", "groups-of-2"])
@pytest.mark.parametrize("tree,inv", LOCKSTEP_CASES,
                         ids=[inv.value for _, inv in LOCKSTEP_CASES])
def test_lockstep_climbs_equal_sequential_climbs(tree, inv, cap, monkeypatch):
    spec = U.parse_tree_spec(tree)
    target = random_target(len(inv.value))
    problem = U.SearchProblem(spec, target, inv, 2.0, {(): 0})
    sizes = []
    if cap is not None:
        # scorer batches of cap * n rows: climbs run cap at a time
        pairs = sum(len(compile_plan(inv, spec, side).u) for side in ("lhs", "rhs"))
        monkeypatch.setattr(search, "_BATCH", cap * target.n * pairs)
        scored = search._Scorer.__call__

        def spy(self, A):
            sizes.append(len(A))
            return scored(self, A)

        monkeypatch.setattr(search._Scorer, "__call__", spy)
    for steps in (0, 1, 3, 100):
        for restarts in (0, 1, 5):
            seed = 10 * steps + restarts
            got = U.local_search_max(problem, restarts, steps, seed)
            want = sequential_local_search_max(problem, restarts, steps, seed)
            assert got.to_json() == want.to_json(), (steps, restarts)
    if cap is not None:
        assert max(sizes) == cap * target.n


def test_lockstep_climbs_on_an_infeasible_problem():
    # every vertex but one leaf pinned to 0: the canonical start is the
    # constant map, whose rhs is 0, so its climb starts with no ratio
    spec = U.parse_tree_spec("bin:h=2")
    pins = {v: 0 for v in U.vertices(spec) if v != (1, 1)}
    problem = U.SearchProblem(spec, path_target(3),
                              U.InvariantId.MARKOV_DIRECTED, 2.0, pins)
    for restarts in (0, 3):
        got = U.local_search_max(problem, restarts, 5, 1)
        assert got.to_json() == \
            sequential_local_search_max(problem, restarts, 5, 1).to_json()


@pytest.mark.parametrize("restarts,steps", [(-1, 1), (1, -1), (-5, -5)])
def test_local_search_rejects_negative_counts(restarts, steps):
    problem = U.SearchProblem(U.parse_tree_spec("bin:h=2"), path_target(3),
                              U.InvariantId.MARKOV_DIRECTED, 2.0, {(): 0})
    with pytest.raises(SearchError, match=">= 0"):
        U.local_search_max(problem, restarts, steps, 0)
