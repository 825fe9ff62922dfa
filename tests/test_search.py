import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import umbellab as U
from umbellab import invariants, search, trees
from umbellab.invariants import InvariantError, Plan, compile_plan, evaluate
from umbellab.search import BudgetExceeded, NO_FEASIBLE, SearchError, pins_from_json

import invariant_oracle
from search_oracle import sequential_local_search_max


def _doc(result) -> str:
    """The result's document, as the search command encodes it."""
    return json.dumps(result.to_dict(), allow_nan=False)


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


@pytest.mark.parametrize("h,free", [(10, 2047), (16, 131071)])
def test_budget_refusal_names_its_count_before_any_plan(monkeypatch, h, free):
    # 6^131071 has 101,994 digits, past Python's int-to-str limit
    def unused(*args):
        raise AssertionError("read past the budget check")

    monkeypatch.setattr(search, "compile_plan", unused)
    monkeypatch.setattr(trees.TreeGraph, "index", property(unused))
    prob = U.SearchProblem(U.parse_tree_spec(f"bin:h={h}"), path_target(6),
                           U.InvariantId.FORK_COTYPE, 2.0)
    with pytest.raises(BudgetExceeded) as info:
        U.exhaustive_max(prob)
    assert str(info.value) == (f"6^{free} assignments exceed the exhaustive "
                               "budget of 10000000")


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


def _dict_start(problem):
    """The canonical start by a walk over vertex tuples: each vertex takes
    its pin, else its parent's point; the root defaults to point 0."""
    start = {}
    for v in U.vertices(problem.spec):
        start[v] = problem.pins.get(v, start[v[:-1]] if v else 0)
    return start


def test_canonical_start_propagates_pins():
    spec = U.parse_tree_spec("bin:h=2")
    prob = U.SearchProblem(spec=spec, target=path_target(3),
                           invariant=U.InvariantId.MARKOV_DIRECTED,
                           exponent=2.0, pins={(): 2, (1,): 1})
    score = search._Scorer(prob)
    verts = U.vertices(spec)
    start = dict(zip(verts, score.start.tolist()))
    assert start == _dict_start(prob)
    assert start[()] == 2
    assert start[(1,)] == 1
    assert start[(1, 1)] == 1
    assert start[(-1,)] == 2
    assert [verts[i] for i in score.free] == [v for v in verts if v not in prob.pins]
    spec = U.parse_tree_spec("bin:h=4")
    verts = U.vertices(spec)
    rng = np.random.default_rng(3)
    for count in (0, 1, 5, 12, len(verts)):
        chosen = rng.choice(len(verts), count, replace=False)
        pins = {verts[i]: int(rng.integers(3)) for i in chosen}
        prob = U.SearchProblem(spec, path_target(3), U.InvariantId.TESSERA, 2.0, pins)
        score = search._Scorer(prob)
        assert score.start.dtype == np.intp
        assert dict(zip(verts, score.start.tolist())) == _dict_start(prob)
        assert score.free == sorted(set(range(len(verts))) - set(chosen.tolist()))


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
    obj = json.loads(_doc(res))
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


# window budgets of local search, in gathered entries: every window one
# vertex (one scorer call a vertex), or only the quiet run and the scorer
# block as limits
WINDOWS = {"one-vertex": 0, "whole-sweep": 1 << 62}


def check_lockstep(tree, inv, target, cap, monkeypatch, window=None):
    spec = U.parse_tree_spec(tree)
    problem = U.SearchProblem(spec, target, inv, 2.0, {(): 0})
    sizes, widths = [], []
    if window is not None:
        monkeypatch.setattr(search, "_WINDOW", window)
    if cap is not None:
        # scorer batches of cap * n rows: climbs run cap at a time
        pairs = sum(len(compile_plan(inv, spec, side).u) for side in ("lhs", "rhs"))
        monkeypatch.setattr(U.spaces, "BLOCK", cap * target.n * pairs)
        scored, stepped = search._Scorer.__call__, search._Delta.__call__

        def spy(self, A):
            sizes.append(A.shape[1])
            return scored(self, A)

        def delta_spy(self, climbs, *args):
            widths.append(climbs.shape[1])
            return stepped(self, climbs, *args)

        monkeypatch.setattr(search._Scorer, "__call__", spy)
        monkeypatch.setattr(search._Delta, "__call__", delta_spy)
    for steps in (0, 1, 3, 100):
        for restarts in (0, 1, 5):
            seed = 10 * steps + restarts
            got = U.local_search_max(problem, restarts, steps, seed)
            want = sequential_local_search_max(problem, restarts, steps, seed)
            assert _doc(got) == _doc(want), (steps, restarts)
    if cap is not None and widths:
        # a delta sweep scores in full only where its bounds do not decide,
        # so the group shows in the climbs each vertex's delta reads
        assert max(widths) == cap and max(sizes) <= cap * target.n
    elif cap is not None:
        assert max(sizes) == cap * target.n


@pytest.mark.parametrize("cap", [None, 2], ids=["one-group", "groups-of-2"])
@pytest.mark.parametrize("tree,inv", LOCKSTEP_CASES,
                         ids=[inv.value for _, inv in LOCKSTEP_CASES])
def test_lockstep_climbs_equal_sequential_climbs(tree, inv, cap, monkeypatch):
    check_lockstep(tree, inv, random_target(len(inv.value)), cap, monkeypatch)


@pytest.mark.parametrize("cap", [None, 2], ids=["one-group", "groups-of-2"])
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("tree,inv", LOCKSTEP_CASES,
                         ids=[inv.value for _, inv in LOCKSTEP_CASES])
def test_lockstep_windows_equal_sequential_climbs(tree, inv, window, cap, monkeypatch):
    check_lockstep(tree, inv, random_target(len(inv.value)), cap, monkeypatch,
                   WINDOWS[window])


def scorer_batches(problem, restarts, steps, seed, monkeypatch):
    """The (vertices, rows) shape of every batch a local search hands the
    scorer."""
    shapes = []
    scored = search._Scorer.__call__

    def spy(self, A):
        shapes.append(A.shape)
        return scored(self, A)

    monkeypatch.setattr(search._Scorer, "__call__", spy)
    U.local_search_max(problem, restarts, steps, seed)
    return shapes


def test_windows_cut_the_scorer_calls_of_a_quiet_sweep(monkeypatch):
    # fork-cotype rarely accepts: one call for the starts and one for each
    # of the 30 free vertices would be 31
    problem = U.SearchProblem(U.parse_tree_spec("bin:h=4"), random_target(21),
                              U.InvariantId.FORK_COTYPE, 2.0, {(): 0})
    assert len(scorer_batches(problem, 3, 1, 5, monkeypatch)) < 31


@pytest.mark.parametrize("window", [None, WINDOWS["whole-sweep"]],
                         ids=["default", "whole-sweep"])
def test_a_sweep_that_accepts_at_every_vertex_scores_one_vertex_a_call(window,
                                                                      monkeypatch):
    # some tessera climb of 32 accepts at every free vertex here: no quiet
    # run, so no window, whatever the budget (markov-directed, which
    # accepts at nearly every vertex, sweeps by deltas)
    if window is not None:
        monkeypatch.setattr(search, "_WINDOW", window)
    problem = U.SearchProblem(U.parse_tree_spec("bin:h=4"), random_target(2),
                              U.InvariantId.TESSERA, 2.0, {(): 0})
    assert scorer_batches(problem, 31, 1, 2, monkeypatch) == [(31, 32)] + [(31, 192)] * 30


def test_windows_that_keep_rows_after_an_acceptance_differ(monkeypatch):
    # the mutant walks on through a window after a climb accepted, reading
    # rows scored from the map that climb has left
    accept = search._accept

    def keep_rows(*args):
        return (*accept(*args)[:2], False)

    monkeypatch.setattr(search, "_WINDOW", WINDOWS["whole-sweep"])
    for inv in (U.InvariantId.FORK_CONVEXITY, U.InvariantId.TESSERA):
        problem = U.SearchProblem(U.parse_tree_spec("bin:h=4"), random_target(1),
                                  inv, 2.0, {(): 0})
        want = _doc(sequential_local_search_max(problem, 5, 3, 1))
        with monkeypatch.context() as m:
            m.setattr(search, "_accept", keep_rows)
            assert _doc(U.local_search_max(problem, 5, 3, 1)) != want, inv
        assert _doc(U.local_search_max(problem, 5, 3, 1)) == want, inv


@pytest.mark.parametrize("n", [2, 7])
@pytest.mark.parametrize("tree,inv", [LOCKSTEP_CASES[0], LOCKSTEP_CASES[-1]],
                         ids=["fork-convexity", "umbel-cotype"])
def test_lockstep_group_draws_on_other_target_sizes(tree, inv, n, monkeypatch):
    # a group's starts are one array draw and the oracle's are scalar draws;
    # the bounded draw's rejection step depends on n, and groups of 2 climbs
    # put the restarts in up to 3 groups
    check_lockstep(tree, inv, random_target(n, n), 2, monkeypatch)


SCORER_CASES = ([(tree, inv, 7) for tree in ("bin:h=4", "bin:h=8") for inv in (
    U.InvariantId.FORK_CONVEXITY, U.InvariantId.FORK_COTYPE,
    U.InvariantId.TESSERA, U.InvariantId.MARKOV_DIRECTED)]
    + [(tree, inv, 7) for tree, inv in LOCKSTEP_CASES[4:]]
    # 12 rows of markov-directed's 48,208 lhs columns on bin:h=8: 578,496
    # gathered entries, past 2^19, so a column-major reduce walks each
    # segment a row apart, out of the cache
    + [("bin:h=8", U.InvariantId.MARKOV_DIRECTED, 12)])


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("tree,inv,batch", SCORER_CASES, ids=[
    f"{tree}-{inv.value}" + ("" if batch == 7 else f"-{batch}-rows")
    for tree, inv, batch in SCORER_CASES])
def test_scorer_equals_per_side_evaluation(tree, inv, batch, blocks, monkeypatch):
    # the scorer's fused gather against each side evaluated on its own,
    # bit for bit, nan where rhs <= 0 (row 0 is the constant map)
    spec = U.parse_tree_spec(tree)
    plans = [compile_plan(inv, spec, side) for side in ("lhs", "rhs")]
    if blocks > 1:
        monkeypatch.setattr(U.spaces, "BLOCK", -(-batch // blocks)
                            * sum(len(plan.u) for plan in plans))
    for seed in range(4):
        target = random_target(seed)
        A = np.random.default_rng(seed).integers(
            target.n, size=(batch, len(U.vertices(spec)))).T.copy()
        A[:, 0] = 0
        for p in (1.0, 1.5, 2.0, 3.0):
            score = search._Scorer(U.SearchProblem(spec, target, inv, p))
            assert -(-batch // score.rows) == blocks
            left, right = (evaluate(plan, target.distance_rows(A[plan.u], A[plan.v]), p)
                           for plan in plans)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = left / right
            want[~(right > 0)] = np.nan
            assert right[0] == 0 and (right[1:] > 0).all()
            assert score(A).tobytes() == want.tobytes(), (seed, p)


# targets whose distances tie, vanish off the diagonal, carry signed zeros
# (0.0 and -0.0 rank alike, and (-0.0) ** 3 is -0.0) or have p-th powers
# past the float range; the random one has distances whose scalar and numpy
# powers differ in the last bit
TABLE_TARGETS = {
    "path": path_target(3),
    "star": U.FiniteMatrixSpace([[0.0, 2.0, 2.0, 1.0], [2.0, 0.0, 2.0, 1.0],
                                 [2.0, 2.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]),
    "zeros": U.FiniteMatrixSpace([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0],
                                  [1.0, 1.0, 0.0]]),
    "signed-zeros": U.FiniteMatrixSpace([[-0.0, 0.0, 1.0], [-0.0, 0.0, 1.0],
                                         [1.0, 1.0, -0.0]]),
    "huge": U.FiniteMatrixSpace([[0.0, 1e308, 1e308], [1e308, 0.0, 1.0],
                                 [1e308, 1.0, 0.0]]),
    "random": random_target(11),
}


def table_mismatches():
    """The (tree, id, target, p) cases where the scorer's ratios differ in
    any bit from evaluate's on the gathered distances (row 0 is the
    constant map)."""
    bad = []
    for tree, inv in LOCKSTEP_CASES:
        spec = U.parse_tree_spec(tree)
        plans = [compile_plan(inv, spec, side) for side in ("lhs", "rhs")]
        for name, target in TABLE_TARGETS.items():
            A = np.random.default_rng(len(name)).integers(
                target.n, size=(48, len(U.vertices(spec)))).T.copy()
            A[:, 0] = 0
            for p in (1.0, 1.5, 2.0, 3.0):
                score = search._Scorer(U.SearchProblem(spec, target, inv, p))
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    left, right = (evaluate(plan, target.table[A[plan.u], A[plan.v]], p)
                                   for plan in plans)
                    want = left / right
                want[~(right > 0)] = np.nan
                assert not np.signbit(left).any()  # the join's +0.0 total
                if score(A).tobytes() != want.tobytes():
                    bad.append((tree, inv.value, name, p))
    return bad


def test_scorer_tables_equal_evaluation_on_ties_zeros_and_overflow():
    assert table_mismatches() == []


@pytest.mark.parametrize("window", [None, *WINDOWS.values()],
                         ids=["default", *WINDOWS])
@pytest.mark.parametrize("name", ["path", "star", "zeros", "signed-zeros", "huge"])
@pytest.mark.parametrize("tree,inv", LOCKSTEP_CASES,
                         ids=[inv.value for _, inv in LOCKSTEP_CASES])
def test_lockstep_climbs_on_ties_zeros_and_overflow(tree, inv, name, window,
                                                    monkeypatch):
    # ties, nan ratios and inf powers decide acceptances here, and a window's
    # larger batches raise no warning
    check_lockstep(tree, inv, TABLE_TARGETS[name], None, monkeypatch, window)


def delta_search(problem, restarts, steps, seed, monkeypatch):
    """A local search's document, its full scorer calls and the vertices at
    which it fell back to full scoring (on the delta path `_accept` walks
    only those)."""
    counts = {"calls": 0, "fallbacks": 0}
    scored, accept = search._Scorer.__call__, search._accept

    def spy(self, A):
        counts["calls"] += 1
        return scored(self, A)

    def accept_spy(*args):
        counts["fallbacks"] += 1
        return accept(*args)

    with monkeypatch.context() as m:
        m.setattr(search._Scorer, "__call__", spy)
        m.setattr(search, "_accept", accept_spy)
        doc = _doc(U.local_search_max(problem, restarts, steps, seed))
    return doc, counts


def test_delta_search_scores_in_full_only_where_bounds_do_not_decide(monkeypatch):
    # one call for the starts, one at the sweep's end and one a fallback
    # vertex, where a vertex a call would make 31
    spec = U.parse_tree_spec("bin:h=4")
    for seed in range(8):
        problem = U.SearchProblem(spec, random_target(100 + seed),
                                  U.InvariantId.MARKOV_DIRECTED, 2.0, {(): 0})
        doc, counts = delta_search(problem, 3, 1, seed, monkeypatch)
        assert doc == _doc(sequential_local_search_max(problem, 3, 1, seed))
        assert counts["calls"] <= 2 + counts["fallbacks"] and counts["calls"] < 8, counts


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("name", ["path", "star", "zeros", "signed-zeros", "huge"])
def test_delta_search_falls_back_on_ties_zeros_and_overflow(name, p, monkeypatch):
    # tied ratios, sides that vanish and sums or powers past the float range
    # (inf / inf has no ratio) leave candidates between the bars; those
    # vertices are scored in full
    problem = U.SearchProblem(U.parse_tree_spec("bin:h=4"), TABLE_TARGETS[name],
                              U.InvariantId.MARKOV_DIRECTED, p, {(): 0})
    fallbacks = 0
    for restarts, steps in ((0, 3), (5, 100)):
        doc, counts = delta_search(problem, restarts, steps, 7, monkeypatch)
        assert doc == _doc(sequential_local_search_max(problem, restarts, steps, 7))
        fallbacks += counts["fallbacks"]
    assert fallbacks > 0


@pytest.mark.parametrize("p", [500.0, 510.0])
def test_delta_search_needs_weights_in_the_normal_range(p):
    # on bin:h=4 the least weight is 2^-7 and the largest divisor 2^(2 p):
    # past p = 507.5 a weight would fall below the normal range, where a
    # rounding is no longer relative, so the search keeps the full scorer
    problem = U.SearchProblem(U.parse_tree_spec("bin:h=4"), random_target(3),
                              U.InvariantId.MARKOV_DIRECTED, p, {(): 0})
    assert (search._Delta.of(search._Scorer(problem)) is None) == (p > 507.5)
    assert _doc(U.local_search_max(problem, 3, 3, 1)) == \
        _doc(sequential_local_search_max(problem, 3, 3, 1))


def test_delta_search_on_bin_h8_equals_sequential_climbs():
    problem = U.SearchProblem(U.parse_tree_spec("bin:h=8"), random_target(8),
                              U.InvariantId.MARKOV_DIRECTED, 2.0, {(): 0})
    assert _doc(U.local_search_max(problem, 0, 1, 0)) == \
        _doc(sequential_local_search_max(problem, 0, 1, 0))


def _halves(x):
    """x as hi + lo, each with at most 27 significant bits (Veltkamp's
    split), so that the product of two halves is exact."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def exact_sides(score, A):
    """Each side of each column of A, as Fractions within 2^-53 of the
    exact sum of its terms w d^p / 2^(s p): a group's products w d^p are
    split into exact products of halves and added by math.fsum, which
    rounds once, and the groups are divided and added exactly.  A column
    whose halves overflow (d^p near the float range) adds its products as
    Fractions."""
    out = []
    for plan, divs in zip(score.plans, score.divisors):
        g = score.tables[0][A[plan.u] * score.n + A[plan.v]]
        w = np.broadcast_to(plan.weights[:, None], g.shape)
        (wh, wl), (gh, gl) = _halves(w), _halves(g)
        parts = np.stack([wh * gh, wh * gl, wl * gh, wl * gl], axis=-1)
        ends = [*plan.starts.tolist(), len(plan.u)]
        sides = []
        for c in range(A.shape[1]):
            side = Fraction(0)
            for (lo, hi), div in zip(plan.groups, divs):
                a, b = ends[lo], ends[hi]
                if np.isfinite(parts[a:b, c]).all():
                    group = Fraction(math.fsum(parts[a:b, c].ravel()))
                else:
                    group = sum(Fraction(x) * Fraction(y) for x, y in zip(w[a:b, c], g[a:b, c]))
                side += group / Fraction(div)
            sides.append(side)
        out.append(sides)
    return out


DELTA_WALKS = [("bin:h=2", 40, 1), ("bin:h=4", 40, 1), ("bin:h=8", 256, 64)]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 500.0])
@pytest.mark.parametrize("name", list(TABLE_TARGETS))
def test_delta_bounds_hold_the_scorer(name, p):
    # along random walks of 6 climbs that carry each chosen candidate's ends
    # on, with no reset, every ratio bound the delta vouches for holds the
    # scorer's ratio, and each vouched side's carried interval holds the
    # scorer's side and keeps sigma + u of the exact side to spare
    # (`_Delta`; checked against `exact_sides` at every fourth check); p =
    # 500 sits next to the normal-range cut of bin:h=4 (p = 507.5), and the
    # 256 moves on bin:h=8, checked every 64, are where the ends grow the
    # most
    target = TABLE_TARGETS[name]
    rng = np.random.default_rng(len(name))
    u = 2.0 ** -53
    for tree, moves, every in DELTA_WALKS if p < 500 else DELTA_WALKS[1:2]:
        spec = U.parse_tree_spec(tree)
        score = search._Scorer(U.SearchProblem(spec, target, U.InvariantId.MARKOV_DIRECTED, p))
        delta = search._Delta.of(score)
        sigma = [Fraction(U.spaces.gamma(plan.u.size + plan.starts.size + len(plan.groups) + 2))
                 for plan in score.plans]
        A = rng.integers(target.n, size=(len(U.vertices(spec)), 6))
        score(A)
        LH, own, n, vouched = delta.based(score.sides), delta.own(6), target.n, 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for step, i in enumerate(rng.integers(len(A), size=moves)):
                bounds, ends = delta(A, i, LH, own)
                if step % every == every - 1:
                    lo, hi = bounds.reshape(2, -1)
                    candidates = A.repeat(n, axis=1)
                    candidates[i] = np.tile(np.arange(n), 6)
                    ratios, sides = score(candidates), np.array(score.sides)
                    sure = ~np.isnan(lo)
                    assert (lo[sure] <= ratios[sure]).all() and (ratios[sure] <= hi[sure]).all()
                    low, high = ends[::3].reshape(2, -1), ends[1:3].reshape(2, -1)
                    # a lhs low end below _TINY is not vouched for, and its
                    # high end holds the side with _TINY added
                    vouch = sure & (low >= search._TINY)
                    assert (low <= sides)[vouch].all() and (sides <= high)[vouch].all()
                    assert (sides <= high + search._TINY)[:, sure].all()
                    if (step + 1) % (4 * every) == 0:  # every fourth check
                        exact = exact_sides(score, candidates[:, sure])
                        for side, room in enumerate(sigma):
                            for x, L, H, ok in zip(exact[side], low[side][sure],
                                                   high[side][sure], vouch[side][sure]):
                                if ok:
                                    assert Fraction(L) <= x * (1 - room - u) / (1 - u)
                                    assert Fraction(H) >= x * (1 + room + u) / (1 + u)
                    vouched += sure.sum()
                pts = rng.integers(n, size=6)
                A[i], LH = pts, ends[:, np.arange(6), pts]
        assert vouched > 0 or name in ("zeros", "signed-zeros", "huge"), tree


def test_scorer_with_numpy_min_max_powers_differs(monkeypatch):
    # the mutant powers the distinct distances of min and max sides with
    # numpy's vectorised power instead of the scalar one evaluate applies
    # (markov-directed has sum sides alone, so it cannot differ)
    @np.errstate(over="ignore")
    def numpy_pow(x, p):
        return x ** p

    vals = np.unique(TABLE_TARGETS["random"].table)
    if all(numpy_pow(vals, p).tobytes() == invariants._pow(vals, p).tobytes()
           for p in (1.5, 3.0)):
        pytest.skip("numpy's power is the scalar power here: no mutant")

    monkeypatch.setattr(search, "_pow", numpy_pow)
    bad = table_mismatches()
    assert bad and all(inv != "markov-directed" for _, inv, _, _ in bad)


def test_local_search_powers_the_table_once_per_scorer(monkeypatch):
    # every p-th power of a min or max side is taken when the scorer is
    # built, none per scored batch
    counts = {"pow": 0, "batches": 0}
    scalar_pow, scored = invariants._pow, search._Scorer.__call__

    def pow_spy(x, p):
        counts["pow"] += 1
        return scalar_pow(x, p)

    def call_spy(self, A):
        counts["batches"] += 1
        return scored(self, A)

    for module in (invariants, search):
        monkeypatch.setattr(module, "_pow", pow_spy)
    monkeypatch.setattr(search._Scorer, "__call__", call_spy)
    for tree, inv in LOCKSTEP_CASES:
        problem = U.SearchProblem(U.parse_tree_spec(tree), random_target(1), inv,
                                  2.0, {(): 0})
        for restarts, steps in ((0, 1), (5, 3)):
            counts.update(pow=0, batches=0)
            U.local_search_max(problem, restarts, steps, 3)
            assert counts["pow"] == 1 and counts["batches"] > 1, (inv, counts)


def test_lockstep_climbs_on_an_infeasible_problem():
    # every vertex but one leaf pinned to 0: the canonical start is the
    # constant map, whose rhs is 0, so its climb starts with no ratio
    spec = U.parse_tree_spec("bin:h=2")
    pins = {v: 0 for v in U.vertices(spec) if v != (1, 1)}
    problem = U.SearchProblem(spec, path_target(3),
                              U.InvariantId.MARKOV_DIRECTED, 2.0, pins)
    for restarts in (0, 3):
        got = U.local_search_max(problem, restarts, 5, 1)
        assert _doc(got) == _doc(sequential_local_search_max(problem, restarts, 5, 1))


@pytest.mark.parametrize("restarts,steps", [(-1, 1), (1, -1), (-5, -5)])
def test_local_search_rejects_negative_counts(restarts, steps):
    problem = U.SearchProblem(U.parse_tree_spec("bin:h=2"), path_target(3),
                              U.InvariantId.MARKOV_DIRECTED, 2.0, {(): 0})
    with pytest.raises(SearchError, match=">= 0"):
        U.local_search_max(problem, restarts, steps, 0)


def test_exhaustive_rejects_a_negative_budget():
    problem = U.SearchProblem(U.parse_tree_spec("bin:h=2"), path_target(3),
                              U.InvariantId.MARKOV_DIRECTED, 2.0, {(): 0})
    with pytest.raises(SearchError, match="budget must be >= 0, got -1") as info:
        U.exhaustive_max(problem, budget=-1)
    assert not isinstance(info.value, BudgetExceeded)
    assert U.exhaustive_max(problem, budget=3 ** 6).evaluations == 3 ** 6


def test_search_scores_its_own_c_contiguous_batches(monkeypatch):
    # local and exhaustive search build each batch as a C-contiguous
    # (vertices x rows) array and hand the scorer that array itself, not a
    # transposed view, so the scorer gathers whole rows of it with no copy
    seen = []
    scored = search._Scorer.__call__

    def spy(self, A):
        seen.append((A.flags.c_contiguous, A.shape[0] == len(self.start)))
        return scored(self, A)

    monkeypatch.setattr(search._Scorer, "__call__", spy)
    for tree, inv in LOCKSTEP_CASES[::3]:
        problem = U.SearchProblem(U.parse_tree_spec(tree), random_target(2), inv,
                                  2.0, {(): 0})
        U.local_search_max(problem, 5, 3, 1)
    problem = U.SearchProblem(U.parse_tree_spec("bin:h=2"), path_target(3),
                              U.InvariantId.MARKOV_DIRECTED, 2.0, {(): 0})
    monkeypatch.setattr(U.spaces, "BLOCK", 16 * 100)  # 16 columns: 100 rows a batch
    before = len(seen)
    assert U.exhaustive_max(problem).evaluations == 3 ** 6
    assert len(seen) - before == 8 and all(all(flags) for flags in seen), seen


# the tree workload's jobs (perfbench/workloads.py): the identity map's
# class plans
TREE_JOB_PLANS = ([(tree, inv) for tree in ("inc:h=8,b=10", "inc:h=8,b=12")
                   for inv in (U.InvariantId.UMBEL_CONVEXITY,
                               U.InvariantId.RELAXED_UMBEL,
                               U.InvariantId.UMBEL_COTYPE)]
                  + [("bin:h=8", inv) for inv in (
                      U.InvariantId.FORK_CONVEXITY, U.InvariantId.FORK_COTYPE,
                      U.InvariantId.TESSERA, U.InvariantId.MARKOV_DIRECTED)])


def join_plans():
    """Plans whose groups the join is checked on: groups of one size, of
    one segment, of unequal sizes, one group and none, under each outer
    join, with divisors of 1 and of 2^(s p); then every class plan of the
    tree workload's jobs and every pair plan of SCORER_CASES."""
    plans = []
    for sizes in ([2, 2, 2], [3, 3, 3, 3], [4, 4], [1, 1, 1], [3, 1, 2], [5], [1], []):
        bounds = np.cumsum([0] + sizes).tolist()
        for outer in ("sum", "mean", "min"):
            for scales in ([0] * len(sizes), list(range(len(sizes)))):
                plans.append(Plan(starts=np.arange(bounds[-1]), reduce="sum",
                                  weights=None, outer=outer,
                                  groups=tuple(zip(bounds[:-1], bounds[1:])),
                                  scales=tuple(scales)))
    for tree, inv in TREE_JOB_PLANS:
        for side in ("lhs", "rhs"):
            try:
                plans.append(invariants.class_plan(inv, U.parse_tree_spec(tree), side))
            except InvariantError:  # a side the tree does not realise
                pass
    plans += [compile_plan(inv, U.parse_tree_spec(tree), side)
              for tree, inv in dict.fromkeys(case[:2] for case in SCORER_CASES)
              for side in ("lhs", "rhs")]
    return plans


def join_mismatches(join):
    """The (plan, p, rows) cases where `join` on the segments x rows values,
    C-contiguous and as the .T of rows x segments, differs in any bit from
    the per-segment oracle.  Values span six decades, so the order of the
    additions shows, with signed zeros, nan and inf among them."""
    rng = np.random.default_rng(37)
    special = np.array([0.0, -0.0, np.nan, np.inf])
    bad = []
    for k, plan in enumerate(join_plans()):
        for p in (1.0, 2.0, 3.0):
            divs = invariants._divisors(plan, p)
            for rows in (1, 2, 24):
                seg = rng.random((rows, len(plan.starts))) * 10.0 ** rng.integers(
                    -3, 3, size=(rows, len(plan.starts)))
                hit = rng.random(seg.shape) < 0.1
                seg[hit] = rng.choice(special, size=int(hit.sum()))
                want = invariant_oracle.join(plan, seg, divs).tobytes()
                for view in (seg.T, np.ascontiguousarray(seg.T)):
                    if join(plan, view, divs).tobytes() != want:
                        bad.append((k, p, rows))
    return bad


def test_join_equals_the_per_segment_join():
    assert join_mismatches(invariants._join) == []


def test_join_adding_the_groups_in_reverse_differs():
    # the mutant joins each group as the library does but adds the groups
    # last to first: the cases above tell the two orders apart
    def reversed_join(plan, seg, divs):
        total = np.zeros(seg.shape[1])
        for group, div in reversed(list(zip(plan.groups, divs))):
            total = total + invariants._join(replace(plan, groups=(group,)), seg, [div])
        return total

    assert join_mismatches(reversed_join)
