"""Compiled invariant plans against the per-invariant loops they replaced
(tests/invariant_oracle.py), and search through plans against a search
that scores every assignment through the oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import umbellab as U
from umbellab import invariants, trees
from umbellab.embeddings import EmbeddingError
from umbellab.invariants import InvariantError, InvariantId, compile_plan
from umbellab.search import canonical_start

import invariant_oracle as oracle

BINARY_IDS = [InvariantId.FORK_CONVEXITY, InvariantId.FORK_COTYPE,
              InvariantId.TESSERA, InvariantId.MARKOV_DIRECTED]
INCREASING_IDS = [InvariantId.UMBEL_CONVEXITY, InvariantId.RELAXED_UMBEL,
                  InvariantId.UMBEL_COTYPE]
# sides whose inner reductions are minima or maxima: equal bit for bit
EXTREME_LHS = {InvariantId.FORK_CONVEXITY, InvariantId.FORK_COTYPE,
               *INCREASING_IDS}
# targets whose row-wise distances are the oracle's distances bit for bit
EXACT_TARGETS = {"table", "identity", "l1", "l2", "linf", "prod"}
TREES = ["bin:h=2", "bin:h=4", "bin:h=8"] + \
        [f"inc:h=4,b={b}" for b in range(5, 13)] + \
        [f"inc:h=8,b={b}" for b in range(9, 13)]


def random_map(kind: str, spec, rng):
    verts = U.vertices(spec)
    if kind == "identity":
        return U.TreeMap.identity(spec)
    if kind == "table":
        pts = rng.normal(size=(7, 3))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
        return U.TreeMap(spec, U.FiniteMatrixSpace(d),
                         {v: int(rng.integers(7)) for v in verts})
    if kind in ("heis", "prod"):
        space = U.parse_space({"heis": "heis:dim=2,p=2",
                               "prod": "prod:p=2;l2:dim=2;lp:p=inf,dim=2"}[kind])
        return U.TreeMap(spec, space, {v: space.sample(rng) for v in verts})
    p = {"l1": 1.0, "l2": 2.0, "linf": math.inf, "l3": 3.0}[kind]
    return U.TreeMap(spec, U.LpSpace(3, p),
                     {v: tuple(rng.uniform(-1, 1, 3)) for v in verts})


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvariantError as exc:
        return f"error: {exc}"


def assert_agree(got, want, exact):
    if isinstance(want, str) or exact:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_plans_match_oracle(data):
    tree = data.draw(st.sampled_from(TREES), label="tree")
    spec = U.parse_tree_spec(tree)
    ids = BINARY_IDS if spec.kind == trees.BINARY else INCREASING_IDS
    inv = data.draw(st.sampled_from(ids), label="invariant")
    # the oracle's dense tables are slow on big trees: a loop for
    # Heisenberg targets, cdist over every vertex pair for lp ones
    kinds = ["table", "identity", "l2"]
    if spec.vertex_count() <= 600:
        kinds += ["l1", "linf", "l3"]
    if spec.vertex_count() <= 200:
        kinds.append("heis")
    kind = data.draw(st.sampled_from(kinds), label="map")
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]), label="p")
    j_min = None
    if spec.kind == trees.INCREASING:
        j_min = data.draw(st.one_of(st.none(),
                                    st.integers(1, spec.branching + 1)),
                          label="j_min")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    f = random_map(kind, spec, np.random.default_rng(seed))
    exact = kind in EXACT_TARGETS
    assert_agree(outcome(U.lhs, inv, f, p, j_min),
                 outcome(oracle.lhs, inv, f, p, j_min),
                 exact and inv in EXTREME_LHS)
    assert_agree(outcome(U.rhs, inv, f, p), outcome(oracle.rhs, inv, f, p),
                 kind in ("table", "identity")
                 and inv is not InvariantId.MARKOV_DIRECTED)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_markov_expectation_matches_branch_decomposition(k):
    spec = U.parse_tree_spec(f"bin:h={2 ** k}")
    f = random_map("l2", spec, np.random.default_rng(k))
    for s in range(k + 1):
        for t in range(2 ** s, 2 ** k + 1):
            assert U.markov_pair_expectation_exact(f, s, t, 1.5) == \
                pytest.approx(oracle.branch_expectation(f, 2 ** s, t, 1.5),
                              rel=1e-12)


def test_plans_live_on_the_tree_graph_cache():
    spec = U.parse_tree_spec("bin:h=4")
    plan = compile_plan(InvariantId.FORK_COTYPE, spec, "lhs")
    assert compile_plan(InvariantId.FORK_COTYPE, spec, "lhs") is plan
    assert trees.tree_graph(spec).plans
    trees.tree_graph.cache_clear()
    assert not trees.tree_graph(spec).plans
    assert compile_plan(InvariantId.FORK_COTYPE, spec, "lhs") is not plan


@pytest.mark.parametrize("tree,j_min", [
    ("bin:h=2", None), ("bin:h=4", None), ("bin:h=8", None),
    ("inc:h=4,b=5", None), ("inc:h=4,b=7", None), ("inc:h=4,b=7", 3),
    ("inc:h=4,b=7", 6), ("inc:h=8,b=10", None), ("inc:h=8,b=10", 7)])
def test_plans_equal_the_selection_by_common_prefix(tree, j_min, monkeypatch):
    spec = U.parse_tree_spec(tree)
    ids = BINARY_IDS if spec.kind == trees.BINARY else INCREASING_IDS

    def plans():
        trees.tree_graph.cache_clear()
        return {(inv, side): outcome(compile_plan, inv, spec, side, j_min)
                for inv in ids for side in ("lhs", "rhs")}

    got = plans()
    monkeypatch.setattr(invariants, "_prefix_pairs", oracle.prefix_pairs)
    monkeypatch.setattr(invariants, "_branch_pairs", oracle.branch_pairs)
    want = plans()
    trees.tree_graph.cache_clear()
    for key, plan in want.items():
        if isinstance(plan, str):
            assert got[key] == plan, key
            continue
        for name in ("u", "v", "starts", "weights"):
            a, b = getattr(got[key], name), getattr(plan, name)
            assert (a is None and b is None) or np.array_equal(a, b), (key, name)
        assert got[key].groups == plan.groups, key


def test_plan_compilation_needs_no_distance_table():
    # an increasing tree of 31931 vertices: its distance table would take
    # 7.6 GB, its plan only the pairs of the display
    trees.tree_graph.cache_clear()
    spec = U.parse_tree_spec("inc:h=4,b=30")
    f = random_map("l2", spec, np.random.default_rng(0))
    assert U.lhs(InvariantId.UMBEL_COTYPE, f, 2.0) > 0
    trees.tree_graph.cache_clear()


class Squared(U.spaces.RowSpace):
    """(a - b)^2 on the line: a custom target of the row protocol, one column
    a point, with no `quasi_constant`; not a metric, so its pair and edge
    Lipschitz constants differ.  It keeps its own scalar `distance`, which
    the table oracle reads, so the oracle does not run the rows it checks."""

    width = 1

    def rows(self, points):
        return np.asarray(points, dtype=float)

    def distance_rows(self, a, b):
        return (a - b) ** 2

    def distance(self, a, b):
        return float((a - b) ** 2)


@pytest.mark.parametrize("block", [50, 1 << 20])
def test_lipschitz_in_row_blocks_matches_full_buffer(block, monkeypatch):
    monkeypatch.setattr(U.invariants, "_LIPSCHITZ_BLOCK", block)
    spec = U.parse_tree_spec("bin:h=3")
    squared = U.TreeMap(spec, Squared(), {v: sum(v) for v in U.vertices(spec)})
    maps = [random_map(kind, U.parse_tree_spec(tree), np.random.default_rng(8))
            for tree, kind in [("bin:h=3", "l2"), ("bin:h=3", "table"),
                               ("inc:h=4,b=6", "identity"),
                               ("inc:h=4,b=6", "l3")]]
    for f in maps + [squared]:
        got = U.lipschitz_constant(f, with_flag=True)
        graph = trees.tree_graph(f.spec)
        dtree, dimg = oracle.distance_tables(f)
        ratio = np.zeros_like(dimg)
        np.divide(dimg, dtree, out=ratio, where=dtree > 0)
        edges = np.array(graph.edges).reshape(-1, 2)
        pair, edge = float(ratio.max()), float(dimg[edges[:, 0], edges[:, 1]].max())
        assert got == (max(pair, edge), not U.spaces.close(pair, edge))
    assert U.lipschitz_constant(squared, with_flag=True)[1]


LIPSCHITZ_IDS = {trees.BINARY: [InvariantId.FORK_COTYPE, InvariantId.TESSERA],
                 trees.INCREASING: [InvariantId.UMBEL_COTYPE,
                                    InvariantId.RELAXED_UMBEL]}


def test_lipschitz_sides_build_no_table():
    trees.tree_graph.cache_clear()
    rng = np.random.default_rng(5)
    spec = U.parse_tree_spec
    maps = [U.TreeMap.identity(spec("inc:h=8,b=12")),
            U.TreeMap.identity(spec("bin:h=8")),
            random_map("l2", spec("bin:h=8"), rng),
            random_map("table", spec("inc:h=4,b=6"), rng),
            U.bourgain_embed(spec("inc:h=8,b=10"), 2.0)]
    for f in maps:
        for inv in LIPSCHITZ_IDS[f.spec.kind]:
            rep = U.report(inv, f, 2.0)
            assert rep.rhs > 0 and rep.lipschitz_flag is False
    trees.tree_graph.cache_clear()


@pytest.fixture
def pair_scans(monkeypatch):
    """The targets of the Lipschitz pair scans run while the test runs."""
    calls, scan = [], U.invariants._pair_max

    def spy(f):
        calls.append(f.target)
        return scan(f)

    monkeypatch.setattr(U.invariants, "_pair_max", spy)
    return calls


@pytest.mark.parametrize("kind", ["heis:dim=2,p=2",
                                  "prod:p=2;l2:dim=2;heis:dim=2,p=2", "squared"])
def test_quasi_metric_targets_take_the_pair_scan(kind, pair_scans):
    spec = U.parse_tree_spec("bin:h=4")
    if kind == "squared":
        # leaf siblings at 10 and -10: the largest ratio is a non-edge pair
        f = U.TreeMap(spec, Squared(), {v: 10.0 * v[-1] if len(v) == 4 else 0.0
                                        for v in U.vertices(spec)})
    else:
        space, rng = U.parse_space(kind), np.random.default_rng(6)
        f = U.TreeMap(spec, space, {v: space.sample(rng) for v in U.vertices(spec)})
    lip, flag = oracle.lipschitz_constant(f, with_flag=True)
    assert flag is (kind == "squared")
    for inv in LIPSCHITZ_IDS[trees.BINARY]:
        rep = U.report(inv, f, 2.0)
        assert rep.lipschitz_flag is flag
        assert rep.rhs == pytest.approx(lip ** 2, rel=1e-12)
    assert pair_scans == [f.target] * 2


def test_metric_product_takes_the_edge_plan(pair_scans):
    f = random_map("prod", U.parse_tree_spec("bin:h=4"), np.random.default_rng(7))
    for inv in LIPSCHITZ_IDS[trees.BINARY]:
        rep = U.report(inv, f, 2.0)
        assert rep.lipschitz_flag is False
        assert rep.rhs == pytest.approx(oracle.rhs(inv, f, 2.0), rel=1e-12)
    assert pair_scans == []


def test_matrix_within_triangle_slack_matches_the_full_scan():
    # d(0, 2) exceeds d(0, 1) + d(1, 2) by half the slack the matrix check
    # allows, so the pair ratio of a depth-0/depth-2 pair beats every edge
    tol = U.spaces.REL_TOL * (2.0 + 1.0)
    d = np.array([[0.0, 1.0, 2.0 + tol / 2], [1.0, 0.0, 1.0],
                  [2.0 + tol / 2, 1.0, 0.0]])
    spec = U.parse_tree_spec("bin:h=4")
    f = U.TreeMap(spec, U.FiniteMatrixSpace(d),
                  {v: min(len(v), 2) for v in U.vertices(spec)})
    for inv in LIPSCHITZ_IDS[trees.BINARY]:
        got, want = U.rhs(inv, f, 1.0), oracle.rhs(inv, f, 1.0)
        assert got == 1.0 < want
        assert want - got <= U.spaces.REL_TOL * (d.max() + 1.0)


def any_map(kind: str, spec, rng):
    """random_map's kinds, plus a Squared map of distinct points, a
    constant map and the Bourgain embedding of an increasing tree."""
    if kind == "squared":
        return U.TreeMap(spec, Squared(),
                         {v: float(i) for i, v in enumerate(U.vertices(spec))})
    if kind == "constant":
        return U.TreeMap.constant(spec, U.LpSpace(3, 2.0))
    if kind == "bourgain":
        return U.bourgain_embed(spec, 2.0)
    return random_map(kind, spec, rng)


MAP_KINDS = ["table", "identity", "l1", "l2", "linf", "l3", "heis", "prod",
             "squared"]


@pytest.mark.parametrize("kind", MAP_KINDS + ["bourgain"])
def test_pair_distances_broadcast_equal_the_flat_gather(kind):
    f = any_map(kind, U.parse_tree_spec("inc:h=4,b=6"), np.random.default_rng(9))
    n = len(f.assignment)
    u, v = np.arange(n)[:, None], np.arange(n)[None, :]
    flat_u, flat_v = (a.ravel() for a in np.broadcast_arrays(u, v))
    block = f.pair_distances(u, v)
    assert block.shape == (n, n)
    assert np.array_equal(block.ravel(), f.pair_distances(flat_u, flat_v))


def scan_numbers(f, lib):
    """Breakpoints and values of both moduli and then the distortion, by
    `lib` (umbellab, or the table oracle); an error stands for its text."""
    try:
        rho, omega = lib.moduli(f)
    except EmbeddingError as exc:
        return str(exc)
    curves = rho.breakpoints + rho.values + omega.breakpoints + omega.values
    try:
        return curves, lib.distortion(f)
    except EmbeddingError as exc:
        return curves, str(exc)


@pytest.mark.parametrize("tree", ["bin:h=4", "inc:h=4,b=6", "bin:h=0"])
@pytest.mark.parametrize("kind", MAP_KINDS + ["constant"])
def test_moduli_and_distortion_match_the_table_oracle(tree, kind):
    f = any_map(kind, U.parse_tree_spec(tree), np.random.default_rng(10))
    got, want = scan_numbers(f, U), scan_numbers(f, oracle)
    if isinstance(want, str) or kind in EXACT_TARGETS | {"constant"}:
        assert got == want
    else:
        assert got == tuple(w if isinstance(w, str)
                            else pytest.approx(w, rel=1e-12, abs=0) for w in want)


@pytest.mark.parametrize("h,p,variant",
                         [(h, p, "lp") for h in (1, 2, 4, 8) for p in (1.5, 2.0, 3.0)]
                         + [(h, 1.0, "l1") for h in (1, 2, 4, 8)]
                         + [(h, math.inf, "linf") for h in (1, 2, 4, 8)])
def test_bourgain_moduli_and_distortion_equal_the_table_oracle(h, p, variant):
    f = U.bourgain_embed(U.parse_tree_spec(f"inc:h={h},b={h + 2}"), p, variant)
    assert scan_numbers(f, U) == scan_numbers(f, oracle)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_lipschitz_allocates_no_table_sized_buffer():
    f = U.TreeMap.identity(U.parse_tree_spec("inc:h=8,b=12"))
    table_bytes = 8 * len(f.assignment) ** 2
    value, peak = traced_peak(U.lipschitz_constant, f)
    assert value == 1.0
    assert peak < table_bytes / 4


def dict_identity(spec) -> U.TreeMap:
    """The identity map as a plain TreeMap: its points come from a dict, so
    its scan runs the row blocks that a ProfileMap skips."""
    return U.TreeMap(spec, trees.tree_graph(spec),
                     dict(zip(U.vertices(spec), range(spec.vertex_count()))))


def test_pair_scan_allocates_no_table_sized_buffer():
    # n = 3797: an n x n float64 table takes 115 MB
    f = dict_identity(U.parse_tree_spec("inc:h=8,b=12"))
    table_bytes = 8 * len(f.assignment) ** 2
    for fn in (U.moduli, U.distortion):
        _, peak = traced_peak(fn, f)
        assert peak < table_bytes / 2, fn.__name__
    assert U.distortion(f) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("tree", [f"bin:h={h}" for h in range(7)]
                         + [f"inc:h={h},b={b}" for h in range(5) for b in range(h, 8)]
                         + ["inc:h=8,b=12"])
def test_identity_profile_map_equals_the_dict_map(tree):
    spec = U.parse_tree_spec(tree)
    f, plain = U.TreeMap.identity(spec), dict_identity(spec)
    assert isinstance(f, invariants.ProfileMap)
    assert scan_numbers(f, U) == scan_numbers(plain, U)
    assert U.lipschitz_constant(f, with_flag=True) == \
        U.lipschitz_constant(plain, with_flag=True)


@pytest.mark.parametrize("tree,inv", [("bin:h=4", i) for i in BINARY_IDS]
                         + [("inc:h=4,b=6", i) for i in INCREASING_IDS],
                         ids=lambda x: getattr(x, "value", x))
def test_evaluate_is_row_independent(tree, inv):
    # search scores many maps in one batch and must get each map's own
    # value: a stacked batch equals its rows evaluated one at a time
    spec = U.parse_tree_spec(tree)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 3))
    target = U.FiniteMatrixSpace(
        np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)))
    A = rng.integers(6, size=(9, len(U.vertices(spec))))
    A[0] = 0  # the constant map: every distance 0
    for side in ("lhs", "rhs"):
        plan = compile_plan(inv, spec, side)
        d = target.distance_rows(A[:, plan.u], A[:, plan.v])
        for p in (1.0, 1.5, 2.0, 3.0):
            rows = [invariants.evaluate(plan, d[r:r + 1], p) for r in range(len(d))]
            assert invariants.evaluate(plan, d, p).tobytes() == \
                np.concatenate(rows).tobytes()


# search through plans against search through the oracle


def oracle_ratio(problem, assignment):
    f = U.TreeMap(problem.spec, problem.target, assignment)
    denom = oracle.rhs(problem.invariant, f, problem.exponent)
    if denom <= 0:
        return None
    return oracle.lhs(problem.invariant, f, problem.exponent) / denom


def oracle_exhaustive(problem):
    free = problem.free_vertices()
    best = -math.inf
    for combo in itertools.product(range(problem.target.n), repeat=len(free)):
        assignment = dict(problem.pins)
        assignment.update(zip(free, combo))
        r = oracle_ratio(problem, assignment)
        if r is not None and r > best:
            best = r
    return best


def oracle_local(problem, restarts, steps, seed):
    """The hill climb of search.local_search_max, one oracle call per
    candidate."""
    free = problem.free_vertices()
    rng = np.random.default_rng(seed)
    best = -math.inf

    def climb(assignment):
        nonlocal best
        current = oracle_ratio(problem, assignment)
        if current is not None:
            best = max(best, current)
        for _ in range(steps):
            improved = False
            for v in free:
                old = assignment[v]
                for pt in range(problem.target.n):
                    if pt == old:
                        continue
                    assignment[v] = pt
                    r = oracle_ratio(problem, assignment)
                    if r is not None and (current is None or r > current + 1e-15):
                        current, old, improved = r, pt, True
                    else:
                        assignment[v] = old
                assignment[v] = old
            if current is not None:
                best = max(best, current)
            if not improved:
                break

    climb(canonical_start(problem))
    for _ in range(restarts):
        assignment = dict(problem.pins)
        for v in free:
            assignment[v] = int(rng.integers(problem.target.n))
        climb(assignment)
    return best


def seeded_problem(inv, seed, free_count=None):
    rng = np.random.default_rng(seed)
    spec = U.parse_tree_spec("bin:h=4")
    pts = rng.normal(size=(3, 2))
    target = U.FiniteMatrixSpace(
        np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)))
    verts = U.vertices(spec)
    pins = {(): 0}
    if free_count is not None:
        free = set(rng.choice(len(verts) - 1, free_count, replace=False) + 1)
        pins = {v: int(rng.integers(3)) for i, v in enumerate(verts)
                if i not in free}
        pins[()] = 0
    return U.SearchProblem(spec, target, inv, 2.0, pins)


@pytest.mark.parametrize("inv", BINARY_IDS, ids=lambda i: i.value)
def test_search_matches_oracle_search(inv):
    for seed in range(10):
        problem = seeded_problem(inv, seed, free_count=4)
        res = U.exhaustive_max(problem)
        want = oracle_exhaustive(problem)
        assert res.feasible == (want > -math.inf)
        if res.feasible:
            assert res.best_ratio == pytest.approx(want, rel=1e-12)
        assert res.evaluations == 3 ** len(problem.free_vertices())

        problem = seeded_problem(inv, seed)
        res = U.local_search_max(problem, restarts=2, steps=2, seed=seed)
        want = oracle_local(problem, restarts=2, steps=2, seed=seed)
        assert res.best_ratio == pytest.approx(want, rel=1e-12)
        assert res.feasible_evaluations <= res.evaluations


@pytest.mark.parametrize("tree,inv", [("bin:h=4", i) for i in BINARY_IDS]
                         + [("inc:h=4,b=6", i) for i in INCREASING_IDS],
                         ids=lambda x: getattr(x, "value", x))
@pytest.mark.parametrize("kind", ["table", "identity", "l1", "l2", "linf",
                                  "l3", "heis", "prod"])
def test_plans_match_oracle_on_every_target(tree, inv, kind):
    f = random_map(kind, U.parse_tree_spec(tree), np.random.default_rng(11))
    exact = kind in EXACT_TARGETS
    for p in (1.0, 1.5, 3.0):
        assert_agree(U.lhs(inv, f, p), oracle.lhs(inv, f, p),
                     exact and inv in EXTREME_LHS)
        assert_agree(U.rhs(inv, f, p), oracle.rhs(inv, f, p),
                     kind in ("table", "identity")
                     and inv is not InvariantId.MARKOV_DIRECTED)


def test_generic_target_uses_image_table_and_flags_lipschitz():
    spec = U.parse_tree_spec("bin:h=4")
    f = U.TreeMap(spec, Squared(), {v: len(v) for v in U.vertices(spec)})
    for inv in BINARY_IDS:
        assert U.lhs(inv, f, 2.0) == pytest.approx(oracle.lhs(inv, f, 2.0),
                                                   rel=1e-12)
        assert U.rhs(inv, f, 2.0) == pytest.approx(oracle.rhs(inv, f, 2.0),
                                                   rel=1e-12)
    rep = U.report(InvariantId.FORK_COTYPE, f, 2.0)
    assert rep.lipschitz_flag is True
    assert rep.rhs == 4.0 ** 2   # root to leaf: 16 over tree distance 4
    assert U.report(InvariantId.FORK_CONVEXITY, f, 2.0).lipschitz_flag is None
