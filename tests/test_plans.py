"""Compiled invariant plans against the per-invariant loops they replaced
(tests/invariant_oracle.py), and search through plans against a search
that scores every assignment through the oracle."""

from fractions import Fraction
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
from umbellab.search import _Scorer

import invariant_oracle as oracle
from spaces_oracle import sample

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
        return U.TreeMap(spec, space, {v: sample(space, rng) for v in verts})
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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_identity_sum_sides_equal_the_exact_fractions(k):
    # every term and partial sum is exact at an integer p, so both plan
    # kinds give the correctly rounded exact value (the pair plans stop
    # at the plan cap on bin:h=16)
    spec = U.parse_tree_spec(f"bin:h={2 ** k}")
    f = U.TreeMap.identity(spec)
    for inv, side in oracle.SUM_SIDES:
        for p in (1, 2, 3):
            case = (inv.value, side, p)
            got = outcome({"lhs": U.lhs, "rhs": U.rhs}[side], inv, f, float(p))
            if inv is InvariantId.TESSERA and k == 1:
                assert got == "error: tessera needs height >= 2^2", case
                continue
            want = float(oracle.exact_sum_side(inv, side, k, p))
            assert got == want, case
            if k < 4:
                plan = compile_plan(inv, spec, side)
                d = f.pair_distances(plan.u, plan.v)[:, None]
                assert invariants.evaluate(plan, d, float(p))[0] == want, case


def test_walk_expectation_past_the_pair_cap_reads_classes(monkeypatch):
    # on bin:h=16 the run s = 4, t = 16 has 2147450880 vertex pairs: a
    # profile map sums its 16 classes and builds no TreeGraph array, and a
    # plain map is refused before any pair is built
    spec = U.parse_tree_spec("bin:h=16")
    trees.tree_graph.cache_clear()
    f = U.TreeMap.identity(spec)
    calls = []

    def spy(*args, real=trees._level_arrays):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trees, "_level_arrays", spy)
    value, peak = traced_peak(U.markov_pair_expectation_exact, f, 4, 16, 2.0)
    inv = InvariantId.MARKOV_DIRECTED
    want = sum(2 ** (30 - c) * oracle.pair_weight(inv, 16, 0, c) * (2 * (16 - c)) ** 2
               for c in range(16))  # the run's 16 classes, 2^(2h-c-2) pairs each
    assert value == float(want) and peak < 1 << 20 and calls == []
    plain = U.TreeMap(spec, f.target, dict(zip(U.vertices(spec), f.points())))
    error, peak = traced_peak(outcome, U.markov_pair_expectation_exact, plain,
                              4, 16, 2.0)
    assert error == ("error: the plan has 2147450880 columns, more than the "
                     "67108864 a plan is built with") and peak < 1 << 20
    trees.tree_graph.cache_clear()


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


def oracle_class_pairs(tg, a: int, b: int, c: int, j_min):
    """The pairs of the class (a, b, c) by the oracle's selection: the
    height-a pairs whose common prefix has length exactly c, or the edges
    into height b."""
    if a == b:
        return oracle.branch_pairs(tg, a, c, j_min)[:2]
    edges = oracle.level_edges(tg.spec, b)
    return tuple(np.array([tg.index[e[end]] for e in edges], dtype=np.intp)
                 for end in (0, 1))


@pytest.mark.parametrize("tree", TREES)
def test_class_plans_expand_to_the_oracle_pairs(tree):
    spec = U.parse_tree_spec(tree)
    tg = trees.tree_graph(spec)
    if spec.kind == trees.BINARY:
        ids, j_mins = BINARY_IDS, [None, 1]  # 1: refused, no liminf over j
    else:
        ids, j_mins = INCREASING_IDS, [None, *range(1, spec.branching + 2)]
    memo = {}

    def pairs(a, b, c, j_min):
        key = (a, b, c, j_min if a == b else None)
        if key not in memo:
            memo[key] = outcome(oracle_class_pairs, tg, a, b, c, j_min)
        return memo[key]

    for inv in ids:
        for side in ("lhs", "rhs"):
            classes = outcome(invariants.class_plan, inv, spec, side)
            for j_min in j_mins:
                want = outcome(compile_plan, inv, spec, side, j_min)
                got = outcome(invariants.class_plan, inv, spec, side, j_min)
                key = (inv.value, side, j_min)
                if isinstance(classes, str) or (j_min is not None and spec.kind
                                                == trees.BINARY):
                    # refused before any class: the same text both ways
                    assert isinstance(want, str) and got == want, key
                    continue
                if classes.reduce == "sum":
                    # test_sum_class_plans_are_the_pair_plan_classes
                    assert want.reduce == "sum", key
                    continue
                # expand the classes of the plan by the oracle
                a, b, c = classes.classes.T
                segments = np.split(np.arange(len(a)), classes.starts[1:])
                expanded = [[pairs(a[i], b[i], c[i], j_min if side == "lhs" else None)
                             for i in seg] for seg in segments]
                errors = [x for seg in expanded for x in seg if isinstance(x, str)]
                if errors:  # the refusal names the first class with no pair
                    assert got == want == errors[0], key
                    continue
                assert not isinstance(got, str) and not isinstance(want, str), key
                assert np.array_equal(got.classes, classes.classes), key
                seg_pairs = [[np.concatenate(x) for x in zip(*seg)] for seg in expanded]
                assert np.array_equal(want.u, np.concatenate([u for u, _ in seg_pairs]))
                assert np.array_equal(want.v, np.concatenate([v for _, v in seg_pairs]))
                sizes = [len(u) for u, _ in seg_pairs]
                assert np.array_equal(want.starts, np.cumsum([0] + sizes[:-1])), key
                for plan in (want, got):
                    assert (plan.reduce, plan.outer, plan.groups, plan.scales) == \
                        (classes.reduce, classes.outer, classes.groups,
                         classes.scales), key
                    assert plan.weights is None


PLAN_TREES = [f"bin:h={h}" for h in (2, 4, 8, 16)] + \
             [f"inc:h={h},b={h + 1}" for h in (4, 8, 16)]


@pytest.mark.parametrize("tree", PLAN_TREES)
def test_class_plans_equal_the_list_built_plans(tree):
    # the one-pass class plan has the arrays, dtypes, groups and refusals
    # of the plan built from flattened lists and np.cumsum
    spec = U.parse_tree_spec(tree)
    cases = [(inv, side) for inv in InvariantId for side in ("lhs", "rhs")]
    cases += [(InvariantId.MARKOV_DIRECTED, walk) for walk in [(0, 1), (1, 2), (1, 4)]]
    refused = 0
    for (inv, side), j_min in itertools.product(cases, [None, 1, spec.branching]):
        got = outcome(invariants.class_plan, inv, spec, side, j_min)
        want = outcome(oracle.class_plan, inv, spec, side, j_min)
        key = (inv.value, side, j_min)
        if isinstance(want, str):
            assert got == want, key
            refused += 1
            continue
        for name in ("classes", "starts", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), (key, name)
            if b is not None:
                assert (a.dtype, a.shape, a.tobytes()) == \
                    (b.dtype, b.shape, b.tobytes()), (key, name)
        assert (got.reduce, got.outer, got.groups, got.scales, got.u, got.v) == \
            (want.reduce, want.outer, want.groups, want.scales, None, None), key
        assert all(type(x) is int for bound in got.groups for x in bound), key
    assert 0 < refused < 3 * len(cases)


def test_segment_scales_never_decrease():
    # a group is a run of consecutive segments of one scale, so a side whose
    # scales went back to an earlier one would split that scale's term in
    # two; a walk side (s, t) reads no k, so those of k = 10 cover k <= 10
    for k in range(1, 11):
        for inv, side in itertools.product(InvariantId, ("lhs", "rhs")):
            scales = [scale for *_, scale in invariants._classes(inv, side, k)[2]]
            assert scales == sorted(scales), (inv.value, side, k)
    for s in range(11):
        for t in range(2 ** s, 2 ** 10 + 1):
            walk = invariants._classes(InvariantId.MARKOV_DIRECTED, (s, t), 10)[2]
            assert [scale for *_, scale in walk] == [0], (s, t)


def oracle_lcp(u: tuple, v: tuple) -> int:
    return next((i for i, (a, b) in enumerate(zip(u, v)) if a != b),
                min(len(u), len(v)))


@pytest.mark.parametrize("tree", [t for t in TREES if t.startswith("bin:")])
@pytest.mark.parametrize("inv,side", oracle.SUM_SIDES,
                         ids=lambda x: getattr(x, "value", x))
def test_sum_class_plans_are_the_pair_plan_classes(tree, inv, side):
    # a sum side's class plan, built from the spec alone, holds the classes
    # (|u|, |v|, lcp(u, v)) of the pair plan's pairs, each run of one class
    # within a segment collapsed to one column, which weighs the sum of the
    # run's pair weights; the layout is the pair plan's
    spec = U.parse_tree_spec(tree)
    want = outcome(compile_plan, inv, spec, side)
    got = outcome(invariants.class_plan, inv, spec, side)
    if isinstance(want, str):
        assert got == want
        return
    verts = trees.tree_graph(spec).vertices
    pairs = [(verts[i], verts[j]) for i, j in zip(want.u.tolist(), want.v.tolist())]
    columns = [([len(u), len(v), oracle_lcp(u, v)], w)
               for (u, v), w in zip(pairs, want.weights.tolist())]
    classes, weights, sizes = [], [], []
    for seg in np.split(np.arange(len(columns)), want.starts[1:]):
        runs = [(cls, [w for _, w in run]) for cls, run in
                itertools.groupby((columns[i] for i in seg), key=lambda x: x[0])]
        classes += [cls for cls, _ in runs]
        weights += [sum(ws) for _, ws in runs]
        sizes.append(len(runs))
    assert got.u is None and got.v is None
    assert got.classes.tolist() == classes
    assert got.weights.tolist() == weights
    assert got.starts.tolist() == np.cumsum([0] + sizes[:-1]).tolist()
    assert got.reduce == want.reduce == "sum"
    assert (got.outer, got.groups, got.scales) == (want.outer, want.groups, want.scales)


@pytest.mark.parametrize("tree", [t for t in TREES if t.startswith("bin:")])
@pytest.mark.parametrize("inv,side", oracle.SUM_SIDES,
                         ids=lambda x: getattr(x, "value", x))
def test_sum_segment_classes_are_the_runs_they_replace(tree, inv, side):
    # each sum segment's classes, expanded by the oracle, hold exactly the
    # pairs of its run, each once, its scale is the run's, and the class
    # plan holds each class once, weighing 2^e, its pair count times the
    # run's per-pair weight
    spec = U.parse_tree_spec(tree)
    plan = outcome(invariants.class_plan, inv, spec, side)
    if isinstance(plan, str):  # tessera on bin:h=2: refused, no segment
        assert plan == outcome(compile_plan, inv, spec, side)
        return
    tg, k = trees.tree_graph(spec), spec.height.bit_length() - 1
    reduce, _, segments = invariants._classes(inv, side, k)
    runs = oracle.sum_runs(inv, side, k)
    assert reduce == "sum" and len(segments) == len(runs)
    rows, weights = [], []
    for (classes, exponents, scale), (s, run) in zip(segments, runs):
        assert len(exponents) == len(classes) and scale == s
        parts = [oracle_class_pairs(tg, *cls, None) for cls in classes]
        got = [pair for u, v in parts for pair in zip(u.tolist(), v.tolist())]
        if len(run) == 2:
            want = set(zip(*(a.tolist() for a in oracle.prefix_pairs(tg, *run))))
        else:
            want = {(tg.index[e[0]], tg.index[e[1]])
                    for e in oracle.level_edges(spec, run[0])}
        assert len(got) == len(set(got)) and set(got) == want, (classes, run)
        rows += [list(cls) for cls in classes]
        weights += [len(u) * pair_weight(inv, run, c)
                    for (u, _), (_, _, c) in zip(parts, classes)]
    assert plan.classes.tolist() == rows
    assert list(map(Fraction, plan.weights.tolist())) == weights


def pair_weight(inv, run, c: int) -> Fraction:
    """The display's weight on one pair of class (., ., c) of a sum run:
    2^-level on an edge into that level, else `oracle.pair_weight`."""
    return Fraction(1, 2 ** run[0]) if len(run) == 1 else oracle.pair_weight(inv, *run, c)


def sum_pair_weights(inv, side, plan, k: int, picked=None) -> list:
    """The per-pair weight of each class of a sum side's class plan (or of
    the picked ones), from the run of the segment that holds it."""
    runs = [run for _, run in oracle.sum_runs(inv, side, k)]
    picked = np.arange(len(plan.classes)) if picked is None else np.array(picked)
    segment = np.searchsorted(plan.starts, picked, side="right") - 1
    return [pair_weight(inv, runs[s], c)
            for s, c in zip(segment.tolist(), plan.classes[picked, 2].tolist())]


@pytest.mark.parametrize("h", [2, 4, 8, 16])
def test_sum_weights_keep_the_bits_of_count_times_pair_weight(h):
    # formed as 2^e from its exponent, a class's weight has the bits of the
    # product the plans took before, its pair count (an int) times the
    # per-pair weight (a float); min and max sides weigh nothing
    spec = U.parse_tree_spec(f"bin:h={h}")
    k = h.bit_length() - 1
    for inv in BINARY_IDS:
        for side in ("lhs", "rhs"):
            plan = outcome(invariants.class_plan, inv, spec, side)
            if isinstance(plan, str):  # no admissible configuration
                assert h == 2
            elif (inv, side) not in oracle.SUM_SIDES:
                assert plan.weights is None
            else:
                want = np.array([
                    invariants._pair_count(spec, *cls) * float(w) for cls, w in
                    zip(plan.classes.tolist(), sum_pair_weights(inv, side, plan, k))])
                assert plan.weights.tobytes() == want.tobytes(), (inv, side)


@pytest.mark.parametrize("inv", [InvariantId.MARKOV_DIRECTED, InvariantId.TESSERA],
                         ids=lambda inv: inv.value)
def test_sum_class_plans_build_at_height_1024(inv):
    # a class's pair count reaches 2^2046 and its pair weight 2^-2047, past
    # the float range both; the weight 2^e is each class's exact power, here
    # checked on every 997th class and the least
    spec = U.parse_tree_spec("bin:h=1024")
    plan = invariants.class_plan(inv, spec, "lhs")
    picked = sorted({*range(0, len(plan.classes), 997), int(plan.weights.argmin())})
    for i, w in zip(picked, sum_pair_weights(inv, "lhs", plan, 10, picked)):
        count = invariants._pair_count(spec, *plan.classes[i].tolist())
        assert Fraction(plan.weights[i].item()) == count * w, i


def test_oversized_plans_are_refused_before_they_are_built():
    # markov-directed's left-hand side on bin:h=16 has 2881180923 vertex
    # pairs: its pair plan would take tens of GB, and its class plan has one
    # column per class
    spec = U.parse_tree_spec("bin:h=16")
    trees.tree_graph.cache_clear()
    error, peak = traced_peak(outcome, compile_plan, InvariantId.MARKOV_DIRECTED,
                              spec, "lhs")
    assert error == ("error: the plan has 2881180923 columns, more than "
                     "the 67108864 a plan is built with")
    assert peak < 1 << 20
    assert not trees.tree_graph(spec).plans
    plan, peak = traced_peak(invariants.class_plan, InvariantId.MARKOV_DIRECTED,
                             spec, "lhs")
    assert plan.classes.shape == (341, 3) and plan.weights.shape == (341,)
    assert peak < 1 << 20
    small = U.parse_tree_spec("bin:h=8")
    for build in (invariants.class_plan, compile_plan):
        assert build(InvariantId.MARKOV_DIRECTED, small, "lhs").starts.size
    trees.tree_graph.cache_clear()


def profile_maps(spec) -> dict:
    """The ProfileMaps of a tree: the identity, two constant maps and, on an
    increasing tree, the three Bourgain variants."""
    maps = {"identity": U.TreeMap.identity(spec),
            # a 1-point table whose diagonal is not 0
            "constant-table": U.TreeMap.constant(
                spec, U.FiniteMatrixSpace(np.array([[5e-13]]))),
            "constant-heis": U.TreeMap.constant(spec, U.parse_space("heis:dim=2,p=2"))}
    if spec.kind == trees.INCREASING:
        maps.update({"bourgain-lp": U.bourgain_embed(spec, 3.0),
                     "bourgain-l1": U.bourgain_embed(spec, 1.0),
                     "bourgain-linf": U.bourgain_embed(spec, math.inf)})
    return maps


@pytest.fixture
def pair_gather(monkeypatch):
    """Switches every ProfileMap to the pair plans and the edge pairs of a
    plain TreeMap."""
    def switch():
        for name in ("plan_distances", "edge_distances"):
            monkeypatch.setattr(invariants.ProfileMap, name,
                                getattr(invariants.TreeMap, name))
    return switch


def report_outcome(inv, f, p, j_min):
    try:
        return U.report(inv, f, p, j_min)
    except InvariantError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("tree", ["bin:h=4", "bin:h=8", "inc:h=4,b=5",
                                  "inc:h=4,b=7", "inc:h=8,b=10"])
def test_class_plans_give_the_pair_plan_reports(tree, pair_gather):
    spec = U.parse_tree_spec(tree)
    if spec.kind == trees.BINARY:
        ids, j_mins = BINARY_IDS, [None]
    else:
        ids, j_mins = INCREASING_IDS, [None, 3, spec.branching - 1, spec.branching]
    cases = [(name, inv, p, j_min) for name in profile_maps(spec) for inv in ids
             for p in (0.5, 1.0, 1.5, 2.0, 3.5) for j_min in j_mins]

    def reports():
        maps = profile_maps(spec)
        return [report_outcome(inv, maps[name], p, j_min)
                for name, inv, p, j_min in cases]

    got = reports()
    pair_gather()
    want = reports()
    assert any(isinstance(w, str) for w in want) == (spec.kind == trees.INCREASING)
    for case, a, b in zip(cases, got, want):
        name, _, p, _ = case
        oracle.assert_reports_agree(a, b, spec, exact_sums(name, p), case)


def exact_sums(name: str, p: float) -> bool:
    """Whether a profile map's sum sides add exactly on both plan kinds:
    dyadic weights times integer powers of integer distances (the identity
    at an integer p), or a zero map (the Heisenberg constant)."""
    return name == "constant-heis" or (name == "identity" and p.is_integer())


@pytest.mark.parametrize("tree", ["bin:h=2", "bin:h=4", "bin:h=8", "inc:h=4,b=5",
                                  "inc:h=4,b=7", "inc:h=8,b=10"])
def test_profile_map_reports_equal_the_plain_map_of_their_points(tree):
    # the identity and constant maps, read by class, against plain TreeMaps
    # of the same points, read by vertex pair: the same bits, errors
    # included, on every side of all seven ids, but for inexact sums
    spec = U.parse_tree_spec(tree)
    j_mins = [None] if spec.kind == trees.BINARY else [None, 3, spec.branching]
    verts = U.vertices(spec)
    for name, f in profile_maps(spec).items():
        if name.startswith("bourgain"):
            continue
        plain = U.TreeMap(spec, f.target, dict(zip(verts, f.points())))
        for inv in InvariantId:
            for p in (1.0, 2.0, 3.5):
                for j_min in j_mins:
                    case = (name, inv.value, p, j_min)
                    oracle.assert_reports_agree(
                        report_outcome(inv, f, p, j_min),
                        report_outcome(inv, plain, p, j_min), spec,
                        exact_sums(name, p), case)


@pytest.mark.parametrize("tree", ["bin:h=0", "bin:h=1", "bin:h=4", "inc:h=0,b=0",
                                  "inc:h=1,b=1", "inc:h=1,b=3", "inc:h=4,b=6"])
def test_profile_map_edge_maximum_is_the_pair_gather(tree, pair_gather):
    spec = U.parse_tree_spec(tree)
    got = {name: U.lipschitz_constant(f) for name, f in profile_maps(spec).items()}
    pair_gather()
    want = {name: U.lipschitz_constant(f) for name, f in profile_maps(spec).items()}
    assert got == want


@pytest.mark.parametrize("tree", ["bin:h=8", "inc:h=8,b=10"])
def test_profile_map_reports_gather_no_vertex_pairs(tree, monkeypatch):
    spec = U.parse_tree_spec(tree)
    trees.tree_graph.cache_clear()
    maps = profile_maps(spec)

    def refuse(*args, **kwargs):
        raise AssertionError("a vertex pair was gathered")

    for name in ("_branch_pairs", "_edge_pairs"):
        monkeypatch.setattr(invariants, name, refuse)
    monkeypatch.setattr(trees.TreeGraph, "lcp", refuse)
    monkeypatch.setattr(invariants.ProfileMap, "pair_distances", refuse)
    ids = BINARY_IDS if spec.kind == trees.BINARY else INCREASING_IDS
    for f in maps.values():
        for inv in ids:
            assert math.isfinite(U.report(inv, f, 2.0).lhs)
    trees.tree_graph.cache_clear()


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
    monkeypatch.setattr(U.spaces, "BLOCK", block)
    spec = U.parse_tree_spec("bin:h=3")
    squared = U.TreeMap(spec, Squared(), {v: sum(v) for v in U.vertices(spec)})
    maps = [random_map(kind, U.parse_tree_spec(tree), np.random.default_rng(8))
            for tree, kind in [("bin:h=3", "l2"), ("bin:h=3", "table"),
                               ("inc:h=4,b=6", "identity"),
                               ("inc:h=4,b=6", "l3")]]
    for f in maps + [squared]:
        got = U.lipschitz_constant(f)
        graph = trees.tree_graph(f.spec)
        dtree, dimg = oracle.distance_tables(f)
        ratio = np.zeros_like(dimg)
        np.divide(dimg, dtree, out=ratio, where=dtree > 0)
        edges = np.array(graph.edges).reshape(-1, 2)
        pair, edge = float(ratio.max()), float(dimg[edges[:, 0], edges[:, 1]].max())
        assert got == (max(pair, edge), not U.spaces.close(pair, edge))
    assert U.lipschitz_constant(squared)[1]


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
        f = U.TreeMap(spec, space, {v: sample(space, rng) for v in U.vertices(spec)})
    lip, flag = oracle.lipschitz_constant(f)
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


@pytest.mark.parametrize("kind", MAP_KINDS + ["constant", "bourgain"])
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


@pytest.mark.parametrize("h,p", [pytest.param(h, p, id=f"{h}-{p}-{oracle.bourgain_name(p)}")
                                 for h in (1, 2, 4, 8)
                                 for p in (1.5, 2.0, 3.0, 1.0, math.inf)])
def test_bourgain_moduli_and_distortion_equal_the_table_oracle(h, p):
    f = U.bourgain_embed(U.parse_tree_spec(f"inc:h={h},b={h + 2}"), p)
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
    (value, flag), peak = traced_peak(U.lipschitz_constant, f)
    assert (value, flag) == (1.0, False)
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
    assert U.lipschitz_constant(f) == U.lipschitz_constant(plain)


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
    A = rng.integers(6, size=(9, len(U.vertices(spec)))).T.copy()
    A[:, 0] = 0  # the constant map: every distance 0
    for side in ("lhs", "rhs"):
        plan = compile_plan(inv, spec, side)
        d = target.distance_rows(A[plan.u], A[plan.v])  # pairs x rows
        for p in (1.0, 1.5, 2.0, 3.0):
            # each row as plan_distances gives it: one contiguous column
            rows = [invariants.evaluate(plan, d[:, r:r + 1].copy(), p)
                    for r in range(d.shape[1])]
            assert invariants.evaluate(plan, d, p).tobytes() == \
                np.concatenate(rows).tobytes()


# search through plans against search through the oracle


def oracle_ratio(problem, assignment):
    f = U.TreeMap(problem.spec, problem.target, assignment)
    denom = oracle.rhs(problem.invariant, f, problem.exponent)
    if denom <= 0:
        return None
    return oracle.lhs(problem.invariant, f, problem.exponent) / denom


def start_and_free(problem):
    """The scorer's start as a {vertex: point} dict, and its free vertices."""
    score = _Scorer(problem)
    verts = U.vertices(problem.spec)
    return dict(zip(verts, score.start.tolist())), [verts[i] for i in score.free]


def oracle_exhaustive(problem):
    start, free = start_and_free(problem)
    best = -math.inf
    for combo in itertools.product(range(problem.target.n), repeat=len(free)):
        assignment = dict(start)
        assignment.update(zip(free, combo))
        r = oracle_ratio(problem, assignment)
        if r is not None and r > best:
            best = r
    return best


def oracle_local(problem, restarts, steps, seed):
    """The hill climb of search.local_search_max, one oracle call per
    candidate."""
    start, free = start_and_free(problem)
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

    climb(dict(start))
    for _ in range(restarts):
        assignment = dict(start)
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
        assert res.evaluations == 3 ** len(start_and_free(problem)[1])

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
