import itertools
import json
import math
import warnings

import numpy as np
import pytest

import umbellab as U
from umbellab import invariants, trees
from umbellab.cli import main
from umbellab.invariants import InvariantError
from umbellab.spaces import SpaceError, close

import invariant_oracle as oracle
from invariant_oracle import _min_branch_pair

L3 = U.LpSpace(3, 2.0)


def rand_map(spec, rng, dim=3):
    assign = {v: tuple(rng.uniform(-1, 1, dim)) for v in U.vertices(spec)}
    return U.TreeMap(spec, U.LpSpace(dim, 2.0), assign)


# identity values


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_identity_umbel_cotype(k, p):
    spec = U.parse_tree_spec(f"inc:h={2 ** k},b={2 ** k + 2}")
    rep = U.report(U.InvariantId.UMBEL_COTYPE, U.TreeMap.identity(spec), p)
    assert rep.ratio_root == pytest.approx(2 * (k - 1) ** (1 / p), rel=1e-12)
    assert rep.lhs == pytest.approx((k - 1) * 2 ** p, rel=1e-12)
    assert rep.rhs == pytest.approx(1.0)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_identity_fork_cotype(k, q):
    spec = U.parse_tree_spec(f"bin:h={2 ** k}")
    rep = U.report(U.InvariantId.FORK_COTYPE, U.TreeMap.identity(spec), q)
    assert rep.ratio_root == pytest.approx(2 * (k - 1) ** (1 / q), rel=1e-12)


def test_relaxed_umbel_lhs_equals_cotype_lhs():
    spec = U.parse_tree_spec("inc:h=4,b=6")
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = rand_map(spec, rng)
        for p in (1.0, 2.0):
            assert U.lhs(U.InvariantId.RELAXED_UMBEL, f, p) == pytest.approx(
                U.lhs(U.InvariantId.UMBEL_COTYPE, f, p))


def test_ordering_chain_cotype_relaxed_convexity():
    rng = np.random.default_rng(9)
    for k in (2, 3):
        spec = U.parse_tree_spec(f"inc:h={2 ** k},b={2 ** k + 2}")
        for _ in range(10):
            f = rand_map(spec, rng)
            for p in (1.0, 2.0):
                c = U.lhs(U.InvariantId.UMBEL_COTYPE, f, p)
                r = U.lhs(U.InvariantId.RELAXED_UMBEL, f, p)
                x = U.lhs(U.InvariantId.UMBEL_CONVEXITY, f, p)
                assert c <= r + 1e-9
                assert r <= 2 ** (k - 2) * x + 1e-9


def test_umbel_lhs_monotone_in_branching():
    # more labels can only shrink the inner minima
    rng = np.random.default_rng(7)
    small = U.parse_tree_spec("inc:h=4,b=6")
    big = U.parse_tree_spec("inc:h=4,b=8")
    for _ in range(5):
        assign = {v: tuple(rng.uniform(-1, 1, 3)) for v in U.vertices(big)}
        f_big = U.TreeMap(big, L3, assign)
        f_small = U.TreeMap(small, L3,
                            {v: assign[v] for v in U.vertices(small)})
        assert (U.lhs(U.InvariantId.UMBEL_COTYPE, f_big, 2.0)
                <= U.lhs(U.InvariantId.UMBEL_COTYPE, f_small, 2.0) + 1e-9)


def test_j_min_knob_only_increases_lhs():
    spec = U.parse_tree_spec("inc:h=4,b=8")
    rng = np.random.default_rng(3)
    f = rand_map(spec, rng)
    base = U.lhs(U.InvariantId.UMBEL_COTYPE, f, 2.0)
    restricted = U.lhs(U.InvariantId.UMBEL_COTYPE, f, 2.0, j_min=4)
    assert restricted >= base - 1e-12


def test_min_branch_pair_requires_admissible_pairs():
    spec = U.parse_tree_spec("inc:h=2,b=2")
    f = U.TreeMap.identity(spec)
    with pytest.raises(InvariantError):
        _min_branch_pair(f, 2, 0, 2.0, j_min=99)
    # the compiled plans raise the same error for an empty configuration set
    f = U.TreeMap.identity(U.parse_tree_spec("inc:h=4,b=6"))
    for inv in (U.InvariantId.UMBEL_COTYPE, U.InvariantId.UMBEL_CONVEXITY):
        with pytest.raises(InvariantError, match="no admissible configuration"):
            U.lhs(inv, f, 2.0, j_min=99)
        with pytest.raises(InvariantError, match="no admissible configuration"):
            U.report(inv, f, 2.0, j_min=99)


def test_validation_rejects_wrong_kind_and_small_b():
    bin_spec = U.parse_tree_spec("bin:h=4")
    inc_spec = U.parse_tree_spec("inc:h=4,b=4")
    with pytest.raises(InvariantError):
        U.lhs(U.InvariantId.UMBEL_COTYPE, U.TreeMap.identity(bin_spec), 2.0)
    with pytest.raises(InvariantError):
        # b must be at least 2^k + 1
        U.lhs(U.InvariantId.UMBEL_COTYPE, U.TreeMap.identity(inc_spec), 2.0)
    with pytest.raises(InvariantError):
        U.lhs(U.InvariantId.FORK_COTYPE,
              U.TreeMap.identity(U.parse_tree_spec("bin:h=3")), 2.0)


# Markov-type invariant


def test_markov_exact_identity_examples():
    f = U.TreeMap.identity(U.parse_tree_spec("bin:h=2"))
    assert U.markov_pair_expectation_exact(f, 0, 1, 1.0) == pytest.approx(1.0)
    assert U.markov_pair_expectation_exact(f, 1, 2, 2.0) == pytest.approx(9.0)


def test_markov_mc_matches_exact():
    f = U.TreeMap.identity(U.parse_tree_spec("bin:h=4"))
    for s in (0, 1, 2):
        for t in (2 ** s, min(2 ** s + 1, 4)):
            ex = U.markov_pair_expectation_exact(f, s, t, 2.0)
            mc, se = U.markov_pair_expectation_mc(f, s, t, 2.0, n=20000, seed=5)
            assert abs(mc - ex) <= 4 * se or abs(mc - ex) < 1e-12


def test_markov_ratio_grows_with_k():
    prev = 0.0
    for k in (1, 2, 3):
        spec = U.parse_tree_spec(f"bin:h={2 ** k}")
        rep = U.report(U.InvariantId.MARKOV_DIRECTED,
                       U.TreeMap.identity(spec), 2.0)
        assert rep.ratio_root >= prev
        prev = rep.ratio_root


def test_fork_lhs_bounded_by_markov_lhs():
    # summing the per-scale fork minima never exceeds twice the directed
    # random-walk functional
    rng = np.random.default_rng(31)
    spec = U.parse_tree_spec("bin:h=4")
    for _ in range(10):
        f = rand_map(spec, rng)
        for q in (1.0, 2.0):
            fork = U.lhs(U.InvariantId.FORK_COTYPE, f, q)
            markov = U.lhs(U.InvariantId.MARKOV_DIRECTED, f, q)
            assert fork <= 2 * markov + 1e-9


# tessera


def test_tessera_identity_positive():
    f = U.TreeMap.identity(U.parse_tree_spec("bin:h=4"))
    rep = U.report(U.InvariantId.TESSERA, f, 2.0)
    assert rep.lhs > 0
    assert rep.rhs == pytest.approx(1.0)


def test_tessera_constant_map_zero():
    spec = U.parse_tree_spec("bin:h=4")
    f = U.named_map("constant", spec, L3)
    assert U.lhs(U.InvariantId.TESSERA, f, 2.0) == pytest.approx(0.0)


# fork -> umbel transfer through the tree morphism


def test_transfer_fork_dominates_umbel():
    k = 2

    def J(m, n):
        return (max(n) if n else 0) + 1

    phi = U.binary_to_increasing(2 ** k, J)
    b = max(max(img) for img in phi.values() if img)
    spec_inc = U.parse_tree_spec(f"inc:h={2 ** k},b={b}")
    spec_bin = U.parse_tree_spec(f"bin:h={2 ** k}")
    rng = np.random.default_rng(4)
    for _ in range(10):
        assign = {v: tuple(rng.uniform(-1, 1, 3)) for v in U.vertices(spec_inc)}
        f = U.TreeMap(spec_inc, L3, assign)
        comp = U.TreeMap(spec_bin, L3,
                         {eps: assign[phi[eps]] for eps in U.vertices(spec_bin)})
        for p in (1.0, 2.0):
            assert (U.lhs(U.InvariantId.UMBEL_COTYPE, f, p)
                    <= U.lhs(U.InvariantId.FORK_COTYPE, comp, p) + 1e-9)


# maps, matrices, reports


def test_tree_map_requires_total_assignment():
    spec = U.parse_tree_spec("bin:h=2")
    assign = {v: (0.0,) for v in U.vertices(spec)}
    del assign[(1, 1)]
    with pytest.raises(Exception):
        U.TreeMap(spec, U.LpSpace(1, 2.0), assign)


@pytest.mark.parametrize("target", [U.LpSpace(1, 2.0),
                                    U.FiniteMatrixSpace(np.zeros((1, 1)))])
def test_partial_assignment_error_counts_the_missing_vertices(target):
    spec = U.parse_tree_spec("bin:h=3")
    point = (0.0,) if isinstance(target, U.LpSpace) else 0
    assign = dict.fromkeys(U.vertices(spec)[:-3], point)
    with pytest.raises(InvariantError, match="^assignment misses 3 vertices$"):
        U.TreeMap(spec, target, assign)


@pytest.mark.parametrize("desc", ["bin:h=0", "bin:h=3", "inc:h=2,b=2",
                                  "inc:h=4,b=6"])
def test_identity_map_equals_the_dict_built_map(desc):
    spec = U.parse_tree_spec(desc)
    graph = trees.tree_graph(spec)
    verts = U.vertices(spec)
    f = U.TreeMap.identity(spec)
    g = U.TreeMap(spec, graph, {v: i for i, v in enumerate(verts)})
    assert list(f.assignment) == list(g.assignment) == verts
    assert list(f.assignment.items()) == list(g.assignment.items())
    assert len(f.assignment) == len(verts) and f.points() == g.points()
    assert all(f.point(v) == g.point(v) for v in verts)
    assert all(oracle.dist(f, u, v) == oracle.dist(g, u, v)
               for u, v in itertools.product(verts, repeat=2))
    assert f.to_json() == g.to_json()
    assert (7, 7) not in f.assignment and (7, 7) not in g.assignment
    with pytest.raises(KeyError):
        f.point((7, 7))
    with pytest.raises(TypeError):  # read-only
        f.assignment[()] = 0


def test_identity_map_rows_are_its_indices_unchecked(monkeypatch, capsys):
    # the identity's points are the vertex indices by construction: its rows
    # skip the point tuple, the index check and the conversion to rows
    monkeypatch.setattr(U.spaces.TableSpace, "rows", None)
    spec = U.parse_tree_spec("inc:h=4,b=6")
    f = U.TreeMap.identity(spec)
    n = trees.tree_graph(spec).n
    assert f.pair_distances(np.arange(n)[:, None], np.arange(n)).tolist() == \
        trees.tree_graph(spec).distance_rows(np.arange(n)[:, None], np.arange(n)).tolist()
    assert main(["invariant", "--tree", "inc:h=4,b=6", "--invariant",
                 "umbel-cotype", "--p", "2"]) == 0
    assert "_points" not in vars(f)
    assert f.points() == tuple(range(n))
    assert all(type(i) is int for i in f.points())
    monkeypatch.undo()
    g = U.TreeMap(spec, trees.tree_graph(spec), dict(zip(U.vertices(spec), range(n))))
    assert not hasattr(f, "_rows")
    assert g._rows.tolist() == list(range(n)) and g._rows.dtype == np.intp


def test_dict_map_reads_its_dict_once():
    spec = U.parse_tree_spec("bin:h=2")
    verts = U.vertices(spec)
    assign = {v: (float(i),) for i, v in enumerate(verts)}
    f = U.TreeMap(spec, U.LpSpace(1, 2.0), assign)
    before = f.to_json()
    root, leaf = verts[0], verts[-1]
    assign[root], assign[leaf] = (-1.0,), (99.0,)
    assert f.point(root) == (0.0,) and f.point(leaf) == (6.0,)
    assert oracle.dist(f, root, leaf) == 6.0
    assert f.to_json() == before
    assert f.assignment[leaf] == f.points()[-1] == (6.0,)
    assert f.pair_distances(np.array([0]), np.array([6])).tolist() == [6.0]


def test_origin_equals_the_class_by_class_oracle(tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"n": 2, "d": [[0, 1], [1, 0]]}))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    for desc in ("l2:dim=3", "lp:p=1,dim=2", "heis:dim=2,p=2",
                 "prod:p=2;l2:dim=2;heis:dim=2,p=inf",
                 f"prod:p=1;l2:dim=1;matrix:file={matrix}",
                 f"matrix:file={matrix}", f"graph:file={graph}"):
        target = U.parse_space(desc)
        got, want = invariants._origin(target), oracle.origin(target)
        # repr tells 0 from 0.0 and a tuple from an HPoint, as == does not
        assert got == want and repr(got) == repr(want), desc


@pytest.mark.parametrize("target", [
    L3, U.parse_space("heis:dim=2,p=2"),
    U.parse_space("prod:p=2;l2:dim=2;heis:dim=2,p=inf"),
    # a 1-point table whose diagonal is not 0: the profile holds d(o, o)
    U.FiniteMatrixSpace(np.array([[5e-13]]))], ids=lambda t: t.describe())
def test_constant_profile_map_equals_the_dict_map(target):
    increasing = invariants._INCREASING_IDS
    for desc, ids in (("bin:h=4", set(U.InvariantId) - set(increasing)),
                      ("inc:h=4,b=5", increasing)):
        spec = U.parse_tree_spec(desc)
        f = U.TreeMap.constant(spec, target)
        g = U.TreeMap(spec, target, dict.fromkeys(U.vertices(spec),
                                                  invariants._origin(target)))
        assert isinstance(f, invariants.ProfileMap) and type(g) is U.TreeMap
        for inv in ids:
            for p in (1.0, 2.0, 3.5):
                assert U.report(inv, f, p) == U.report(inv, g, p), (inv, p)
        assert U.moduli(f) == U.moduli(g)
        assert U.lipschitz_constant(f, with_flag=True) == \
            U.lipschitz_constant(g, with_flag=True)
        assert f.to_json() == g.to_json()


def test_library_maps_read_no_point():
    spec = U.parse_tree_spec("inc:h=4,b=6")
    trees.tree_graph.cache_clear()
    f = U.bourgain_embed(spec, 2.0)
    assert repr(f) == "ProfileMap('inc:h=4,b=6', 'l2:dim=57')"
    U.moduli(f)
    maps = [f, U.TreeMap.identity(spec), U.TreeMap.constant(spec),
            U.TreeMap.constant(spec, L3),
            U.TreeMap.constant(spec, U.parse_space("heis:dim=2,p=2"))]
    for g in maps:
        for inv in invariants._INCREASING_IDS:
            U.report(inv, g, 2.0)
        assert "_points" not in vars(g), g
    assert "vertices" not in vars(trees.tree_graph(spec))
    trees.tree_graph.cache_clear()


@pytest.mark.parametrize("inv", ["fork-convexity", "fork-cotype", "tessera",
                                 "markov-directed"])
def test_j_min_is_refused_where_there_is_no_liminf(inv, capsys):
    f = U.TreeMap.identity(U.parse_tree_spec("bin:h=4"))
    for call in (U.lhs, U.report):
        with pytest.raises(InvariantError, match="no liminf"):
            call(U.InvariantId(inv), f, 2.0, j_min=3)
    assert main(["invariant", "--tree", "bin:h=4", "--invariant", inv,
                 "--p", "2", "--j-min", "99"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no liminf" in json.loads(err)["error"]


def test_identity_map_refuses_a_target(capsys):
    spec = U.parse_tree_spec("bin:h=4")
    with pytest.raises(InvariantError, match="identity map takes no target"):
        invariants.named_map("identity", spec, L3)
    assert main(["invariant", "--tree", "bin:h=4", "--invariant", "fork-cotype",
                 "--p", "2", "--target", "l2:dim=3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "identity map takes no target" in json.loads(err)["error"]


def test_cold_jobs_build_no_vertex_tuples(monkeypatch, tmp_path, capsys):
    calls = []
    for name in ("vertices", "vertices_at_height"):
        def spy(*args, real=getattr(trees, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(trees, name, spy)
    jobs = [["invariant", "--tree", "inc:h=8,b=12", "--invariant", inv.value,
             "--p", "2"] for inv in (U.InvariantId.UMBEL_COTYPE,
                                     U.InvariantId.UMBEL_CONVEXITY,
                                     U.InvariantId.RELAXED_UMBEL)]
    jobs += [["invariant", "--tree", "bin:h=4", "--invariant", inv, "--p", "2"]
             for inv in ("fork-cotype", "fork-convexity", "markov-directed",
                         "tessera")]
    jobs.append(["embed", "--tree", "inc:h=4,b=6", "--p", "2",
                 "--csv", str(tmp_path / "moduli.csv")])
    for argv in jobs:
        trees.tree_graph.cache_clear()
        assert main(argv) == 0, argv
    trees.tree_graph.cache_clear()
    spec = U.parse_tree_spec("inc:h=8,b=10")
    for inv in (U.InvariantId.UMBEL_COTYPE, U.InvariantId.UMBEL_CONVEXITY):
        assert U.report(inv, U.bourgain_embed(spec, 2.0), 2.0).rhs > 0
    assert calls == []
    assert trees.tree_graph(spec).vertices and calls  # the spies see reads
    trees.tree_graph.cache_clear()


def test_tree_map_json_round_trip():
    spec = U.parse_tree_spec("bin:h=2")
    rng = np.random.default_rng(0)
    f = rand_map(spec, rng)
    again = U.TreeMap.from_json(f.to_json(), target=L3)
    for v in U.vertices(spec):
        assert np.allclose(again.point(v), f.point(v))


def test_map_json_round_trip_of_product_points():
    spec = U.parse_tree_spec("bin:h=2")
    target = U.parse_space("prod:p=2;l2:dim=2;heis:dim=2,p=2")
    rng = np.random.default_rng(2)
    f = U.TreeMap(spec, target, {v: target.sample(rng) for v in U.vertices(spec)})
    obj = json.loads(U.TreeMap.constant(spec, target).to_json())
    assert obj["assignment"][0][1] == [[0.0, 0.0], {"x": [0.0, 0.0], "s": 0.0}]
    assert U.TreeMap.from_json(f.to_json()).assignment == f.assignment


@pytest.mark.parametrize("entry, message", [
    (5, "map document's assignment entry 5 is not a"),
    ([[-1]], "map document's assignment entry .* is not a"),
    ([["x"], [0.0]], "map document's assignment entry .* is not a"),
    ([[-1], {"s": 0.0}], "map document's point .*'x'"),
    ([[-1], {"x": 0.0, "s": 0.0}], "map document's point .*'x'"),
    ([[7, 8], [50.0]], r"map document's label \[7, 8\] is not a vertex of bin:h=1"),
    ([[True], [9.0]], r"map document's assignment entry \[\[true\], .* is not a"),
    ([[1], [5.0]], r"map document's entry \[\[1\], \[5.0\]\] is a second entry"),
], ids=["int", "short", "label", "no-x", "scalar-x", "not-a-vertex", "bool-label",
        "repeated"])
def test_map_document_entry_errors_name_document_and_entry(entry, message):
    doc = {"spec": "bin:h=1", "target": "l2:dim=1",
           "assignment": [[[], [0.0]], [[1], [1.0]], entry]}
    with pytest.raises(SpaceError, match=message):
        U.TreeMap.from_json(json.dumps(doc))


def test_named_maps():
    spec = U.parse_tree_spec("bin:h=2")
    ident = U.named_map("identity", spec)
    assert U.lipschitz_constant(ident) == pytest.approx(1.0)
    const = U.named_map("constant", spec, L3)
    assert U.lipschitz_constant(const) == pytest.approx(0.0)


def test_identity_pair_scan_is_the_tree_metric():
    # a plain TreeMap, so the scan runs its row blocks
    spec = U.parse_tree_spec("inc:h=2,b=4")
    f = U.TreeMap(spec, trees.tree_graph(spec), dict(zip(U.vertices(spec), range(11))))
    blocks = list(f.pair_scan())
    assert sum(len(tree) for tree, _ in blocks) == 11 * 10 // 2
    for tree, image in blocks:
        assert np.array_equal(tree, image) and tree.min() >= 1


def test_lipschitz_pair_vs_edge_flag():
    spec = U.parse_tree_spec("bin:h=2")
    # a true-metric target: the two notions agree
    rng = np.random.default_rng(1)
    f = rand_map(spec, rng)
    value, flag = U.lipschitz_constant(f, with_flag=True)
    assert value > 0
    assert not flag


def test_lipschitz_flag_is_false_on_a_metric_target_past_the_float_range():
    # edges 3e308 long are inf; the pair and edge maxima are both inf and
    # agree, as report's right-hand side already said
    spec = U.parse_tree_spec("bin:h=4")
    f = U.TreeMap(spec, L3, {v: (1.5e308 * (-1) ** len(v), 0.0, 0.0)
                             for v in U.vertices(spec)})
    with np.errstate(over="ignore"):
        assert U.lipschitz_constant(f, with_flag=True) == (math.inf, False)
    rep = U.report(U.InvariantId.FORK_COTYPE, f, 2.0)
    assert (rep.rhs, rep.lipschitz_flag) == (math.inf, False)


def test_lipschitz_flag_is_false_when_both_maxima_are_inf():
    # on a quasi-metric target the pair scan takes in every edge, so its
    # maximum is the Lipschitz constant; here it and the edge maximum are
    # both inf, and they agree
    spec = U.parse_tree_spec("bin:h=4")
    f = U.TreeMap(spec, U.parse_space("heis:dim=2,p=2"),
                  {v: U.HPoint((1.5e308 * (-1) ** len(v), 0.0), 0.0)
                   for v in U.vertices(spec)})
    with np.errstate(over="ignore"):
        assert U.lipschitz_constant(f, with_flag=True) == (math.inf, False)
    rep = U.report(U.InvariantId.FORK_COTYPE, f, 2.0)
    assert (rep.rhs, rep.lipschitz_flag) == (math.inf, False)


def test_public_tree_map_calls_do_not_warn_past_the_float_range():
    # image distances past the float range overflow in the row kernels; the
    # public calls read them as inf without a numpy warning, as report does
    spec = U.parse_tree_spec("bin:h=4")
    heis = U.TreeMap(spec, U.parse_space("heis:dim=2,p=2"),
                     {v: U.HPoint((1.5e308 * (-1) ** v.count(1), 0.0), 0.0)
                      for v in U.vertices(spec)})
    line = U.TreeMap(spec, U.LpSpace(1, 2.0),
                     {v: (1e200 * (-1) ** v.count(1),) for v in U.vertices(spec)})
    markov = U.InvariantId.MARKOV_DIRECTED
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert U.lipschitz_constant(heis, with_flag=True) == (math.inf, False)
        assert U.rhs(U.InvariantId.FORK_COTYPE, heis, 2.0) == math.inf
        U.lhs(U.InvariantId.FORK_COTYPE, heis, 2.0)
        assert U.moduli(heis)[1].values[-1] == math.inf
        assert U.rhs(markov, line, 2.0) == U.lhs(markov, line, 2.0) == math.inf


@pytest.mark.parametrize("target, point", [
    ("l2:dim=2", (0.0,)),                      # one coordinate short
    ("l2:dim=2", (0.0, 1.0, 2.0)),             # one too many
    ("l2:dim=2", ((0.0, 1.0),)),               # nested one level deeper
    ("l2:dim=2", ("a", 1.0)),                  # not numbers
    ("l2:dim=2", (None, 1.0)),                 # None, not nan
    ("l2:dim=2", ("1.5", 1.0)),                # a string, though it spells a number
    ("l2:dim=2", 1.0),                         # not a sequence
    ("heis:dim=2,p=2", (0.0, 0.0)),            # not an HPoint
    ("heis:dim=2,p=2", U.HPoint((0.0,), 0.0)),
    ("heis:dim=2,p=2", U.HPoint((0.0, 0.0), "a")),
    ("heis:dim=2,p=2", U.HPoint((None, "2"), "3")),
    ("prod:p=2;l2:dim=1;l2:dim=1", ((0.0,), (0.0, 1.0))),
    ("prod:p=2;l2:dim=1;l2:dim=1", ((0.0,),)),
    ("prod:p=2;l2:dim=1;l2:dim=1", 0.0),
], ids=["l2-short", "l2-long", "l2-nested", "l2-str", "l2-none", "l2-numeric-str",
        "l2-scalar", "heis-tuple", "heis-short", "heis-str", "heis-none",
        "prod-ragged", "prod-short", "prod-scalar"])
def test_malformed_map_points_fail_at_construction(target, point):
    # the map turns its points into rows when it is built, so a malformed
    # point fails there, not in a later read
    spec = U.parse_tree_spec("bin:h=2")
    space = U.parse_space(target)
    assignment = {v: space.point(np.zeros(space.width)) for v in U.vertices(spec)}
    U.TreeMap(spec, space, assignment)
    assignment[(1, -1)] = point
    with pytest.raises(InvariantError,
                       match="^a map point: .*(dimension|component count) mismatch$"):
        U.TreeMap(spec, space, assignment)


@pytest.mark.parametrize("target", ["l2", "heisenberg"])
def test_lipschitz_edge_maximum_matches_edge_walk(target):
    # the edge maximum is a gather of pair distances; walking the edges
    # through the scalar distance is its oracle (the Heisenberg table comes
    # from the generic per-pair loop, the l2 one from cdist)
    spec = U.parse_tree_spec("bin:h=3")
    rng = np.random.default_rng(4)
    if target == "l2":
        f = rand_map(spec, rng)
    else:
        space = U.parse_space("heis:dim=2,p=inf")
        f = U.TreeMap(spec, space, {v: space.sample(rng) for v in U.vertices(spec)})
    walked = max(oracle.dist(f, u, v) for level in range(1, spec.height + 1)
                 for u, v in oracle.level_edges(spec, level))
    dtree, dimg = oracle.distance_tables(f)
    pair = max(dimg[i, j] / dtree[i, j] for i in range(len(dtree))
               for j in range(len(dtree)) if dtree[i, j] > 0)
    value, flag = U.lipschitz_constant(f, with_flag=True)
    assert value == pytest.approx(max(pair, walked), rel=1e-12)
    assert flag == (not close(pair, walked))


def test_report_json():
    spec = U.parse_tree_spec("bin:h=4")
    rep = U.report(U.InvariantId.FORK_COTYPE, U.TreeMap.identity(spec), 1.0)
    obj = json.loads(rep.to_json())
    assert obj["invariant"] == "fork-cotype"
    assert obj["lhs"] == pytest.approx(2.0)


@pytest.mark.parametrize("target", ["l2:dim=1", "lp:p=1,dim=1"])
def test_report_past_the_float_range_prints_null(target):
    # edges 2e300 long: their squares are past the float range, which the
    # report gives as inf and its document as null, with no warning
    spec = U.parse_tree_spec("bin:h=4")
    f = U.TreeMap(spec, U.parse_space(target),
                  {v: (1e300 * (-1) ** len(v),) for v in U.vertices(spec)})
    for inv in ("fork-cotype", "fork-convexity", "tessera", "markov-directed"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = U.report(U.InvariantId(inv), f, 2.0)
        assert (rep.lhs, rep.rhs, rep.ratio_root) == (0.0, math.inf, 0.0)
        obj = json.loads(rep.to_json())
        assert (obj["lhs"], obj["rhs"], obj["ratio_root"]) == (0.0, None, 0.0)
    rep = U.InvariantReport("tessera", 2.0, math.inf, math.inf, math.nan, {})
    obj = json.loads(rep.to_json())
    assert (obj["lhs"], obj["rhs"], obj["ratio_root"]) == (None, None, None)


@pytest.mark.parametrize("p", [math.nan, math.inf, -1.0, 0.0])
def test_exponent_must_be_finite_and_positive(p):
    f = U.TreeMap.identity(U.parse_tree_spec("bin:h=4"))
    inv = U.InvariantId.FORK_COTYPE
    for call in (U.lhs, U.rhs, U.report):
        with pytest.raises(InvariantError, match="exponent"):
            call(inv, f, p)
    with pytest.raises(InvariantError, match="exponent"):
        U.markov_pair_expectation_exact(f, 0, 1, p)


def test_report_json_carries_lipschitz_flag():
    spec = U.parse_tree_spec("bin:h=4")
    ident = U.TreeMap.identity(spec)
    obj = json.loads(U.report(U.InvariantId.FORK_COTYPE, ident, 2.0).to_json())
    assert obj["lipschitz_flag"] is False
    obj = json.loads(U.report(U.InvariantId.MARKOV_DIRECTED, ident, 2.0).to_json())
    assert obj["lipschitz_flag"] is None
