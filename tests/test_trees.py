import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import umbellab as U
from umbellab import trees
from umbellab.spaces import _apsp
from umbellab.trees import (format_tree_spec, tree_graph,
                            BINARY, INCREASING, TreeSpecError)

import invariant_oracle as oracle


def apsp_bfs(n: int, edges) -> np.ndarray:
    """Independent all-pairs shortest paths by repeated BFS (test oracle)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    out = np.full((n, n), np.inf)
    for src in range(n):
        out[src, src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if not np.isfinite(out[src, w]):
                        out[src, w] = d
                        nxt.append(w)
            frontier = nxt
    return out


def test_parse_binary_spec():
    spec = U.parse_tree_spec("bin:h=4")
    assert spec.kind == BINARY
    assert spec.height == 4
    assert format_tree_spec(spec) == "bin:h=4"


def test_parse_increasing_spec():
    spec = U.parse_tree_spec("inc:h=8,b=10")
    assert spec.kind == INCREASING
    assert spec.height == 8
    assert spec.branching == 10
    assert format_tree_spec(spec) == "inc:h=8,b=10"


@pytest.mark.parametrize("bad", ["inc:h=4,b=3", "inc:h=4", "foo:h=2", "bin:h=-1"])
def test_bad_specs_rejected(bad):
    with pytest.raises((TreeSpecError, ValueError)):
        U.parse_tree_spec(bad)


def test_binary_vertex_counts():
    spec = U.parse_tree_spec("bin:h=4")
    assert len(U.vertices(spec)) == 2 ** 5 - 1
    for h in range(5):
        assert len(list(U.vertices_at_height(spec, h))) == 2 ** h


def test_increasing_vertex_counts():
    spec = U.parse_tree_spec("inc:h=4,b=6")
    for h in range(5):
        assert len(list(U.vertices_at_height(spec, h))) == math.comb(6, h)


def test_vertex_order_height_then_lex():
    spec = U.parse_tree_spec("bin:h=2")
    assert U.vertices(spec) == [
        (), (-1,), (1,), (-1, -1), (-1, 1), (1, -1), (1, 1)]


def tree_distance(desc: str, u, v) -> float:
    """The distance of vertices u and v in the TreeGraph of a tree."""
    graph = tree_graph(U.parse_tree_spec(desc))
    return graph.distance(graph.index[u], graph.index[v])


def test_tree_distance():
    assert tree_distance("bin:h=3", (1, 1), (1, -1)) == 2
    assert tree_distance("bin:h=3", (), (1, 1, 1)) == 3
    assert tree_distance("inc:h=3,b=4", (1, 2, 3), (1, 2, 3)) == 0
    assert tree_distance("inc:h=3,b=4", (1, 2), (1, 3, 4)) == 3


@given(st.lists(st.sampled_from([-1, 1]), max_size=6),
       st.lists(st.sampled_from([-1, 1]), max_size=6))
def test_tree_distance_is_metric(a, b):
    u, v = tuple(a), tuple(b)
    d = tree_distance("bin:h=6", u, v)
    assert d >= 0
    assert (d == 0) == (u == v)
    assert d == tree_distance("bin:h=6", v, u)


@given(st.lists(st.sampled_from([-1, 1]), max_size=5),
       st.lists(st.sampled_from([-1, 1]), max_size=5),
       st.lists(st.sampled_from([-1, 1]), max_size=5))
def test_tree_distance_triangle(a, b, c):
    u, v, w = tuple(a), tuple(b), tuple(c)
    d = functools.partial(tree_distance, "bin:h=5")
    assert d(u, w) <= d(u, v) + d(v, w)


def test_level_edges():
    spec = U.parse_tree_spec("bin:h=3")
    edges = oracle.level_edges(spec, 2)
    assert len(edges) == 4
    for u, v in edges:
        assert v[:-1] == u and len(v) == 2
    # the TreeGraph's edges into height 2, by vertex
    graph = tree_graph(spec)
    verts = graph.vertices
    assert edges == [(verts[a], verts[b]) for a, b in graph.edges
                     if len(verts[b]) == 2]


# morphism into increasing trees

def test_binary_to_increasing_constant_five():
    phi = U.binary_to_increasing(1, lambda m, n: 5)
    assert phi[()] == ()
    assert phi[(1,)] == (1,)
    assert phi[(-1,)] == (5,)
    assert U.check_star_property(1, lambda m, n: 5, phi)


def test_morphism_star_exhaustive_small_thresholds():
    # every constant threshold J in a small range, heights up to 4
    for k in range(1, 5):
        for c in range(1, 7):
            J = lambda m, n, c=c: c
            phi = U.binary_to_increasing(k, J)
            assert U.check_star_property(k, J, phi), (k, c)
            assert len(set(phi.values())) == len(phi)


def test_morphism_star_random_thresholds():
    rng = np.random.default_rng(12)
    for k in range(1, 5):
        for _ in range(50):
            table = {}

            def J(m, n, table=table, rng=rng):
                if (m, n) not in table:
                    table[(m, n)] = int(rng.integers(1, 15))
                return table[(m, n)]

            phi = U.binary_to_increasing(k, J)
            assert U.check_star_property(k, J, phi)
            for img in phi.values():
                assert all(img[i] < img[i + 1] for i in range(len(img) - 1))


def test_morphism_preserves_heights_and_extensions():
    phi = U.binary_to_increasing(3, lambda m, n: 4)
    for eps, img in phi.items():
        assert len(img) == len(eps)
        if eps:
            assert phi[eps[:-1]] == img[:-1]


def test_star_property_rejects_tampered_map():
    J = lambda m, n: 5
    phi = U.binary_to_increasing(2, J)
    bad = dict(phi)
    # collide the -1-side label with the +1 sibling under the root
    bad[(-1,)] = phi[(1,)]
    bad[(-1, 1)] = phi[(1,)] + (bad[(-1, 1)][1],)
    bad[(-1, -1)] = phi[(1,)] + (bad[(-1, -1)][1],)
    assert not U.check_star_property(2, J, bad)


def test_star_property_rejects_broken_heights_and_extensions():
    J = lambda m, n: 5
    phi = U.binary_to_increasing(2, J)
    for leaf, img in (((1, 1), (1, 2, 3)),     # a label too many
                      ((1, 1), (7, 8))):       # not an extension of its parent
        assert not U.check_star_property(2, J, {**phi, leaf: img})


@pytest.mark.parametrize("k", [1, 2, 3])
def test_star_property_rejects_an_undominated_threshold(k):
    # a threshold above every -1-side label under the root: the map built for
    # the lower threshold does not dominate it
    J = lambda m, n: 5
    phi = U.binary_to_increasing(k, J)
    higher = lambda m, n: 5 if m else phi[(-1,)][0] + 1
    assert U.check_star_property(k, J, phi)
    assert not U.check_star_property(k, higher, phi)


# graph spaces

def test_graph_space_matches_bfs_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        edges = {(i, i + 1) for i in range(n - 1)}
        extra = rng.integers(0, n, (4, 2))
        for u, v in extra:
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = U.GraphMetricSpace(n, tuple(sorted(edges)))
        assert np.allclose(g.table, apsp_bfs(n, tuple(sorted(edges))))


def test_graph_space_rejects_disconnected():
    with pytest.raises(Exception):
        U.GraphMetricSpace(4, ((0, 1), (2, 3)))


@pytest.mark.parametrize("n,edges,message", [
    (0, (), "n >= 1"), (-1, (), "n >= 1"), (True, (), "n >= 1"),
    (2.0, ((0, 1),), "n >= 1"), (3, ((0, 5),), "0..2"), (3, ((0,),), "0..2"),
    (3, ((0, 1, 2),), "0..2"), (3, ((0, 1.5),), "0..2"),
    (3, ((0, True),), "0..2"), (3, ((-1, 0),), "0..2"),
])
def test_graph_space_rejects_bad_vertices(n, edges, message):
    with pytest.raises(U.spaces.SpaceError, match=message):
        U.GraphMetricSpace(n, edges)


def grid_distances(graph) -> np.ndarray:
    """A TreeGraph's distance_rows over the (n, 1) x (1, n) broadcast grid."""
    i = np.arange(graph.n)
    return graph.distance_rows(i[:, None], i[None, :])


def test_tree_graph_distances():
    spec = U.parse_tree_spec("bin:h=3")
    graph = tree_graph(spec)
    index = graph.index
    for u, v in itertools.combinations(U.vertices(spec), 2):
        assert graph.distance(index[u], index[v]) == oracle.tree_distance(u, v)


SMALL_TREES = ([f"bin:h={h}" for h in range(7)]
               + [f"inc:h={h},b={b}" for h in range(5) for b in range(h, 8)])


@pytest.mark.parametrize("desc", SMALL_TREES)
def test_tree_graph_exact_against_search_oracles(desc):
    # the depth/lcp distances must equal both shortest-path searches bit
    # for bit
    graph = tree_graph(U.parse_tree_spec(desc))
    dist = grid_distances(graph)
    assert dist.dtype == np.float64
    assert np.array_equal(dist, apsp_bfs(graph.n, graph.edges))
    assert np.array_equal(dist, _apsp(graph.n, graph.edges))


@pytest.mark.parametrize("desc", SMALL_TREES)
def test_tree_graph_parent_is_the_last_proper_ancestor(desc):
    graph = tree_graph(U.parse_tree_spec(desc))
    assert graph.parent[0] == 0
    assert np.array_equal(graph.parent,
                          graph.anc[np.arange(graph.n), graph.depth - 1])


def test_tree_graph_edge_cases_are_covered():
    assert {"bin:h=0", "inc:h=0,b=1", "inc:h=3,b=3"} <= set(SMALL_TREES)
    for desc in ("bin:h=0", "inc:h=0,b=1"):
        graph = tree_graph(U.parse_tree_spec(desc))
        assert graph.n == 1 and graph.edges == () and graph.index == {(): 0}
        assert grid_distances(graph).tolist() == [[0.0]]


ARRAY_TREES = ([f"bin:h={h}" for h in range(7)]
               + [f"inc:h={h},b={b}" for h in range(6) for b in (h, h + 1, h + 3)])
LAZY_TREES = ([f"bin:h={h}" for h in range(9)]
              + ["inc:h=0,b=0", "inc:h=3,b=3", "inc:h=4,b=7", "inc:h=8,b=10",
                 "inc:h=8,b=12"])


@pytest.mark.parametrize("desc", ARRAY_TREES)
def test_tree_graph_arrays_equal_the_vertex_tuples(desc):
    spec = U.parse_tree_spec(desc)
    graph = tree_graph(spec)
    index = graph.index
    verts = U.vertices(spec)
    assert list(index) == verts and list(index.values()) == list(range(len(verts)))
    assert graph.n == len(verts)
    assert graph.depth.tolist() == [len(v) for v in verts]
    assert graph.label.tolist() == [v[-1] if v else 0 for v in verts]
    assert graph.anc.tolist() == [
        [index[v[:l]] if l <= len(v) else 0 for l in range(spec.height + 1)]
        for v in verts]
    assert graph.edges == tuple((index[v[:-1]], i)
                                for i, v in enumerate(verts) if v)


@pytest.mark.parametrize("desc", ["bin:h=17", "bin:h=40", "bin:h=100000000",
                                  "inc:h=30,b=60", "inc:h=5,b=100000000"])
def test_trees_past_the_vertex_cap_are_refused(desc):
    spec = U.parse_tree_spec(desc)
    for build in (U.vertices, tree_graph):
        with pytest.raises(TreeSpecError, match="more than 200000 vertices"):
            build(spec)


def test_tree_graph_refuses_a_tree_past_the_cap_before_it_allocates():
    # the level arrays of inc:h=30,b=60 would take hundreds of MB
    spec = U.parse_tree_spec("inc:h=30,b=60")
    tracemalloc.start()
    try:
        with pytest.raises(TreeSpecError, match="more than 200000 vertices"):
            tree_graph(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("desc", LAZY_TREES)
def test_lazy_vertex_tuples_equal_the_enumeration(desc):
    spec = U.parse_tree_spec(desc)
    trees.tree_graph.cache_clear()
    graph = tree_graph(spec)
    assert "vertices" not in vars(graph) and "index" not in vars(graph)
    verts = U.vertices(spec)
    assert graph.vertices == verts
    assert graph.index == {v: i for i, v in enumerate(verts)}
    assert list(graph.index) == verts
    # kept on the cache entry, and dropped with it
    assert tree_graph(spec).index is graph.index
    trees.tree_graph.cache_clear()
    assert "index" not in vars(tree_graph(spec))


@pytest.mark.parametrize("desc", sorted(set(SMALL_TREES + ARRAY_TREES + LAZY_TREES)))
def test_lazy_tree_graph_arrays_equal_the_level_builders(desc):
    # n and describe() come from the spec; the arrays are built on first
    # read, once, and equal the builders called directly
    spec = U.parse_tree_spec(desc)
    trees.tree_graph.cache_clear()
    graph = tree_graph(spec)
    arrays = ("depth", "parent", "label", "anc")
    assert graph.describe() == f"graph:n={len(U.vertices(spec))}"
    assert graph.n == spec.vertex_count()
    assert not set(arrays) & set(vars(graph))
    depth, parent, label = trees._level_arrays(spec)
    assert graph.n == len(graph.depth) == len(depth)
    for name, want in zip(arrays, (depth, parent, label,
                                   trees._ancestors(depth, parent))):
        got = getattr(graph, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert getattr(graph, name) is got, name
    trees.tree_graph.cache_clear()


def test_largest_tree_under_the_cap_is_built():
    spec = U.parse_tree_spec("bin:h=16")
    assert spec.vertex_count() <= trees.VERTEX_CAP
    assert len(U.vertices(spec)) == 2 ** 17 - 1


def test_morphism_past_the_vertex_cap_is_refused():
    for k in (17, 40, 10 ** 8):
        with pytest.raises(TreeSpecError, match="more than 200000 vertices"):
            U.binary_to_increasing(k, lambda m, n: 1)


def test_graph_past_the_cap_builds_no_table(monkeypatch):
    sizes = []

    def spy(n, edges):
        sizes.append(n)
        return np.zeros((1, 1))

    monkeypatch.setattr(U.spaces, "_apsp", spy)
    cap = U.spaces.GRAPH_VERTEX_CAP
    for n in (cap + 1, 10 ** 6):
        with pytest.raises(U.spaces.SpaceError, match=f"past the cap of {cap}"):
            U.GraphMetricSpace(n, ((0, 1),))
    assert sizes == []
    U.GraphMetricSpace(cap, ((0, 1),))
    assert sizes == [cap]
