import fractions
import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import umbellab as U
from umbellab import cli
from umbellab.spaces import SpaceError, close

import pointwise_oracle as oracle

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
vec2 = st.tuples(finite, finite)


def test_close_relative_and_absolute():
    assert close(1.0, 1.0 + 5e-10)
    assert not close(1.0, 1.0 + 5e-9)
    assert close(0.0, 5e-13)


def test_lp_norms():
    sp = U.LpSpace(3, 2.0)
    assert close(sp.norm_rows(np.array([3.0, 4.0, 0.0])), 5.0)
    sp1 = U.LpSpace(2, 1.0)
    assert close(sp1.norm_rows(np.array([1.0, -2.0])), 3.0)
    spi = U.LpSpace(2, math.inf)
    assert close(spi.norm_rows(np.array([1.0, -2.0])), 2.0)


@given(vec2, vec2, vec2)
def test_lp_triangle_inequality(x, y, z):
    sp = U.LpSpace(2, 1.5)
    assert sp.distance(x, z) <= sp.distance(x, y) + sp.distance(y, z) + 1e-9


def test_parse_space_descriptors():
    assert isinstance(U.parse_space("l2:dim=3"), U.LpSpace)
    sp = U.parse_space("lp:p=1.5,dim=4")
    assert sp.p == 1.5 and sp.dim == 4
    h = U.parse_space("heis:dim=2,metric=koranyi,p=inf,lambda=1")
    assert isinstance(h, U.HeisenbergMetricSpace)
    prod = U.parse_space("prod:p=2;l2:dim=2;l2:dim=2")
    assert isinstance(prod, U.ProductSpace)


def test_space_descriptions_parse_back():
    for text in ("l2:dim=3", "lp:p=1.5,dim=4", "lp:p=inf,dim=2",
                 "heis:dim=2,p=2,lambda=3", "heis:dim=4",
                 "prod:p=2;l2:dim=2;heis:dim=2,p=inf;lp:p=1,dim=3"):
        described = U.parse_space(text).describe()
        assert U.parse_space(described).describe() == described


def test_parse_space_rejects_garbage():
    with pytest.raises((SpaceError, ValueError)):
        U.parse_space("l2:dim=0")
    with pytest.raises((SpaceError, ValueError)):
        U.parse_space("nope:dim=2")


def test_finite_matrix_space_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    U.FiniteMatrixSpace(good)
    with pytest.raises(SpaceError):
        U.FiniteMatrixSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(SpaceError):
        U.FiniteMatrixSpace(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SpaceError):
        # 0-2 distance breaks the triangle through 1
        U.FiniteMatrixSpace(np.array([
            [0.0, 1.0, 9.0],
            [1.0, 0.0, 1.0],
            [9.0, 1.0, 0.0]]))
    for bad in (math.inf, math.nan):
        with pytest.raises(SpaceError, match="finite"):
            U.FiniteMatrixSpace(np.array([[0.0, bad], [bad, 0.0]]))


def test_finite_matrix_json_round_trip():
    m = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.5], [1.0, 1.5, 0.0]])
    sp = U.FiniteMatrixSpace(m)
    again = U.FiniteMatrixSpace.from_json(sp.to_json())
    assert np.allclose(again.matrix, m)
    bad = json.loads(sp.to_json())
    bad["n"] = 2
    with pytest.raises(SpaceError):
        U.FiniteMatrixSpace.from_json(json.dumps(bad))


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "the matrix document is not a JSON object"),
    ({"n": 2}, "the matrix document needs a 'd' entry"),
    ({"n": 1, "d": 5}, "the matrix document needs a 'd' entry of type list"),
])
def test_matrix_document_errors_name_document_and_key(doc, message):
    with pytest.raises(SpaceError, match=message):
        U.FiniteMatrixSpace.from_json(json.dumps(doc))


def test_quasi_constant_is_a_class_constant():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2))
    assert (U.LpSpace.quasi_constant, U.FiniteMatrixSpace.quasi_constant,
            U.HeisenbergMetricSpace.quasi_constant) == (1.0, 1.0, 2.0)
    with pytest.raises(TypeError):
        U.HeisenbergMetricSpace(hs.space, 2.0, 1.0, 1.0)
    prod = U.parse_space("prod:p=2;l2:dim=2;heis:dim=2,p=2")
    assert prod.quasi_constant == 2.0


def test_product_space_distance():
    prod = U.ProductSpace((U.LpSpace(1, 2.0), U.LpSpace(1, 2.0)), 2.0)
    d = prod.distance(((0.0,), (0.0,)), ((3.0,), (4.0,)))
    assert close(d, 5.0)


# Heisenberg group


def test_standard_symplectic_antisymmetric():
    h = U.standard_symplectic(2)
    assert np.allclose(h.omega_matrix, -h.omega_matrix.T)
    assert close(h.operator_norm(), 1.0)


# the group law, dilation and Koranyi norm on (x, s) rows, the inverse of a
# row being its negation


def test_group_law_inverse_and_identity():
    h = U.standard_symplectic(2)
    a = np.array([1.0, 2.0, 0.5])
    e = np.zeros(3)
    assert U.spaces.h_mul_rows(h, a, -a)[-1] == pytest.approx(0.0)
    assert U.spaces.h_mul_rows(h, a, e)[-1] == pytest.approx(a[-1])


@given(vec2, vec2, vec2, finite, finite, finite)
def test_group_law_associative(x, y, z, s, t, u):
    h = U.standard_symplectic(2)
    a, b, c = np.array([x + (s,), y + (t,), z + (u,)])
    mul = functools.partial(U.spaces.h_mul_rows, h)
    lhs = mul(mul(a, b), c)
    rhs = mul(a, mul(b, c))
    assert np.allclose(lhs[:-1], rhs[:-1])
    assert lhs[-1] == pytest.approx(rhs[-1], abs=1e-6)


@given(vec2, finite, st.floats(min_value=0.1, max_value=5))
def test_dilation_scales_koranyi_norm(x, s, t):
    a = np.array(x + (s,))
    n1 = U.spaces.koranyi_norm_rows(U.spaces.h_dilate_rows(t, a), 2.0, 1.0)
    assert n1 == pytest.approx(t * U.spaces.koranyi_norm_rows(a, 2.0, 1.0),
                               rel=1e-6, abs=1e-6)


@given(vec2, vec2, vec2, finite, finite, finite)
def test_koranyi_distance_left_invariant(x, y, z, s, t, u):
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0, lam=1.0)
    a, b, g = np.array([x + (s,), y + (t,), z + (u,)])
    d0 = hs.distance_rows(a, b)
    d1 = hs.distance_rows(U.spaces.h_mul_rows(hs.space, g, a),
                          U.spaces.h_mul_rows(hs.space, g, b))
    assert d1 == pytest.approx(d0, rel=1e-6, abs=1e-6)


def test_heisenberg_metric_space_quasi_triangle():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = (hs.sample(rng) for _ in range(3))
        assert hs.distance(a, c) <= hs.quasi_constant * (
            hs.distance(a, b) + hs.distance(b, c)) + 1e-9


def test_quasi_constant_estimate_small():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=math.inf)
    est = U.quasi_constant_estimate(hs, n=2000, seed=1)
    assert est <= hs.quasi_constant + 1e-9


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("p", [0.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_quasi_constant_estimate_equals_the_per_triple_loop(dim, p, lam, monkeypatch):
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(dim), p=p, lam=lam)
    # small chunks make 700 triples cross chunk boundaries
    monkeypatch.setattr(U.spaces, "_TRIPLES_CHUNK", 256)
    got = U.quasi_constant_estimate(hs, n=700, seed=3)
    want = oracle.quasi_constant_estimate(hs, n=700, seed=3)
    if p == math.inf:
        assert got == want
    else:
        assert abs(got - want) <= 1e-14 * want


def test_quasi_constant_estimate_errors():
    with pytest.raises(SpaceError, match="n must be"):
        U.quasi_constant_estimate(U.LpSpace(2, 2.0), n=0, seed=0)
    point = U.FiniteMatrixSpace(np.zeros((1, 1)))
    with pytest.raises(SpaceError, match="only degenerate"):
        U.quasi_constant_estimate(point, n=10, seed=0)


def test_horizontal_length_of_horizontal_segment():
    h = U.standard_symplectic(2)
    # a straight horizontal segment: z increments match the area form
    pts = []
    z = 0.0
    prev = np.zeros(2)
    for i in range(11):
        x = np.array([i / 10.0, 0.0])
        z += float(prev @ h.omega_matrix @ (x - prev))
        pts.append((tuple(x), z))
        prev = x
    length, defect = U.horizontal_length(h, pts)
    assert length == pytest.approx(1.0, rel=1e-9)
    assert defect <= 1e-12


@pytest.mark.parametrize("dim", [2, 4])
def test_horizontal_length_equals_the_per_cell_loop(dim):
    h = U.standard_symplectic(dim)
    rng = np.random.default_rng(dim)
    for _ in range(150):
        k, scale = int(rng.integers(2, 40)), 10.0 ** rng.uniform(-3, 3)
        xs, zs = rng.normal(size=(k, dim)) * scale, rng.normal(size=k) * scale ** 2
        samples = [(tuple(x), float(z)) for x, z in zip(xs, zs)]
        assert U.horizontal_length(h, samples) == oracle.horizontal_length(h, samples)
    # a NaN defect is passed over, as the loop's max did
    samples = [((0.0,) * dim, 0.0), ((1.0,) * dim, math.nan), ((2.0,) * dim, 5.0)]
    assert U.horizontal_length(h, samples) == oracle.horizontal_length(h, samples)


@pytest.mark.parametrize("space", [
    U.LpSpace(3, 2.0), U.LpSpace(3, 3.0), U.LpSpace(2, 1.0),
    U.LpSpace(2, math.inf),
    U.FiniteMatrixSpace(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                                  [2.0, 1.0, 0.0]])),
    U.GraphMetricSpace(4, ((0, 1), (1, 2), (1, 3))),
    U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0),
    U.HeisenbergMetricSpace(U.standard_symplectic(4), p=math.inf, lam=0.5),
    U.parse_space("prod:p=2;l2:dim=2;lp:p=inf,dim=2"),
    U.ProductSpace((U.LpSpace(2, 1.0), U.FiniteMatrixSpace(
        np.array([[0.0, 1.0], [1.0, 0.0]]))), math.inf),
], ids=lambda sp: sp.describe())
def test_sample_batch_equals_successive_samples(space):
    # the batch holds bit for bit what m * k successive sample calls return
    m, k = 7, 3
    rng = np.random.default_rng(11)
    one_by_one = [space.sample(rng) for _ in range(m * k)]
    batch = space.sample_batch(np.random.default_rng(11), m, k)
    assert batch.shape[:2] == (m, k)
    rows = [space.point(v) for v in batch.reshape(m * k, *batch.shape[2:])]
    assert repr(rows) == repr(one_by_one)
    # and every point lies in the unit ball
    if isinstance(space, (U.LpSpace, U.HeisenbergMetricSpace)):
        assert (space.norm_rows(batch) <= 1.0 + 1e-12).all()


def test_product_rows_keep_points_whole():
    prod = U.parse_space("prod:p=2;l2:dim=2;lp:p=inf,dim=2")
    rng = np.random.default_rng(4)
    pts = [prod.sample(rng) for _ in range(5)]
    rows = prod.rows(pts)
    assert rows.shape == (5, 4) and rows.dtype == np.float64
    assert [prod.point(r) for r in rows] == pts
    got = prod.distance_rows(rows[:4], rows[1:])
    assert got.dtype == np.float64
    assert got.tolist() == [prod.distance(a, b) for a, b in zip(pts, pts[1:])]


STAR2 = U.FiniteMatrixSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
ORACLE_PRODUCTS = {
    "l2xheis": U.parse_space("prod:p=2;l2:dim=2;heis:dim=2,p=2"),
    "l2xlinf": U.parse_space("prod:p=3;l2:dim=2;lp:p=inf,dim=3"),
    "l1xmatrix": U.ProductSpace((U.LpSpace(2, 1.0), STAR2), math.inf),
}


@pytest.mark.parametrize("name", ORACLE_PRODUCTS)
def test_product_distance_rows_equal_the_scalar_oracle(name):
    # the row path against the lp norm of the factors' scalar distances
    prod = ORACLE_PRODUCTS[name]
    rng = np.random.default_rng(9)
    pts = [prod.sample(rng) for _ in range(40)]
    rows = prod.rows(pts)
    got = prod.distance_rows(rows[:, None], rows[None, :])
    want = np.array([[oracle.distance(prod, a, b) for b in pts] for a in pts])
    assert got.shape == (40, 40) and (np.diagonal(got) == 0).all()
    # they agree to the rounding of a power; on the diagonal both are 0
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("text", ["prod:p=2;l2:dim=2;heis:dim=2,p=2",
                                  "prod:p=inf;lp:p=3,dim=3;heis:dim=4,p=inf",
                                  "prod:p=1;heis:dim=2,p=0.5,lambda=0.5;l2:dim=1"])
def test_product_batch_holds_the_factors_successive_samples(text):
    # lp and Heisenberg factors draw their coordinates in order, so a product
    # batch holds what m * k rounds of one sample call per factor return
    prod = U.parse_space(text)
    rng = np.random.default_rng(5)
    want = [tuple(c.sample(rng) for c in prod.components) for _ in range(6 * 4)]
    batch = prod.sample_batch(np.random.default_rng(5), 6, 4)
    assert repr([prod.point(r) for r in batch.reshape(24, -1)]) == repr(want)


def test_product_table_factor_index_from_its_uniform_column():
    n = 3
    prod = U.ProductSpace((U.LpSpace(1, 2.0), U.FiniteMatrixSpace(
        np.ones((n, n)) - np.eye(n))), 2.0)
    u = np.random.default_rng(2).uniform(-1.0, 1.0, (500, 2, 2))[..., 1]
    batch = prod.sample_batch(np.random.default_rng(2), 500, 2)
    idx = np.minimum(np.floor((u + 1) * n / 2), n - 1)
    assert (batch[..., 1] == idx).all()
    assert set(np.unique(idx)) == {0.0, 1.0, 2.0}
    assert [type(q) for q in prod.point(batch[0, 0])] == [tuple, int]


@pytest.mark.parametrize("bad", [5, 2, -1, 1.5, True, "a", None])
def test_product_rows_reject_table_factor_points(bad):
    prod = U.ProductSpace((U.LpSpace(1, 2.0), STAR2), 2.0)
    with pytest.raises(SpaceError, match=f"factor {json.dumps(bad)} is not an index"):
        prod.rows([((0.0,), 1), ((0.0,), bad)])
    assert prod.rows([((0.5,), 1), ((0.0,), np.int64(0))]).tolist() == [[0.5, 1.0],
                                                                       [0.0, 0.0]]


def test_rows_reject_ragged_and_non_numeric_points():
    l1 = U.LpSpace(1, 2.0)
    heis = U.parse_space("heis:dim=2,p=2")
    prod = U.ProductSpace((l1, STAR2), 2.0)
    # a float conversion would read None as nan and "1.5" as 1.5
    for space, points in ((l1, [(0.0,), (0.0, 1.0)]), (l1, [("a",)]), (l1, [{}]),
                          (l1, [(None,)]), (l1, [("1.5",)]), (l1, [(0.0,), (b"1",)]),
                          (l1, [(1j,)]),
                          (heis, [U.HPoint((0.0, 0.0), 0.0), (0.0, 0.0)]),
                          (heis, [U.HPoint([0.0, 0.0], 0.0)]),
                          (heis, [U.HPoint((0.0, "a"), 0.0)]),
                          (heis, [U.HPoint((None, "2"), "3")]),
                          (heis, [U.HPoint((0.0, 0.0), None)])):
        with pytest.raises(SpaceError, match="^dimension mismatch$"):
            space.rows(points)
    with pytest.raises(SpaceError, match="^the product point factor dimension mismatch$"):
        prod.rows([((0.0,), 0), ((0.0, 1.0), 1)])
    with pytest.raises(SpaceError, match="^the product point factor dimension mismatch$"):
        U.ProductSpace((l1,), 2.0).rows([((0.0,),), ((0.0, 1.0),)])
    for points in ([((0.0,), 0), 5], [((0.0,), 0), None], [((0.0,),)]):
        with pytest.raises(SpaceError, match="^component count mismatch$"):
            prod.rows(points)


def test_rows_read_numbers_of_every_type():
    # ints past the int64 range and fractions make an object array first;
    # nan and inf are numbers too
    rows = U.LpSpace(2, 2.0).rows([(10 ** 30, 1), (True, np.float32(0.5)),
                                   (fractions.Fraction(1, 4), np.int8(-3)),
                                   (math.nan, -math.inf)])
    assert rows.dtype == float
    np.testing.assert_array_equal(
        rows, [[1e30, 1.0], [1.0, 0.5], [0.25, -3.0], [math.nan, -math.inf]])
    heis = U.parse_space("heis:dim=2,p=2")
    assert heis.rows([U.HPoint((1, 2), 10 ** 30)]).tolist() == [[1.0, 2.0, 1e30]]


@pytest.mark.parametrize("kw", [
    {"p": math.nan}, {"p": 0.0}, {"p": -2.0}, {"lam": math.nan},
    {"lam": math.inf}, {"lam": 0.0}, {"lam": -1.0},
])
def test_heisenberg_parameters_validated(kw):
    with pytest.raises(SpaceError):
        U.HeisenbergMetricSpace(U.standard_symplectic(2), **kw)


@pytest.mark.parametrize("text", ["heis:dim=2,p=nan", "heis:dim=2,p=0",
                                  "heis:dim=2,p=2,lambda=nan",
                                  "heis:dim=2,p=2,lambda=inf"])
def test_heisenberg_descriptor_parameters_validated(text):
    with pytest.raises(SpaceError):
        U.parse_space(text)


def test_heisenberg_infinite_p_allowed():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=math.inf, lam=0.5)
    assert hs.distance(U.HPoint((1.0, 0.0), 0.0), U.HPoint((0.0, 0.0), 0.0)) == 1.0


TABLES = {"matrix": U.FiniteMatrixSpace(np.ones((3, 3)) - np.eye(3)),
          "graph": U.GraphMetricSpace(3, ((0, 1), (1, 2))),
          "tree": U.trees.tree_graph(U.parse_tree_spec("bin:h=1"))}


@pytest.mark.parametrize("name, d02", [("matrix", 1.0), ("graph", 2.0), ("tree", 1.0)])
def test_table_rows_and_distance_check_their_indices(name, d02):
    table = TABLES[name]
    for bad in (-1, table.n, True, 1.0, "3", None):
        with pytest.raises(SpaceError, match=f"^{re.escape(json.dumps(bad))} is not "
                                             f"an index of {table.describe()}$"):
            table.rows([0, bad])
    for a, b in ((-1, 0), (0, -1), (0, table.n)):
        with pytest.raises(SpaceError, match="is not an index"):
            table.distance(a, b)
    assert table.rows((0, np.int64(2))).tolist() == [0, 2]
    assert table.distance(0, np.int32(2)) == d02


def test_table_space_has_points():
    # rows is where a table's points are checked: indices pass, and the first
    # point that is not one is named
    star = U.FiniteMatrixSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert star.rows([0, 1, np.int64(1)]).tolist() == [0, 1, 1]
    assert star.rows([]).tolist() == []
    for bad in ([2], [-1], [0.5], ["a"], [None], [[0]], [True]):
        with pytest.raises(SpaceError, match=f"^{re.escape(json.dumps(bad[0]))} "
                                             "is not an index of matrix:n=2$"):
            star.rows(bad)


@pytest.mark.parametrize("point", [True, np.bool_(True), False, 2 ** 70, -2 ** 70,
                                   -1, 3, np.int32(2), np.int32(3), np.uint64(2 ** 64 - 1),
                                   np.int8(-1), 1.0, np.float64(1.0), "a", None, (),
                                   [0]])
def test_has_points_is_the_per_point_rule(point):
    # rows raises exactly when a point breaks the per-point rule, and names
    # the first that does
    space = U.FiniteMatrixSpace(np.ones((3, 3)) - np.eye(3))

    def is_index(i):
        return U.spaces.is_int(i) and 0 <= i < space.n

    for points in ([point], [0, point, np.int64(2)], (1, 2, point), (),
                   (point, -7)):
        bad = [i for i in points if not is_index(i)]
        if not bad:
            assert space.rows(points).tolist() == [int(i) for i in points]
            continue
        with pytest.raises(SpaceError) as info:
            space.rows(points)
        assert str(info.value) == (f"{json.dumps(bad[0], default=repr)} is not "
                                   "an index of matrix:n=3"), points


def test_row_wise_heisenberg_ops_match_scalar():
    h = U.standard_symplectic(4)
    rng = np.random.default_rng(3)
    rows = rng.uniform(-1, 1, (50, 2, 5))
    prods = U.spaces.h_mul_rows(h, -rows[:, 1], rows[:, 0])
    norms = U.spaces.koranyi_norm_rows(prods, 3.0, 0.7)
    for (a, b), ab, n in zip(rows, prods, norms):
        pa = U.HPoint(tuple(a[:-1]), a[-1])
        pb = U.HPoint(tuple(b[:-1]), b[-1])
        want = oracle.h_mul(h, oracle.h_inv(pb), pa)
        assert np.allclose(ab, want.x + (want.s,), rtol=0, atol=1e-15)
        assert n == pytest.approx(oracle.koranyi_norm(want, 3.0, 0.7), rel=1e-14)


@pytest.mark.parametrize("dim,p", [(2, 2.0), (4, 2.0), (4, math.inf), (6, 0.5)])
def test_heisenberg_distance_of_a_point_to_itself_is_zero(dim, p):
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(dim), p=p)
    rows = hs.sample_batch(np.random.default_rng(5), 400, 1)[:, 0] * 1e3
    assert (hs.distance_rows(rows, rows) == 0).all()
    assert all(hs.distance(a, a) == 0 for a in map(hs.point, rows[:50]))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_omega_is_exactly_antisymmetric_and_the_bilinear_form(dim):
    h = U.standard_symplectic(dim)
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(2, 300, dim))
    got = h.omega_rows(x, y)
    assert (got == -h.omega_rows(y, x)).all()
    np.testing.assert_allclose(got, np.einsum("ki,ij,kj->k", x, h.omega_matrix, y),
                               rtol=1e-12, atol=1e-12)
    assert [oracle.omega(h, a, b) for a, b in zip(x, y)] == got.tolist()


def test_heisenberg_dim2_product_rounds_its_one_term():
    # omega on the standard dim-2 form is the single term x0 y1 - x1 y0
    h = U.standard_symplectic(2)
    a, b = np.random.default_rng(8).normal(size=(2, 1000, 3))
    want = a[:, 2] + b[:, 2] + (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    assert (U.spaces.h_mul_rows(h, a, b)[:, 2] == want).all()


def test_heisenberg_distance_is_the_one_row_case():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(4), p=3.0, lam=0.7)
    rows = hs.sample_batch(np.random.default_rng(2), 60, 2)
    pts = [[hs.point(r) for r in pair] for pair in rows]
    assert [hs.distance(a, b) for a, b in pts] == \
        hs.distance_rows(rows[:, 0], rows[:, 1]).tolist()


def test_lp_exponent_nan_rejected():
    with pytest.raises(SpaceError):
        U.LpSpace(2, math.nan)
    with pytest.raises(SpaceError):
        U.parse_space("lp:p=nan,dim=2")


def test_product_and_heisenberg_jobs_make_no_scalar_distance_calls(monkeypatch, capsys):
    calls = []

    def spy(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for owner, attr, name in ((U.ProductSpace, "distance", "product"),
                              (U.HeisenbergMetricSpace, "distance", "heis")):
        monkeypatch.setattr(owner, attr, spy(name, getattr(owner, attr)))
    text = "prod:p=2;l2:dim=2;heis:dim=2,p=2"
    assert cli.main(["certify", "--space", text, "--inequality", "tripod",
                     "--samples", "5000"]) in (0, 1)
    assert cli.main(["heisenberg", "--dim", "2", "--samples", "5000"]) == 0
    capsys.readouterr()
    space, spec = U.parse_space(text), U.parse_tree_spec("bin:h=6")
    rng = np.random.default_rng(1)
    f = U.TreeMap(spec, space, {v: space.sample(rng) for v in U.vertices(spec)})
    U.moduli(f)
    U.lipschitz_constant(f)
    assert calls == []
    # the spies do see scalar calls
    space.distance(*f.points()[:2])
    heis = space.components[1]
    a, b = [q[1] for q in f.points()[:2]]
    heis.distance(a, b)
    assert calls == ["product", "heis"]
