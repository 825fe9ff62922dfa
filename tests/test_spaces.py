import dataclasses
import decimal
import fractions
import functools
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import umbellab as U
from umbellab import cli, search
from umbellab.spaces import ABS_TOL, REL_TOL, SpaceError, close

import pointwise_oracle as oracle
import spaces_oracle

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


def _decimal_lp(row, p):
    """(the lp norm of a row to 60 digits, whether its sum of p-th powers is
    past the float range)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        total = sum(decimal.Decimal(abs(x)) ** decimal.Decimal(p) for x in row)
        return (float(total ** (1 / decimal.Decimal(p))),
                total > decimal.Decimal(sys.float_info.max))


@pytest.mark.parametrize("p", [2, 3, 7.5, 500, 1100, 1e4])
def test_lp_norm_rows_against_a_decimal_oracle(p):
    # rows whose sum of p-th powers underflows or overflows are recomputed
    # with their largest entry factored out; every other row keeps the plain
    # formula's bits
    rng = np.random.default_rng(11)
    rows = (10.0 ** rng.uniform(-3, math.log10(2), (300, 3))
            * rng.choice([-1.0, 1.0], (300, 3)))
    with np.errstate(over="ignore"):
        got = U.LpSpace(3, p).norm_rows(rows)
        total = (rows * rows if p == 2 else np.abs(rows) ** p).sum(axis=-1)
    plain = np.sqrt(total) if p == 2 else total ** (1.0 / p)
    kept = (total >= sys.float_info.min) & (total < math.inf)
    assert got[kept].tobytes() == plain[kept].tobytes()
    past = 0
    for row, norm in zip(rows.tolist(), got.tolist()):
        want, overflows = _decimal_lp(row, p)
        assert abs(norm - want) <= 4 * math.ulp(want), (row, norm, want)
        past += overflows
    assert (past > 0) == (p >= 1100)  # rows whose sum overflows are checked



def _decimal_koranyi(row, p, lam):
    """(the Koranyi norm ((sum x_i^2)^p + lam |t|^p)^(1/(2p)) of a row
    (x..., t) to 60 digits, whether its sum is past the float range, whether
    it is below the smallest normal float)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        total = (sum(D(x) * D(x) for x in row[:-1]) ** D(p)
                 + D(lam) * abs(D(row[-1])) ** D(p))
        return (float(total ** (1 / (2 * D(p)))),
                total > D(sys.float_info.max), total < D(sys.float_info.min))


@pytest.mark.parametrize("lam", [1.0, 3.0])
@pytest.mark.parametrize("p", [2, 3, 7.5, 200, 600, 1100, 1e4])
def test_koranyi_norm_rows_against_a_decimal_oracle(p, lam):
    # a row whose sum overflows, or falls below the smallest normal float, is
    # recomputed as the scaled l_{2p} norm of (|x|, lam^(1/(2p)) sqrt|t|);
    # every other row keeps the plain formula's bits
    rng = np.random.default_rng(11)
    rows = (10.0 ** rng.uniform(-3, math.log10(2), (300, 3))
            * rng.choice([-1.0, 1.0], (300, 3)))
    got = U.parse_space(f"heis:dim=2,p={p},lambda={lam}").norm_rows(rows)
    with np.errstate(over="ignore"):
        xn = np.sqrt((rows[:, :2] * rows[:, :2]).sum(axis=-1))
        total = xn ** (2 * p) + lam * np.abs(rows[:, 2]) ** p
    kept = (total >= sys.float_info.min) & (total < math.inf)
    assert got[kept].tobytes() == (total[kept] ** (1 / (2 * p))).tobytes()
    past = below = 0
    for row, norm in zip(rows.tolist(), got.tolist()):
        want, overflows, underflows = _decimal_koranyi(row, p, lam)
        assert abs(norm - want) <= 4 * math.ulp(want), (row, norm, want)
        past += overflows
        below += underflows
    assert (past > 0) == (p >= 600)  # rows whose sum overflows are checked
    assert (below > 0) == (p >= 200)  # and rows whose sum underflows


def test_koranyi_distance_past_the_power_range(capsys):
    space = U.parse_space("heis:dim=2,p=600")
    with np.errstate(over="raise"):
        assert space.distance_rows(np.array([[1.0, 0.0, 0.0]]),
                                   np.array([[-1.0, 0.0, 0.0]])).tolist() == [2.0]
    code = cli.main(["certify", "--space", "heis:dim=2,p=600", "--inequality",
                     "tripod", "--samples", "2000"])
    assert code in (0, 1)
    assert json.loads(capsys.readouterr().out)["n"] == 2000

def test_koranyi_distance_does_not_underflow():
    zero = np.zeros((1, 3))
    for p in (200, 600, 1e4):
        space = U.parse_space(f"heis:dim=2,p={p}")
        assert space.distance_rows(np.array([[0.1, 0.0, 0.0]]), zero) == 0.1
        assert space.distance_rows(np.array([[0.0, 0.0, 0.01]]), zero) == 0.1
    assert U.parse_space("heis:dim=2,p=600").distance_rows(zero, zero) == 0.0


def _ungated_lp_norm_rows(v, p):
    """lp_norm_rows with its range mask built on every call."""
    s = (v * v if p == 2 else np.abs(v) ** p).sum(axis=-1)
    norms = np.sqrt(s) if p == 2 else s ** (1.0 / p)
    redo = (s < sys.float_info.min) | (s == math.inf)
    if redo.any():
        redo &= np.isfinite(v).all(axis=-1)
        norms = np.asarray(norms)
        norms[redo] = U.spaces._scaled_norms(v[redo], p)
    return norms


@pytest.mark.parametrize("p", [2, 3, 500])
def test_lp_norm_rows_gate_keeps_the_ungated_norms(p):
    # the mask is built only when a sum is out of the normal range or nan;
    # a nan row must not hide a row below the range in the same batch
    rows = np.array([[math.nan, 1.0, 0.0], [1e-160, 0.0, 0.0], [0.5, 0.25, 1.0],
                     [1e200, 0.0, 0.0], [0.0, 0.0, 0.0], [math.inf, 1.0, 0.0]])
    space = U.LpSpace(3, p)
    for batch in (rows, rows[1:], rows[2:3], rows[:0], rows[::-1], rows[:1],
                  rows[1]):
        with np.errstate(over="ignore", invalid="ignore"):
            want = _ungated_lp_norm_rows(batch, p)
            got = space.norm_rows(batch)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), batch


def test_lp_distance_does_not_underflow():
    zero = np.zeros((1, 2))
    assert U.LpSpace(2, 500).distance_rows(np.array([[0.1, 0.0]]), zero) == 0.1
    assert U.LpSpace(2, 1100).distance_rows(np.array([[0.5, 0.0]]), zero) == 0.5
    assert U.LpSpace(2, 2).distance_rows(np.array([[3e-200, 4e-200]]), zero) \
        == pytest.approx(5e-200, rel=1e-15)


def test_lp_distance_past_the_power_range_is_the_scaled_norm():
    # a sum of p-th powers past the float range is recomputed with the
    # largest entry factored out, so a distance in range raises nothing
    zero = np.zeros((1, 2))
    with np.errstate(over="raise"):
        assert U.LpSpace(2, 1100).distance_rows(np.array([[2.0, -1.0]]), zero) == 2.0
        assert U.LpSpace(2, 2).distance_rows(np.array([[1e308, 1e308]]), zero) \
            == 1e308 * math.sqrt(2)
    with np.errstate(over="ignore"):  # past the float range, or an inf entry
        big = np.array([[1.5e308, 1.5e308], [math.inf, 1.0]])
        assert U.LpSpace(2, 2).distance_rows(big, zero).tolist() == [math.inf] * 2


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_lp_norms_of_integer_rows_are_those_of_the_float_rows(p):
    # an integer sum of powers has no inf to range-check against, and an
    # integer p = 1 or p = inf norm would stay integer
    space = U.LpSpace(3, p)
    a, b = np.array([[0, 0, 0], [4, -1, 7]]), np.array([[1, 2, 2], [-3, 5, 0]])
    fa, fb = a.astype(float), b.astype(float)
    cases = [(space.distance_rows(a, b), space.distance_rows(fa, fb)),
             (space.norm_rows(b), space.norm_rows(fb)),
             (space.onto_ball(b), space.onto_ball(fb))]
    for got, want in cases:
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert space.distance_rows(a, b)[0] == space.distance((0, 0, 0), (1, 2, 2))
    if p == 2:
        assert space.distance_rows(a, b)[0] == 3.0
    half = np.array([[0.5, -0.25, 1.0]], dtype=np.float32)
    assert space.norm_rows(half).dtype == np.float32


small = st.floats(min_value=-2, max_value=2, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 7.5, 500, 1100, 1e4]), st.tuples(small, small),
       st.tuples(small, small))
@example(2, (1e-300, 0.0), (0.0, 0.0))
@example(500, (5e-324, 0.0), (0.0, 0.0))
@example(1e4, (0.5, 0.25), (0.5, 0.0))
def test_lp_distinct_points_have_a_positive_distance(p, x, y):
    assume(x != y)
    with np.errstate(over="ignore"):  # a distance past the float range is inf
        assert U.LpSpace(2, p).distance(x, y) > 0


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


def test_spaces_holding_arrays_compare_and_hash_by_value():
    # equal descriptors give equal spaces with one hash, so they can key a
    # dict; numpy's == on the arrays they hold is elementwise, and arrays
    # do not hash
    for text in ("heis:dim=2,p=2,lambda=3", "heis:dim=4",
                 "prod:p=2;l2:dim=2;heis:dim=2,p=inf;lp:p=1,dim=3"):
        a, b = U.parse_space(text), U.parse_space(text)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1, text
    assert U.parse_space("heis:dim=2,p=2") != U.parse_space("heis:dim=2,p=3")
    assert U.parse_space("heis:dim=2") != U.parse_space("heis:dim=4")
    m = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    a, b = U.FiniteMatrixSpace(m), U.FiniteMatrixSpace(np.array(m, dtype=float))
    other = U.FiniteMatrixSpace([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert a == b and hash(a) == hash(b) and a != other
    assert a != U.FiniteMatrixSpace([[0, 1], [1, 0]])  # another shape
    heis = U.parse_space("heis:dim=2")
    prod = U.ProductSpace((a, heis), 2.0)
    assert prod == U.ProductSpace((b, U.parse_space("heis:dim=2")), 2.0)
    assert hash(prod) == hash(U.ProductSpace((b, heis), 2.0))
    assert prod != U.ProductSpace((other, heis), 2.0)
    spec = U.parse_tree_spec("bin:h=2")
    problem = U.SearchProblem(spec, a, U.InvariantId.MARKOV_DIRECTED, 2.0, {(): 0})
    twin = U.SearchProblem(spec, b, U.InvariantId.MARKOV_DIRECTED, 2.0, {(): 0})
    assert problem == twin and hash(problem) == hash(twin)
    assert problem != U.SearchProblem(spec, other, U.InvariantId.MARKOV_DIRECTED, 2.0,
                                      {(): 0})


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


def near_metric_matrices(rng, n: int):
    """Matrices on which the checks are close calls: a metric from points
    whose one entry (and, mostly, its mirror) moves by a few multiples of
    the triangle slack or the symmetry tolerance, or past the float
    range."""
    pts = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-2, 3)
    m = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    yield m
    if n < 2:
        return
    slack = REL_TOL * (m.max() + 1.0)
    for _ in range(6):
        i, j = rng.choice(n, size=2, replace=False)
        mid = rng.integers(n)
        bent = m.copy()
        # the path through mid, plus a few slacks either way
        bent[i, j] = m[i, mid] + m[mid, j] + rng.choice([-2, -1, 0, 0.5, 1, 1.5, 3]) * slack
        bent[j, i] = bent[i, j] + rng.choice([0.0, 0.0, 0.5, 2.0]) * (
            ABS_TOL + REL_TOL * bent[i, j])
        yield bent
    huge = m.copy()
    huge[rng.integers(n), :] = huge[:, rng.integers(n)] = 1e308
    np.fill_diagonal(huge, 0.0)
    yield huge  # path sums past the float range are inf


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 40, 150])
def test_finite_matrix_checks_equal_the_per_midpoint_loop(n, monkeypatch):
    # blocks of 2^14 path sums: 40 points span 4 blocks of 10 midpoints, 150
    # one midpoint a block
    monkeypatch.setattr(U.spaces, "BLOCK", 1 << 14)
    rng = np.random.default_rng(n)
    verdicts = set()
    for _ in range(3 if n >= 150 else 20):
        for m in near_metric_matrices(rng, n):
            want = spaces_oracle.matrix_error(m)
            try:
                U.FiniteMatrixSpace(m)
                got = None
            except SpaceError as exc:
                got = str(exc)
            assert got == want, (n, m)
            verdicts.add(want)
    if n > 2:  # two points meet the triangle inequality
        assert verdicts >= {None, "triangle inequality fails",
                            "matrix must be symmetric"}, verdicts


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["symmetric", "antisymmetric"])
def test_matrix_checks_accept_as_allclose_decides(sign):
    # pairs a float step or a factor either side of the tolerance
    # ABS_TOL + REL_TOL |b|: FiniteMatrixSpace (m = m^T) and the Heisenberg
    # omega (m = -m^T) accept exactly what np.allclose accepts
    make = U.FiniteMatrixSpace if sign > 0 else U.HeisenbergMetricSpace
    verdicts = set()
    for b in (0.0, 1e-6, 0.3, 1.0, 7.5, 3e3, 1e12):
        tol = ABS_TOL + REL_TOL * b
        for gap in (0.5 * tol, np.nextafter(tol, 0), tol, np.nextafter(tol, 1),
                    2 * tol):
            m = np.array([[0.0, sign * b + gap], [b, 0.0]])
            want = np.allclose(m, sign * m.T, rtol=REL_TOL, atol=ABS_TOL)
            try:
                make(m)
                got = True
            except SpaceError as exc:
                assert "symmetric" in str(exc), (b, gap)
                got = False
            assert got == want, (b, gap)
            verdicts.add(want)
    assert verdicts == {True, False}


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
        U.HeisenbergMetricSpace(hs.omega_matrix, 2.0, 1.0, 1.0)
    prod = U.parse_space("prod:p=2;l2:dim=2;heis:dim=2,p=2")
    assert prod.quasi_constant == 2.0


def test_product_space_distance():
    prod = U.ProductSpace((U.LpSpace(1, 2.0), U.LpSpace(1, 2.0)), 2.0)
    d = prod.distance(((0.0,), (0.0,)), ((3.0,), (4.0,)))
    assert close(d, 5.0)


# Heisenberg group


def test_standard_symplectic_antisymmetric():
    h = U.standard_symplectic(2)
    assert np.allclose(h, -h.T)
    assert close(U.HeisenbergMetricSpace(h).operator_norm(), 1.0)


@pytest.mark.parametrize("dim", [0, -2, -3])
def test_standard_symplectic_refuses_a_dimension_below_two(dim):
    with pytest.raises(SpaceError, match=f"dimension >= 2, got {dim}"):
        U.standard_symplectic(dim)
    with pytest.raises(SpaceError, match=f"dimension >= 2, got {dim}"):
        U.parse_space(f"heis:dim={dim}")


@pytest.mark.parametrize("omega", [
    [[0.0, math.inf], [-math.inf, 0.0]], [[0.0, math.nan], [math.nan, 0.0]],
    [[0.0, 1.0], [-1.0, math.nan]]], ids=["inf", "nan", "nan-diagonal"])
def test_heisenberg_refuses_a_non_finite_omega(omega):
    # each is refused by name before the antisymmetry test: the operator
    # norm of such an omega is nan, which passes the parallelogram's norm
    # check
    with pytest.raises(U.spaces.SpaceError, match="omega matrix entries must be finite"):
        U.HeisenbergMetricSpace(np.array(omega))


def test_operator_norm_is_taken_once_per_space(monkeypatch):
    # the SVD runs in __post_init__, outside the dataclass fields: == and
    # hash read the same fields, and campaigns and checks take no SVD
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4))
    omega = (a - a.T) / 8
    hs = U.HeisenbergMetricSpace(omega, p=2.0)
    assert hs.operator_norm() == float(np.linalg.norm(omega, 2))
    assert "_operator_norm" not in {f.name for f in dataclasses.fields(hs)}
    twin = U.HeisenbergMetricSpace(omega.copy(), p=2.0)
    assert twin == hs and hash(twin) == hash(hs)
    assert twin != U.HeisenbergMetricSpace(omega, p=3.0)
    monkeypatch.setattr(np.linalg, "norm", None)
    ineq = U.InequalityId.HEISENBERG_PARALLELOGRAM
    U.certify(hs, ineq, U.InequalityConfig(2.0), U.ball_sampler(hs, ineq), 300, 1)
    U.check_inequality(ineq, U.InequalityConfig(2.0), (U.HPoint((0.1,) * 4, 0.0),) * 2, hs)


# the group law, dilation and Koranyi norm on (x, s) rows, the inverse of a
# row being its negation


def test_group_law_inverse_and_identity():
    h = U.HeisenbergMetricSpace(U.standard_symplectic(2))
    a = np.array([1.0, 2.0, 0.5])
    e = np.zeros(3)
    assert U.spaces.h_mul_rows(h, a, -a)[-1] == pytest.approx(0.0)
    assert U.spaces.h_mul_rows(h, a, e)[-1] == pytest.approx(a[-1])


@given(vec2, vec2, vec2, finite, finite, finite)
def test_group_law_associative(x, y, z, s, t, u):
    h = U.HeisenbergMetricSpace(U.standard_symplectic(2))
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
    d1 = hs.distance_rows(U.spaces.h_mul_rows(hs, g, a),
                          U.spaces.h_mul_rows(hs, g, b))
    assert d1 == pytest.approx(d0, rel=1e-6, abs=1e-6)


def test_heisenberg_metric_space_quasi_triangle():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = (spaces_oracle.sample(hs, rng) for _ in range(3))
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
    # blocks of 256 triples make 700 triples cross block boundaries
    monkeypatch.setattr(U.spaces, "BLOCK", 256 * 3 * hs.width)
    got = U.quasi_constant_estimate(hs, n=700, seed=3)
    want = oracle.quasi_constant_estimate(hs, n=700, seed=3)
    if p == math.inf:
        assert got == want
    else:
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("items", [1, 3, 1 << 40], ids=["one", "few", "past"])
def test_blocked_scans_keep_their_bits_at_every_block(items, monkeypatch):
    # every memory-bounded scan sizes its blocks from spaces.BLOCK at call
    # time: BLOCK set to `items` of a scan's items (a scorer row, a pair-scan
    # row, a triangle midpoint, a triple), or past its input, gives the
    # default block's bits
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(12, 3))
    table = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    bent = table.copy()
    bent[0, 1] = bent[1, 0] = table[0, 5] + table[5, 1] + 1.0
    spec = U.parse_tree_spec("bin:h=4")  # 31 vertices: pair-scan rows capped at 3
    verts = U.vertices(spec)
    f = U.TreeMap(spec, U.LpSpace(3, 2.0), {v: tuple(rng.normal(size=3)) for v in verts})
    problem = U.SearchProblem(spec, U.FiniteMatrixSpace(table[:6, :6]),
                              U.InvariantId.TESSERA, 2.0)
    A = rng.integers(6, size=(len(verts), 10))
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
    draws = []
    sample_batch = U.HeisenbergMetricSpace.sample_batch

    def spy(self, rng, m, k):
        draws.append(m)
        return sample_batch(self, rng, m, k)

    monkeypatch.setattr(U.HeisenbergMetricSpace, "sample_batch", spy)

    def scorer():
        score = search._Scorer(problem)
        return score(A).tobytes(), -(-A.shape[1] // score.rows)

    def pair_scan():
        blocks = list(f.pair_scan())
        return [np.concatenate(side).tobytes() for side in zip(*blocks)], len(blocks)

    def triangle():
        verdicts = []
        for m in (table, bent):
            try:
                verdicts.append(U.FiniteMatrixSpace(m).n)
            except SpaceError as exc:
                verdicts.append(str(exc))
        return verdicts, None

    def triples():
        draws.clear()
        return U.quasi_constant_estimate(hs, n=50, seed=3).hex(), len(draws)

    # each scan, the entries of one of its items and its block count
    scans = [(scorer, len(search._Scorer(problem).u), -(-10 // items)),
             (pair_scan, len(verts), -(-30 // min(items, 3))),
             (triangle, len(table) ** 2, None),
             (triples, 3 * hs.width, -(-50 // items))]
    default = U.spaces.BLOCK
    for scan, entries, blocks in scans:
        want, _ = scan()
        monkeypatch.setattr(U.spaces, "BLOCK", items * entries)
        got, count = scan()
        monkeypatch.setattr(U.spaces, "BLOCK", default)
        assert (got, count) == (want, blocks), scan.__name__
    assert triangle()[0] == [12, "triangle inequality fails"]


def test_quasi_constant_estimate_errors():
    with pytest.raises(SpaceError, match="n must be"):
        U.quasi_constant_estimate(U.LpSpace(2, 2.0), n=0, seed=0)
    point = U.FiniteMatrixSpace(np.zeros((1, 1)))
    with pytest.raises(SpaceError, match="only degenerate"):
        U.quasi_constant_estimate(point, n=10, seed=0)


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
    # the batch holds bit for bit what m * k successive one-point draws return
    m, k = 7, 3
    rng = np.random.default_rng(11)
    one_by_one = [spaces_oracle.sample(space, rng) for _ in range(m * k)]
    batch = space.sample_batch(np.random.default_rng(11), m, k)
    assert batch.shape[:2] == (m, k)
    rows = [space.point(v) for v in batch.reshape(m * k, *batch.shape[2:])]
    assert repr(rows) == repr(one_by_one)
    # and every point lies in the unit ball
    if isinstance(space, (U.LpSpace, U.HeisenbergMetricSpace)):
        assert (space.norm_rows(batch) <= 1.0 + 1e-12).all()


def test_numpy_sums_a_short_axis_left_to_right_in_every_layout():
    # lp_norm_rows leaves a last axis of fewer than 8 entries in the layout
    # it is given: numpy sums it left to right whether it is contiguous or
    # one entry of each of `width` coordinate-major columns
    rng = np.random.default_rng(5)
    for width in range(1, 8):
        x = (rng.uniform(-1, 1, (500, width))
             * 10.0 ** rng.uniform(-8, 8, (500, width)))
        assert (np.asfortranarray(x).sum(axis=-1).tobytes()
                == x.sum(axis=-1).tobytes()), width


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, 500, math.inf])
def test_lp_norm_rows_have_the_same_bits_in_every_layout(p):
    rng = np.random.default_rng(6)
    for width in range(1, 301):
        x = (rng.uniform(-1, 1, (40, width))
             * 10.0 ** rng.uniform(-2, 0.3, (40, width)))
        want = U.spaces.lp_norm_rows(x, p)
        got = U.spaces.lp_norm_rows(np.asfortranarray(x), p)
        assert got.tobytes() == want.tobytes(), width


@pytest.mark.parametrize("p", [1.5, 2, math.inf])
def test_koranyi_norms_have_the_same_bits_in_every_layout(p):
    rng = np.random.default_rng(7)
    for dim in range(2, 19, 2):
        space = U.HeisenbergMetricSpace(U.standard_symplectic(dim), p, 0.5)
        a, b = (rng.uniform(-1, 1, (200, dim + 1))
                * 10.0 ** rng.uniform(-3, 3, (200, dim + 1)) for _ in range(2))
        fa, fb = np.asfortranarray(a), np.asfortranarray(b)
        assert (U.spaces.koranyi_norm_rows(fa, p, 0.5).tobytes()
                == U.spaces.koranyi_norm_rows(a, p, 0.5).tobytes()), dim
        assert (space.distance_rows(fa, fb).tobytes()
                == space.distance_rows(a, b).tobytes()), dim


@pytest.mark.parametrize("text", [
    *(f"lp:p={p},dim={w}" for w in range(1, 21) for p in (2, 3, "inf")),
    *(f"heis:dim={dim},p={p}" for dim in range(2, 19, 2) for p in (2, "inf")),
    "prod:p=2;l2:dim=2;heis:dim=2,p=2",
    "prod:p=inf;lp:p=1,dim=9;graph:file={graph}",
])
def test_sample_batch_is_the_c_order_draw_put_onto_the_ball(text, tmp_path):
    # the coordinate-major copy changes no drawn value
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}))
    space = U.parse_space(text.format(graph=graph))
    m, k = 300, 4
    batch = space.sample_batch(np.random.default_rng(8), m, k)
    draw = np.random.default_rng(8).uniform(-1.0, 1.0, (m, k, space.width))
    with np.errstate(over="raise"):
        want = space.onto_ball(np.ascontiguousarray(draw))
    assert batch.shape == want.shape
    assert np.ascontiguousarray(batch).tobytes() == want.tobytes()
    if space.width < 8:  # each coordinate of each point is one column
        assert batch.strides[0] == batch.itemsize


@pytest.mark.parametrize("text", ["l2:dim=8", "lp:p=3,dim=16", "lp:p=inf,dim=9",
                                  "heis:dim=8", "heis:dim=16,p=3"])
def test_wide_sample_batches_stay_coordinate_major(text):
    # batches of 8 or more columns keep the coordinate-major draw's layout,
    # with the values of the ball maps written as plain expressions
    space = U.parse_space(text)
    m, k = 300, 4
    batch = space.sample_batch(np.random.default_rng(9), m, k)
    x = np.ascontiguousarray(np.random.default_rng(9).uniform(
        -1.0, 1.0, (m, k, space.width)).transpose(1, 2, 0)).transpose(2, 0, 1)
    scale = np.maximum(space.norm_rows(x), 1.0)[..., None]
    if isinstance(space, U.LpSpace):
        want = x / scale
    else:  # the Heisenberg dilation by 1 / scale
        want = x * (1.0 / scale)
        want[..., -1:] = x[..., -1:] * ((1.0 / scale) * (1.0 / scale))
    assert batch.strides == (8, space.width * m * 8, m * 8)
    assert np.ascontiguousarray(batch).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ball_maps_keep_the_plain_expressions_dtype_and_broadcasting(dtype):
    # onto_ball has x / norms' dtype in either layout; h_dilate_rows gives
    # floats for integer rows and broadcasts t against a as a * t does
    space = U.LpSpace(3, 2.0)
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 3)).astype(dtype) * 2
    for rows in (x, np.asfortranarray(x)):
        want = rows / np.maximum(space.norm_rows(rows), 1.0)[..., None]
        got = space.onto_ball(rows)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    a = np.array([[1, 2, 3]])
    t = np.array([1.0, 0.5, 3.0])
    got = U.spaces.h_dilate_rows(t, a)
    assert got.dtype == np.float64
    assert got.tolist() == [[1.0, 2.0, 3.0], [0.5, 1.0, 0.75], [3.0, 6.0, 27.0]]
    assert U.spaces.h_dilate_rows(2, a).tolist() == [[2.0, 4.0, 12.0]]


def test_product_rows_keep_points_whole():
    prod = U.parse_space("prod:p=2;l2:dim=2;lp:p=inf,dim=2")
    rng = np.random.default_rng(4)
    pts = [spaces_oracle.sample(prod, rng) for _ in range(5)]
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
    pts = [spaces_oracle.sample(prod, rng) for _ in range(40)]
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
    # batch holds what m * k rounds of one draw per factor return
    prod = U.parse_space(text)
    rng = np.random.default_rng(5)
    want = [tuple(spaces_oracle.sample(c, rng) for c in prod.components)
            for _ in range(6 * 4)]
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
    h = U.HeisenbergMetricSpace(U.standard_symplectic(4))
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
    h = U.HeisenbergMetricSpace(U.standard_symplectic(dim))
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(2, 300, dim))
    got = h.omega_rows(x, y)
    assert (got == -h.omega_rows(y, x)).all()
    np.testing.assert_allclose(got, np.einsum("ki,ij,kj->k", x, h.omega_matrix, y),
                               rtol=1e-12, atol=1e-12)
    assert [oracle.omega(h, a, b) for a, b in zip(x, y)] == got.tolist()


def test_heisenberg_dim2_product_rounds_its_one_term():
    # omega on the standard dim-2 form is the single term x0 y1 - x1 y0
    h = U.HeisenbergMetricSpace(U.standard_symplectic(2))
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
    f = U.TreeMap(spec, space, {v: spaces_oracle.sample(space, rng)
                              for v in U.vertices(spec)})
    U.moduli(f)
    U.lipschitz_constant(f)
    assert calls == []
    # the spies do see scalar calls
    space.distance(*f.points()[:2])
    heis = space.components[1]
    a, b = [q[1] for q in f.points()[:2]]
    heis.distance(a, b)
    assert calls == ["product", "heis"]
