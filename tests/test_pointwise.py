import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import umbellab as U
from umbellab import pointwise
from umbellab.pointwise import NoSolution, SPACE_NEEDED

import pointwise_oracle as oracle

L2 = U.LpSpace(3, 2.0)
unit = st.floats(min_value=-1, max_value=1, allow_nan=False)
vec3 = st.tuples(unit, unit, unit)


def cfg(**kw):
    return U.InequalityConfig(**kw)


def checked(ineq, c, points, space):
    """check_inequality's report, after checking it against the scalar
    oracle: the same witness, the margin within 1e-12, and the same verdict
    unless the margin lies within 1e-12 of -slack."""
    rep = U.check_inequality(ineq, c, points, space)
    want = oracle.check_inequality(ineq, c, points, space)
    assert abs(rep.margin - want.margin) <= 1e-12
    assert rep.witness == want.witness
    if abs(want.margin + c.slack) > 1e-12:
        assert rep.holds == want.holds
    return rep


def test_tripod_right_angle_example():
    # w at the origin, legs along the axes, z at the barycenter of the legs
    w, x, y = (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)
    z = (1.0, 1.0, 0.0)
    rep = checked(U.InequalityId.Q_TRIPOD, cfg(exponent=2.0, K=1.0),
                  (w, x, y, z), L2)
    assert rep.holds
    assert rep.margin == pytest.approx(0.5)


STAR4 = U.FiniteMatrixSpace(np.array([
    [0.0, 2.0, 2.0, 1.0],
    [2.0, 0.0, 2.0, 1.0],
    [2.0, 2.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 0.0]]))


def test_tripod_four_star_violation():
    # unit star graph: z the hub, w/x/y the leaves
    rep = checked(U.InequalityId.Q_TRIPOD, cfg(exponent=2.0, K=1.0),
                  (0, 1, 2, 3), STAR4)
    assert not rep.holds
    assert rep.margin == pytest.approx(-0.25)


def test_tripod_slack_absorbs_violation():
    rep = checked(U.InequalityId.Q_TRIPOD,
                  cfg(exponent=2.0, K=1.0, slack=0.25), (0, 1, 2, 3), STAR4)
    assert rep.holds


@given(vec3, vec3, vec3)
def test_midpoint_curvature_holds_in_hilbert(x, y, z):
    m = tuple((a + b) / 2 for a, b in zip(x, y))
    rep = checked(U.InequalityId.MIDPOINT_CURVATURE, cfg(), (x, y, z, m), L2)
    assert rep.holds or rep.margin > -1e-9


@given(vec3, vec3)
def test_p_uniform_convexity_p2_k1_is_parallelogram_law(x, y):
    rep = checked(U.InequalityId.P_UNIFORM_CONVEXITY,
                  cfg(exponent=2.0, K=1.0), (x, y), L2)
    assert rep.holds or abs(rep.margin) < 1e-9


def test_umbel_variants_agree_on_finite_families():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w, z, *xs = (tuple(rng.uniform(-1, 1, 3)) for _ in range(6))
        pts = (w, z, tuple(xs))
        base = checked(U.InequalityId.RELAXED_P_UMBEL,
                       cfg(exponent=2.0, K=4.0), pts, L2)
        sup = checked(U.InequalityId.SUPER_RELAXED_P_UMBEL,
                      cfg(exponent=2.0, K=4.0), pts, L2)
        assert base.margin == pytest.approx(sup.margin)


def test_certify_l2_tripod_no_violations():
    rep = U.certify(L2, U.InequalityId.Q_TRIPOD, cfg(exponent=2.0, K=1.0),
                    U.ball_sampler(L2, U.InequalityId.Q_TRIPOD), n=5000, seed=3)
    assert rep.violations == 0
    assert rep.worst_margin >= 0


def test_certify_is_seed_deterministic():
    a = U.certify(L2, U.InequalityId.Q_TRIPOD, cfg(),
                  U.ball_sampler(L2, U.InequalityId.Q_TRIPOD), n=1000, seed=9)
    b = U.certify(L2, U.InequalityId.Q_TRIPOD, cfg(),
                  U.ball_sampler(L2, U.InequalityId.Q_TRIPOD), n=1000, seed=9)
    assert a.worst_margin == b.worst_margin
    assert a.violations == b.violations


def test_campaign_report_json_fields():
    rep = U.certify(L2, U.InequalityId.Q_TRIPOD, cfg(),
                    U.ball_sampler(L2, U.InequalityId.Q_TRIPOD), n=100, seed=0)
    obj = json.loads(rep.to_json())
    for key in ("id", "config", "n", "seed", "violations", "worst_margin",
                "worst_witness"):
        assert key in obj


def test_min_feasible_K_tripod():
    sampler = U.ball_sampler(L2, U.InequalityId.Q_TRIPOD)
    K = U.min_feasible_K(L2, U.InequalityId.Q_TRIPOD, cfg(exponent=2.0),
                         sampler, n=2000, seed=7, bracket=(0.5, 64.0))
    # K=1 already certifies on l2, so the bisection should land at or below 1
    assert K <= 1.0 + 1e-3
    rep = U.certify(L2, U.InequalityId.Q_TRIPOD, cfg(exponent=2.0, K=K),
                    U.ball_sampler(L2, U.InequalityId.Q_TRIPOD), n=2000, seed=7)
    assert rep.violations == 0


@pytest.mark.parametrize("ineq,space", [
    (U.InequalityId.MIDPOINT_CURVATURE, U.LpSpace(2, 2.0)),
    (U.InequalityId.HEISENBERG_PARALLELOGRAM, U.parse_space("heis:dim=2,p=2")),
], ids=["midpoint-curvature", "parallelogram"])
def test_min_feasible_K_rejects_inequalities_without_K(ineq, space, monkeypatch):
    # midpoint curvature ignores K and the parallelogram derives it from C:
    # there is nothing to bisect, so no certify pass may run
    monkeypatch.setattr(pointwise, "certify", None)
    with pytest.raises(pointwise.PointwiseError, match="does not depend on K"):
        U.min_feasible_K(space, ineq, cfg(exponent=2.0), U.ball_sampler(space, ineq),
                         n=100, seed=0, bracket=(0.5, 64.0))


# every inequality that takes K: (id, space, exponent)
K_FAMILIES = [(ineq, L2, 2.0) for ineq in (
    U.InequalityId.Q_TRIPOD, U.InequalityId.Q_FORK, U.InequalityId.RELAXED_Q_FORK,
    U.InequalityId.P_UMBEL, U.InequalityId.RELAXED_P_UMBEL,
    U.InequalityId.SUPER_RELAXED_P_UMBEL)] + [
    (U.InequalityId.P_UNIFORM_CONVEXITY, U.parse_space("lp:p=3,dim=2"), 3.0)]


@pytest.fixture
def certify_passes(monkeypatch):
    """The number of certify runs made so far."""
    passes = []
    real = pointwise.certify

    def counted(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pointwise, "certify", counted)
    return passes


def fit(ineq, space, q, bracket, n=300, seed=7, sampler=None):
    return U.min_feasible_K(space, ineq, cfg(exponent=q),
                            sampler or U.ball_sampler(space, ineq),
                            n=n, seed=seed, bracket=bracket)


def violations(ineq, space, q, K, n=300, seed=7):
    return U.certify(space, ineq, cfg(exponent=q, K=K),
                     U.ball_sampler(space, ineq), n, seed).violations


@pytest.mark.parametrize("ineq,space,q", K_FAMILIES,
                         ids=[f[0].value for f in K_FAMILIES])
def test_min_feasible_K_is_the_sampled_minimum(ineq, space, q, certify_passes):
    for seed, lo in ((7, 1e-3), (8, 1e-3), (7, 1.2)):
        del certify_passes[:]
        K = fit(ineq, space, q, (lo, 1e3), seed=seed)
        assert len(certify_passes) <= 2
        assert lo <= K < 1e3
        assert violations(ineq, space, q, K, seed=seed) == 0
        if K != lo:
            assert violations(ineq, space, q, K * (1 - 2e-6), seed=seed) > 0


@pytest.mark.parametrize("ineq,space,q", K_FAMILIES,
                         ids=[f[0].value for f in K_FAMILIES])
def test_min_feasible_K_bracket_ends(ineq, space, q, certify_passes):
    K = fit(ineq, space, q, (1e-3, 1e3))
    # lo certifies: it is the answer, in one certify pass
    for lo in (K, 2 * K):
        del certify_passes[:]
        assert fit(ineq, space, q, (lo, 1e3)) == lo
        assert len(certify_passes) == 1
    # hi below the sampled minimum: one certify pass at hi, then an error
    del certify_passes[:]
    with pytest.raises(pointwise.PointwiseError, match="upper bracket"):
        fit(ineq, space, q, (1e-3, K * (1 - 2e-6)))
    assert len(certify_passes) == 1
    # a NaN configuration fails at every K, before any certify pass
    draw = U.ball_sampler(space, ineq)

    def nan_draw(rng, m):
        pts = draw(rng, m)
        pts[m // 2, 0, 0] = math.nan
        return pts

    del certify_passes[:]
    with pytest.raises(pointwise.PointwiseError, match="upper bracket"):
        fit(ineq, space, q, (1e-3, 1e3), sampler=nan_draw)
    assert certify_passes == []


def test_min_feasible_K_infeasible_at_every_K(certify_passes):
    # on the unit star a leg triple with the hub as z has R - A = 0 < B: no
    # K makes the tripod hold
    star = U.FiniteMatrixSpace(np.array([
        [0.0, 2.0, 2.0, 1.0], [2.0, 0.0, 2.0, 1.0],
        [2.0, 2.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]))
    with pytest.raises(pointwise.PointwiseError, match="upper bracket"):
        fit(U.InequalityId.Q_TRIPOD, star, 2.0, (0.5, 1e6), n=500)
    assert certify_passes == []


@pytest.mark.parametrize("bracket", [(2.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                     (math.nan, 1.0)])
def test_min_feasible_K_rejects_bad_brackets(bracket):
    with pytest.raises(pointwise.PointwiseError, match="bracket"):
        fit(U.InequalityId.Q_TRIPOD, L2, 2.0, bracket)


# certification against the per-sample oracle loop

STAR_GRAPH = {"n": 6, "edges": [[0, 1], [0, 2], [0, 3], [3, 4], [4, 5]]}

# name -> (descriptor, space type); {dir} holds the matrix and graph files
BATCHED_SPACES = {
    "l2": ("l2:dim=3", U.LpSpace),
    "l3": ("lp:p=3,dim=3", U.LpSpace),
    "l1": ("lp:p=1,dim=3", U.LpSpace),
    "linf": ("lp:p=inf,dim=2", U.LpSpace),
    "star": ("matrix:file={dir}/star.json", U.FiniteMatrixSpace),
    "graph": ("graph:file={dir}/graph.json", U.GraphMetricSpace),
    "heis-p2": ("heis:dim=2,p=2", U.HeisenbergMetricSpace),
    "heis-pinf": ("heis:dim=2,p=inf", U.HeisenbergMetricSpace),
    "prod": ("prod:p=2;l2:dim=2;lp:p=inf,dim=2", U.ProductSpace),
}
BATCHED_PAIRS = [(ineq, name) for ineq in U.InequalityId
                 for name, (_, kind) in BATCHED_SPACES.items()
                 if issubclass(kind, SPACE_NEEDED.get(ineq, object))]


@pytest.fixture(scope="module")
def space_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("spaces")
    (d / "star.json").write_text(json.dumps({"n": 4, "d": STAR4.matrix.tolist()}))
    (d / "graph.json").write_text(json.dumps(STAR_GRAPH))
    return d


def assert_same_campaign(fast, slow):
    assert fast.violations == slow.violations
    # repr tells floats apart bit for bit, and ints from numpy integers
    assert repr(fast.worst_witness) == repr(slow.worst_witness)
    assert abs(fast.worst_margin - slow.worst_margin) <= 1e-12


def per_sample(space, ineq, c, n, seed, xs_count=4):
    """The oracle campaign over the same configurations as ball_sampler."""
    return oracle.certify(space, ineq, c, oracle.ball_draw(space, ineq, xs_count),
                          n, seed)


@pytest.mark.parametrize("ineq,name", BATCHED_PAIRS,
                         ids=[f"{i.value}-{n}" for i, n in BATCHED_PAIRS])
def test_batched_certify_matches_per_sample(ineq, name, space_dir, monkeypatch):
    space = U.parse_space(BATCHED_SPACES[name][0].format(dir=space_dir))
    c = cfg(exponent=3.0 if name == "l3" else 2.0, K=1.0, slack=1e-3)
    sampler = U.ball_sampler(space, ineq)
    # smaller chunks make 600 samples cross two chunk boundaries
    monkeypatch.setattr(pointwise, "_CHUNK", 256)
    for seed in (1, 2):
        assert_same_campaign(U.certify(space, ineq, c, sampler, 600, seed),
                             per_sample(space, ineq, c, 600, seed))


@pytest.mark.parametrize("name", ["l2", "star"])
def test_batched_certify_crosses_chunk(name, space_dir):
    space = U.parse_space(BATCHED_SPACES[name][0].format(dir=space_dir))
    ineq = U.InequalityId.Q_TRIPOD
    c = cfg(exponent=2.0, K=1.0, slack=1e-3)
    sampler = U.ball_sampler(space, ineq)
    for seed in (4, 5):
        assert_same_campaign(U.certify(space, ineq, c, sampler, 5000, seed),
                             per_sample(space, ineq, c, 5000, seed))


def test_custom_row_sampler_matches_per_sample():
    # any draw(rng, m) returning rows of the space is a sampler
    ineq = U.InequalityId.Q_TRIPOD
    c = cfg(exponent=2.0, K=1.0, slack=1e-3)
    rows = lambda rng, m: rng.normal(size=(m, 4, 3))
    one = lambda rng: tuple(tuple(rng.normal(size=3).tolist()) for _ in range(4))
    assert_same_campaign(U.certify(L2, ineq, c, rows, 300, 8),
                         oracle.certify(L2, ineq, c, one, 300, 8))


def test_wrapped_ball_sampler():
    # a tracer wraps the sampler it is given and passes (rng, m) through
    sampler = U.ball_sampler(L2, U.InequalityId.Q_TRIPOD)
    calls = []

    @functools.wraps(sampler)
    def traced(*args):
        calls.append(args[1])
        return sampler(*args)

    c = cfg()
    rep = U.certify(L2, U.InequalityId.Q_TRIPOD, c, traced, 300, 2)
    assert calls == [300]
    assert_same_campaign(rep, per_sample(L2, U.InequalityId.Q_TRIPOD, c, 300, 2))


def test_batched_umbel_large_xs_count():
    ineq = U.InequalityId.P_UMBEL
    sampler = U.ball_sampler(L2, ineq, xs_count=40)
    assert sampler(np.random.default_rng(0), 5).shape == (5, 42, 3)
    c = cfg(exponent=2.0, K=4.0, slack=1e-3)
    fast = U.certify(L2, ineq, c, sampler, 60, 3)
    assert len(fast.worst_witness[2]) == 40
    assert_same_campaign(fast, per_sample(L2, ineq, c, 60, 3, xs_count=40))


def test_batched_umbel_needs_xs():
    sampler = U.ball_sampler(L2, U.InequalityId.P_UMBEL, xs_count=0)
    with pytest.raises(pointwise.PointwiseError, match="nonempty"):
        U.certify(L2, U.InequalityId.P_UMBEL, cfg(), sampler, 10, 0)


def test_min_feasible_K_batched_matches_per_sample():
    # the oracle loop certifies the bisection's K and finds a violation just
    # below it (violations only grow as K shrinks)
    ineq = U.InequalityId.Q_TRIPOD
    K = U.min_feasible_K(L2, ineq, cfg(exponent=2.0), U.ball_sampler(L2, ineq),
                         n=300, seed=7, bracket=(0.5, 64.0))
    assert 0.5 < K < 64.0
    assert per_sample(L2, ineq, cfg(exponent=2.0, K=K), 300, 7).violations == 0
    below = cfg(exponent=2.0, K=K * (1 - 2e-6))
    assert per_sample(L2, ineq, below, 300, 7).violations > 0


ARITY_CASES = [
    (U.InequalityId.P_UMBEL, ((0.0,) * 3,) * 2, L2),
    (U.InequalityId.Q_TRIPOD, ((0.0,) * 3,) * 3, L2),
    (U.InequalityId.P_UNIFORM_CONVEXITY, ((0.0,) * 3,) * 3, L2),
    (U.InequalityId.HEISENBERG_PARALLELOGRAM, (U.HPoint((0.0, 0.0), 0.0),) * 3,
     U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)),
]


@pytest.mark.parametrize("ineq,points,space", ARITY_CASES,
                         ids=[c[0].value for c in ARITY_CASES])
def test_check_inequality_arity_errors(ineq, points, space):
    with pytest.raises(pointwise.PointwiseError, match="takes"):
        U.check_inequality(ineq, cfg(), points, space)
    with pytest.raises(pointwise.PointwiseError, match="takes"):
        oracle.check_inequality(ineq, cfg(), points, space)


def test_check_inequality_dimension_errors():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
    cases = [(U.InequalityId.Q_TRIPOD, ((0.0, 0.0),) * 4, L2),
             (U.InequalityId.HEISENBERG_PARALLELOGRAM,
              (U.HPoint((0.0,) * 4, 0.0),) * 2, hs)]
    for ineq, points, space in cases:
        for check in (U.check_inequality, oracle.check_inequality):
            with pytest.raises(U.spaces.SpaceError, match="dimension"):
                check(ineq, cfg(), points, space)


def test_check_inequality_space_errors():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
    a = U.HPoint((0.0, 0.0), 0.0)
    cases = [(U.InequalityId.P_UNIFORM_CONVEXITY, (a, a), hs),
             (U.InequalityId.HEISENBERG_PARALLELOGRAM, ((0.0,) * 3,) * 2, L2)]
    for ineq, points, space in cases:
        for check in (U.check_inequality, oracle.check_inequality):
            with pytest.raises(pointwise.PointwiseError, match="needs a"):
                check(ineq, cfg(), points, space)


SCALAR_SPACES = [L2, U.LpSpace(3, 3.0), U.LpSpace(3, 1.0),
                 U.LpSpace(3, math.inf), STAR4,
                 U.parse_space("prod:p=2;l2:dim=2;lp:p=inf,dim=2"),
                 U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0),
                 U.HeisenbergMetricSpace(U.standard_symplectic(2))]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_inequality_matches_scalar_oracle(data):
    space = data.draw(st.sampled_from(SCALAR_SPACES), label="space")
    ineq = data.draw(st.sampled_from(
        [i for i in U.InequalityId
         if isinstance(space, SPACE_NEEDED.get(i, object))]), label="ineq")
    c = cfg(exponent=data.draw(st.sampled_from([2.0, 2.5, 3.0])),
            K=data.draw(st.sampled_from([0.5, 1.0, 4.0])))
    draw = oracle.ball_draw(space, ineq, data.draw(st.integers(1, 5)))
    points = draw(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    checked(ineq, c, points, space)


# Heisenberg parallelogram


def test_parallelogram_constants_p2_c1():
    K, lam = U.parallelogram_constants(2.0, 1.0)
    assert K == pytest.approx((162.0 / 16.0) ** 0.25)
    assert lam == pytest.approx(27.0 / 19.0)


def test_parallelogram_worked_pair():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
    a = U.HPoint((1.0, 0.0), 0.0)
    rep = U.check_parallelogram(hs.space, 2.0, 1.0, a, a)
    assert rep.holds
    want = oracle.check_parallelogram(hs.space, 2.0, 1.0, a, a)
    assert rep.margin == pytest.approx(want.margin, rel=0, abs=1e-12)
    assert rep.witness == want.witness == (a, a)


@settings(max_examples=100, deadline=None)
@given(st.tuples(unit, unit, unit), st.tuples(unit, unit, unit),
       st.sampled_from([2.0, 3.0]), st.sampled_from([1.0, 2.0]))
def test_parallelogram_matches_scalar_oracle(a, b, p, C):
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=p)
    pa, pb = U.HPoint(a[:2], a[2]), U.HPoint(b[:2], b[2])
    got = U.check_parallelogram(hs.space, p, C, pa, pb, slack=1e-3)
    want = oracle.check_parallelogram(hs.space, p, C, pa, pb, slack=1e-3)
    assert abs(got.margin - want.margin) <= 1e-12
    assert got.witness == want.witness == (pa, pb)
    if abs(want.margin + 1e-3) > 1e-12:
        assert got.holds == want.holds


def test_parallelogram_requires_p_at_least_two():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
    a = U.HPoint((1.0, 0.0), 0.0)
    with pytest.raises(Exception):
        U.check_parallelogram(hs.space, 1.5, 1.0, a, a)


# solver


def test_solve_umbel_K_frozen_value():
    K = U.solve_umbel_K(2.0, 1.0)
    assert 18.0 < K < 19.0
    assert K == pytest.approx(18.8204306, rel=1e-6)
    # residual of the defining condition at the solution
    c, p = 1.0, 2.0
    u = 2 * c / K
    lhs = (1 / 2 ** p) * (u + (2 - u ** p) ** (1 / p)) ** p + 2 ** (p + 1) / K
    assert lhs <= 1.0 + 1e-9


def test_solve_umbel_K_no_solution_at_p1():
    with pytest.raises(NoSolution):
        U.solve_umbel_K(1.0, 1.0)


# moduli of convexity


def test_modulus_delta_hilbert_oracle():
    for eps in (0.5, 1.0, 1.5):
        est = U.modulus_delta(U.LpSpace(2, 2.0), eps)
        assert est.value == pytest.approx(1 - math.sqrt(1 - eps * eps / 4), abs=1e-6)


def test_modulus_delta_sqrt2():
    est = U.modulus_delta(U.LpSpace(2, 2.0), math.sqrt(2.0))
    assert est.value == pytest.approx(1 - math.sqrt(0.5), abs=0.01)


def test_modulus_sandwich_l2():
    sp = U.LpSpace(2, 2.0)
    for eps in (0.5, 1.0, 1.5):
        d_half = U.modulus_delta(sp, eps / 2).value
        d_tilde = U.modulus_delta_tilde(sp, eps).value
        d_twice = 2 * U.modulus_delta(sp, eps).value
        assert d_half <= d_tilde + 0.02
        assert d_tilde <= d_twice + 0.02


@pytest.mark.parametrize("modulus", [U.modulus_delta, U.modulus_delta_tilde,
                                     U.modulus_beta])
def test_moduli_with_no_separated_pair_are_infinite(modulus):
    # on a 9-point circle grid no two points are 2 apart
    est = modulus(U.LpSpace(2, 2.0), 2.0, grid=9)
    assert est == U.ModulusEstimate(2.0, math.inf, 9, 0, False)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_tripod_moduli_equal_the_two_searches_they_replaced(p):
    # the oracle's tilde search counts ordered pairs, twice the unordered;
    # its beta search raises where no family is separated
    sp = U.LpSpace(2, p)
    for eps, grid in ((1.0, 12), (2.0, 9)):
        want = oracle.modulus_delta_tilde(sp, eps, grid)
        got = U.modulus_delta_tilde(sp, eps, grid)
        assert (got.value, got.polished) == (want.value, want.polished)
        assert got.configurations * 2 == want.configurations
    for t, m, grid in ((1.0, 3, 12), (1.2, 4, 8), (2.0, 3, 12)):
        got = U.modulus_beta(sp, t, m, grid)
        try:
            want = oracle.modulus_beta(sp, t, m, grid)
        except pointwise.PointwiseError:
            want = U.ModulusEstimate(t, math.inf, grid, 0, False)
        assert got == want


def test_modulus_beta_positive_for_separated_families():
    est = U.modulus_beta(U.LpSpace(2, 2.0), 0.8, m=3)
    assert est.value >= -1e-9


def test_modulus_estimates_report_their_polish():
    sp = U.LpSpace(2, 2.0)
    assert U.modulus_delta(sp, 1.0).polished
    assert U.modulus_delta_tilde(sp, 1.0).polished
    assert U.modulus_beta(sp, 0.8, m=3).polished


def test_polish_reports_an_infeasible_constraint_set():
    # x >= 1 and x <= 0 together admit no point
    cons = [{"type": "ineq", "fun": lambda v: v[0] - 1.0},
            {"type": "ineq", "fun": lambda v: -v[0]}]
    assert pointwise._polish(lambda v: float(v @ v), cons, np.zeros(2)) == (
        math.inf, False)


# misc helpers


def test_alpha_sequence_shrinks_toward_midpoint():
    sp = U.LpSpace(2, 2.0)
    x, y, z = (0.0, 0.0), (2.0, 0.0), (1.0, 3.0)
    m = (1.0, 0.0)
    seq = U.alpha_sequence(sp, x, y, z, m, 6)
    assert len(seq) == 7
    # in Hilbert space every alpha equals 2 exactly
    for a in seq:
        assert a == pytest.approx(2.0, rel=1e-9)


def test_alpha_sequence_rejects_z_equal_m():
    sp = U.LpSpace(2, 2.0)
    with pytest.raises(Exception):
        U.alpha_sequence(sp, (0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 0.0), 3)


def test_ramsey_refine_finds_monochromatic_clique():
    rng = np.random.default_rng(1)
    pts = [tuple(rng.uniform(-1, 1, 2)) for _ in range(24)]
    idx = U.ramsey_refine(pts, p=2.0, K=2.0, N=4, m=3, space=U.LpSpace(2, 2.0))
    assert len(idx) == 3
    assert len(set(idx)) == 3
    # every pair's d^p / K^p falls in one width-1/N bucket
    buckets = {math.floor(math.dist(pts[i], pts[j]) ** 2 / 2.0 ** 2 * 4)
               for i, j in itertools.combinations(idx, 2)}
    assert len(buckets) == 1


def test_ramsey_refine_anchors_share_unary_buckets():
    rng = np.random.default_rng(2)
    pts = [tuple(rng.uniform(-1, 1, 2)) for _ in range(24)]
    w, z = (0.0, 0.0), (0.5, 0.5)
    idx = U.ramsey_refine(pts, p=2.0, K=2.0, N=4, m=3, anchors=(w, z))
    assert len(set(idx)) == 3
    unary = {(math.floor(math.dist(w, pts[i]) ** 2 / 2 ** 2 * 4),
              math.floor(0.5 * math.dist(z, pts[i]) ** 2 * 4)) for i in idx}
    assert len(unary) == 1


@pytest.mark.parametrize("q", [math.inf, math.nan, 0.0, -2.0])
def test_config_exponent_must_be_finite_and_positive(q):
    with pytest.raises(pointwise.PointwiseError, match="exponent"):
        U.InequalityConfig(q)


@pytest.mark.parametrize("kw", [{"K": math.nan}, {"K": math.inf}, {"C": math.nan},
                                {"C": 0.0}, {"slack": math.nan},
                                {"slack": math.inf}, {"slack": -1.0}])
def test_config_constants_and_slack_must_be_finite(kw):
    with pytest.raises(pointwise.PointwiseError, match="finite"):
        U.InequalityConfig(**kw)


def test_nan_margin_is_a_violation_with_witness_batched(monkeypatch):
    ineq = U.InequalityId.Q_TRIPOD
    draw = oracle.ball_draw(L2, ineq)
    real = pointwise.batch_margins

    def with_nan(*args):
        margins = real(*args)
        margins[[3, 7]] = np.nan
        return margins

    monkeypatch.setattr(pointwise, "batch_margins", with_nan)
    rep = U.certify(L2, ineq, cfg(exponent=2.0, K=1.0),
                    U.ball_sampler(L2, ineq), 20, seed=4)
    rng = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
    configs = [draw(rng) for _ in range(20)]
    assert rep.violations == 2
    assert math.isnan(rep.worst_margin)
    assert rep.worst_witness == configs[3]
    assert json.loads(rep.to_json())["worst_margin"] is None


def test_nan_point_is_a_violation_with_witness():
    # a NaN coordinate makes the kernel's margin NaN, with no patching
    ineq = U.InequalityId.Q_TRIPOD
    draw = U.ball_sampler(L2, ineq)

    def sampler(rng, m):
        pts = draw(rng, m)
        pts[[5, 9], 0] = math.nan
        return pts

    rep = U.certify(L2, ineq, cfg(exponent=2.0, K=1.0), sampler, 20, seed=4)
    assert rep.violations == 2
    assert math.isnan(rep.worst_margin)
    assert math.isnan(rep.worst_witness[0][0])
    rng = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
    one = oracle.ball_draw(L2, ineq)
    assert rep.worst_witness[1:] == [one(rng) for _ in range(6)][5][1:]
