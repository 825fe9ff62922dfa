from fractions import Fraction
import functools
import json
import math
import tracemalloc

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


@pytest.mark.parametrize("points", [(-4, -3, -2, -1), (0, 1, 2, True),
                                    (0, 1, 2, 1.0), (0, 1, 2, "3"), (0, 1, 2, 9)])
def test_table_configuration_points_must_be_indices(points):
    with pytest.raises(U.spaces.SpaceError, match="is not an index of matrix:n=4"):
        U.check_inequality(U.InequalityId.Q_TRIPOD, cfg(exponent=2.0), points, STAR4)


@given(vec3, vec3, vec3)
def test_midpoint_curvature_holds_in_hilbert(x, y, z):
    # the margin is 0 in exact arithmetic, and the rounding bound covers it
    m = tuple((a + b) / 2 for a, b in zip(x, y))
    rep = checked(U.InequalityId.MIDPOINT_CURVATURE, cfg(), (x, y, z, m), L2)
    assert rep.holds


MIDPOINT = U.InequalityId.MIDPOINT_CURVATURE
LINEAR_SPACES = ["l2:dim=3", "lp:p=1,dim=3", "lp:p=inf,dim=2",
                 "prod:p=2;l2:dim=2;lp:p=1,dim=2", "prod:p=inf;l2:dim=2;lp:p=inf,dim=3"]


@pytest.mark.parametrize("name", LINEAR_SPACES)
def test_midpoint_sampler_takes_the_midpoint(name):
    # x, y and z are the three points sample_batch draws, and m is
    # (x + y) / 2 bit for bit
    space = U.parse_space(name)
    pts = U.ball_sampler(space, MIDPOINT)(np.random.default_rng(3), 500)
    xyz = space.sample_batch(np.random.default_rng(3), 500, 3)
    assert pts.shape == (500, 4, space.width)
    assert pts[:, :3].tobytes() == np.ascontiguousarray(xyz).tobytes()
    assert pts[:, 3].tobytes() == ((xyz[:, 0] + xyz[:, 1]) / 2).tobytes()


def exact_square(space, a, b) -> Fraction:
    """d(a, b)^2 in exact arithmetic, on lp spaces and products whose
    exponents are 1, 2 or inf (rational there)."""
    if isinstance(space, U.LpSpace):
        diffs = [abs(Fraction(u) - Fraction(v)) for u, v in zip(a, b)]
        if space.p == 2:
            return sum(x * x for x in diffs)
        d = sum(diffs) if space.p == 1 else max(diffs)
        return d * d
    squares = [exact_square(c, a[cols], b[cols])
               for c, cols in zip(space.components, space._slices)]
    return sum(squares) if space.p == 2 else max(squares)


@pytest.mark.parametrize("shift", [0.0, 1e6])
@pytest.mark.parametrize("name", LINEAR_SPACES)
def test_midpoint_bound_covers_the_exact_margin(name, shift):
    # the computed margin lies within _midpoint_bound of the exact margin at
    # the exact midpoint of x and y, also far from the origin, where m's own
    # rounding dominates; the raised margin is never below the exact one
    space = U.parse_space(name)
    xyz = space.sample_batch(np.random.default_rng(5), 300, 3) + shift
    pts = np.concatenate([xyz, (xyz[:, :1] + xyz[:, 1:2]) / 2], axis=1)
    raised, _, _ = pointwise.margin_parts(MIDPOINT, cfg(), space, pts)
    d = lambda i, j: space.distance_rows(pts[:, i], pts[:, j])
    lhs, rhs = d(2, 0) ** 2 + d(2, 1) ** 2, 2 * d(2, 3) ** 2 + d(0, 1) ** 2 / 2
    bound = pointwise._midpoint_bound(space, lhs + rhs, d(2, 3),
                                      space.distance_rows(pts[:, 3], 0 * pts[:, 3]))
    for row, margin, top, room in zip(xyz, (rhs - lhs).tolist(), raised.tolist(),
                                      bound.tolist()):
        x, y, z = row
        m = [(Fraction(u) + Fraction(v)) / 2 for u, v in zip(x, y)]
        exact = (2 * exact_square(space, z, m) + exact_square(space, x, y) / 2
                 - exact_square(space, z, x) - exact_square(space, z, y))
        assert abs(Fraction(margin) - exact) <= Fraction(room)
        assert Fraction(top) >= exact
        if shift == 0:
            assert room < 1e-12


@pytest.mark.parametrize("name,hilbert", [
    ("l2:dim=3", True), ("prod:p=2;l2:dim=2;l2:dim=1", True),
    ("lp:p=3,dim=2", False), ("lp:p=1.5,dim=2", False),
    ("prod:p=3;l2:dim=2;l2:dim=2", False)])
def test_midpoint_campaigns_hold_exactly_on_hilbert_spaces(name, hilbert):
    # a Hilbert space meets the inequality with equality; elsewhere about
    # half the draws violate it
    space = U.parse_space(name)
    rep = U.certify(space, MIDPOINT, cfg(), U.ball_sampler(space, MIDPOINT), 5000, 1)
    if hilbert:
        assert rep.violations == 0 and 0 <= rep.worst_margin < 1e-13
    else:
        assert 0.3 * rep.n < rep.violations < 0.7 * rep.n


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
    obj = json.loads(json.dumps(rep.to_dict()))
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
    # there is nothing to fit, so nothing is drawn and no certify pass runs
    monkeypatch.setattr(pointwise, "certify", None)
    with pytest.raises(pointwise.PointwiseError, match="does not depend on K"):
        U.min_feasible_K(space, ineq, cfg(exponent=2.0), None,
                         n=100, seed=0, bracket=(0.5, 64.0))


# every inequality that takes K: (id, space, exponent)
K_FAMILIES = [(ineq, L2, 2.0) for ineq in (
    U.InequalityId.Q_TRIPOD, U.InequalityId.Q_FORK, U.InequalityId.RELAXED_Q_FORK,
    U.InequalityId.P_UMBEL, U.InequalityId.RELAXED_P_UMBEL,
    U.InequalityId.SUPER_RELAXED_P_UMBEL)] + [
    (U.InequalityId.P_UNIFORM_CONVEXITY, U.parse_space("lp:p=3,dim=2"), 3.0)]


def refuse_certify(*args, **kwargs):
    raise AssertionError("the fit ran a certify pass")


def fit(ineq, space, q, bracket, n=300, seed=7, sampler=None):
    """min_feasible_K's answer, after checking that the fit is one pass: it
    draws each chunk of the sample once and runs no certify pass."""
    draw = sampler or U.ball_sampler(space, ineq)
    draws = []

    def counted(rng, m):
        draws.append(m)
        return draw(rng, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointwise, "certify", refuse_certify)
        try:
            return U.min_feasible_K(space, ineq, cfg(exponent=q), counted,
                                    n=n, seed=seed, bracket=bracket)
        finally:
            assert len(draws) == math.ceil(n / pointwise._CHUNK)


def violations(ineq, space, q, K, n=300, seed=7):
    return U.certify(space, ineq, cfg(exponent=q, K=K),
                     U.ball_sampler(space, ineq), n, seed).violations


@pytest.mark.parametrize("ineq,space,q", K_FAMILIES,
                         ids=[f[0].value for f in K_FAMILIES])
def test_min_feasible_K_is_the_sampled_minimum(ineq, space, q):
    # 9000 samples are three chunks, each drawn once
    for seed, lo, n in ((7, 1e-3, 300), (8, 1e-3, 300), (7, 1.2, 300),
                        (9, 1e-3, 9000)):
        K = fit(ineq, space, q, (lo, 1e3), n=n, seed=seed)
        assert lo <= K < 1e3
        assert violations(ineq, space, q, K, n=n, seed=seed) == 0
        if K != lo:
            assert violations(ineq, space, q, K * (1 - 2e-6), n=n, seed=seed) > 0


@pytest.mark.parametrize("ineq,space,q", K_FAMILIES,
                         ids=[f[0].value for f in K_FAMILIES])
def test_min_feasible_K_bracket_ends(ineq, space, q):
    K = fit(ineq, space, q, (1e-3, 1e3))
    # lo holds: it is the answer
    for lo in (K, 2 * K):
        assert fit(ineq, space, q, (lo, 1e3)) == lo
    # hi below the sampled minimum fails the final check: an error
    with pytest.raises(pointwise.PointwiseError, match="upper bracket"):
        fit(ineq, space, q, (1e-3, K * (1 - 2e-6)))
    # a NaN configuration fails at every K, in the pass
    draw = U.ball_sampler(space, ineq)

    def nan_draw(rng, m):
        pts = draw(rng, m)
        pts[m // 2, 0, 0] = math.nan
        return pts

    with pytest.raises(pointwise.PointwiseError, match="upper bracket"):
        fit(ineq, space, q, (1e-3, 1e3), sampler=nan_draw)


@pytest.mark.parametrize("ineq,space,q", K_FAMILIES,
                         ids=[f[0].value for f in K_FAMILIES])
def test_min_feasible_K_returns_hi_at_the_sampled_minimum(ineq, space, q):
    # hi is the sampled minimum: the pass climbs to hi, which holds; a
    # bracket of one feasible point returns that point
    K = fit(ineq, space, q, (1e-3, 1e3))
    assert K > 1e-3
    for lo in (1e-3, K):
        assert fit(ineq, space, q, (lo, K)) == K


def test_min_feasible_K_checks_its_answer_on_every_configuration(monkeypatch):
    # every K the fit tests is tested on all n configurations, and the
    # answer is a K that such a test passed
    holds = pointwise._holds
    calls = []

    def spy(rest, b, e, K, slack):
        calls.append((len(rest), len(b), K, holds(rest, b, e, K, slack)))
        return calls[-1][-1]

    monkeypatch.setattr(pointwise, "_holds", spy)
    ineq = U.InequalityId.Q_TRIPOD
    K = fit(ineq, L2, 2.0, (1e-3, 1e3), n=9000)
    assert (9000, 9000, K, True) in calls
    assert violations(ineq, L2, 2.0, K, n=9000) == 0
    assert fit(ineq, L2, 2.0, (1e-3, math.inf), n=9000) == K
    # a hi below the sampled minimum fails at hi, and an infinite hi is no
    # answer, though every margin holds there
    for bracket in ((1e-3, K * (1 - 2e-6)), (math.inf, math.inf)):
        with pytest.raises(pointwise.PointwiseError, match="upper bracket"):
            fit(ineq, L2, 2.0, bracket, n=9000)
    assert calls and all(call[:2] == (9000, 9000) for call in calls)


@pytest.mark.parametrize("ineq,space,q", K_FAMILIES,
                         ids=[f[0].value for f in K_FAMILIES])
def test_min_feasible_K_does_not_depend_on_chunk_order(ineq, space, q, monkeypatch):
    # the fit reads the set of configurations: the same 9000 draws, cut
    # into other chunks and read in reverse order, give the same K bits
    K = fit(ineq, space, q, (1e-3, 1e3), n=9000, seed=9)
    draws = pointwise._draws

    def reordered(*args):
        pts = np.concatenate(list(draws(*args)))
        yield from reversed(np.array_split(pts, 7))

    monkeypatch.setattr(pointwise, "_draws", reordered)
    assert fit(ineq, space, q, (1e-3, 1e3), n=9000, seed=9).hex() == K.hex()


@pytest.mark.parametrize("ineq", [U.InequalityId.Q_TRIPOD,
                                  U.InequalityId.P_UNIFORM_CONVEXITY])
def test_min_feasible_K_with_K_power_past_the_float_range(ineq):
    # 1e3 ** 300 overflows the float range; B / K^e is then 0
    assert fit(ineq, L2, 300.0, (1e3, 1e5), seed=3) == 1e3


# the least float with K ** 300 > 0
K300 = 0.08342749088562715


def test_least_positive_power():
    for e in (300.0, 40.0, 1075.5):
        x = pointwise._least_positive_power(e)
        assert x ** e > 0 and math.nextafter(x, 0) ** e == 0
    assert pointwise._least_positive_power(300.0) == K300
    assert pointwise._least_positive_power(0.5) == 5e-324


def test_min_feasible_K_with_K_power_below_the_float_range():
    # at lo = 1e-5, K^300 is 0 and some B are 0: 0 / 0 raises no warning
    assert fit(U.InequalityId.P_UMBEL, L2, 300.0, (1e-5, 1e5),
               seed=3) == 0.8313290310814383


@pytest.mark.parametrize("ineq,scale,bracket", [
    (U.InequalityId.Q_TRIPOD, 0.01, (1e-5, 1e5)),
    (U.InequalityId.Q_FORK, 0.05, (0.01, 10.0)),
], ids=["tripod", "fork"])
def test_min_feasible_K_where_every_B_is_0(ineq, scale, bracket):
    # every B underflows to 0: a margin fails only where K^300 is 0 too
    # (0 / 0), so the least K is the least float with K^300 > 0, reached
    # without stepping through the floats below it
    draw = U.ball_sampler(L2, ineq)

    def small(rng, m):
        return draw(rng, m) * scale

    assert fit(ineq, L2, 300.0, bracket, seed=3, sampler=small) == K300
    # certify agrees: it counts the 0 / 0 margins as violations
    for K, count in ((K300, 0), (math.nextafter(K300, 0), 300)):
        rep = U.certify(L2, ineq, cfg(exponent=300.0, K=K), small, 300, 3)
        assert rep.violations == count


def test_min_feasible_K_infeasible_at_every_K():
    # on the unit star a leg triple with the hub as z has R - A = 0 < B: no
    # K makes the tripod hold
    star = U.FiniteMatrixSpace(np.array([
        [0.0, 2.0, 2.0, 1.0], [2.0, 0.0, 2.0, 1.0],
        [2.0, 2.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]))
    with pytest.raises(pointwise.PointwiseError, match="upper bracket"):
        fit(U.InequalityId.Q_TRIPOD, star, 2.0, (0.5, 1e6), n=500)


@pytest.mark.parametrize("bracket", [(2.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                     (math.nan, 1.0)])
def test_min_feasible_K_rejects_bad_brackets(bracket):
    # before anything is drawn
    with pytest.raises(pointwise.PointwiseError, match="bracket"):
        U.min_feasible_K(L2, U.InequalityId.Q_TRIPOD, cfg(exponent=2.0), None,
                         n=300, seed=7, bracket=bracket)


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


# midpoint curvature needs (x + y) / 2 to be a midpoint: lp spaces and
# their products only
REFUSED = {(U.InequalityId.MIDPOINT_CURVATURE, name)
           for name in ("star", "graph", "heis-p2", "heis-pinf")}


def outcome(run, *args):
    """run(*args), or the message of the PointwiseError it raises."""
    try:
        return run(*args)
    except pointwise.PointwiseError as exc:
        return str(exc)


@pytest.mark.parametrize("ineq,name", BATCHED_PAIRS,
                         ids=[f"{i.value}-{n}" for i, n in BATCHED_PAIRS])
def test_batched_certify_matches_per_sample(ineq, name, space_dir, monkeypatch):
    space = U.parse_space(BATCHED_SPACES[name][0].format(dir=space_dir))
    c = cfg(exponent=3.0 if name == "l3" else 2.0, K=1.0, slack=1e-3)
    sampler = U.ball_sampler(space, ineq)
    # smaller chunks make 600 samples cross two chunk boundaries
    monkeypatch.setattr(pointwise, "_CHUNK", 256)
    for seed in (1, 2):
        fast = outcome(U.certify, space, ineq, c, sampler, 600, seed)
        slow = outcome(per_sample, space, ineq, c, 600, seed)
        assert isinstance(slow, str) == ((ineq, name) in REFUSED)
        if isinstance(slow, str):
            assert fast == slow and slow.startswith(ineq.value)
        else:
            assert_same_campaign(fast, slow)


@pytest.mark.parametrize("ineq,name", BATCHED_PAIRS,
                         ids=[f"{i.value}-{n}" for i, n in BATCHED_PAIRS])
def test_certify_reads_the_same_report_from_c_order_rows(ineq, name, space_dir):
    # sample_batch hands the kernels coordinate-major rows; the same values
    # in C order give the same report, bit for bit
    space = U.parse_space(BATCHED_SPACES[name][0].format(dir=space_dir))
    c = cfg(exponent=3.0 if name == "l3" else 2.0, K=1.0, slack=1e-3)
    sampler = U.ball_sampler(space, ineq)

    def c_order(rng, m):
        return np.ascontiguousarray(sampler(rng, m))

    for seed in (1, 2):
        got = outcome(U.certify, space, ineq, c, sampler, 5000, seed)
        want = outcome(U.certify, space, ineq, c, c_order, 5000, seed)
        assert isinstance(got, str) == ((ineq, name) in REFUSED)
        assert repr(got) == repr(want)


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


def test_ball_sampler_refuses_a_huge_xs_count():
    # C(count, 2) distance columns a chunk: the sampler is refused before
    # any configuration is drawn; the bound itself still samples
    ineq = U.InequalityId.P_UMBEL
    tracemalloc.start()
    try:
        with pytest.raises(pointwise.PointwiseError,
                           match="xs_count 100000 is more than the 128"):
            U.ball_sampler(L2, ineq, xs_count=100_000)(np.random.default_rng(0), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    sampler = U.ball_sampler(L2, ineq, xs_count=pointwise._XS_CAP)
    assert sampler(np.random.default_rng(0), 2).shape == (2, 130, 3)
    # the other inequalities draw no x_i and ignore the count
    assert U.ball_sampler(L2, U.InequalityId.Q_TRIPOD, xs_count=100_000)(
        np.random.default_rng(0), 2).shape == (2, 4, 3)


@pytest.mark.parametrize("space", ["heis:dim=2,p=1e-300",
                                   "prod:p=2;heis:dim=2,p=1e-300"])
def test_sampling_overflow_stops_the_campaign(space):
    # the Koranyi norm of a drawn point overflows to inf, which would dilate
    # every point onto the origin and certify the inequality on it
    space = U.parse_space(space)
    ineq = U.InequalityId.Q_TRIPOD
    with pytest.raises(FloatingPointError, match="overflow"):
        U.certify(space, ineq, cfg(), U.ball_sampler(space, ineq), 10, 1)


def test_lp_campaign_past_the_power_range_runs():
    # at p = 1100 the sum of p-th powers of a distance near 2 is past the
    # float range; the scaled norm keeps the campaign running
    ineq = U.InequalityId.Q_TRIPOD
    counts = [U.certify(space, ineq, cfg(), U.ball_sampler(space, ineq), 2000,
                        1).violations
              for space in (U.LpSpace(2, 700), U.LpSpace(2, 1100))]
    assert counts[1] == counts[0] > 0


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
             (U.InequalityId.HEISENBERG_PARALLELOGRAM, ((0.0,) * 3,) * 2, L2),
             (U.InequalityId.MIDPOINT_CURVATURE, (a,) * 4, hs),
             (U.InequalityId.MIDPOINT_CURVATURE, (0, 1, 2, 3), STAR4)]
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
         if outcome(pointwise.check_space, space, i) is None]), label="ineq")
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
    rep = U.check_inequality(U.InequalityId.HEISENBERG_PARALLELOGRAM,
                             U.InequalityConfig(2.0, C=1.0), (a, a), hs)
    assert rep.holds
    want = oracle.check_parallelogram(hs, 2.0, 1.0, a, a)
    assert rep.margin == pytest.approx(want.margin, rel=0, abs=1e-12)
    assert rep.witness == want.witness == (a, a)


def test_parallelogram_reads_only_the_group_law_of_its_space():
    # N_{q,lambda} comes from parallelogram_constants(q, C), not from the
    # descriptor's p and lambda (README's Certification section)
    pair = (U.HPoint((0.3, -0.2), 0.1), U.HPoint((0.1, 0.4), -0.2))
    margins = {U.check_inequality(U.InequalityId.HEISENBERG_PARALLELOGRAM,
                                  U.InequalityConfig(2.0), pair,
                                  U.parse_space(text)).margin
               for text in ["heis:dim=2,p=2", "heis:dim=2,p=7,lambda=3",
                            "heis:dim=2,p=inf,lambda=0.5"]}
    assert len(margins) == 1
    assert margins.pop() == pytest.approx(0.21607178768680965, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.tuples(unit, unit, unit), st.tuples(unit, unit, unit),
       st.sampled_from([2.0, 3.0]), st.sampled_from([1.0, 2.0]))
def test_parallelogram_matches_scalar_oracle(a, b, p, C):
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=p)
    pa, pb = U.HPoint(a[:2], a[2]), U.HPoint(b[:2], b[2])
    got = U.check_inequality(U.InequalityId.HEISENBERG_PARALLELOGRAM,
                             U.InequalityConfig(p, C=C, slack=1e-3), (pa, pb), hs)
    want = oracle.check_parallelogram(hs, p, C, pa, pb, slack=1e-3)
    assert abs(got.margin - want.margin) <= 1e-12
    assert got.witness == want.witness == (pa, pb)
    if abs(want.margin + 1e-3) > 1e-12:
        assert got.holds == want.holds


def test_parallelogram_requires_p_at_least_two():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
    a = U.HPoint((1.0, 0.0), 0.0)
    with pytest.raises(pointwise.PointwiseError, match="p must be >= 2"):
        U.check_inequality(U.InequalityId.HEISENBERG_PARALLELOGRAM,
                           U.InequalityConfig(1.5, C=1.0), (a, a), hs)


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


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 10.0])
def test_solve_umbel_K_is_the_least_float_meeting_the_condition(p):
    c = 1.0

    def g(k):
        u = 2 * c / k
        return (u + (2 - u ** p) ** (1 / p)) ** p / 2 ** p + 2 ** (p + 1) / k

    K = U.solve_umbel_K(p, c)
    assert g(K) <= 1 < g(math.nextafter(K, 0))
    if p == 2.0:
        assert K == 18.820430619388112


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


def alpha_terms(space, pts, n):
    """The terms alpha_rows reads, in its arithmetic: d(z_k,x)^2 + d(z_k,y)^2
    + d(x,y)^2 / 2 and d(z_k,m)^2 for k = 0..n, with d(z_k,m) and |m|."""
    x, y, z, m = (pts[:, i, None] for i in range(4))
    zk = m + (z - m) / 2.0 ** np.arange(n + 1)[:, None]
    d = space.distance_rows
    dzm = d(zk, m)
    return (d(zk, x) ** 2 + d(zk, y) ** 2 + d(x, y) ** 2 / 2, dzm ** 2, dzm,
            d(m, 0 * m))


def midpoint_draws(name, count, seed=1):
    space = U.parse_space(name)
    return space, U.ball_sampler(space, MIDPOINT)(np.random.default_rng(seed), count)


def hilbert_alpha_bound(space, pts, n):
    """How far a computed alpha_k may lie from 2 where the exact margin at
    the exact midpoint is 0, as on l2.  The numerator's two additions and
    the terms' roundings put it within B = _midpoint_bound of 2 d(z_k,m)^2
    (B spends gamma_(2a+3) of its gamma_(2a+4) on them), and the division
    rounds once more: |alpha_k - 2| <= (1 + u) B / D + 2u, D = d(z_k,m)^2."""
    s, dd, dzm, norm = alpha_terms(space, pts, n)
    u = U.spaces.UNIT_ROUNDOFF
    return (1 + u) * pointwise._midpoint_bound(space, s + 2 * dd, dzm, norm) / dd + 2 * u


@pytest.mark.parametrize("name", ["lp:p=1.5,dim=3", "lp:p=3,dim=3", "lp:p=4,dim=2",
                                  "l2:dim=3", "lp:p=3,dim=9", "lp:p=1,dim=2",
                                  "lp:p=inf,dim=2", "prod:p=2;l2:dim=1;l2:dim=1"])
def test_alpha_rows_match_the_scalar_oracle(name):
    # Each distance lies within a = _distance_roundings roundings of the
    # exact one, and a square within r = 2a + 3 (the oracle's Python pow
    # within 1 ulp takes 3).  The numerator's two additions and the
    # quotient's one leave either computation within
    # gamma_(r+1) |alpha| + gamma_(2r+3) S / D of the exact alpha_k, S the
    # sum of the numerator's three terms; computed S, D and alpha for the
    # exact ones cost one more rounding, so the two lie within
    # 2 gamma_(2r+4) (|alpha| + S / D) of each other.  They do differ in
    # the last bits: the oracle squares by Python's pow, which need not
    # round as a product does, and an lp norm's array power need not have
    # the bits of the one-vector power.
    n = 10
    space, pts = midpoint_draws(name, 200)
    got = U.alpha_rows(space, pts, n)
    assert got.shape == (200, n + 1)
    s, dd, _, _ = alpha_terms(space, pts, n)
    r = 2 * pointwise._distance_roundings(space) + 3
    bound = 2 * U.spaces.gamma(2 * r + 4) * (np.abs(got) + s / dd)
    want = np.array([oracle.alpha_sequence(space, *map(space.point, row), n) for row in pts])
    assert (np.abs(got - want) <= bound).all()


def test_alpha_rows_stay_within_rounding_of_two_on_l2():
    # the l2 product of two planes is l2 of dimension 4
    for name in ("l2:dim=3", "prod:p=2;l2:dim=2;l2:dim=2"):
        space, pts = midpoint_draws(name, 2000)
        alpha = U.alpha_rows(space, pts, 10)
        assert (np.abs(alpha - 2) <= hilbert_alpha_bound(space, pts, 10)).all(), name


@pytest.mark.parametrize("name", ["lp:p=1.5,dim=3", "lp:p=3,dim=3", "lp:p=4,dim=3"])
def test_alpha_rows_leave_two_off_hilbert(name):
    space, pts = midpoint_draws(name, 200)
    alpha = U.alpha_rows(space, pts, 10)
    # past every rounding that keeps an l2 alpha_k at 2
    assert (np.abs(alpha - 2) > hilbert_alpha_bound(space, pts, 10)).any()


def test_alpha_rows_refuse_z_equal_m():
    space, pts = midpoint_draws("l2:dim=2", 5)
    pts[3, 2] = pts[3, 3]
    with pytest.raises(pointwise.PointwiseError, match="z = m"):
        U.alpha_rows(space, pts, 3)
    with pytest.raises(pointwise.PointwiseError, match="z = m"):
        oracle.alpha_sequence(space, *map(tuple, pts[3]), 3)


@pytest.mark.parametrize("name", ["heis:dim=2,p=2", "prod:p=2;l2:dim=1;heis:dim=2,p=2"])
def test_alpha_rows_refuse_spaces_without_interpolation(name):
    # the spaces midpoint curvature refuses: (x + y) / 2 is no midpoint there
    space = U.parse_space(name)
    pts = space.sample_batch(np.random.default_rng(0), 3, 4)
    with pytest.raises(pointwise.PointwiseError, match="needs an lp space"):
        U.alpha_rows(space, pts, 3)
    with pytest.raises(pointwise.PointwiseError, match="needs an lp space"):
        oracle.alpha_sequence(space, *map(space.point, pts[0]), 3)


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
    assert json.loads(json.dumps(rep.to_dict()))["worst_margin"] is None


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
