import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import umbellab as U
from umbellab import pointwise
from umbellab.pointwise import NoSolution, SPACE_NEEDED

L2 = U.LpSpace(3, 2.0)
unit = st.floats(min_value=-1, max_value=1, allow_nan=False)
vec3 = st.tuples(unit, unit, unit)


def cfg(**kw):
    return U.InequalityConfig(**kw)


def test_tripod_right_angle_example():
    # w at the origin, legs along the axes, z at the barycenter of the legs
    w, x, y = (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)
    z = (1.0, 1.0, 0.0)
    rep = U.check_inequality(U.InequalityId.Q_TRIPOD, cfg(exponent=2.0, K=1.0),
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
    rep = U.check_inequality(U.InequalityId.Q_TRIPOD, cfg(exponent=2.0, K=1.0),
                             (0, 1, 2, 3), STAR4)
    assert not rep.holds
    assert rep.margin == pytest.approx(-0.25)


def test_tripod_slack_absorbs_violation():
    rep = U.check_inequality(U.InequalityId.Q_TRIPOD,
                             cfg(exponent=2.0, K=1.0, slack=0.25),
                             (0, 1, 2, 3), STAR4)
    assert rep.holds


@given(vec3, vec3, vec3)
def test_midpoint_curvature_holds_in_hilbert(x, y, z):
    m = tuple((a + b) / 2 for a, b in zip(x, y))
    rep = U.check_inequality(U.InequalityId.MIDPOINT_CURVATURE, cfg(),
                             (x, y, z, m), L2)
    assert rep.holds or rep.margin > -1e-9


@given(vec3, vec3)
def test_p_uniform_convexity_p2_k1_is_parallelogram_law(x, y):
    rep = U.check_inequality(U.InequalityId.P_UNIFORM_CONVEXITY,
                             cfg(exponent=2.0, K=1.0), (x, y), L2)
    assert rep.holds or abs(rep.margin) < 1e-9


def test_umbel_variants_agree_on_finite_families():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w, z, *xs = (tuple(rng.uniform(-1, 1, 3)) for _ in range(6))
        pts = (w, z, tuple(xs))
        base = U.check_inequality(U.InequalityId.RELAXED_P_UMBEL,
                                  cfg(exponent=2.0, K=4.0), pts, L2)
        sup = U.check_inequality(U.InequalityId.SUPER_RELAXED_P_UMBEL,
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


# batched certification against the per-sample loop

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


def per_sample(sampler):
    """The same draws without the `batch` attribute: certify then checks one
    configuration at a time with check_inequality."""
    return lambda rng: sampler(rng)


def assert_same_campaign(fast, slow):
    assert fast.violations == slow.violations
    # repr tells floats apart bit for bit, and ints from numpy integers
    assert repr(fast.worst_witness) == repr(slow.worst_witness)
    assert abs(fast.worst_margin - slow.worst_margin) <= 1e-12


@pytest.mark.parametrize("ineq,name", BATCHED_PAIRS,
                         ids=[f"{i.value}-{n}" for i, n in BATCHED_PAIRS])
def test_batched_certify_matches_per_sample(ineq, name, space_dir, monkeypatch):
    space = U.parse_space(BATCHED_SPACES[name][0].format(dir=space_dir))
    c = cfg(exponent=3.0 if name == "l3" else 2.0, K=1.0, slack=1e-3)
    sampler = U.ball_sampler(space, ineq)
    assert hasattr(sampler, "batch")
    # smaller chunks make 600 samples cross two chunk boundaries
    monkeypatch.setattr(pointwise, "_CHUNK", 256)
    for seed in (1, 2):
        assert_same_campaign(U.certify(space, ineq, c, sampler, 600, seed),
                             U.certify(space, ineq, c, per_sample(sampler),
                                       600, seed))


@pytest.mark.parametrize("name", ["l2", "star"])
def test_batched_certify_crosses_chunk(name, space_dir):
    space = U.parse_space(BATCHED_SPACES[name][0].format(dir=space_dir))
    ineq = U.InequalityId.Q_TRIPOD
    c = cfg(exponent=2.0, K=1.0, slack=1e-3)
    sampler = U.ball_sampler(space, ineq)
    for seed in (4, 5):
        assert_same_campaign(U.certify(space, ineq, c, sampler, 5000, seed),
                             U.certify(space, ineq, c, per_sample(sampler),
                                       5000, seed))


def test_per_sample_fallback_for_custom_samplers_and_products():
    ineq = U.InequalityId.Q_TRIPOD
    c = cfg(exponent=2.0, K=1.0, slack=1e-3)
    prod = U.parse_space("prod:p=2;l2:dim=2;lp:p=inf,dim=2")
    prod_sampler = U.ball_sampler(prod, ineq)
    assert not hasattr(prod_sampler, "batch")
    custom = lambda rng: tuple(tuple(rng.normal(size=3)) for _ in range(4))
    for space, sampler in ((prod, prod_sampler), (L2, custom)):
        # the per-sample loop written out
        violations, worst, witness = 0, math.inf, ()
        rng = np.random.default_rng(np.random.SeedSequence(8).spawn(1)[0])
        for _ in range(300):
            rep = U.check_inequality(ineq, c, sampler(rng), space)
            violations += not rep.holds
            if rep.margin < worst:
                worst, witness = rep.margin, rep.witness
        got = U.certify(space, ineq, c, sampler, 300, 8)
        assert (got.violations, got.worst_margin) == (violations, worst)
        assert repr(got.worst_witness) == repr(witness)


def test_wrapped_ball_sampler_keeps_batch():
    sampler = U.ball_sampler(L2, U.InequalityId.Q_TRIPOD)

    @functools.wraps(sampler)
    def traced(rng):
        return sampler(rng)

    assert traced.batch is sampler.batch
    c = cfg()
    assert_same_campaign(U.certify(L2, U.InequalityId.Q_TRIPOD, c, traced, 300, 2),
                         U.certify(L2, U.InequalityId.Q_TRIPOD, c,
                                   per_sample(sampler), 300, 2))


def test_batched_umbel_large_xs_count():
    ineq = U.InequalityId.P_UMBEL
    sampler = U.ball_sampler(L2, ineq, xs_count=40)
    assert sampler.batch(np.random.default_rng(0), 5).shape == (5, 42, 3)
    c = cfg(exponent=2.0, K=4.0, slack=1e-3)
    fast = U.certify(L2, ineq, c, sampler, 60, 3)
    assert len(fast.worst_witness[2]) == 40
    assert_same_campaign(fast, U.certify(L2, ineq, c, per_sample(sampler), 60, 3))


def test_batched_umbel_needs_xs():
    sampler = U.ball_sampler(L2, U.InequalityId.P_UMBEL, xs_count=0)
    with pytest.raises(pointwise.PointwiseError, match="nonempty"):
        U.certify(L2, U.InequalityId.P_UMBEL, cfg(), sampler, 10, 0)


def test_min_feasible_K_batched_matches_per_sample():
    ineq = U.InequalityId.Q_TRIPOD
    sampler = U.ball_sampler(L2, ineq)
    Ks = [U.min_feasible_K(L2, ineq, cfg(exponent=2.0), s, n=300, seed=7,
                           bracket=(0.5, 64.0))
          for s in (sampler, per_sample(sampler))]
    assert Ks[0] == pytest.approx(Ks[1], rel=1e-6)


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


def test_modulus_beta_positive_for_separated_families():
    est = U.modulus_beta(U.LpSpace(2, 2.0), 0.8, m=3)
    assert est.value >= -1e-9


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


@pytest.mark.parametrize("q", [math.inf, math.nan, 0.0, -2.0])
def test_config_exponent_must_be_finite_and_positive(q):
    with pytest.raises(pointwise.PointwiseError, match="exponent"):
        U.InequalityConfig(q)


def test_nan_margin_is_a_violation_with_witness_batched(monkeypatch):
    ineq = U.InequalityId.Q_TRIPOD
    draw = U.ball_sampler(L2, ineq)
    real = pointwise.batch_margins

    def with_nan(*args):
        margins = real(*args)
        margins[[3, 7]] = np.nan
        return margins

    monkeypatch.setattr(pointwise, "batch_margins", with_nan)
    rep = U.certify(L2, ineq, cfg(exponent=2.0, K=1.0), draw, 20, seed=4)
    rng = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
    configs = [draw(rng) for _ in range(20)]
    assert rep.violations == 2
    assert math.isnan(rep.worst_margin)
    assert rep.worst_witness == configs[3]
    assert json.loads(rep.to_json())["worst_margin"] is None


def test_nan_margin_is_a_violation_with_witness_per_sample():
    ineq = U.InequalityId.Q_TRIPOD
    draw = U.ball_sampler(L2, ineq)
    calls = iter(range(10 ** 6))

    def sampler(rng):  # no `batch`: the per-sample loop
        pts = draw(rng)
        return ((math.nan,) * 3,) + pts[1:] if next(calls) in (5, 9) else pts

    rep = U.certify(L2, ineq, cfg(exponent=2.0, K=1.0), sampler, 20, seed=4)
    assert rep.violations == 2
    assert math.isnan(rep.worst_margin)
    assert math.isnan(rep.worst_witness[0][0])
    rng = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
    assert rep.worst_witness[1:] == [draw(rng) for _ in range(6)][5][1:]
