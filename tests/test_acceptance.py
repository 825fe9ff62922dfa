"""End-to-end acceptance checks, one test per headline capability."""

import itertools
import json
import math
import time

import numpy as np
import pytest

import umbellab as U
from umbellab.cli import main
from umbellab.pointwise import NoSolution

from invariant_oracle import tree_distance

RTOL = 1e-9


# 1. umbel cotype of the identity map


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_acc_identity_umbel_cotype(k, p):
    spec = U.parse_tree_spec(f"inc:h={2 ** k},b={2 ** k + 2}")
    t0 = time.monotonic()
    rep = U.report(U.InvariantId.UMBEL_COTYPE, U.TreeMap.identity(spec), p)
    elapsed = time.monotonic() - t0
    expected = 2 * (k - 1) ** (1 / p)
    assert abs(rep.ratio_root - expected) <= RTOL * expected
    assert elapsed < 60.0


# 2. fork cotype of the identity map


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_acc_identity_fork_cotype(k, q):
    spec = U.parse_tree_spec(f"bin:h={2 ** k}")
    rep = U.report(U.InvariantId.FORK_COTYPE, U.TreeMap.identity(spec), q)
    expected = 2 * (k - 1) ** (1 / q)
    assert abs(rep.ratio_root - expected) <= RTOL * expected


# 3. tripod inequality in R^3 and the star counterexample


def test_acc_tripod_campaign_r3():
    sp = U.LpSpace(3, 2.0)
    cfg = U.InequalityConfig(exponent=2.0, K=1.0)
    rep = U.certify(sp, U.InequalityId.Q_TRIPOD, cfg,
                    U.ball_sampler(sp, U.InequalityId.Q_TRIPOD),
                    n=100_000, seed=20260826)
    assert rep.violations == 0


def test_acc_four_star_violates_via_cli(tmp_path, capsys):
    star = np.array([
        [0.0, 2.0, 2.0, 1.0],
        [2.0, 0.0, 2.0, 1.0],
        [2.0, 2.0, 0.0, 1.0],
        [1.0, 1.0, 1.0, 0.0]])
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"n": 4, "d": star.tolist()}))
    code = main(["certify", "--space", f"matrix:file={path}",
                 "--inequality", "tripod", "--q", "2", "--K", "1",
                 "--samples", "2000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["violations"] > 0


# 4. Heisenberg parallelogram campaign


def test_acc_heisenberg_parallelogram_campaign():
    hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
    cfg = U.InequalityConfig(exponent=2.0, C=1.0)
    rep = U.certify(hs, U.InequalityId.HEISENBERG_PARALLELOGRAM, cfg,
                    U.ball_sampler(hs, U.InequalityId.HEISENBERG_PARALLELOGRAM),
                    n=100_000, seed=77)
    assert rep.violations == 0


# 5. exact vs Monte Carlo branch expectations


@pytest.mark.parametrize("height", [4, 8])
def test_acc_markov_mc_within_four_se(height):
    f = U.TreeMap.identity(U.parse_tree_spec(f"bin:h={height}"))
    k = height.bit_length() - 1
    for s in range(0, k + 1):
        for t in range(2 ** s, 2 ** k + 1):
            for q in (1.0, 2.0):
                exact = U.markov_pair_expectation_exact(f, s, t, q)
                mc, se = U.markov_pair_expectation_mc(f, s, t, q,
                                                      n=100_000, seed=617)
                assert (abs(mc - exact) <= 4 * se
                        or abs(mc - exact) < 1e-12), (s, t, q, exact, mc, se)


# 6. Markov-type ratio growth


def test_acc_markov_ratio_growth():
    prev = 0.0
    for k in (1, 2, 3):
        spec = U.parse_tree_spec(f"bin:h={2 ** k}")
        rep = U.report(U.InvariantId.MARKOV_DIRECTED,
                       U.TreeMap.identity(spec), 2.0)
        assert rep.ratio_root >= prev - 1e-12
        assert rep.ratio_root >= 0.5 * k
        prev = rep.ratio_root


# 7. compression chain and integral bound


def test_acc_compression_chain():
    k, p = 2, 2.0
    spec = U.parse_tree_spec(f"inc:h={2 ** k},b={2 ** k + 2}")
    f = U.bourgain_embed(spec, p=2.0)
    rho, omega = U.moduli(f)
    lhsv = U.lhs(U.InvariantId.UMBEL_COTYPE, f, p)
    chain = sum(rho(2.0 ** (s + 1)) ** p / 2 ** (s * p) for s in range(1, k))
    assert chain <= lhsv * (1 + RTOL) + RTOL
    integral = U.compression_integral(rho, p, 2.0 ** (k - 1))
    bound = (2 ** p - 1) / p * lhsv * omega(1.0) ** p
    assert integral <= bound * (1 + RTOL) + RTOL


def test_acc_compression_integral_identity_curve():
    value = U.compression_integral(lambda t: t, 2.0, math.e)
    assert abs(value - 1.0) <= 1e-9


# 8. embedding distortion against a brute-force oracle


def brute_force_distortion(f):
    """lip * colip over every vertex pair: the tree distances from the
    oracle's tree_distance, the image distances from a plain numpy norm of
    the points, read once, rather than the library's row kernel."""
    verts = U.vertices(f.spec)
    pts = np.array(f.points(), dtype=float)
    lip = 0.0
    colip = 0.0
    for i, u in enumerate(verts[:-1]):
        dt = np.array([tree_distance(u, v) for v in verts[i + 1:]], dtype=float)
        di = np.linalg.norm(pts[i + 1:] - pts[i], ord=f.target.p, axis=1)
        lip = max(lip, float((di / dt).max()))
        colip = max(colip, float((dt / di).max()))
    return lip * colip


@pytest.mark.parametrize("h", [2, 4, 8])
def test_acc_bourgain_distortion(h):
    spec = U.parse_tree_spec(f"inc:h={h},b={h + 2}")
    f = U.bourgain_embed(spec, p=2.0)
    lip, colip, dist = U.distortion(f)
    assert math.isfinite(dist)
    assert dist >= 1.0
    assert dist <= 4 * math.sqrt(math.log2(2 * h))
    assert dist == pytest.approx(brute_force_distortion(f), rel=1e-9)


def test_acc_bourgain_distortion_nondecreasing():
    values = []
    for h in (2, 4, 8):
        spec = U.parse_tree_spec(f"inc:h={h},b={h + 2}")
        values.append(U.distortion(U.bourgain_embed(spec, p=2.0))[2])
    assert values == sorted(values)


# 9. moduli of convexity sandwich


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_acc_modulus_sandwich(p):
    sp = U.LpSpace(2, p)
    for eps in (0.5, 1.0, 1.5):
        d_half = U.modulus_delta(sp, eps / 2).value
        d_tilde = U.modulus_delta_tilde(sp, eps).value
        d_twice = 2 * U.modulus_delta(sp, eps).value
        assert d_half <= d_tilde + 0.02
        assert d_tilde <= d_twice + 0.02


def test_acc_modulus_delta_hilbert_value():
    est = U.modulus_delta(U.LpSpace(2, 2.0), math.sqrt(2.0))
    assert abs(est.value - (1 - math.sqrt(0.5))) <= 0.01


# 10. the umbel constant equation


def test_acc_solve_umbel_K():
    K = U.solve_umbel_K(2.0, 1.0)
    assert 18.0 < K < 19.0
    c, p = 1.0, 2.0
    u = 2 * c / K
    residual = ((1 / 2 ** p) * (u + (2 - u ** p) ** (1 / p)) ** p
                + 2 ** (p + 1) / K - 1.0)
    assert residual <= 1e-9
    with pytest.raises(NoSolution):
        U.solve_umbel_K(1.0, 1.0)


# 11. lifting through quotient oracles


def test_acc_lift_hundred_instances():
    spec = U.parse_tree_spec("bin:h=2")
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 40))
        pts = tuple(tuple(x) for x in rng.uniform(-1, 1, (n, 2)))
        oracle = U.QuotientOracle(U.LpSpace(2, 2.0), pts,
                                  U.LpSpace(2, 2.0), pts, C=2.0, K=0.05)
        assign = {}
        for v in U.vertices(spec):
            i = int(rng.integers(0, n))
            assign[v] = tuple(np.asarray(pts[i]) + rng.uniform(-0.02, 0.02, 2))
        g = U.TreeMap(spec, oracle.target_space, assign)
        h = U.lift_map(g, oracle)
        if not U.verify_lift(g, h, oracle):
            failures += 1
    assert failures == 0


# 12. tree morphism property


def test_acc_morphism_star_property():
    # constant thresholds, exhaustive over a small range, k <= 4
    for k in range(1, 5):
        for c in range(1, 8):
            J = lambda m, n, c=c: c
            phi = U.binary_to_increasing(k, J)
            assert U.check_star_property(k, J, phi)
    # 50 random threshold functions
    rng = np.random.default_rng(1234)
    for trial in range(50):
        k = int(rng.integers(1, 5))
        table = {}

        def J(m, n, table=table, rng=rng):
            if (m, n) not in table:
                table[(m, n)] = int(rng.integers(1, 20))
            return table[(m, n)]

        phi = U.binary_to_increasing(k, J)
        assert U.check_star_property(k, J, phi)


# 13. search consistency


def search_problem(pins_extra=None):
    mat = np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float)
    pins = {(): 0}
    if pins_extra:
        pins.update(pins_extra)
    return U.SearchProblem(spec=U.parse_tree_spec("bin:h=2"),
                           target=U.FiniteMatrixSpace(mat),
                           invariant=U.InvariantId.MARKOV_DIRECTED,
                           exponent=2.0, pins=pins)


def test_acc_local_matches_exhaustive():
    for pins_extra in (None, {(1,): 1}, {(-1,): 2}):
        prob = search_problem(pins_extra)
        best = U.exhaustive_max(prob, budget=10 ** 6)
        assert best.feasible
        hits = 0
        for seed in range(10):
            res = U.local_search_max(prob, restarts=8, steps=300, seed=seed)
            if res.feasible and abs(res.best_ratio - best.best_ratio) < 1e-9:
                hits += 1
        assert hits >= 9


def test_acc_exhaustive_matches_second_enumeration():
    prob = search_problem()
    res = U.exhaustive_max(prob, budget=10 ** 6)
    free = [v for v in U.vertices(prob.spec) if v not in prob.pins]
    best = -math.inf
    for combo in itertools.product(range(prob.target.n), repeat=len(free)):
        assign = dict(prob.pins)
        assign.update(zip(free, combo))
        f = U.TreeMap(prob.spec, prob.target, assign)
        denom = U.rhs(prob.invariant, f, prob.exponent)
        if denom <= 0:
            continue
        best = max(best, U.lhs(prob.invariant, f, prob.exponent) / denom)
    assert res.best_ratio == pytest.approx(best, rel=1e-12)
