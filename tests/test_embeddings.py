import decimal
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import umbellab as U
from umbellab.cli import main
from umbellab.embeddings import EmbeddingError, _bourgain_profile
from umbellab import trees
from umbellab.invariants import InvariantError, ProfileMap, TreeMap, _realised
from umbellab.spaces import LpSpace
from umbellab.trees import INCREASING, TreeSpec, tree_graph

import invariant_oracle as oracle
from invariant_oracle import _pairwise


def test_bourgain_root_edge_norm():
    spec = U.parse_tree_spec("inc:h=4,b=6")
    f = U.bourgain_embed(spec, p=2.0)
    d = np.linalg.norm(np.asarray(f.point((1,))) - np.asarray(f.point(())))
    assert d == pytest.approx(math.sqrt((math.sqrt(2) - 1) ** 2 + 1), rel=1e-12)


def test_bourgain_is_injective_and_finite_distortion():
    spec = U.parse_tree_spec("inc:h=4,b=6")
    f = U.bourgain_embed(spec, p=2.0)
    pts = [tuple(f.point(v)) for v in U.vertices(spec)]
    assert len(set(pts)) == len(pts)
    lip, colip, dist = U.distortion(f)
    assert lip > 0 and colip > 0
    assert dist >= 1.0


def test_bourgain_variants():
    # the l1 map (p = 1, every weight 1) and the linf map (p = inf)
    spec = U.parse_tree_spec("inc:h=4,b=6")
    f1 = U.bourgain_embed(spec, 1.0)
    fi = U.bourgain_embed(spec, math.inf)
    assert set(f1.point((1, 2))) == {0.0, 1.0}
    assert max(fi.point((1, 2))) == 3.0
    assert U.distortion(f1)[2] >= 1.0
    assert U.distortion(fi)[2] >= 1.0
    for p in (0.5, -1.0, math.nan, -math.inf):
        with pytest.raises(EmbeddingError, match=r"p must lie in \[1, inf\]"):
            U.bourgain_embed(spec, p)


@pytest.mark.parametrize("variant", ["l2", "LINF", ""])
def test_bourgain_rejects_unknown_variant(variant, capsys):
    # the variant names the map's exponent on the command line alone
    assert main(["embed", "--tree", "inc:h=2,b=4", "--p", "2", "--variant", variant]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_distortion_rejects_constant_map():
    spec = U.parse_tree_spec("bin:h=2")
    f = U.named_map("constant", spec, U.LpSpace(2, 2.0))
    with pytest.raises(EmbeddingError):
        U.distortion(f)


# closed-form Bourgain geometry against the dense vectors

H8_DISTORTION = 2.3452976362042404
BOURGAIN_CASES = [pytest.param(h, p, id=f"{h}-{p}-{oracle.bourgain_name(p)}")
                  for h in (1, 2, 4, 8) for p in (1.5, 2.0, 3.0, 1.0, math.inf)]


def dense_copy(f: TreeMap) -> TreeMap:
    """The same points as a plain TreeMap: the oracle's image distances by
    cdist."""
    return TreeMap(f.spec, f.target, f.assignment)


def grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex pair as broadcast (n, 1) x (1, n) index arrays."""
    return np.arange(n)[:, None], np.arange(n)[None, :]


def triple_representatives(spec) -> np.ndarray:
    """Indices of one vertex pair per realised (depth, depth, lcp) triple."""
    graph = tree_graph(spec)
    depth = graph.depth
    lcp = graph.lcp(*grid(graph.n))
    key = (depth[:, None] * 100 + depth[None, :]) * 100 + lcp
    _, first = np.unique(key, return_index=True)
    return np.stack(np.unravel_index(first, key.shape), axis=1)


@pytest.mark.parametrize("h,p", BOURGAIN_CASES)
def test_bourgain_closed_form_matches_dense(h, p):
    spec = U.parse_tree_spec(f"inc:h={h},b={h + 2}")
    f = U.bourgain_embed(spec, p)
    assert isinstance(f, ProfileMap)
    closed = f.pair_distances(*grid(len(f.assignment)))
    if h == 8 and p not in (1.0, 2.0, math.inf):
        # cdist at a generic p over 1013 coordinates takes ~10 s here, so
        # the dense oracle checks one pair of every (depth, depth, lcp)
        # triple; the gather itself is checked in full by the other cases
        verts = U.vertices(spec)
        for i, j in triple_representatives(spec):
            dense = _pairwise(f.target, [f.point(verts[i]), f.point(verts[j])])
            assert closed[i, j] == pytest.approx(dense[0, 1], rel=1e-12, abs=0)
        return
    dense = _pairwise(f.target, f.points())
    np.testing.assert_allclose(closed, dense, rtol=1e-12, atol=0)
    assert np.array_equal(closed, closed.T)


def test_bourgain_closed_form_distortion_and_moduli_h8():
    # the dense vectors go to the table oracle only: one row block of the
    # library's pair scan over their 1013 coordinates would take about 1 GB
    f = U.bourgain_embed(U.parse_tree_spec("inc:h=8,b=10"), p=2.0)
    dense = dense_copy(f)
    assert U.distortion(f)[2] == pytest.approx(H8_DISTORTION, rel=1e-12, abs=0)
    np.testing.assert_allclose(U.distortion(f), oracle.distortion(dense),
                               rtol=1e-12, atol=0)
    for fast, slow in zip(U.moduli(f), oracle.moduli(dense)):
        np.testing.assert_allclose(fast.breakpoints, slow.breakpoints,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(fast.values, slow.values,
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("h,p", [case for case in BOURGAIN_CASES if case.values[0] < 8
                                 or case.values[1] in (1.0, 2.0, math.inf)])
def test_binary_bourgain_map_is_the_eager_map(h, p):
    # the coordinates of a binary vertex are its prefixes, as on an
    # increasing tree; cdist at a generic p over the 511 coordinates of
    # bin:h=8 takes seconds, so that tree runs at p = 1, 2 and inf
    spec = U.parse_tree_spec(f"bin:h={h}")
    f = U.bourgain_embed(spec, p)
    eager = oracle.eager_bourgain(spec, p)
    assert f.target == eager.target and f.points() == eager.points()
    np.testing.assert_allclose(f.pair_distances(*grid(tree_graph(spec).n)),
                               _pairwise(eager.target, eager.points()),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("q", [1.5, 2.0, 4.0])
def test_binary_bourgain_fork_convexity_is_umbel_convexity(k, q):
    # both ids read the classes (h, h, h - 2^s) and the edge levels, and the
    # two trees realise them all, so the sides agree bit for bit
    h = 2 ** k
    fork = U.bourgain_embed(U.parse_tree_spec(f"bin:h={h}"), q)
    umbel = U.bourgain_embed(U.parse_tree_spec(f"inc:h={h},b={h + 1}"), q)
    for P in (1.5, 2.0, 3.0):
        for side in (U.lhs, U.rhs):
            assert side(U.InvariantId.FORK_CONVEXITY, fork, P).hex() == \
                side(U.InvariantId.UMBEL_CONVEXITY, umbel, P).hex(), (side, P)


@pytest.mark.parametrize("h,want", [(4, 2.116690435118209), (8, 2.345297636204241)])
def test_binary_bourgain_distortion_is_the_increasing_maps(h, want):
    # both trees realise every (depth, depth, lcp) triple with c < a, or
    # c = a < b, so the moduli read the same profile values
    got = [U.distortion(U.bourgain_embed(U.parse_tree_spec(tree), 2.0))[2]
           for tree in (f"bin:h={h}", f"inc:h={h},b={h + 1}")]
    assert got == [want, want]


def test_embed_scans_the_pairs_once(monkeypatch, tmp_path):
    # a ProfileMap's scan is one block over its realised (depth, depth,
    # lcp) triples, read off its profile without any pair gather
    gathers, blocks = [], []
    gather, scan = ProfileMap.pair_distances, ProfileMap.pair_scan

    def spy_gather(self, u, v):
        gathers.append(u.shape)
        return gather(self, u, v)

    def spy_scan(self):
        for block in scan(self):
            blocks.append(len(block[0]))
            yield block

    monkeypatch.setattr(ProfileMap, "pair_distances", spy_gather)
    monkeypatch.setattr(ProfileMap, "pair_scan", spy_scan)
    assert main(["embed", "--tree", "inc:h=4,b=6", "--p", "2",
                 "--csv", str(tmp_path / "moduli.csv"),
                 "--out", str(tmp_path / "embed.json")]) == 0
    assert gathers == [] and len(blocks) == 1


# the implicit Bourgain map against the eager vectors


@pytest.mark.parametrize("h", range(6))
@pytest.mark.parametrize("extra", [0, 1, 3, "bin"])
def test_realised_triples_match_enumeration(h, extra):
    # extra: b - h of an increasing tree, or "bin" for the binary tree; the
    # rule speaks of the a <= b half, at every j_min up to b + 1 on an
    # increasing tree
    spec = U.parse_tree_spec(f"bin:h={h}" if extra == "bin"
                             else f"inc:h={h},b={h + extra}")
    graph = tree_graph(spec)
    u, v = (w.ravel() for w in np.broadcast_arrays(*grid(graph.n)))
    u, v = u[u != v], v[u != v]
    a, b, lcp = graph.depth[u], graph.depth[v], graph.lcp(u, v)
    # a fork pair goes on past its common prefix in both vertices; top is
    # the larger of its two next labels
    fork = lcp < np.minimum(a, b)
    top = np.zeros(len(u), dtype=np.intp)
    top[fork] = np.maximum(*(graph.label[graph.anc[w[fork], lcp[fork] + 1]]
                             for w in (u, v)))
    triples = np.indices((h + 1,) * 3, sparse=True)
    lower = triples[0] <= triples[1]
    for j_min in [None] if extra == "bin" else [None, *range(1, h + extra + 2)]:
        kept = ~fork | (top >= (0 if j_min is None else j_min))
        seen = np.zeros((h + 1,) * 3, dtype=bool)
        seen[a[kept], b[kept], lcp[kept]] = True
        assert np.array_equal(lower & _realised(spec, *triples, j_min),
                              lower & seen), j_min


@pytest.mark.parametrize("h", [1, 2, 4])
@pytest.mark.parametrize("p", [pytest.param(p, id=f"{p}-{oracle.bourgain_name(p)}")
                               for p in (1.5, 2.0, 3.0, 1.0, math.inf)])
def test_lazy_points_equal_the_eager_construction(h, p):
    spec = U.parse_tree_spec(f"inc:h={h},b={h + 2}")
    f = U.bourgain_embed(spec, p)
    eager = oracle.eager_bourgain(spec, p)
    assert f.target == eager.target
    assert list(f.assignment) == list(eager.assignment)
    assert f.points() == eager.points()
    assert f.to_json() == eager.to_json()


PROFILE_EXPONENTS = (1.0, 1.0000001, 1.5, 2.0, 3.0, 50.0, 200.0, 250.0, 300.0,
                     400.0, 700.0, 1000.0, 1e300, math.inf)


def profile_triples(h: int):
    """The mask of the (depth, depth, lcp) triples with c <= min(a, b) over
    the (h+1)^3 grid, and those triples as three int arrays."""
    a, b, c = np.indices((h + 1,) * 3)
    defined = c <= np.minimum(a, b)
    return defined, (a[defined], b[defined], c[defined])


@pytest.mark.parametrize("p", PROFILE_EXPONENTS)
def test_bourgain_profile_by_prefix_sums_equals_the_loop(p):
    for h in range(18):
        defined, triples = profile_triples(h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = _bourgain_profile(h, p)(*triples)
        slow = oracle.bourgain_profile(h, p)
        # the oracle's table is nan exactly where c > min(a, b)
        assert np.array_equal(np.isnan(slow), ~defined), h
        slow = slow[defined]
        assert not np.isnan(fast).any(), h
        assert np.array_equal(np.isinf(fast), np.isinf(slow)), h
        finite = np.isfinite(slow)
        if p in (1.0, math.inf):
            assert np.array_equal(fast[finite], slow[finite]), h
        else:
            np.testing.assert_allclose(fast[finite], slow[finite],
                                       rtol=1e-13, atol=0, err_msg=str(h))


def _decimal_norm(x, p) -> float:
    """The lp norm of a list of floats to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        total = sum(decimal.Decimal(abs(v)) ** decimal.Decimal(p) for v in x if v)
        return float(total ** (1 / decimal.Decimal(p))) if total else 0.0


@pytest.mark.parametrize("p", [400.0, 700.0])
def test_bourgain_profile_past_the_power_range_is_finite(p):
    # at these p the largest weight's p-th power on h = 8 is past the float
    # range, so the unscaled prefix sums overflow, and plain differences of
    # them gave inf, or inf - inf, at some triples; the sums kept as
    # logarithms give every distance within 4 ulps of its 60-digit value
    h, q = 8, p / (p - 1)
    assert math.log((h + 1) ** (1 / q)) * p > math.log(sys.float_info.max)
    _, triples = profile_triples(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T = _bourgain_profile(h, p)(*triples)
    for a, b, c, got in zip(*triples, T.tolist()):
        diff = [(a - i + 1) ** (1 / q) - (b - i + 1) ** (1 / q) for i in range(c + 1)]
        diff += [m ** (1 / q) for m in range(1, a - c + 1)]
        diff += [m ** (1 / q) for m in range(1, b - c + 1)]
        want = _decimal_norm(diff, p)
        assert abs(got - want) <= 4 * math.ulp(want), (a, b, c, got, want)


@pytest.mark.parametrize("tree,p", [("inc:h=8,b=10", "400"), ("inc:h=2,b=2", "1e300"),
                                    ("inc:h=8,b=10", "1e308")])
def test_embed_past_the_power_range(capsys, tmp_path, tree, p):
    # every Bourgain distance is at most 2h, so the moduli, distortion and
    # compression integral are finite at any p: at 1e308, p log(h + 1) is
    # past the float range too, and T is max(a, b) - c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["embed", "--tree", tree, "--p", p,
                     "--csv", str(tmp_path / "moduli.csv")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert 1 <= doc["lip"] < 1.01 and doc["distortion"] >= doc["colip"] >= 1
    assert 0 < doc["compression_integral"] < math.inf


def test_bourgain_reports_past_the_cap_build_no_table(monkeypatch):
    # inc:h=128,b=129 is far past the vertex cap, and a (h+1)^3 table of its
    # profile with the index arrays that fill it takes over 100 MB: the
    # reports evaluate the profile on their class columns and build no
    # TreeGraph array
    calls = []

    def spy(*args, real=trees._level_arrays):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trees, "_level_arrays", spy)
    tracemalloc.start()
    try:
        f = ProfileMap(TreeSpec(INCREASING, 128, 129), LpSpace(1, 2.0), None,
                       _bourgain_profile(128, 2.0))
        reps = [U.report(U.InvariantId(inv), f, 2.0)
                for inv in ("umbel-cotype", "umbel-convexity")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [rep.ratio_root for rep in reps] == [1.7766893284114065,
                                                1.8797201962245134]
    assert peak < 2 << 20 and calls == []


def test_tessera_reports_on_a_binary_bourgain_map_of_height_1024():
    # class weights past the float range as a pair count times a pair weight
    # are formed from their exponents, so the sum side reports a finite value
    f = ProfileMap(U.parse_tree_spec("bin:h=1024"), LpSpace(1, 2.0), None,
                   _bourgain_profile(1024, 2.0))
    rep = U.report(U.InvariantId.TESSERA, f, 2.0)
    assert all(map(math.isfinite, (rep.lhs, rep.rhs, rep.ratio_root)))
    assert rep.lhs > 0 and rep.rhs > 0


def test_bourgain_report_builds_no_vectors():
    # the 1013 dense vectors of this tree take about 8 MB
    spec = U.parse_tree_spec("inc:h=8,b=10")
    tree_graph(spec)
    tracemalloc.start()
    try:
        f = U.bourgain_embed(spec, 2.0)
        rep = U.report(U.InvariantId.UMBEL_COTYPE, f, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.rhs > 0
    assert peak < 1 << 20


def test_lift_of_bourgain_map_matches_eager_copy():
    rng = np.random.default_rng(4)
    spec = U.parse_tree_spec("inc:h=2,b=4")
    f = U.bourgain_embed(spec, 2.0)
    eager = oracle.eager_bourgain(spec, 2.0)
    pts = list(eager.points()) + [tuple(x) for x in rng.uniform(0, 2, (8, f.target.dim))]
    lifts = U.QuotientOracle(f.target, tuple(pts), f.target, tuple(pts), 2.0, 0.05)
    lifted = U.lift_map(f, lifts)
    assert lifted.assignment == U.lift_map(eager, lifts).assignment
    assert U.verify_lift(f, lifted, lifts)


# moduli curves


def test_moduli_envelopes():
    spec = U.parse_tree_spec("inc:h=4,b=6")
    f = U.bourgain_embed(spec, p=2.0)
    rho, omega = U.moduli(f)
    # rho nondecreasing, omega nondecreasing, rho <= omega pointwise
    ts = [1.0, 2.0, 3.0, 4.0]
    for a, b in zip(ts, ts[1:]):
        assert rho(a) <= rho(b) + 1e-12
        assert omega(a) <= omega(b) + 1e-12
    for t in ts:
        assert rho(t) <= omega(t) + 1e-12


def test_moduli_identity_tree():
    f = U.TreeMap.identity(U.parse_tree_spec("bin:h=4"))
    rho, omega = U.moduli(f)
    for t in (1.0, 2.0, 4.0):
        assert rho(t) == pytest.approx(t)
        assert omega(t) == pytest.approx(t)


def test_modulus_curve_step_semantics():
    curve = U.ModulusCurve((1.0, 2.0, 4.0), (1.0, 1.5, 3.0))
    assert curve(1.0) == 1.0
    assert curve(1.9) == 1.0
    assert curve(2.0) == 1.5
    assert curve(5.0) == 3.0


@pytest.mark.parametrize("seed", range(6))
def test_modulus_curve_equals_the_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 9))
    bps = np.cumsum(rng.choice([0.5, 1.0, 2.0], n)) - 2.0
    curve = U.ModulusCurve(tuple(bps.tolist()),
                           tuple(np.sort(rng.uniform(0, 5, n)).tolist()))
    ts = [math.nan, -math.inf, math.inf, -1e300, 1e300, 10 ** 400]
    ts += bps.tolist() + (bps + 0.25).tolist() + (bps - 1e-12).tolist()
    for t in ts:
        assert curve(t) == oracle.modulus_value(curve, t), t
    assert curve(math.nan) == 0.0


@pytest.mark.parametrize("bps", [(math.nan,), (1.0, math.nan, 3.0),
                                 (1.0, 2.0, math.nan)])
def test_modulus_curve_rejects_nan_breakpoints(bps):
    with pytest.raises(EmbeddingError, match="breakpoints must increase"):
        U.ModulusCurve(bps, (1.0,) * len(bps))


def test_embed_csv_reads_the_curve_values(monkeypatch, tmp_path):
    # the CSV zips the breakpoints with the values; only the compression
    # integral reads the curve, once per piece
    calls = []
    real = U.ModulusCurve.__call__

    def spy(self, t):
        calls.append(t)
        return real(self, t)

    monkeypatch.setattr(U.ModulusCurve, "__call__", spy)
    csv = tmp_path / "moduli.csv"
    assert main(["embed", "--tree", "inc:h=8,b=10", "--p", "3", "--csv",
                 str(csv), "--out", str(tmp_path / "embed.json")]) == 0
    reads = len(calls)
    rho, omega = U.moduli(U.bourgain_embed(U.parse_tree_spec("inc:h=8,b=10"), 3.0))
    assert csv.read_text() == "\n".join(
        ["t,rho,omega"] + [f"{t},{rho(t)},{omega(t)}" for t in rho.breakpoints]) + "\n"
    assert reads == len(rho.breakpoints) - 1


def test_compression_integral_identity_curve():
    assert U.compression_integral(lambda t: t, 2.0, math.e) == pytest.approx(
        1.0, rel=1e-9)


def test_compression_integral_step_curve_closed_form():
    curve = U.ModulusCurve((1.0, 2.0), (1.0, 2.0))
    # integral of rho(t)^p t^{-p} dt/t with p=2 over [1, 4]
    expected = (1.0 * (1 - 2 ** -2.0) / 2.0) + (4.0 * (2 ** -2.0 - 4 ** -2.0) / 2.0)
    assert U.compression_integral(curve, 2.0, 4.0) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("p", [-3.0, -0.0, 0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("rho", [U.ModulusCurve((1.0, 2.0), (1.0, 2.0)), lambda t: t],
                         ids=["curve", "callable"])
def test_compression_integral_refuses_an_exponent_that_is_not_positive(rho, p):
    with pytest.raises(EmbeddingError, match=f"exponent p must be a finite "
                                             f"positive number, not {p}"):
        U.compression_integral(rho, p, 4.0)


def test_compression_chain_against_umbel_lhs():
    spec = U.parse_tree_spec("inc:h=4,b=6")
    f = U.bourgain_embed(spec, p=2.0)
    rho, omega = U.moduli(f)
    k, p = 2, 2.0
    lhsv = U.lhs(U.InvariantId.UMBEL_COTYPE, f, p)
    chain = sum(rho(2.0 ** (s + 1)) ** p / 2 ** (s * p) for s in range(1, k))
    assert chain <= lhsv + 1e-9
    integral = U.compression_integral(rho, p, 2.0 ** (k - 1))
    assert integral <= (2 ** p - 1) / p * lhsv * omega(1.0) ** p + 1e-9


# lifting


def make_oracle(rng, n=25, C=2.0, K=0.05):
    dom = U.LpSpace(2, 2.0)
    tgt = U.LpSpace(2, 2.0)
    pts = [tuple(x) for x in rng.uniform(-1, 1, (n, 2))]
    return U.QuotientOracle(dom, tuple(pts), tgt, tuple(pts), C, K)


def make_liftable_g(rng, oracle, spec):
    assign = {}
    for v in U.vertices(spec):
        i = int(rng.integers(0, len(oracle.domain)))
        base = np.asarray(oracle.values[i])
        assign[v] = tuple(base + rng.uniform(-0.02, 0.02, 2))
    return U.TreeMap(spec, oracle.target_space, assign)


def test_lift_random_instances():
    rng = np.random.default_rng(0)
    spec = U.parse_tree_spec("bin:h=2")
    for _ in range(20):
        oracle = make_oracle(rng)
        g = make_liftable_g(rng, oracle, spec)
        h = U.lift_map(g, oracle)
        assert U.verify_lift(g, h, oracle)


def test_lift_rejects_far_values():
    rng = np.random.default_rng(1)
    spec = U.parse_tree_spec("bin:h=2")
    oracle = make_oracle(rng)
    assign = {v: (50.0, 50.0) for v in U.vertices(spec)}
    g = U.TreeMap(spec, oracle.target_space, assign)
    with pytest.raises(EmbeddingError):
        U.lift_map(g, oracle)
    empty = U.QuotientOracle(oracle.domain_space, (), oracle.target_space, (),
                             2.0, 0.05)
    with pytest.raises(EmbeddingError, match="farther than K"):
        U.lift_map(g, empty)


def test_lift_is_deterministic():
    rng = np.random.default_rng(2)
    spec = U.parse_tree_spec("bin:h=2")
    oracle = make_oracle(rng)
    g = make_liftable_g(rng, oracle, spec)
    h1 = U.lift_map(g, oracle)
    h2 = U.lift_map(g, oracle)
    for v in U.vertices(spec):
        assert h1.point(v) == h2.point(v)


def test_verify_lift_detects_bad_lift():
    rng = np.random.default_rng(3)
    spec = U.parse_tree_spec("bin:h=2")
    oracle = make_oracle(rng)
    g = make_liftable_g(rng, oracle, spec)
    h = U.lift_map(g, oracle)
    # clobber one vertex with the domain point farthest from its g value
    far = max(range(len(oracle.domain)),
              key=lambda i: oracle.target_space.distance(
                  oracle.values[i], g.point((1, 1))))
    bad_assign = dict(h.assignment)
    bad_assign[(1, 1)] = oracle.domain[far]
    bad = U.TreeMap(spec, oracle.domain_space, bad_assign)
    assert not U.verify_lift(g, bad, oracle)


def _perturbed_table(points, rng):
    """The l1 distance table of `points`, each entry above the diagonal
    raised by up to 1e-11 relative: asymmetric within the symmetry check,
    so the order of each distance's arguments shows."""
    d = np.abs(points[:, None] - points[None]).sum(axis=-1)
    return d * (1 + np.triu(rng.uniform(0, 1e-11, d.shape), 1))


PATH4 = U.GraphMetricSpace(4, ((0, 1), (1, 2), (2, 3)))


def _row_space(kind):
    """(domain space, target space, f on domain rows) of a row lift kind."""
    if kind in ("l1", "l2", "linf"):
        p = {"l1": 1.0, "l2": 2.0, "linf": math.inf}[kind]
        return U.LpSpace(3, p), U.LpSpace(2, p), lambda z: z[:, :2]
    if kind == "heis":
        space = U.parse_space("heis:dim=2,p=2")
        return space, space, lambda z: U.spaces.h_dilate_rows(0.5, z)
    if kind == "prod":
        space = U.parse_space("prod:p=2;l2:dim=2;heis:dim=2,p=inf")
    else:  # an l1 factor and a path graph factor, its index in the last column
        space = U.ProductSpace((U.LpSpace(2, 1.0), PATH4), 1.0)
    return space, space, lambda z: z


def lift_instance(kind, seed):
    """A seeded lift problem (g, oracle): the oracle values are the images
    of the domain under a quotient-like map, g's points lie within eps of
    values in each coordinate, and K is drawn around the distance that
    makes, so some instances cannot be lifted."""
    rng = np.random.default_rng(seed)
    spec = U.parse_tree_spec(("bin:h=2", "bin:h=3", "inc:h=2,b=4")[seed % 3])
    n, nv = int(rng.integers(8, 30)), len(U.vertices(spec))
    eps = 10.0 ** rng.uniform(-2.5, -0.5)
    # a Koranyi distance grows as the root of a vertical offset
    scale = math.sqrt(eps) if kind in ("heis", "prod") else eps
    C, K = float(rng.uniform(1.0, 3.0)), float(scale * rng.uniform(0.3, 3.0))
    if kind == "matrix":
        z = rng.normal(size=(n, 3))
        dom = U.FiniteMatrixSpace(_perturbed_table(z, rng))
        tgt = U.FiniteMatrixSpace(_perturbed_table(z[:, :2], rng))
        q = U.QuotientOracle(dom, tuple(range(n)), tgt, tuple(range(n)), C, K)
        near = rng.integers(n, size=nv).tolist()
    else:
        dom, tgt, f = _row_space(kind)
        z = dom.onto_ball(rng.uniform(-1.0, 1.0, (n, dom.width)))
        noise = rng.uniform(-eps, eps, (nv, tgt.width))
        if kind == "prod-table":
            z[:, -1], noise[:, -1] = rng.integers(4, size=n), 0.0
        values = f(z)
        q = U.QuotientOracle(dom, tuple(map(dom.point, z)),
                             tgt, tuple(map(tgt.point, values)), C, K)
        near = list(map(tgt.point, values[rng.integers(n, size=nv)] + noise))
    g = U.TreeMap(spec, q.target_space, dict(zip(U.vertices(spec), near)))
    return g, q


def lift_outcome(lift, g, q):
    """The lift document, or the text of the error."""
    try:
        return lift(g, q).to_json()
    except EmbeddingError as exc:
        return f"error: {exc}"


LIFT_KINDS = ["l1", "l2", "linf", "matrix", "heis", "prod", "prod-table"]


@pytest.mark.parametrize("kind", LIFT_KINDS)
def test_lift_on_rows_equals_the_scalar_loop(kind):
    got = [lift_outcome(U.lift_map, *lift_instance(kind, seed))
           for seed in range(16)]
    want = [lift_outcome(oracle.lift_map, *lift_instance(kind, seed))
            for seed in range(16)]
    assert got == want
    lifted = sum(not doc.startswith("error") for doc in got)
    assert 0 < lifted < len(got), lifted  # both outcomes are reached


@pytest.mark.parametrize("g_points,s,K,want", [
    # d(f(0), g(root)) = 1 + 5e-10 > K + tol >= d(g(root), f(0)) = 1
    ((1, 1, 1), 1.0, 1.0 - 0.8e-9, [1, 1, 1]),
    # d(h(root), 0) = 1 <= s r + K + tol < d(0, h(root)) = 1 + 5e-10
    ((1, 0, 0), 1.0 - 0.8e-9, 0.0, [1, 0, 0]),
    # s d(g(root), g(v)) + tol < 1 <= s d(g(v), g(root)) + tol
    ((1, 0, 0), 1.0 - 1.25e-9, 0.0, None),
], ids=["values", "domain", "edge"])
def test_lift_keeps_the_order_of_each_distance(g_points, s, K, want):
    # a table asymmetric within the symmetry check: swapping the arguments
    # of one of the three distances changes each outcome.  The target is
    # that table scaled by s, so at C = 1 a target distance is s times the
    # table's
    table = np.array([[0.0, 1.0 + 5e-10], [1.0, 0.0]])
    space, target = U.FiniteMatrixSpace(table), U.FiniteMatrixSpace(s * table)
    spec = U.parse_tree_spec("bin:h=1")
    g = U.TreeMap(spec, target, dict(zip(U.vertices(spec), g_points)))
    q = U.QuotientOracle(space, (0, 1), target, (0, 1), 1.0, K)
    got = lift_outcome(U.lift_map, g, q)
    assert got == lift_outcome(oracle.lift_map, g, q)
    if want is None:
        assert got.startswith("error")
    else:
        assert list(U.lift_map(g, q).points()) == want


def test_lift_makes_no_scalar_distance_call(monkeypatch):
    calls = []
    for cls in (U.spaces.RowSpace, U.spaces.TableSpace):
        def spy(self, a, b, original=cls.distance):
            calls.append(type(self).__name__)
            return original(self, a, b)
        monkeypatch.setattr(cls, "distance", spy)
    for kind in LIFT_KINDS:
        for seed in range(3):
            lift_outcome(U.lift_map, *lift_instance(kind, seed))
        assert calls == [], kind
        lift_outcome(oracle.lift_map, *lift_instance(kind, 0))
        assert calls, kind  # the spies see the scalar loop
        calls.clear()


TWO = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("domain,values,message", [
    ((0, 1), (0, 2), "value point"),
    ((0, 1), (0, -1), "value point"),
    ((0, 1), (0, 1.0), "value point"),
    ((0, 3), (0, 1), "domain point"),
    ((0, 1), (0,), "align"),
])
def test_quotient_oracle_checks_table_points(domain, values, message):
    with pytest.raises(EmbeddingError, match=message):
        U.QuotientOracle(U.FiniteMatrixSpace(TWO), domain,
                         U.FiniteMatrixSpace(TWO), values, 2.0, 0.0)


@pytest.mark.parametrize("domain,values,message", [
    (((0.0,), (1.0,)), ((0.0,), (1.0, 2.0)), "value point"),
    (((0.0,), ("a",)), ((0.0,), (1.0,)), "domain point"),
    (((0.0,), 1.0), ((0.0,), (1.0,)), "domain point"),
])
def test_quotient_oracle_checks_lp_points(domain, values, message):
    l1 = U.LpSpace(1, 2.0)
    with pytest.raises(EmbeddingError, match=f"^a {message}: dimension mismatch$"):
        U.QuotientOracle(l1, domain, l1, values, 2.0, 0.0)


@pytest.mark.parametrize("point", [2, -1, 0.5, "a", None, (0,), True])
def test_tree_map_checks_table_points(point):
    spec = U.parse_tree_spec("bin:h=1")
    assignment = {v: 0 for v in U.vertices(spec)}
    assignment[(1,)] = point
    for target in (U.FiniteMatrixSpace(TWO), U.GraphMetricSpace(2, ((0, 1),))):
        with pytest.raises(InvariantError, match="map point"):
            U.TreeMap(spec, target, assignment)
