"""The per-invariant loops that evaluated every functional before the
library compiled them into plans (see umbellab.invariants), the selection
of plan pairs by their common prefix lengths, the n x n
distance tables that distortion and moduli read before the pair scan, and
the linear scan that read a modulus curve, the Bourgain map with every
vector built up front and its distance
profile computed by one lp norm per triple, the lift that made one
scalar `distance` call per (vertex, domain point), the constant map's
point chosen class by class, a Monte Carlo estimate of the
directed-walk expectation over coupled walk pairs, the identity's sum
sides as exact fractions, the class plan built from flattened lists and
the join of its segment values one segment column at a time.
They walk the displays of each functional directly and serve as the test
oracle for the compiled plans, the scan, the on-demand points and the lift
on rows; nothing in the
library imports them.  The tree distance, level edges and map distance
`dist` below take one vertex pair at a time, where the library reads rows
of its TreeGraph."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from umbellab import trees
from umbellab.embeddings import EmbeddingError, ModulusCurve, QuotientOracle
from umbellab.invariants import (InvariantError, InvariantId, Plan, TreeMap,
                                 _COTYPE_IDS, _no_configuration,
                                 _check_exponent, _classes, _height_range,
                                 _plan_args, _realised,
                                 _validate, compile_plan)
from umbellab.trees import Vertex, tree_graph, vertices_at_height
from umbellab import spaces as sp
from umbellab.spaces import HPoint, LpSpace, _apsp

import pointwise_oracle


def tree_distance(u: Vertex, v: Vertex) -> int:
    """Path distance |u| + |v| - 2 * (longest common prefix length)."""
    lcp = 0
    for a, b in zip(u, v):
        if a != b:
            break
        lcp += 1
    return len(u) + len(v) - 2 * lcp


def level_edges(spec, level: int) -> list[tuple[Vertex, Vertex]]:
    """All (parent, child) edges between heights level-1 and level."""
    return [(v[:-1], v) for v in vertices_at_height(spec, level)]


def dist(f: TreeMap, u: Vertex, v: Vertex) -> float:
    """d(f(u), f(v)) by the target's scalar distance."""
    return f.target.distance(f.point(u), f.point(v))


def _pairwise(target, pts) -> np.ndarray:
    n = len(pts)
    if isinstance(target, sp.TableSpace):
        idx = np.asarray(pts, dtype=np.intp)
        mat = getattr(target, "table", None)
        if mat is None:  # a TreeGraph, which keeps no table
            mat = graph_table(target)
        if n == len(mat) and (idx == np.arange(n)).all():
            # the identity assignment: the table itself, shared read-only
            view = mat.view()
            view.flags.writeable = False
            return view
        return mat[np.ix_(idx, idx)]
    if isinstance(target, LpSpace):
        from scipy.spatial.distance import cdist
        arr = np.asarray(pts, dtype=float)
        metric = "chebyshev" if target.p == math.inf else "minkowski"
        return cdist(arr, arr, metric=metric, p=target.p) if metric == "minkowski" else cdist(arr, arr, metric=metric)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = pointwise_oracle.distance(target, pts[i], pts[j])
    return out


def bourgain_name(p: float) -> str:
    """Bourgain's map at exponent p as test ids name it: l1, linf or lp."""
    return {1.0: "l1", math.inf: "linf"}.get(p, "lp")


def eager_bourgain(spec, p: float = 2.0) -> TreeMap:
    """bourgain_embed's points, every vector built up front as one dense
    tuple per vertex, in a plain TreeMap."""
    q = math.inf if p == 1 else 1.0 if p == math.inf else p / (p - 1)
    verts = trees.vertices(spec)
    coord = {v: i for i, v in enumerate(verts)}
    dim = len(verts)
    assignment = {}
    for v in verts:
        j = len(v)
        vec = np.zeros(dim)
        for i in range(j + 1):
            vec[coord[v[:i]]] = (j - i + 1) ** (1.0 / q)
        assignment[v] = tuple(vec)
    return TreeMap(spec, LpSpace(dim, p), assignment)


@np.errstate(over="ignore")
def bourgain_profile(height: int, p: float) -> np.ndarray:
    """The Bourgain map's (depth, depth, lcp) distance table, one lp norm of
    the explicit coordinate differences per triple (scaled where its sum
    overflows): the loop that the library's prefix sums replaced."""
    q = 1.0 if p == math.inf else math.inf if p == 1 else p / (p - 1)

    def weight(m):
        return m ** (1.0 / q)

    T = np.full((height + 1,) * 3, np.nan)
    for a in range(height + 1):
        for b in range(a, height + 1):
            for c in range(a + 1):
                diff = [weight(a - i + 1) - weight(b - i + 1) for i in range(c + 1)]
                diff += [weight(m) for m in range(1, a - c + 1)]
                diff += [weight(m) for m in range(1, b - c + 1)]
                T[a, b, c] = T[b, a, c] = _unscaled_or_scaled_norm(diff, p)
    return T


def _unscaled_or_scaled_norm(x, p: float) -> float:
    """The lp norm of x by its formula, or, where that sum of p-th powers is
    past the float range, with the largest |x_i| factored out."""
    norm = pointwise_oracle.lp_norm(x, p)
    if norm == math.inf:
        m = max(map(abs, x))
        norm = m * pointwise_oracle.lp_norm([v / m for v in x], p)
    return norm


@functools.lru_cache(maxsize=2)
def graph_table(graph) -> np.ndarray:
    """The n x n distance table of a graph's edges, by shortest paths."""
    return _apsp(graph.n, graph.edges)


def tree_table(spec) -> np.ndarray:
    return graph_table(tree_graph(spec))


def distance_tables(f: TreeMap) -> tuple[np.ndarray, np.ndarray]:
    """(tree distances, image distances) over the full vertex list: the image
    table by _pairwise, or, for a Bourgain map, whose dense vectors are too
    long for it, gathered from the map's own closed-form pair distances."""
    if type(f) is TreeMap or isinstance(f.target, sp.TableSpace):
        return tree_table(f.spec), _pairwise(f.target, f.points())
    i = np.arange(len(f.assignment))
    return tree_table(f.spec), f.pair_distances(i[:, None], i[None, :])


def distortion(f: TreeMap) -> tuple[float, float, float]:
    dtree, dimg = distance_tables(f)
    mask = dtree > 0
    if not mask.any():
        raise EmbeddingError("tree has a single vertex")
    if (dimg[mask] <= 0).any():
        raise EmbeddingError("constant or non-injective map has infinite colip")
    lip = float(np.max(dimg[mask] / dtree[mask]))
    colip = float(np.max(dtree[mask] / dimg[mask]))
    return lip, colip, lip * colip


def moduli(f: TreeMap) -> tuple[ModulusCurve, ModulusCurve]:
    dtree, dimg = distance_tables(f)
    mask = np.triu(dtree > 0)
    if not mask.any():
        raise EmbeddingError("tree has a single vertex")
    ts = np.unique(dtree[mask])
    mins = np.array([dimg[mask & (dtree == t)].min() for t in ts])
    maxs = np.array([dimg[mask & (dtree == t)].max() for t in ts])
    rho_vals = np.minimum.accumulate(mins[::-1])[::-1]  # min over larger t too
    omega_vals = np.maximum.accumulate(maxs)
    rho = ModulusCurve(tuple(ts.tolist()), tuple(rho_vals.tolist()))
    omega = ModulusCurve(tuple(ts.tolist()), tuple(omega_vals.tolist()))
    return rho, omega


def modulus_value(curve: ModulusCurve, t: float) -> float:
    """ModulusCurve.__call__ as the linear scan over the breakpoints."""
    val = 0.0
    for b, v in zip(curve.breakpoints, curve.values):
        if t >= b:
            val = v
        else:
            break
    return val


def lipschitz_constant(f: TreeMap) -> tuple[float, bool]:
    """(value, flag): the pair maximum over one full n x n ratio buffer, the
    edge maximum by walking the edges through `dist`, and whether they
    differ."""
    index = tree_graph(f.spec).index
    dtree = tree_table(f.spec)
    dimg = _pairwise(f.target, [f.assignment[v] for v in index])
    ratio = np.zeros_like(dimg)
    np.divide(dimg, dtree, out=ratio, where=dtree > 0)
    pair_lip = float(ratio.max())
    edge = max((dist(f, u, v) for level in range(1, f.spec.height + 1)
                for u, v in level_edges(f.spec, level)), default=0.0)
    return max(pair_lip, edge), not sp.close(pair_lip, edge)


def _min_branch_pair(f: TreeMap, height: int, lcp: int, p: float,
                     j_min: Optional[int] = None) -> float:
    """Minimum of d(f(u), f(v))^p over pairs of height-`height` vertices whose
    longest common prefix has length exactly `lcp`.  With j_min set, one of
    the two diverging labels must be >= j_min (the liminf tail knob)."""
    groups: dict[Vertex, list[Vertex]] = {}
    for v in vertices_at_height(f.spec, height):
        groups.setdefault(v[:lcp], []).append(v)
    best = math.inf
    for members in groups.values():
        if len(members) < 2:
            continue
        labels = np.array([v[lcp] for v in members])
        admissible = labels[:, None] != labels[None, :]
        if j_min is not None:
            admissible &= np.maximum(labels[:, None], labels[None, :]) >= j_min
        admissible &= np.triu(np.ones_like(admissible), k=1).astype(bool)
        if not admissible.any():
            continue
        dmat = _pairwise(f.target, [f.assignment[v] for v in members])
        best = min(best, float(np.min(dmat[admissible]) ** p))
    if best is math.inf:
        raise _no_configuration(f.spec, (height, height, lcp), j_min)
    return best


def lhs(inv: InvariantId, f: TreeMap, p: float,
        j_min: Optional[int] = None) -> float:
    k = _validate(inv, f.spec)
    if inv in (InvariantId.UMBEL_COTYPE, InvariantId.RELAXED_UMBEL):
        return sum(
            _min_branch_pair(f, 2 ** k, 2 ** k - 2 ** s, p, j_min) / 2 ** (s * p)
            for s in range(1, k)
        )
    if inv is InvariantId.FORK_COTYPE:
        total = 0.0
        for s in range(1, k):
            best = min(
                _min_branch_pair(f, h, h - 2 ** s, p)
                for h in range(2 ** s, 2 ** k + 1)
            )
            total += best / 2 ** (s * p)
        return total
    if inv in (InvariantId.UMBEL_CONVEXITY, InvariantId.FORK_CONVEXITY):
        jm = j_min if inv is InvariantId.UMBEL_CONVEXITY else None
        total = 0.0
        for s in range(1, k):
            blocks = 2 ** (k - 1 - s)
            acc = 0.0
            for t in range(1, blocks + 1):
                h = t * 2 ** (s + 1)
                acc += _min_branch_pair(f, h, h - 2 ** s, p, jm)
            total += acc / blocks / 2 ** (s * p)
        return total
    if inv is InvariantId.TESSERA:
        return _tessera_lhs(f, k, p)
    if inv is InvariantId.MARKOV_DIRECTED:
        return _markov_lhs(f, k, p)
    raise InvariantError(f"unknown invariant {inv}")  # pragma: no cover


def rhs(inv: InvariantId, f: TreeMap, p: float) -> float:
    k = _validate(inv, f.spec)
    if inv in _COTYPE_IDS or inv is InvariantId.TESSERA:
        return lipschitz_constant(f)[0] ** p
    if inv in (InvariantId.UMBEL_CONVEXITY, InvariantId.FORK_CONVEXITY):
        total = 0.0
        for level in range(1, 2 ** k + 1):
            total += max(dist(f, u, v) ** p for u, v in level_edges(f.spec, level))
        return total / 2 ** k
    if inv is InvariantId.MARKOV_DIRECTED:
        total = 0.0
        for t in range(1, 2 ** k + 1):
            verts = vertices_at_height(f.spec, t)
            total += sum(dist(f, v[:-1], v) ** p for v in verts) / len(verts)
        return total
    raise InvariantError(f"unknown invariant {inv}")  # pragma: no cover


def _height_matrix(f: TreeMap, h: int) -> np.ndarray:
    """Image distances between all pairs of height-h binary vertices, indexed
    in lexicographic (-1 < 1) order."""
    verts = vertices_at_height(f.spec, h)
    return _pairwise(f.target, [f.assignment[v] for v in verts])


def _tessera_lhs(f: TreeMap, k: int, q: float) -> float:
    total = 0.0
    for s in range(0, k):
        lo, hi = 2 ** s, 2 ** k - 2 ** s
        candidates = range(lo + 1, hi + 1)
        if not candidates:
            continue  # empty index range: the term is vacuous
        best = math.inf
        w = 2 ** s
        for ell in candidates:
            mat = _height_matrix(f, ell + w) ** q
            block = 2 ** w
            acc = 0.0
            for z in range(2 ** ell):
                sl = slice(z * block, (z + 1) * block)
                acc += mat[sl, sl].sum()
            val = acc / 2 ** ell / block ** 2
            best = min(best, val)
        if best is not math.inf:
            total += best / 2 ** (s * q)
    return total


def branch_expectation(f: TreeMap, window: int, t: int, q: float) -> float:
    """E[d(f(W_t), f(W'_t))^q] for the directed walk and an independent copy
    branching `window` steps before time t, by decomposing over the first
    step at which the walks diverge (no divergence contributes 0)."""
    if window == 0:
        return 0.0
    mat = _height_matrix(f, t) ** q
    base = t - window
    total = 0.0
    for l in range(1, window + 1):
        tail = window - l
        c = base + l - 1  # common prefix height
        block = 2 ** tail
        acc = 0.0
        for z in range(2 ** c):
            row = slice(z * 2 * block, z * 2 * block + block)
            col = slice(z * 2 * block + block, (z + 1) * 2 * block)
            acc += mat[row, col].sum()
        total += 2.0 ** (-l) * acc / 2 ** c / block ** 2
    return total


def _markov_lhs(f: TreeMap, k: int, p: float) -> float:
    total = 0.0
    for s in range(0, k + 1):
        for t in range(1, 2 ** k + 1):
            window = min(2 ** s, t)
            total += branch_expectation(f, window, t, p) / 2 ** (s * p)
    return total


@np.errstate(over="ignore", invalid="ignore")
def markov_pair_expectation_mc(f: TreeMap, s: int, t: int, q: float,
                               n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo oracle for markov_pair_expectation_exact over n coupled
    walk pairs; returns (estimate, standard error)."""
    k = _validate(InvariantId.MARKOV_DIRECTED, f.spec)
    _check_exponent(q)
    if n < 1:
        raise InvariantError("n must be >= 1")
    if not (0 <= s <= k and 2 ** s <= t <= 2 ** k):
        raise InvariantError("index out of range")
    rng = np.random.default_rng(seed)
    window = min(2 ** s, t)
    shared = rng.integers(0, 2, size=(n, t - window))
    a_tail = rng.integers(0, 2, size=(n, window))
    b_tail = rng.integers(0, 2, size=(n, window))
    weights_shared = 2 ** np.arange(t - 1, window - 1, -1) if t > window else np.zeros(0, int)
    weights_tail = 2 ** np.arange(window - 1, -1, -1)
    base = shared @ weights_shared if t > window else np.zeros(n, int)
    # height-t vertices sit in lexicographic (-1 < +1) order from `first`
    first, _ = _height_range(tree_graph(f.spec), t)
    vals = f.pair_distances(first + base + a_tail @ weights_tail,
                            first + base + b_tail @ weights_tail) ** q
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, se


# ---------------------------------------------------------------------------
# The identity's sum sides as exact fractions


def sum_runs(inv, side, k: int) -> list:
    """The runs a sum side adds, segment by segment, as its display writes
    them, each with its scale s: (h, ell), every pair of height-h vertices
    sharing their length-ell prefix, or (level,), the edges into that level."""
    top = 2 ** k
    if inv is InvariantId.TESSERA:
        return [(s, (ell + 2 ** s, ell)) for s in range(k)
                for ell in range(2 ** s + 1, top - 2 ** s + 1)]
    if side == "lhs":
        return [(s, (t, t - min(2 ** s, t))) for s in range(k + 1)
                for t in range(1, top + 1)]
    return [(0, (t,)) for t in range(1, top + 1)]


def pair_weight(inv, h: int, ell: int, c: int) -> Fraction:
    """The display's weight on a pair of height-h vertices sharing exactly
    their length-c prefix, in the run (h, ell).  Tessera averages over the
    2^ell blocks and the 4^w ordered pairs of a block, w = h - ell, each
    unordered pair counted twice.  The walk and its copy, branching ell
    steps in, diverge at step l = c - ell + 1 with probability 2^-l; then a
    length-c prefix has probability 2^-c and the two tails 4^-(h - ell - l)."""
    if inv is InvariantId.TESSERA:
        return Fraction(2, 2 ** ell * 4 ** (h - ell))
    l = c - ell + 1
    return Fraction(1, 2 ** l * 2 ** c * 4 ** (h - ell - l))


def exact_sum_side(inv, side, k: int, p: int) -> Fraction:
    """A sum side of the identity on bin:h=2^k at an integer p.  A level's
    2^t edges have length 1 and weigh 2^-t each.  A run (h, ell) holds, for
    each ell <= c < h, the 2^(2h-c-2) pairs whose common prefix has length
    exactly c (2^c prefixes, 2^(h-c-1) vertices on either side of the
    split), at distance 2(h - c).  Each scale's runs are added (the walk) or
    their minimum taken (tessera), and scale s is divided by 2^(s p)."""
    by_scale: dict[int, list] = {}
    for s, run in sum_runs(inv, side, k):
        if len(run) == 1:
            value = 2 ** run[0] * Fraction(1, 2 ** run[0]) * 1 ** p
        else:
            h, ell = run
            value = sum(2 ** (2 * h - c - 2) * pair_weight(inv, h, ell, c)
                        * (2 * (h - c)) ** p for c in range(ell, h))
        by_scale.setdefault(s, []).append(value)
    join = min if inv is InvariantId.TESSERA else sum
    return sum(join(values) / 2 ** (s * p) for s, values in by_scale.items())


SUM_SIDES = [(InvariantId.TESSERA, "lhs"), (InvariantId.MARKOV_DIRECTED, "lhs"),
             (InvariantId.MARKOV_DIRECTED, "rhs")]


def summation_gamma(inv, spec, side) -> float:
    """gamma_m = m u / (1 - m u), u = 2^-53, bounding the relative error of
    a sum side on a tree, added in any order: numpy's pairwise order in a
    pair plan, or a class plan's fewer, class-weighted terms.  Every term is
    a dyadic weight times the same d^p, a product that rounds nowhere, and
    it passes through at most m roundings: the additions of its segment,
    the joins of its group, a mean, a scale and the group total.  A sum of
    such nonnegative terms is within gamma_m of its exact value (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., lemma 3.1 and
    section 4.2)."""
    plan = compile_plan(inv, spec, side)
    m = plan.u.size + plan.starts.size + len(plan.groups) + 2
    return m * 2.0 ** -53 / (1 - m * 2.0 ** -53)


def assert_reports_agree(got, want, spec, exact: bool, case) -> None:
    """A ProfileMap's report against its pair plans' report: equal where
    `exact` (every term and partial sum of the sum sides is exact), on every
    other invariant and on min, max and Lipschitz sides.  Elsewhere each sum
    side is within 2 gamma_m of the exact sum on both paths, and each ratio
    is that of its own sides."""
    if exact or isinstance(want, str) or \
            InvariantId(want.invariant) not in {inv for inv, _ in SUM_SIDES}:
        assert got == want, case
        return
    inv = InvariantId(want.invariant)
    assert (got.invariant, got.exponent, got.params, got.lipschitz_flag) == \
        (want.invariant, want.exponent, want.params, want.lipschitz_flag), case
    for side in ("lhs", "rhs"):
        a, b = getattr(got, side), getattr(want, side)
        if (inv, side) in SUM_SIDES:
            gamma = summation_gamma(inv, spec, side)
            assert abs(a - b) <= 2 * gamma / (1 - gamma) * max(a, b), (case, side)
        else:
            assert a == b, (case, side)
    for rep in (got, want):
        assert rep.ratio_root == (sp.power(rep.lhs / rep.rhs, 1 / rep.exponent)
                                  if rep.rhs > 0 else None), case


# ---------------------------------------------------------------------------
# Class plans built from lists of segments


def class_plan(inv: InvariantId, spec, side, j_min: Optional[int] = None):
    """The class plan of a side as the library built it from flattened
    lists: every class checked by `_realised` before any pair count, then
    the starts and group bounds as np.cumsum over Python lists, a group
    being a run of segment rows of one scale (itertools.groupby)."""
    k, j_min = _plan_args(inv, spec, side, j_min)
    reduce, outer, segments = _classes(inv, side, k)
    missing = [cls for classes, _, _ in segments for cls in classes
               if not _realised(spec, *cls, j_min)]
    if missing:
        raise _no_configuration(spec, missing[0], j_min)
    runs = [(scale, len(list(run))) for scale, run in
            itertools.groupby(scale for _, _, scale in segments)]
    bounds = np.cumsum([0] + [size for _, size in runs]).tolist()
    return Plan(
        classes=np.array([cls for classes, _, _ in segments for cls in classes],
                         dtype=np.intp),
        starts=np.cumsum([0] + [len(classes) for classes, _, _ in segments[:-1]]),
        reduce=reduce, outer=outer,
        weights=None if reduce != "sum" else np.array(
            [2.0 ** e for _, exponents, _ in segments for e in exponents]),
        groups=tuple(zip(bounds[:-1], bounds[1:])),
        scales=tuple(scale for scale, _ in runs))


def join(plan: Plan, seg: np.ndarray, divs: list) -> np.ndarray:
    """invariants._join as the library wrote it on rows x segments values,
    one segment column at a time: each group's segments joined in order,
    divided by its divisor, and the groups added in order to a +0.0
    total."""
    step = np.minimum if plan.outer == "min" else np.add
    total = np.zeros(len(seg))
    for (lo, hi), div in zip(plan.groups, divs):
        acc = seg[:, lo]
        for c in range(lo + 1, hi):
            acc = step(acc, seg[:, c])
        if plan.outer == "mean":
            acc = acc / (hi - lo)
        total = total + acc / div
    return total


# ---------------------------------------------------------------------------
# Plan pairs selected by common prefix length


def _height_pairs(tg, h: int):
    """Every pair i < j of height-h vertices, in (i, j) order, with its
    common prefix length from TreeGraph.lcp."""
    lo, hi = (int(np.searchsorted(tg.depth, h, side=s)) for s in ("left", "right"))
    i, j = np.triu_indices(hi - lo, 1)
    u, v = i + lo, j + lo
    return u, v, tg.lcp(u, v)


def prefix_pairs(tg, h: int, length: int):
    """The pairs of height-h vertices with a common prefix of length at
    least `length`: every pair of a tessera term or directed-walk run."""
    u, v, common = _height_pairs(tg, h)
    keep = common >= length
    return u[keep], v[keep]


def branch_pairs(tg, h: int, lcp: int, j_min: Optional[int] = None):
    """The pairs of height-h vertices whose common prefix has length exactly
    `lcp`, with j_min's rule on the diverging labels (stands in for
    invariants._branch_pairs)."""
    u, v, common = _height_pairs(tg, h)
    keep = common == lcp
    if j_min is not None:
        labels = np.maximum(tg.label[tg.anc[u, lcp + 1]],
                            tg.label[tg.anc[v, lcp + 1]])
        keep &= labels >= j_min
    if not keep.any():
        raise _no_configuration(tg.spec, (h, h, lcp), j_min)
    return u[keep], v[keep], None


def lift_map(g: TreeMap, oracle: QuotientOracle) -> TreeMap:
    """embeddings.lift_map as one scalar `distance` call per (vertex, domain
    point): the loop that the lift on rows replaced."""
    C, K = oracle.C, oracle.K
    dz = oracle.domain_space.distance
    dy = oracle.target_space.distance
    tol = 1e-9

    def nearest_within(candidates, y):
        for i in candidates:
            if dy(oracle.values[i], y) <= K + tol:
                return i
        return None

    root_pick = nearest_within(range(len(oracle.domain)), g.point(()))
    if root_pick is None:
        raise EmbeddingError("a g value lies farther than K from f(Z)")
    lift = {(): root_pick}
    for v in sorted(g.assignment, key=lambda u: (len(u), u)):
        if not v:
            continue
        par = v[:-1]
        r = dy(g.point(par), g.point(v))
        radius = C * (r + K)
        zi = lift[par]
        candidates = [
            j for j in range(len(oracle.domain))
            if dz(oracle.domain[zi], oracle.domain[j]) <= radius + tol
        ]
        pick = nearest_within(candidates, g.point(v))
        if pick is None:
            raise EmbeddingError("a g value lies farther than K from f(Z)")
        lift[v] = pick
    return TreeMap(g.spec, oracle.domain_space,
                   {v: oracle.domain[i] for v, i in lift.items()})


def origin(target):
    """The point of every vertex of a constant map into `target`, class by
    class."""
    if isinstance(target, LpSpace):
        return (0.0,) * target.dim
    if isinstance(target, sp.HeisenbergMetricSpace):
        return HPoint((0.0,) * target.dim, 0.0)
    if isinstance(target, sp.ProductSpace):
        return tuple(origin(c) for c in target.components)
    return 0
