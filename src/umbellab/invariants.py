"""Tree-level convexity and cotype functionals for maps of finite trees into
metric spaces.

Every left-hand side is an exact minimum (or average) over the index tuples
of its defining display.  Each index configuration is a pair of same-height
vertices whose longest common prefix has a prescribed length and whose next
labels differ, so the enumeration groups vertices by prefix instead of
walking nested index tuples; the two enumerations are equivalent.

The inner "liminf over j" of the umbel displays is evaluated as a minimum
over all admissible branch labels j distinct from the compared branch (an
optional j_min knob restricts the range further).  This lower-bounds the
countably-branching value, which is the conservative direction for
certifying lower bounds on the invariants.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from . import trees
from .trees import (BINARY, INCREASING, TreeSpec, Vertex,
                    parse_tree_spec, format_tree_spec, tree_graph,
                    vertices, vertices_at_height)
from . import spaces as sp
from .spaces import (FiniteMatrixSpace, GraphMetricSpace, HPoint, LpSpace,
                     parse_space)


class InvariantError(ValueError):
    pass


class InvariantId(str, enum.Enum):
    UMBEL_CONVEXITY = "umbel-convexity"
    RELAXED_UMBEL = "relaxed-umbel"
    UMBEL_COTYPE = "umbel-cotype"
    FORK_CONVEXITY = "fork-convexity"
    FORK_COTYPE = "fork-cotype"
    MARKOV_DIRECTED = "markov-directed"
    TESSERA = "tessera"


_INCREASING_IDS = (InvariantId.UMBEL_CONVEXITY, InvariantId.RELAXED_UMBEL,
                   InvariantId.UMBEL_COTYPE)
_COTYPE_IDS = (InvariantId.UMBEL_COTYPE, InvariantId.RELAXED_UMBEL,
               InvariantId.FORK_COTYPE)


@dataclass(eq=False)
class TreeMap:
    """A total assignment of target points to the vertices of a finite tree."""

    spec: TreeSpec
    target: object
    assignment: dict

    def __post_init__(self):
        verts = vertices(self.spec)
        missing = [v for v in verts if v not in self.assignment]
        if missing:
            raise InvariantError(f"assignment misses {len(missing)} vertices")
        self._verts = verts

    def point(self, v: Vertex):
        return self.assignment[v]

    def dist(self, u: Vertex, v: Vertex) -> float:
        return self.target.distance(self.assignment[u], self.assignment[v])

    def image_distances(self) -> np.ndarray:
        """Image distances between all vertex pairs, in vertex order."""
        return _pairwise(self.target, [self.assignment[v] for v in self._verts])

    @classmethod
    def identity(cls, spec: TreeSpec) -> "TreeMap":
        graph, index = tree_graph(spec)
        return cls(spec, GraphMetricSpace(graph), dict(index))

    @classmethod
    def constant(cls, spec: TreeSpec, target=None, point=None) -> "TreeMap":
        if target is None:
            target = FiniteMatrixSpace(np.zeros((1, 1)))
        if point is None:
            point = (0.0,) * target.dim if isinstance(target, sp.LpSpace) else 0
        return cls(spec, target, {v: point for v in vertices(spec)})

    def to_json(self) -> str:
        return json.dumps({
            "spec": format_tree_spec(self.spec),
            "target": self.target.describe(),
            "assignment": [[list(v), _point_json(p)]
                           for v, p in sorted(self.assignment.items(),
                                              key=lambda kv: (len(kv[0]), kv[0]))],
        })

    @classmethod
    def from_json(cls, text: str, target=None) -> "TreeMap":
        obj = json.loads(text)
        spec = parse_tree_spec(obj["spec"])
        if target is None:
            target = parse_space(obj["target"])
        assignment = {tuple(v): _point_from_json(p) for v, p in obj["assignment"]}
        return cls(spec, target, assignment)


def _point_json(p):
    if isinstance(p, HPoint):
        return {"x": list(p.x), "s": p.s}
    if isinstance(p, tuple):
        return list(p)
    return p


def _point_from_json(p):
    if isinstance(p, dict):
        return HPoint(tuple(p["x"]), p["s"])
    if isinstance(p, list):
        return tuple(p)
    return p


def named_map(name: str, spec: TreeSpec, target=None) -> TreeMap:
    """Built-in maps: "identity", "constant", or "file:<path>"."""
    if name == "identity":
        return TreeMap.identity(spec)
    if name == "constant":
        return TreeMap.constant(spec, target)
    if name.startswith("file:"):
        with open(name[5:]) as fh:
            return TreeMap.from_json(fh.read(), target)
    raise InvariantError(f"unknown map {name!r}")


# ---------------------------------------------------------------------------
# Pairwise distance tables


def distance_matrices(f: TreeMap) -> tuple[np.ndarray, np.ndarray]:
    """(tree distances, image distances) over the full vertex list."""
    graph, _ = tree_graph(f.spec)
    return graph.dist, f.image_distances()


def _pairwise(target, pts) -> np.ndarray:
    n = len(pts)
    if isinstance(target, (FiniteMatrixSpace, GraphMetricSpace)):
        idx = np.asarray(pts, dtype=int)
        mat = target.matrix if isinstance(target, FiniteMatrixSpace) else target.graph.dist
        return mat[np.ix_(idx, idx)].astype(float, copy=False)
    if isinstance(target, LpSpace):
        arr = np.asarray(pts, dtype=float)
        metric = "chebyshev" if target.p == math.inf else "minkowski"
        return cdist(arr, arr, metric=metric, p=target.p) if metric == "minkowski" else cdist(arr, arr, metric=metric)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = target.distance(pts[i], pts[j])
    return out


def lipschitz_constant(f: TreeMap, with_flag: bool = False):
    """max over vertex pairs of d_Y(f(u), f(v)) / d_tree(u, v).  The edge
    maximum is read from the same table; for true-metric targets the two
    agree, and the larger is reported (flagged when they differ beyond
    tolerance)."""
    dtree, dimg = distance_matrices(f)
    ratio = np.zeros_like(dimg)
    np.divide(dimg, dtree, out=ratio, where=dtree > 0)
    pair_lip = float(ratio.max())
    edges = np.array(tree_graph(f.spec)[0].edges, dtype=np.intp).reshape(-1, 2)
    edge = float(dimg[edges[:, 0], edges[:, 1]].max(initial=0.0))
    value = max(pair_lip, edge)
    if with_flag:
        return value, not sp.close(pair_lip, edge)
    return value


# ---------------------------------------------------------------------------
# Validation


def _validate(inv: InvariantId, spec: TreeSpec) -> int:
    """Check kind/height/branching preconditions; return k with height = 2^k."""
    want = INCREASING if inv in _INCREASING_IDS else BINARY
    if spec.kind != want:
        raise InvariantError(f"{inv.value} needs a {want} tree")
    k = int(round(math.log2(spec.height))) if spec.height > 0 else -1
    if spec.height <= 0 or 2 ** k != spec.height:
        raise InvariantError("height must be a power of two")
    kmin = 1 if inv is InvariantId.MARKOV_DIRECTED else 2
    if k < kmin:
        raise InvariantError(f"{inv.value} needs height >= 2^{kmin}")
    if spec.kind == INCREASING and spec.branching < 2 ** k + 1:
        raise InvariantError(f"branching must be >= {2 ** k + 1}")
    return k


# ---------------------------------------------------------------------------
# Minima over branching configurations


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
        raise InvariantError("no admissible configuration (branching too small)")
    return best


# ---------------------------------------------------------------------------
# LHS / RHS


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
        return lipschitz_constant(f) ** p
    if inv in (InvariantId.UMBEL_CONVEXITY, InvariantId.FORK_CONVEXITY):
        total = 0.0
        for level in range(1, 2 ** k + 1):
            total += max(f.dist(u, v) ** p for u, v in trees.level_edges(f.spec, level))
        return total / 2 ** k
    if inv is InvariantId.MARKOV_DIRECTED:
        total = 0.0
        for t in range(1, 2 ** k + 1):
            verts = vertices_at_height(f.spec, t)
            total += sum(f.dist(v[:-1], v) ** p for v in verts) / len(verts)
        return total
    raise InvariantError(f"unknown invariant {inv}")  # pragma: no cover


@dataclass(frozen=True)
class InvariantReport:
    invariant: str
    exponent: float
    lhs: float
    rhs: float
    ratio_root: Optional[float]
    params: dict

    def to_json(self) -> str:
        obj = {"invariant": self.invariant, "exponent": self.exponent,
               "lhs": self.lhs, "rhs": self.rhs, "params": self.params}
        if self.ratio_root is not None:
            obj["ratio_root"] = self.ratio_root
        return json.dumps(obj)


def report(inv: InvariantId, f: TreeMap, p: float,
           j_min: Optional[int] = None) -> InvariantReport:
    k = _validate(inv, f.spec)
    left = lhs(inv, f, p, j_min) if inv in _INCREASING_IDS else lhs(inv, f, p)
    right = rhs(inv, f, p)
    ratio_root = (left / right) ** (1 / p) if right > 0 else None
    params = {"k": k, "height": f.spec.height, "liminf_j_min": j_min,
              "chain": "directed" if inv is InvariantId.MARKOV_DIRECTED else None}
    if f.spec.kind == INCREASING:
        params["b"] = f.spec.branching
    return InvariantReport(inv.value, p, left, right, ratio_root, params)


# ---------------------------------------------------------------------------
# Tessera


def _height_index(v: Vertex) -> int:
    idx = 0
    for c in v:
        idx = 2 * idx + (c + 1) // 2
    return idx


def _height_matrix(f: TreeMap, h: int) -> np.ndarray:
    """Image distances between all pairs of height-h binary vertices, indexed
    in lexicographic (-1 < 1) order."""
    verts = vertices_at_height(f.spec, h)
    pts = [f.assignment[v] for v in verts]
    return _pairwise(f.target, pts)


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


# ---------------------------------------------------------------------------
# Directed Markov walk


def _branch_expectation(f: TreeMap, window: int, t: int, q: float) -> float:
    """E[d(f(W_t), f(W'_t))^q] for the directed walk and an independent copy
    branching `window` steps before time t (window = t when the branch time
    is at or before the root).

    Decomposes over the first step at which the walks diverge.  Conditional
    on divergence at step l of the window, the walks sit at (z, -1, delta)
    and (z, +1, delta') for a uniform common prefix z and independent uniform
    tails; the no-divergence event contributes 0.
    """
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
        # P(diverge at step l) = 2^{-l}; prefix uniform over 2^c; tails
        # uniform over block^2 ordered pairs (both divergence orders agree
        # by symmetry of the double tail sum).
        total += 2.0 ** (-l) * acc / 2 ** c / block ** 2
    return total


def markov_pair_expectation_exact(f: TreeMap, s: int, t: int, q: float) -> float:
    """Exact E[d(f(W_t), f(W~_t(t - 2^s)))^q] for the directed random walk on
    a binary tree of height 2^k and its copy branching at time t - 2^s."""
    k = _validate(InvariantId.MARKOV_DIRECTED, f.spec)
    if not 0 <= s <= k:
        raise InvariantError("s out of range")
    if not 2 ** s <= t <= 2 ** k:
        raise InvariantError("t out of range")
    return _branch_expectation(f, 2 ** s, t, q)


def markov_pair_expectation_mc(f: TreeMap, s: int, t: int, q: float,
                               n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo oracle for markov_pair_expectation_exact over n coupled
    walk pairs; returns (estimate, standard error)."""
    k = _validate(InvariantId.MARKOV_DIRECTED, f.spec)
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
    ui = base + a_tail @ weights_tail
    vi = base + b_tail @ weights_tail
    mat = _height_matrix(f, t)
    vals = mat[ui, vi] ** q
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, se


def _markov_lhs(f: TreeMap, k: int, p: float) -> float:
    total = 0.0
    for s in range(0, k + 1):
        for t in range(1, 2 ** k + 1):
            window = min(2 ** s, t)
            total += _branch_expectation(f, window, t, p) / 2 ** (s * p)
    return total
