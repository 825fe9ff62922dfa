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

Every side of every functional is compiled once per (invariant, tree,
j_min) into a Plan: vertex-pair index arrays cut into min, max or weighted
sum segments, grouped and scaled.  `evaluate` is the one kernel: a gather of
pair distances, a reduceat per segment and the weighted combination of the
groups.  The cotype and tessera right-hand sides are Lipschitz constants:
on a tree every geodesic is a path of edges, so into a metric target that
is the largest image edge length, one "max" segment over the edges; other
targets also scan every vertex pair in row blocks, without a table.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from .trees import (BINARY, INCREASING, TreeGraph, TreeSpec, Vertex,
                    parse_tree_spec, format_tree_spec, tree_graph)
from . import spaces as sp
from .spaces import FiniteMatrixSpace, HPoint, LpSpace, parse_space


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
_LIPSCHITZ_IDS = _COTYPE_IDS + (InvariantId.TESSERA,)


class TreeMap:
    """The map of an outside assignment of target points to the vertices of a
    finite tree.

    The map reads the mapping once, at construction, into its points in
    vertex order, which checks the map is total, and turns them into the
    target's rows, which checks every point.  `point`, `points`,
    `pair_distances`, `assignment` and `to_json` all read those copies, so
    later edits to the mapping are not seen.

    The target speaks rows: `rows(points)` turns points into an array whose
    first axis runs over them, and `distance_rows(a, b)` gives the distances
    of rows broadcast against each other (spaces.RowSpace derives the
    scalar `distance` from them)."""

    def __init__(self, spec: TreeSpec, target, assignment: Mapping):
        self.spec, self.target = spec, target
        verts = tree_graph(spec).vertices
        try:
            self._points = tuple(map(assignment.__getitem__, verts))
        except KeyError:
            missing = sum(v not in assignment for v in verts)
            raise InvariantError(f"assignment misses {missing} vertices") from None
        try:
            self._rows = target.rows(self._points)
        except sp.SpaceError as exc:
            raise InvariantError(f"a map point: {exc}") from exc

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({format_tree_spec(self.spec)!r}, "
                f"{self.target.describe()!r})")

    def point(self, v: Vertex):
        return self._points[tree_graph(self.spec).index[v]]

    def points(self) -> tuple:
        """The assigned points in vertex order."""
        return self._points

    @functools.cached_property
    def assignment(self) -> Mapping:
        """A read-only {vertex: point} view of the points, in vertex order."""
        return MappingProxyType(dict(zip(tree_graph(self.spec).vertices,
                                         self.points())))

    def pair_distances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """d(f(u[i]), f(v[i])) for vertex-order index arrays u and v,
        broadcast against each other, row-wise."""
        r = self._rows
        return self.target.distance_rows(np.take(r, u, axis=0),
                                         np.take(r, v, axis=0))

    def pair_scan(self):
        """(tree distances, image distances) of every vertex pair u < v, in
        row blocks: rows lo:hi against columns lo:n as broadcast (k, 1) x
        (1, n - lo) index arrays, each block flattened to its pairs above the
        diagonal.  Readers take extremes only, so a subclass may yield one
        value pair for many vertex pairs."""
        tg = tree_graph(self.spec)
        n = tg.n
        # at most about _LIPSCHITZ_BLOCK pairs a block, and at most n/8 rows,
        # as the k^2/2 pairs a block computes below the diagonal are thrown
        # away
        step = max(1, min(_LIPSCHITZ_BLOCK // n, n // 8))
        for lo in range(0, n - 1, step):
            u = np.arange(lo, min(lo + step, n - 1))[:, None]
            v = np.arange(lo, n)[None, :]
            upper = u < v
            yield (tg.distance_rows(u, v)[upper],
                   self.pair_distances(u, v)[upper])

    @staticmethod
    def identity(spec: TreeSpec) -> "ProfileMap":
        a, b, c = np.indices((spec.height + 1,) * 3)
        return ProfileMap(spec, tree_graph(spec), int, (a + b - 2 * c).astype(float))

    @staticmethod
    def constant(spec: TreeSpec, target=None) -> "ProfileMap":
        if target is None:
            target = FiniteMatrixSpace(np.zeros((1, 1)))
        origin = _origin(target)
        # d(o, o), not 0: a matrix target's diagonal may hold a small value
        profile = np.full((spec.height + 1,) * 3, target.distance(origin, origin))
        return ProfileMap(spec, target, lambda i: origin, profile)

    def assignment_json(self) -> list:
        """The assignment as [[label, ...], point] pairs in vertex order:
        shortest vertex first, then in label order."""
        return [[list(v), sp.jsonable(p)]
                for v, p in zip(tree_graph(self.spec).vertices, self.points())]

    def to_json(self) -> str:
        return json.dumps({
            "spec": format_tree_spec(self.spec),
            "target": self.target.describe(),
            "assignment": self.assignment_json(),
        })

    @staticmethod
    def from_json(text: str, target=None) -> "TreeMap":
        obj = sp.load_document(text, "map", spec=str, target=str, assignment=list)
        spec = parse_tree_spec(obj["spec"])
        if target is None:
            target = parse_space(obj["target"])
        index = tree_graph(spec).index
        assignment = {}
        for entry in obj["assignment"]:
            if not (isinstance(entry, list) and len(entry) == 2
                    and isinstance(entry[0], list)
                    and all(map(sp.is_int, entry[0]))):
                raise sp.SpaceError(f"the map document's assignment entry "
                                    f"{json.dumps(entry)} is not a [vertex, point] pair")
            point = _point_from_json(entry[1], target)
            if point is None:
                raise sp.SpaceError(
                    f"the map document's point {json.dumps(entry[1])} is not a "
                    f"point of {target.describe()}: lp points are lists of "
                    "finite reals and Heisenberg points have an 'x' list and an "
                    "'s' number, all finite, as many as the dimension")
            vertex = tuple(entry[0])
            if vertex not in index:
                raise sp.SpaceError(f"the map document's label {json.dumps(entry[0])} "
                                    f"is not a vertex of {obj['spec']}")
            if vertex in assignment:
                raise sp.SpaceError(f"the map document's entry {json.dumps(entry)} "
                                    f"is a second entry for its vertex")
            assignment[vertex] = point
        return TreeMap(spec, target, assignment)


class ProfileMap(TreeMap):
    """A map the library builds, whose image distance of u and v is
    profile[|u|, |v|, lcp(u, v)]: pair distances gather from that (h+1)^3
    table, and the pair scan is one block over the realised triples.  The
    point of vertex i is point_at(i), read only when a point is asked for.
    The identity (a + b - 2c), the constant map and bourgain_embed's map
    are ProfileMaps."""

    def __init__(self, spec: TreeSpec, target, point_at: Callable[[int], object],
                 profile: np.ndarray):
        self.spec, self.target, self.point_at, self.profile = (
            spec, target, point_at, profile)

    def point(self, v: Vertex):
        return self.point_at(tree_graph(self.spec).index[v])

    @functools.cached_property
    def _points(self) -> tuple:
        return tuple(map(self.point_at, range(tree_graph(self.spec).n)))

    def pair_distances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # one flat gather: a three-array fancy index takes about 1.5 times as long
        graph, k = tree_graph(self.spec), len(self.profile)
        flat = (graph.depth[u] * k + graph.depth[v]) * k + graph.lcp(u, v)
        return np.take(self.profile, flat)

    def pair_scan(self):
        """One block: (a + b - 2c, profile[a, b, c]) over the realised
        triples, which hold every distinct pair's tree and image distance."""
        a, b, c = np.nonzero(_realised_triples(self.spec))
        yield (a + b - 2 * c).astype(float), self.profile[a, b, c]


def _realised_triples(spec: TreeSpec) -> np.ndarray:
    """mask[a, b, c]: whether two distinct vertices of the tree have depths
    a and b and a common prefix of length c.  Either one is a prefix of the
    other (c = min(a, b) < max(a, b)), or both go on past the prefix with
    different next labels.  A binary vertex has two children; in an
    increasing tree that takes max(a, b) <= B labels on the longer branch,
    which B >= h grants, and min(a, b) + 1 <= B on the shorter one."""
    a, b, c = np.indices((spec.height + 1,) * 3)
    lo = np.minimum(a, b)
    fork = lo + 1 <= spec.branching if spec.kind == INCREASING else True
    return ((c == lo) & (a != b)) | ((c < lo) & fork)


def _origin(target):
    """The point of every vertex of a constant map into `target`: the point
    of the zero row, or index 0 of a table."""
    return 0 if isinstance(target, sp.TableSpace) else target.point(np.zeros(target.width))


def _point_from_json(p, target):
    """A map document's point p as a point of `target`, or None when it is
    not one; table points are checked by TreeMap."""
    if isinstance(target, sp.TableSpace):
        return p
    if isinstance(target, LpSpace):
        return tuple(p) if _reals(p, target.dim) else None
    if isinstance(target, sp.HeisenbergMetricSpace):
        if isinstance(p, dict) and _reals(p.get("x"), target.space.dim) \
                and _reals([p.get("s")], 1):
            return HPoint(tuple(p["x"]), p["s"])
        return None
    if isinstance(target, sp.ProductSpace) and isinstance(p, list) \
            and len(p) == len(target.components):
        parts = [_point_from_json(q, c) for q, c in zip(p, target.components)]
        return None if any(q is None for q in parts) else tuple(parts)
    return None


def _reals(x, n: int) -> bool:
    """Whether x is a list of n finite real numbers, none of them a bool."""
    return (isinstance(x, list) and len(x) == n
            and all(isinstance(a, numbers.Real) and not isinstance(a, bool)
                    and math.isfinite(a) for a in x))


def named_map(name: str, spec: TreeSpec, target=None) -> TreeMap:
    """Built-in maps: "identity" (into the tree, so `target` must be None),
    "constant", or "file:<path>"."""
    if name == "identity":
        if target is not None:
            raise InvariantError("the identity map takes no target: it maps "
                                 "into the tree itself")
        return TreeMap.identity(spec)
    if name == "constant":
        return TreeMap.constant(spec, target)
    if name.startswith("file:"):
        with open(name[5:]) as fh:
            return TreeMap.from_json(fh.read(), target)
    raise InvariantError(f"unknown map {name!r}")


# ---------------------------------------------------------------------------
# The pair scan and Lipschitz constants


_LIPSCHITZ_BLOCK = 1 << 20  # vertex pairs per row block of the pair scan


def _is_metric(target) -> bool:
    """Whether `target` obeys the triangle inequality (its pair and edge
    Lipschitz maxima on a tree agree)."""
    return getattr(target, "quasi_constant", math.inf) == 1


def _pair_max(f: TreeMap) -> float:
    """max over vertex pairs u < v of d_Y(f(u), f(v)) / d_tree(u, v)."""
    return max((float((image / tree).max()) for tree, image in f.pair_scan()),
               default=0.0)


@np.errstate(over="ignore", invalid="ignore")
def lipschitz_constant(f: TreeMap, with_flag: bool = False):
    """max over vertex pairs of d_Y(f(u), f(v)) / d_tree(u, v): on a metric
    target the edge maximum, over the pairs of the Lipschitz plans, never
    flagged.  On other targets it is the pair scan's maximum, which takes in
    every edge at tree distance 1, flagged when the edge maximum differs
    from it beyond tolerance."""
    tg = tree_graph(f.spec)
    edge = float(f.pair_distances(*_edge_pairs(tg)[:2]).max(initial=0.0))
    if _is_metric(f.target):
        value, flag = edge, False
    else:
        value = _pair_max(f)
        flag = value != edge and not sp.close(value, edge)
    return (value, flag) if with_flag else value


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


def _check_exponent(p: float) -> None:
    if not (math.isfinite(p) and p > 0):
        raise InvariantError(f"exponent must be finite and positive, got {p}")


# ---------------------------------------------------------------------------
# Plans


@dataclass(frozen=True, eq=False)
class Plan:
    """One side of a functional as data over vertex pairs.

    The pairs (u[i], v[i]) are vertex-order indices, cut into segments at
    `starts`.  A segment reduces its pair distances d by `reduce`: "min" and
    "max" take the extreme distance and then its p-th power, as the displays
    do; "sum" adds weights * d^p.  Consecutive segments form groups
    (`groups` holds each group's segment range), joined by `outer`: "sum",
    "min", or "mean", the sum divided by the group's segment count.  Group g
    is divided by 2^(scales[g] p), and the groups are added in order."""

    u: np.ndarray
    v: np.ndarray
    starts: np.ndarray
    reduce: str
    weights: Optional[np.ndarray]
    outer: str
    groups: tuple
    scales: tuple


def _power(a: float, p: float) -> float:
    """a ** p for a float a >= 0, inf where the power is past the float range
    (Python raises there)."""
    try:
        return a ** p
    except OverflowError:
        return math.inf


def _pow(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p by the scalar power, whose last bit numpy's vectorised power
    does not always reproduce; powers past the float range are inf."""
    flat = x.ravel().tolist()
    try:
        out = [a ** p for a in flat]
    except OverflowError:
        out = [_power(a, p) for a in flat]
    return np.array(out).reshape(x.shape)


def evaluate(plan: Plan, d: np.ndarray, p: float) -> np.ndarray:
    """The functional for each row of pair distances d (shape rows x pairs,
    columns in plan order)."""
    if plan.reduce == "sum":
        seg = np.add.reduceat(plan.weights * d ** p, plan.starts, axis=1)
    else:
        extreme = np.minimum if plan.reduce == "min" else np.maximum
        seg = _pow(extreme.reduceat(d, plan.starts, axis=1), p)
    join = np.minimum if plan.outer == "min" else np.add
    total = np.zeros(len(d))
    for (lo, hi), s in zip(plan.groups, plan.scales):
        acc = seg[:, lo]
        for c in range(lo + 1, hi):
            acc = join(acc, seg[:, c])
        if plan.outer == "mean":
            acc = acc / (hi - lo)
        try:
            scale = 2 ** (s * p)
        except OverflowError:
            raise InvariantError(f"exponent p = {p} is too large: the scale "
                                 f"2^({s} p) is past the float range") from None
        total = total + acc / scale
    return total


def _build(reduce: str, outer: str, groups) -> Plan:
    """groups: (segments, scale) pairs, each segment a (u, v, weights)
    triple."""
    segs = [seg for segments, _ in groups for seg in segments]
    sizes = [len(u) for u, _, _ in segs]
    bounds = np.cumsum([0] + [len(segments) for segments, _ in groups])
    return Plan(np.concatenate([u for u, _, _ in segs]),
                np.concatenate([v for _, v, _ in segs]),
                np.cumsum([0] + sizes[:-1]), reduce,
                np.concatenate([w for _, _, w in segs]) if reduce == "sum" else None,
                outer, tuple(zip(bounds[:-1].tolist(), bounds[1:].tolist())),
                tuple(scale for _, scale in groups))


def _height_range(tg: TreeGraph, h: int) -> tuple[int, int]:
    return (int(np.searchsorted(tg.depth, h)),
            int(np.searchsorted(tg.depth, h, side="right")))


def _prefix_pairs(tg: TreeGraph, h: int, length: int):
    """All pairs i < j of height-h vertices whose length-`length` prefixes
    agree, as vertex-order index arrays.  Vertices sharing a prefix are
    consecutive, so each vertex pairs with the rest of its run."""
    lo, hi = _height_range(tg, h)
    key = tg.anc[lo:hi, length]
    local = np.arange(hi - lo)
    counts = np.searchsorted(key, key, side="right") - local - 1
    i = np.repeat(local, counts)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return i + lo, j + lo


def _branch_pairs(tg: TreeGraph, h: int, lcp: int, j_min: Optional[int] = None):
    """The pairs of height-h vertices whose longest common prefix has length
    exactly `lcp`: they agree at length lcp and their next prefixes differ.
    With j_min set, one of the two diverging labels must be >= j_min (the
    liminf tail knob)."""
    u, v = _prefix_pairs(tg, h, lcp)
    nu, nv = tg.anc[u, lcp + 1], tg.anc[v, lcp + 1]
    keep = nu != nv
    if j_min is not None:
        keep &= np.maximum(tg.label[nu], tg.label[nv]) >= j_min
    if not keep.any():
        raise InvariantError("no admissible configuration (branching too small)")
    return u[keep], v[keep], None


def _walk_pairs(tg: TreeGraph, window: int, t: int):
    """The weighted pairs of E[d(f(W_t), f(W'_t))^q] for the directed walk
    and a copy branching `window` steps before time t: every pair of
    height-t vertices that agree before the branch time, weighted
    P(diverge at step l) 2^-l times the uniform 2^-c over the common prefix
    and 4^-(window - l) over the two tails, which is 2^(1 - window - t) for
    every divergence step l."""
    u, v = _prefix_pairs(tg, t, t - window)
    return u, v, np.full(len(u), 2.0 ** (1 - window - t))


def _edge_pairs(tg: TreeGraph, level: Optional[int] = None,
                weight: Optional[float] = None):
    """The (parent, child) pairs of the edges between heights level-1 and
    level, or of every edge."""
    lo, hi = (1, tg.n) if level is None else _height_range(tg, level)
    child = np.arange(lo, hi)
    w = None if weight is None else np.full(hi - lo, weight)
    return tg.parent[child], child, w


def _compile_lhs(inv: InvariantId, tg: TreeGraph, k: int,
                 j_min: Optional[int]) -> Plan:
    if inv in (InvariantId.UMBEL_COTYPE, InvariantId.RELAXED_UMBEL):
        return _build("min", "sum", [
            ([_branch_pairs(tg, 2 ** k, 2 ** k - 2 ** s, j_min)], s)
            for s in range(1, k)])
    if inv is InvariantId.FORK_COTYPE:
        return _build("min", "min", [
            ([_branch_pairs(tg, h, h - 2 ** s)
              for h in range(2 ** s, 2 ** k + 1)], s)
            for s in range(1, k)])
    if inv in (InvariantId.UMBEL_CONVEXITY, InvariantId.FORK_CONVEXITY):
        # the mean over the 2^(k - 1 - s) heights of scale s: the multiples
        # of 2^(s + 1) up to 2^k
        return _build("min", "mean", [
            ([_branch_pairs(tg, h, h - 2 ** s, j_min)
              for h in range(2 ** (s + 1), 2 ** k + 1, 2 ** (s + 1))], s)
            for s in range(1, k)])
    if inv is InvariantId.TESSERA:
        # each term averages d^q over the ordered pairs of 2^w-vertex blocks
        # sharing a length-ell prefix (the diagonal is 0): weight 2 on each
        # unordered pair
        groups = []
        for s in range(0, k):
            w = 2 ** s
            segments = []
            for ell in range(w + 1, 2 ** k - w + 1):
                u, v = _prefix_pairs(tg, ell + w, ell)
                segments.append((u, v, np.full(len(u), 2.0 ** (1 - ell - 2 * w))))
            if segments:  # an empty index range makes the term vacuous
                groups.append((segments, s))
        return _build("sum", "min", groups)
    if inv is InvariantId.MARKOV_DIRECTED:
        return _build("sum", "sum", [
            ([_walk_pairs(tg, min(2 ** s, t), t)
              for t in range(1, 2 ** k + 1)], s)
            for s in range(0, k + 1)])
    raise InvariantError(f"unknown invariant {inv}")  # pragma: no cover


def _compile_rhs(inv: InvariantId, tg: TreeGraph, k: int,
                 j_min: Optional[int]) -> Plan:
    if inv in _LIPSCHITZ_IDS:  # the largest edge: exact on metric targets
        return _build("max", "sum", [([_edge_pairs(tg)], 0)])
    if inv in (InvariantId.UMBEL_CONVEXITY, InvariantId.FORK_CONVEXITY):
        # the mean over the 2^k levels
        return _build("max", "mean", [
            ([_edge_pairs(tg, level) for level in range(1, 2 ** k + 1)], 0)])
    if inv is InvariantId.MARKOV_DIRECTED:
        return _build("sum", "sum", [
            ([_edge_pairs(tg, t, 2.0 ** -t) for t in range(1, 2 ** k + 1)], 0)])
    raise InvariantError(f"unknown invariant {inv}")  # pragma: no cover


def compile_plan(inv: InvariantId, spec: TreeSpec, side: str,
                 j_min: Optional[int] = None) -> Plan:
    """The plan of one side ("lhs" or "rhs") of a functional on a tree.
    Plans are compiled once and kept on tree_graph's cached entry for the
    tree, so clearing that cache drops them too.  j_min only enters the
    umbel left-hand sides; the other invariants have no liminf over j and
    refuse it."""
    k = _validate(inv, spec)
    if j_min is not None and inv not in _INCREASING_IDS:
        raise InvariantError(f"{inv.value} has no liminf over j: j_min does not apply")
    if side == "rhs":
        j_min = None
    tg = tree_graph(spec)
    key = (inv, side, j_min)
    if key not in tg.plans:
        compile_side = _compile_lhs if side == "lhs" else _compile_rhs
        tg.plans[key] = compile_side(inv, tg, k, j_min)
    return tg.plans[key]


# ---------------------------------------------------------------------------
# LHS / RHS


def _evaluate_map(plan: Plan, f: TreeMap, p: float) -> float:
    return float(evaluate(plan, f.pair_distances(plan.u, plan.v)[None], p)[0])


@np.errstate(over="ignore", invalid="ignore")
def lhs(inv: InvariantId, f: TreeMap, p: float,
        j_min: Optional[int] = None) -> float:
    _check_exponent(p)
    return _evaluate_map(compile_plan(inv, f.spec, "lhs", j_min), f, p)


@np.errstate(over="ignore", invalid="ignore")
def _rhs(inv: InvariantId, f: TreeMap, p: float) -> tuple[float, Optional[bool]]:
    """The right-hand side and, when it is a Lipschitz constant, whether its
    pair and edge maxima disagree.  A Lipschitz right-hand side is the p-th
    power of `lipschitz_constant`, which is the edge maximum on a metric
    target; the other right-hand sides evaluate their plans."""
    _check_exponent(p)
    plan = compile_plan(inv, f.spec, "rhs")  # which also checks the tree
    if inv in _LIPSCHITZ_IDS:
        lip, flag = lipschitz_constant(f, with_flag=True)
        return _power(lip, p), flag
    return _evaluate_map(plan, f, p), None


def rhs(inv: InvariantId, f: TreeMap, p: float) -> float:
    return _rhs(inv, f, p)[0]


@dataclass(frozen=True)
class InvariantReport:
    invariant: str
    exponent: float
    lhs: float
    rhs: float
    ratio_root: Optional[float]
    params: dict
    lipschitz_flag: Optional[bool] = None

    def to_json(self) -> str:
        # values past the float range (huge map points) have no number
        obj = {"invariant": self.invariant, "exponent": self.exponent,
               "lhs": _finite(self.lhs), "rhs": _finite(self.rhs),
               "params": self.params, "lipschitz_flag": self.lipschitz_flag}
        if self.ratio_root is not None:
            obj["ratio_root"] = _finite(self.ratio_root)
        return json.dumps(obj)


def _finite(x: float) -> Optional[float]:
    return x if math.isfinite(x) else None


def report(inv: InvariantId, f: TreeMap, p: float,
           j_min: Optional[int] = None) -> InvariantReport:
    k = _validate(inv, f.spec)
    left = lhs(inv, f, p, j_min)
    right, flag = _rhs(inv, f, p)
    ratio_root = _power(left / right, 1 / p) if right > 0 else None
    params = {"k": k, "height": f.spec.height, "liminf_j_min": j_min,
              "chain": "directed" if inv is InvariantId.MARKOV_DIRECTED else None}
    if f.spec.kind == INCREASING:
        params["b"] = f.spec.branching
    return InvariantReport(inv.value, p, left, right, ratio_root, params, flag)


# ---------------------------------------------------------------------------
# Directed Markov walk


def markov_pair_expectation_exact(f: TreeMap, s: int, t: int, q: float) -> float:
    """Exact E[d(f(W_t), f(W~_t(t - 2^s)))^q] for the directed random walk on
    a binary tree of height 2^k and its copy branching at time t - 2^s."""
    k = _validate(InvariantId.MARKOV_DIRECTED, f.spec)
    _check_exponent(q)
    if not 0 <= s <= k:
        raise InvariantError("s out of range")
    if not 2 ** s <= t <= 2 ** k:
        raise InvariantError("t out of range")
    u, v, w = _walk_pairs(tree_graph(f.spec), 2 ** s, t)
    return float(w @ f.pair_distances(u, v) ** q)


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
