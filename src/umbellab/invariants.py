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

Every side is written once (`_classes`) as one flat list of min, max or
weighted sum segments, each a row of the (depth, depth, lcp) classes of
its pairs and its scale; a run of one scale is a group.  Its class plan,
built from the spec alone, has one column per class, which a ProfileMap
reads, as its image distance is one value per class; the pair plan
expands each class into its vertex pairs.
Which classes a tree has is one rule, `_realised`: the class plan refuses a
side with a class the tree lacks, and a ProfileMap scans the realised ones.
`evaluate` is the one kernel: pair distances as (pairs x rows), a reduceat
per segment (`_segments`) and the weighted combination of the groups
(`_join`); the search scorer reduces its gathered (columns x rows) table
entries with the same two.  The cotype and
tessera right-hand sides are Lipschitz constants: on a tree every geodesic
is a path of edges, so into a metric target that is the largest image edge
length, one "max" segment over the edges; other targets also scan every
vertex pair in row blocks, without a table.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, replace
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
    scalar `distance` from them).  Rows of several columns are kept
    coordinate-major, as `sample_batch` lays out its draws: each coordinate
    of the n points is one contiguous run, gathered with one `take`."""

    def __init__(self, spec: TreeSpec, target, assignment: Mapping):
        self.spec, self.target = spec, target
        verts = tree_graph(spec).vertices
        try:
            self._points = tuple(map(assignment.__getitem__, verts))
        except KeyError:
            missing = sum(v not in assignment for v in verts)
            raise InvariantError(f"assignment misses {missing} vertices") from None
        try:
            self._rows = np.asfortranarray(target.rows(self._points))
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
        if r.ndim == 1:  # table indices
            return self.target.distance_rows(r.take(u), r.take(v))
        return self.target.distance_rows(np.moveaxis(r.T.take(u, axis=1), 0, -1),
                                         np.moveaxis(r.T.take(v, axis=1), 0, -1))

    def pair_scan(self):
        """(tree distances, image distances) of every vertex pair u < v, in
        row blocks: rows lo:hi against columns lo:n as broadcast (k, 1) x
        (1, n - lo) index arrays, each block flattened to its pairs above the
        diagonal.  Readers take extremes only, so a subclass may yield one
        value pair for many vertex pairs."""
        tg = tree_graph(self.spec)
        n = tg.n
        # at most about sp.BLOCK pairs a block, and at most n/8 rows, as the
        # k^2/2 pairs a block computes below the diagonal are thrown away
        step = max(1, min(sp.BLOCK // n, n // 8))
        for lo in range(0, n - 1, step):
            u = np.arange(lo, min(lo + step, n - 1))[:, None]
            v = np.arange(lo, n)[None, :]
            upper = u < v
            yield (tg.distance_rows(u, v)[upper],
                   self.pair_distances(u, v)[upper])

    def plan_distances(self, inv: "InvariantId", side: str,
                       j_min: Optional[int] = None) -> tuple["Plan", np.ndarray]:
        """The plan of one side of a functional on this map's tree and its
        distances, one column in plan order: the pair plan and the image
        distances of its pairs."""
        plan = compile_plan(inv, self.spec, side, j_min)
        return plan, self.pair_distances(plan.u, plan.v)[:, None]

    def edge_distances(self) -> np.ndarray:
        """Image distances whose maximum is the largest image of an edge:
        here one per (parent, child) edge."""
        return self.pair_distances(*_edge_pairs(tree_graph(self.spec)))

    @staticmethod
    def identity(spec: TreeSpec) -> "ProfileMap":
        graph = tree_graph(spec)  # the vertex cap
        return ProfileMap(spec, graph, int,
                          lambda a, b, c: (a + b - 2 * c).astype(float))

    @staticmethod
    def constant(spec: TreeSpec, target=None) -> "ProfileMap":
        tree_graph(spec)  # the vertex cap
        if target is None:
            target = FiniteMatrixSpace(np.zeros((1, 1)))
        origin = _origin(target)
        # d(o, o), not 0: a matrix target's diagonal may hold a small value
        value = target.distance(origin, origin)
        return ProfileMap(spec, target, lambda i: origin,
                          lambda a, b, c: np.full(np.broadcast(a, b, c).shape, value))

    def assignment_json(self) -> list:
        """The assignment as [[label, ...], point] pairs in vertex order:
        shortest vertex first, then in label order."""
        return [[list(v), sp.jsonable(p)]
                for v, p in zip(tree_graph(self.spec).vertices, self.points())]

    def to_dict(self) -> dict:
        """The map document as a JSON-ready dict."""
        return {"spec": format_tree_spec(self.spec),
                "target": self.target.describe(),
                "assignment": self.assignment_json()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

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
    profile(|u|, |v|, lcp(u, v)), a function of broadcastable int arrays
    of triples with c <= min(a, b).  The point of vertex i is point_at(i),
    read only when a point is asked for.  The pair scan evaluates the
    profile on the realised triples with a <= b (`_realised`), a side on
    the class columns of its class plan, a sum weighing each class by its
    pair count (a plain map's side bit for bit where its sums are exact),
    and the largest edge on one triple per edge class: no vertex pair, no
    TreeGraph array.  The identity (a + b - 2c), the constant map and
    bourgain_embed's map are ProfileMaps."""

    def __init__(self, spec: TreeSpec, target, point_at: Callable[[int], object],
                 profile: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]):
        self.spec, self.target, self.point_at, self.profile = (
            spec, target, point_at, profile)

    def point(self, v: Vertex):
        return self.point_at(tree_graph(self.spec).index[v])

    @functools.cached_property
    def _points(self) -> tuple:
        return tuple(map(self.point_at, range(tree_graph(self.spec).n)))

    def pair_distances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        graph = tree_graph(self.spec)
        return self.profile(graph.depth[u], graph.depth[v], graph.lcp(u, v))

    def pair_scan(self):
        """One block: (a + b - 2c, profile(a, b, c)) over the realised
        triples with a <= b.  Vertices are listed by height, so these are
        the triples of the pairs u < v that TreeMap.pair_scan reads."""
        a, b, c = np.indices((self.spec.height + 1,) * 3, sparse=True)
        a, b, c = np.nonzero((a <= b) & _realised(self.spec, a, b, c))
        yield (a + b - 2 * c).astype(float), self.profile(a, b, c)

    def plan_distances(self, inv: "InvariantId", side: str,
                       j_min: Optional[int] = None) -> tuple["Plan", np.ndarray]:
        """Every side takes its class plan, one profile value a column, built
        from the spec alone."""
        plan = class_plan(inv, self.spec, side, j_min)
        return plan, self.profile(*plan.classes.T)[:, None]

    def edge_distances(self) -> np.ndarray:
        """One value per edge class (a - 1, a, a - 1)."""
        a = np.arange(1, self.spec.height + 1)
        return self.profile(a - 1, a, a - 1)


def _realised(spec: TreeSpec, a, b, c, j_min: Optional[int] = None):
    """Whether two distinct vertices of the tree have depths a <= b and a
    common prefix of length c, with the larger of their next labels past
    the prefix >= j_min when it is set: for ints or broadcast int arrays.
    Either the shallower is a prefix of the deeper (c = a < b), or both go
    on past the prefix with different next labels (c < a).  A binary
    vertex has two children.  In inc:h,B, below the prefix 1..c, the
    deeper vertex goes on c + 1, ..., b <= B, and the shallower one takes a
    larger next label x and a - c - 1 labels after it, so x runs up to
    B - a + c + 1, which needs a < B."""
    fork = c < a
    if spec.kind == INCREASING:
        fork = fork & (a < spec.branching)
        if j_min is not None:
            fork = fork & (spec.branching - a + c + 1 >= j_min)
    return ((c == a) & (a < b)) | fork


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
        if isinstance(p, dict) and _reals(p.get("x"), target.dim) \
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
    "constant", or "file:<path>", a map document on the tree `spec`."""
    if name == "identity":
        if target is not None:
            raise InvariantError("the identity map takes no target: it maps "
                                 "into the tree itself")
        return TreeMap.identity(spec)
    if name == "constant":
        return TreeMap.constant(spec, target)
    if name.startswith("file:"):
        with open(name[5:]) as fh:
            f = TreeMap.from_json(fh.read(), target)
        if f.spec != spec:
            raise InvariantError(f"the map document is on {format_tree_spec(f.spec)}, "
                                 f"not on the tree {format_tree_spec(spec)}")
        return f
    raise InvariantError(f"unknown map {name!r}")


# ---------------------------------------------------------------------------
# The pair scan and Lipschitz constants


def _is_metric(target) -> bool:
    """Whether `target` obeys the triangle inequality (its pair and edge
    Lipschitz maxima on a tree agree)."""
    return getattr(target, "quasi_constant", math.inf) == 1


def _pair_max(f: TreeMap) -> float:
    """max over vertex pairs u < v of d_Y(f(u), f(v)) / d_tree(u, v)."""
    # a ProfileMap's one block is empty on a single-vertex tree
    return max((float((image / tree).max(initial=0.0))
                for tree, image in f.pair_scan()), default=0.0)


@np.errstate(over="ignore", invalid="ignore")
def lipschitz_constant(f: TreeMap) -> tuple[float, bool]:
    """(value, flag): value is max over vertex pairs of d_Y(f(u), f(v)) /
    d_tree(u, v), on a metric target the edge maximum, that of the
    Lipschitz plans, never flagged.  On other targets it is the pair scan's
    maximum, which takes in every edge at tree distance 1, and the flag
    says whether the edge maximum differs from it beyond tolerance."""
    edge = float(f.edge_distances().max(initial=0.0))
    if _is_metric(f.target):
        value, flag = edge, False
    else:
        value = _pair_max(f)
        flag = value != edge and not sp.close(value, edge)
    return value, flag


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
    """One side of a functional as data over columns of distances.

    The columns of a class plan (u and v None) are `classes`, an (m, 3)
    int array of (depth, depth, lcp) rows, each class once a segment; those
    of a pair plan (classes None) are the vertex pairs (u[i], v[i]) of its
    classes, in vertex-order indices.  The columns are cut into segments at
    `starts`.  A segment reduces its distances d by `reduce`: "min" and
    "max" take the extreme distance and then its p-th power, as the
    displays do; "sum" adds weights * d^p, a class weighing its pair count
    times its display's per-pair weight and a pair that weight.
    Consecutive segments form groups (`groups` holds each group's segment
    range), joined by `outer`: "sum", "min", or "mean", the sum divided by
    the group's segment count.  Group g is divided by 2^(scales[g] p), and
    the groups are added in order."""

    starts: np.ndarray
    reduce: str
    weights: Optional[np.ndarray]
    outer: str
    groups: tuple
    scales: tuple
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    classes: Optional[np.ndarray] = None


def _pow(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p by the scalar power, whose last bit numpy's vectorised power
    does not always reproduce; powers past the float range are inf."""
    return np.array([sp.power(a, p) for a in x.ravel().tolist()]).reshape(x.shape)


def _segments(plan: Plan, g: np.ndarray, finish: Callable) -> np.ndarray:
    """Segment values (segments x rows) from a side's gathered entries g
    (columns x rows, columns in plan order).  A sum side's entries are the
    p-th powers of its distances, weighed and added.  A min or max side's
    entries are order keys of its distances, and `finish` maps each
    segment's extreme key to the p-th power of its distance."""
    if plan.reduce == "sum":
        return np.add.reduceat(plan.weights[:, None] * g, plan.starts, axis=0)
    extreme = np.minimum if plan.reduce == "min" else np.maximum
    return finish(extreme.reduceat(g, plan.starts, axis=0))


def _divisors(plan: Plan, p: float) -> list:
    """The divisor 2^(s p) of each group, s its scale."""
    out = []
    for s in plan.scales:
        try:
            out.append(2 ** (s * p))
        except OverflowError:
            raise InvariantError(f"exponent p = {p} is too large: the scale "
                                 f"2^({s} p) is past the float range") from None
    return out


def _join(plan: Plan, seg: np.ndarray, divs: list) -> np.ndarray:
    """The functional from the segment values seg (segments x rows): each
    group's segments joined position by position in order, divided by its
    divisor from `_divisors`, and the groups added in order to a +0.0
    total, which drops the sign of a -0.0 segment.  A mean over one segment
    and a divisor of 1 change no bit and are skipped."""
    step = np.minimum if plan.outer == "min" else np.add
    total = np.zeros(seg.shape[1])
    for (lo, hi), div in zip(plan.groups, divs):
        acc = seg[lo]
        for c in range(lo + 1, hi):
            acc = step(acc, seg[c])
        if plan.outer == "mean" and hi - lo > 1:
            acc = acc / (hi - lo)
        total = total + (acc if div == 1 else acc / div)
    return total


def evaluate(plan: Plan, d: np.ndarray, p: float) -> np.ndarray:
    """The functional for each row of pair distances d (shape pairs x rows,
    pairs in plan order): a sum side powers the distances, and a min or max
    side orders them and powers its extremes by the scalar power."""
    g = d ** p if plan.reduce == "sum" else d
    return _join(plan, _segments(plan, g, lambda x: _pow(x, p)), _divisors(plan, p))


_PLAN_CAP = 2 ** 26  # the most vertex pairs a pair plan is built with


def _height_range(tg: TreeGraph, h: int) -> tuple[int, int]:
    return (int(np.searchsorted(tg.depth, h)),
            int(np.searchsorted(tg.depth, h, side="right")))


def _branch_pairs(tg: TreeGraph, h: int, lcp: int, j_min: Optional[int] = None):
    """The pairs i < j of height-h vertices whose longest common prefix has
    length exactly `lcp`, as vertex-order index arrays.  Vertices sharing a
    prefix are consecutive, so i's partners run from the end of its
    length-(lcp + 1) run to the end of its length-lcp run.  With j_min set,
    one of the two diverging labels must be >= j_min (the liminf tail knob).
    The arrays are empty when `_realised` refuses the class."""
    lo, hi = _height_range(tg, h)
    first, end = (np.searchsorted(key, key, side="right")
                  for key in (tg.anc[lo:hi, lcp + 1], tg.anc[lo:hi, lcp]))
    counts = end - first
    u = np.repeat(np.arange(lo, hi), counts)
    v = np.arange(len(u)) + np.repeat(first + lo - np.cumsum(counts) + counts, counts)
    if j_min is not None:
        nu, nv = tg.anc[u, lcp + 1], tg.anc[v, lcp + 1]
        keep = np.maximum(tg.label[nu], tg.label[nv]) >= j_min
        u, v = u[keep], v[keep]
    return u, v


def _walk_run(window: int, t: int) -> tuple:
    """The segment of E[d(f(W_t), f(W'_t))^q] for the directed walk and a
    copy branching `window` steps before time t: the classes (t, t, c),
    t - window <= c < t, of the height-t pairs that agree before the branch
    time.  Each pair weighs P(diverge at step l) 2^-l times 2^-c over the
    common prefix and 4^-(window - l) over the two tails, 2^(1 - window - t),
    so the class's 2^(2t - c - 2) pairs weigh 2^(t - c - 1 - window)."""
    cs = range(t - window, t)
    return [(t, t, c) for c in cs], [t - c - 1 - window for c in cs]


def _edge_pairs(tg: TreeGraph, level: Optional[int] = None):
    """The (parent, child) pairs of the edges between heights level-1 and
    level, or of every edge."""
    lo, hi = (1, tg.n) if level is None else _height_range(tg, level)
    child = np.arange(lo, hi)
    return tg.parent[child], child


def _no_configuration(spec: TreeSpec, cls, j_min: int) -> InvariantError:
    """The refusal of a side with the class (a, b, c) that `_realised` finds
    no pair of.  Every class of a tree that passes `_validate` is realised
    without j_min, so it is j_min that passed the largest next label."""
    a, b, c = cls
    return InvariantError(
        f"no admissible configuration: j_min {j_min} is past the largest next "
        f"label B - a + c + 1 = {spec.branching - a + c + 1} of the class "
        f"(a, b, c) = ({a}, {b}, {c})")


def _classes(inv: InvariantId, side: str | tuple, k: int) -> tuple:
    """A side as (reduce, outer, segments); a segment is one row (classes,
    exponents, scale): the (depth, depth, lcp) classes of its pairs, class
    after class, in a sum the exponent e of each class's weight 2^e, the sum
    of its pairs' weights (None in a min or max), and its scale s.  The
    consecutive segments of one scale form a group, divided by 2^(s p);
    scales never decrease, so no two groups share one.  (h, h, c) holds the
    pairs of height-h vertices whose longest common prefix has length
    exactly c, (l - 1, l, l - 1) the edges into height l.  A sum over every
    pair of height-h vertices sharing their length-ell prefix is the
    classes (h, h, c), ell <= c < h.  A side (s, t) is the walk's term
    E[d(f(W_t), f(W~_t(t - 2^s)))^q]."""
    if side not in ("lhs", "rhs"):
        return "sum", "sum", [(*_walk_run(2 ** side[0], side[1]), 0)]
    top = 2 ** k
    if side == "rhs":
        edges = [(level - 1, level, level - 1) for level in range(1, top + 1)]
        if inv in _LIPSCHITZ_IDS:  # the largest edge: exact on metric targets
            return "max", "sum", [(edges, None, 0)]
        if inv in (InvariantId.UMBEL_CONVEXITY, InvariantId.FORK_CONVEXITY):
            # the mean over the 2^k levels
            return "max", "mean", [([edge], None, 0) for edge in edges]
        # markov-directed: the 2^t edges into height t weigh 2^-t each
        return "sum", "sum", [([edge], [0], 0) for edge in edges]
    if inv in (InvariantId.UMBEL_COTYPE, InvariantId.RELAXED_UMBEL):
        return "min", "sum", [([(top, top, top - 2 ** s)], None, s)
                              for s in range(1, k)]
    if inv is InvariantId.FORK_COTYPE:
        return "min", "min", [([(h, h, h - 2 ** s)], None, s)
                              for s in range(1, k) for h in range(2 ** s, top + 1)]
    if inv in (InvariantId.UMBEL_CONVEXITY, InvariantId.FORK_CONVEXITY):
        # the mean over the 2^(k - 1 - s) heights of scale s: the multiples
        # of 2^(s + 1) up to 2^k
        return "min", "mean", [([(h, h, h - 2 ** s)], None, s) for s in range(1, k)
                               for h in range(2 ** (s + 1), top + 1, 2 ** (s + 1))]
    if inv is InvariantId.TESSERA:
        # each term averages d^q over the ordered pairs of the 2^w-vertex
        # blocks of height t = ell + w sharing a length-ell prefix, ell > w
        # (the diagonal is 0): 2^(1 - ell - 2w) = 2^(1 - w - t) on each
        # unordered pair, as in the walk run (w, t); a scale with no t has no row
        return "sum", "min", [(*_walk_run(2 ** s, t), s) for s in range(k)
                              for t in range(2 ** (s + 1) + 1, top + 1)]
    # markov-directed
    return "sum", "sum", [(*_walk_run(min(2 ** s, t), t), s)
                          for s in range(k + 1) for t in range(1, top + 1)]


def _pair_count(spec: TreeSpec, a: int, b: int, c: int) -> int:
    """The vertex pairs of the class (a, b, c), j_min aside: an edge into
    each height-b vertex, or the pairs of height-a vertices sharing their
    length-c prefix but not their length-(c + 1) one.  Each of the 2^l binary
    length-l prefixes has 2^(a - l) height-a vertices below it; in inc:h,n
    each of the comb(x - 1, l - 1) ending in x (root: x = 0), comb(n - x, a - l)."""
    if a != b:
        return 2 ** b if spec.kind == BINARY else math.comb(spec.branching, b)
    if spec.kind == BINARY:
        return 2 ** (2 * a - c - 2)
    n = spec.branching

    def sharing(l):  # the pairs of height-a vertices sharing their length-l prefix
        ends = [(x, math.comb(x - 1, l - 1)) for x in range(l, n + 1)] if l else [(0, 1)]
        return sum(m * math.comb(math.comb(n - x, a - l), 2) for x, m in ends)
    return sharing(c) - sharing(c + 1)


def _plan_args(inv: InvariantId, spec: TreeSpec, side: str,
               j_min: Optional[int]) -> tuple[int, Optional[int]]:
    """k with height 2^k and the j_min the side reads, after the checks of
    both plan kinds: j_min only enters the umbel left-hand sides, and the
    other invariants have no liminf over j and refuse it."""
    k = _validate(inv, spec)
    if j_min is not None and inv not in _INCREASING_IDS:
        raise InvariantError(f"{inv.value} has no liminf over j: j_min does not apply")
    if j_min is not None and j_min < 1:  # labels start at 1
        raise InvariantError(f"j_min must be >= 1, got {j_min}")
    return k, None if side == "rhs" else j_min


def class_plan(inv: InvariantId, spec: TreeSpec, side: str,
               j_min: Optional[int] = None) -> Plan:
    """The class plan of a side of `_classes`, from the spec alone, in one
    pass over its segment rows: each segment holds each of its classes once
    as an (a, b, c) row, in a sum with each class's weight 2^e (its pair
    count times its per-pair weight), formed from e alone: exact, even where
    the count or the per-pair weight is past the float range (bin:h=1024),
    and each scale run is a group.  Every class of a tree that passes
    `_validate` is realised, so only under j_min are the classes checked
    (`_realised`), all at once, and a side with one the tree does not
    realise is refused at the first.  On a ProfileMap every pair of a
    class has the one image distance profile(a, b, c), so a min or max
    side equals the pair plan's bit for bit, and a sum equals the pair
    plan's float where all terms and partial sums are exact (integer
    distances at an integer p, a zero map).  It is not capped."""
    k, j_min = _plan_args(inv, spec, side, j_min)
    reduce, outer, segments = _classes(inv, side, k)
    rows, starts, weights, bounds, scales = [], [], [], [], []
    for i, (seg, exponents, scale) in enumerate(segments):
        if not scales or scale != scales[-1]:  # a scale run opens a group
            bounds.append(i)
            scales.append(scale)
        starts.append(len(rows))
        rows += seg
        if reduce == "sum":
            weights += [math.ldexp(1.0, e) for e in exponents]
    bounds.append(len(segments))
    classes = np.array(rows, dtype=np.intp).reshape(-1, 3)
    if j_min is not None:
        realised = _realised(spec, *classes.T, j_min)
        if not realised.all():
            raise _no_configuration(spec, rows[realised.argmin()], j_min)
    return Plan(
        classes=classes, starts=np.array(starts), reduce=reduce, outer=outer,
        weights=np.array(weights) if reduce == "sum" else None,
        groups=tuple(zip(bounds[:-1], bounds[1:])), scales=tuple(scales))


def compile_plan(inv: InvariantId, spec: TreeSpec, side: str,
                 j_min: Optional[int] = None) -> Plan:
    """The pair plan of a side of a functional on a tree: its class_plan
    expanded, each class column into its vertex pairs and a sum class's
    weight split evenly over them, so it refuses what class_plan refuses.
    It is refused past _PLAN_CAP pairs before any pair is built.  Plans are
    kept on tree_graph's cached entry for the tree, so clearing that cache
    drops them too."""
    _, j_min = _plan_args(inv, spec, side, j_min)
    tg = tree_graph(spec)
    key = (inv, side, j_min)
    if key not in tg.plans:
        plan = class_plan(inv, spec, side, j_min)
        classes = plan.classes.tolist()
        count = sum(_pair_count(spec, *cls) for cls in classes)
        if count > _PLAN_CAP:
            raise InvariantError(f"the plan has {count} columns, more than the "
                                 f"{_PLAN_CAP} a plan is built with")
        parts = [_branch_pairs(tg, a, c, j_min) if a == b else _edge_pairs(tg, b)
                 for a, b, c in classes]
        u, v = (np.concatenate([part[i] for part in parts]) for i in (0, 1))
        sizes = np.array([len(part[0]) for part in parts])
        split = None if plan.weights is None else np.repeat(plan.weights / sizes, sizes)
        tg.plans[key] = replace(plan, u=u, v=v, classes=None, weights=split,
                                starts=np.concatenate([[0], np.cumsum(sizes)])[plan.starts])
    return tg.plans[key]


# ---------------------------------------------------------------------------
# LHS / RHS


def _evaluate_map(inv: InvariantId, side: str, f: TreeMap, p: float,
                  j_min: Optional[int] = None) -> float:
    return float(evaluate(*f.plan_distances(inv, side, j_min), p)[0])


@np.errstate(over="ignore", invalid="ignore")
def lhs(inv: InvariantId, f: TreeMap, p: float,
        j_min: Optional[int] = None) -> float:
    _check_exponent(p)
    return _evaluate_map(inv, "lhs", f, p, j_min)


@np.errstate(over="ignore", invalid="ignore")
def _rhs(inv: InvariantId, f: TreeMap, p: float) -> tuple[float, Optional[bool]]:
    """The right-hand side and, when it is a Lipschitz constant, whether its
    pair and edge maxima disagree.  A Lipschitz right-hand side is the p-th
    power of `lipschitz_constant`, which is the edge maximum on a metric
    target; the other right-hand sides evaluate their plans."""
    _check_exponent(p)
    if inv in _LIPSCHITZ_IDS:
        _validate(inv, f.spec)
        lip, flag = lipschitz_constant(f)
        return sp.power(lip, p), flag
    return _evaluate_map(inv, "rhs", f, p), None


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

    def to_dict(self) -> dict:
        """The report as a JSON-ready dict; values past the float range
        (huge map points) have no number."""
        obj = {"invariant": self.invariant, "exponent": self.exponent,
               "lhs": _finite(self.lhs), "rhs": _finite(self.rhs),
               "params": self.params, "lipschitz_flag": self.lipschitz_flag}
        if self.ratio_root is not None:
            obj["ratio_root"] = _finite(self.ratio_root)
        return obj


def _finite(x: float) -> Optional[float]:
    return x if math.isfinite(x) else None


def report(inv: InvariantId, f: TreeMap, p: float,
           j_min: Optional[int] = None) -> InvariantReport:
    k = _validate(inv, f.spec)
    left = lhs(inv, f, p, j_min)
    right, flag = _rhs(inv, f, p)
    ratio_root = sp.power(left / right, 1 / p) if right > 0 else None
    params = {"k": k, "height": f.spec.height, "liminf_j_min": j_min,
              "chain": "directed" if inv is InvariantId.MARKOV_DIRECTED else None}
    if f.spec.kind == INCREASING:
        params["b"] = f.spec.branching
    return InvariantReport(inv.value, p, left, right, ratio_root, params, flag)


# ---------------------------------------------------------------------------
# Directed Markov walk


@np.errstate(over="ignore", invalid="ignore")
def markov_pair_expectation_exact(f: TreeMap, s: int, t: int, q: float) -> float:
    """Exact E[d(f(W_t), f(W~_t(t - 2^s)))^q] for the directed random walk on
    a binary tree of height 2^k and its copy branching at time t - 2^s."""
    k = _validate(InvariantId.MARKOV_DIRECTED, f.spec)
    _check_exponent(q)
    if not 0 <= s <= k:
        raise InvariantError("s out of range")
    if not 2 ** s <= t <= 2 ** k:
        raise InvariantError("t out of range")
    return _evaluate_map(InvariantId.MARKOV_DIRECTED, (s, t), f, q)
