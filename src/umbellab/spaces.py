"""Target metric and quasi-metric spaces behind one distance-oracle interface.

Supported spaces: finite distance matrices, finite-dimensional lp spaces,
graph path metrics, Heisenberg groups with Koranyi-type quasi-metrics, and
lp-products of the above.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12
_TINY = np.finfo(float).tiny  # the smallest normal float
# The most float entries a blocked scan holds at once; each scan reads it
# at call time.  pointwise._CHUNK is not one: it fixes a campaign's seeded
# substreams, so its documents.  Nor is search._WINDOW, a speed heuristic.
BLOCK = 1 << 20


class SpaceError(ValueError):
    pass


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


UNIT_ROUNDOFF = 2.0 ** -53  # u of a float64


def gamma(m: float) -> float:
    """gamma_m = m u / (1 - m u): a value, or a sum of nonnegative terms,
    each through at most m roundings, lies within gamma_m of its exact
    value (Higham, Accuracy and Stability of Numerical Algorithms,
    lemma 3.1)."""
    return m * UNIT_ROUNDOFF / (1 - m * UNIT_ROUNDOFF)


def power(a: float, p: float) -> float:
    """a ** p for a float a >= 0, inf where the power is past the float range
    (Python raises there)."""
    try:
        return a ** p
    except OverflowError:
        return math.inf


def is_int(x) -> bool:
    """Whether x is a Python or numpy integer, and not a bool."""
    return type(x) is int or isinstance(x, np.integer)


def load_document(doc, name: str, **kinds) -> dict:
    """A JSON input document (its text, or a value parsed from it): an
    object holding each key of `kinds` with a value of that type.  JSON's
    true and false are no numbers here, though Python's bools are ints."""
    obj = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(obj, dict):
        raise SpaceError(f"the {name} document is not a JSON object")
    for key, kind in kinds.items():
        if key not in obj or not isinstance(obj[key], kind) or (
                isinstance(obj[key], bool) and kind not in (bool, object)):
            raise SpaceError(f"the {name} document needs a {key!r} entry of "
                             f"type {kind.__name__}")
    return obj


def jsonable(obj):
    """`obj` as a JSON value: an HPoint as {"x": ..., "s": ...}, tuples and
    lists item by item, numpy scalars as Python numbers."""
    if isinstance(obj, HPoint):
        return {"x": list(obj.x), "s": obj.s}
    if isinstance(obj, (tuple, list)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# lp norms


def lp_norm_rows(v: np.ndarray, p: float) -> np.ndarray:
    """The lp norm of every vector along the last axis of `v`, with the same
    bits in every memory layout: numpy sums a last axis of fewer than 8
    entries left to right in any layout, and a longer one pairwise only
    when it is contiguous, so a longer one is made contiguous first.  A row
    whose sum of p-th powers falls below the smallest normal float, or past
    the largest while its largest |v_i| is finite, is recomputed by
    `_scaled_norms`; every other row is the plain formula.  Rows that are
    not float are taken as float64: an integer sum has no inf for the range
    check to compare with."""
    if v.dtype.kind != "f":
        v = v.astype(np.float64)
    if v.shape[-1] >= 8:
        v = np.ascontiguousarray(v)
    if p == math.inf:
        return np.abs(v).max(axis=-1, initial=0.0)
    if p == 1:
        return np.abs(v).sum(axis=-1)
    with np.errstate(over="ignore"):  # an inf sum is recomputed below
        if p == 2:
            s = (v * v).sum(axis=-1)
            norms = np.sqrt(s)
        else:
            s = (np.abs(v) ** p).sum(axis=-1)
            norms = s ** (1.0 / p)
    if not _in_range(s):
        redo = (s < _TINY) | (s == math.inf)
        if redo.any():
            redo &= np.isfinite(v).all(axis=-1)  # an inf entry gives an inf norm
            norms = np.asarray(norms)
            norms[redo] = _scaled_norms(v[redo], p)
    return norms


def _all_close(a: np.ndarray, b: np.ndarray) -> bool:
    """np.allclose(a, b, REL_TOL, ABS_TOL) on finite arrays, written out."""
    return bool((np.abs(a - b) <= ABS_TOL + REL_TOL * np.abs(b)).all())


def _in_range(s: np.ndarray) -> bool:
    """Whether every sum is a normal float below inf, so that no row needs
    `_scaled_norms`: one min and one max instead of a mask.  A nan sum
    makes the min nan and the answer False, so the mask is built then, and
    a row below the range in the same batch is still found."""
    return s.min(initial=math.inf) >= _TINY and s.max(initial=0.0) < math.inf


def _scaled_norms(v: np.ndarray, p: float) -> np.ndarray:
    """The lp norms of the rows of a 2-D `v` as m (sum (|v_i| / m)^p)^(1/p),
    m a row's largest |v_i| (0 for a zero row): no p-th power of an entry
    then underflows to 0 or overflows to inf unless the norm does."""
    w = np.abs(v)
    m = w.max(axis=-1, keepdims=True, initial=0.0)
    w = np.divide(w, m, out=np.zeros_like(w), where=m > 0)
    return m[:, 0] * (w ** p).sum(axis=-1) ** (1.0 / p)


def _float_rows(make, width: int) -> np.ndarray:
    """make()'s rows as a float array of `width` columns, or SpaceError when
    a point is ragged, of another width, unreadable by make() or has a
    coordinate that is not a real number, such as None or a string (which a
    float conversion reads as nan and as the number it spells)."""
    try:
        raw = np.asarray(make())
    except (AttributeError, TypeError, ValueError):
        raw = None
    if (raw is not None and raw.dtype.kind == "O"  # e.g. ints past int64
            and all(isinstance(x, numbers.Real) for x in raw.flat)):
        raw = raw.astype(float)
    if raw is None or raw.dtype.kind not in "biuf" or raw.shape[1:] != (width,):
        raise SpaceError("dimension mismatch")
    return raw.astype(float, copy=False)


class RowSpace:
    """A space that speaks numeric rows: its scalar `distance` is the one-row
    case of `distance_rows`."""

    @np.errstate(over="raise")
    def sample_batch(self, rng: np.random.Generator, m: int, k: int) -> np.ndarray:
        """m configurations of k points of the unit ball, shape (m, k, width):
        a uniform draw from the cube [-1, 1]^width, put onto the ball.  The
        draw is copied once into coordinate-major memory, (k, width, m) in C
        order, before it is put onto the ball: each coordinate of each point
        is one contiguous run of m values, so a kernel on pts[:, i] works on
        whole columns.  The values are those of the C-order draw (a norm of
        8 or more entries is summed over contiguous rows, see lp_norm_rows,
        and its batch may come back in C order).  A norm that overflows the
        float range raises FloatingPointError, as it would put every point
        onto the origin."""
        x = rng.uniform(-1.0, 1.0, (m, k, self.width))
        return self.onto_ball(np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1))

    def distance(self, a, b) -> float:
        return float(self.distance_rows(self.rows([a]), self.rows([b]))[0])


@dataclass(frozen=True)
class LpSpace(RowSpace):
    """R^dim with the lp norm."""

    dim: int
    p: float

    quasi_constant: ClassVar[float] = 1.0

    def __post_init__(self):
        if not self.p >= 1:  # also rejects nan
            raise SpaceError("p must be >= 1")
        if self.dim < 1:
            raise SpaceError("dim must be >= 1")

    def norm_rows(self, x: np.ndarray) -> np.ndarray:
        return lp_norm_rows(x, self.p)

    def distance_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return lp_norm_rows(a - b, self.p)

    @property
    def width(self) -> int:
        return self.dim

    def onto_ball(self, x: np.ndarray) -> np.ndarray:
        """Points x of the cube [-1, 1]^dim, scaled onto the sphere when
        outside the unit ball, in x's memory layout and x / norms' dtype."""
        norms = np.maximum(self.norm_rows(x), 1.0)[..., None]
        return np.divide(x, norms, out=np.empty_like(x, dtype=np.result_type(x, norms)))

    def point(self, row: np.ndarray) -> tuple:
        return tuple(row.tolist())

    def rows(self, points) -> np.ndarray:
        """The inverse of `point`: one row per point."""
        return _float_rows(lambda: points, self.dim)

    def describe(self) -> str:
        if self.p == 2:
            return f"l2:dim={self.dim}"
        p = "inf" if self.p == math.inf else f"{self.p:g}"
        return f"lp:p={p},dim={self.dim}"


class _ArrayValued:
    """Value equality and a hash for a frozen dataclass that holds arrays,
    declared with eq=False: its compared fields as one tuple, each array as
    its shape and bytes (numpy's == on arrays is elementwise, and arrays do
    not hash)."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self) if f.compare)
        return tuple((v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                     for v in values)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


class TableSpace(RowSpace):
    """Sampling and row-wise distances of a finite space whose points are the
    indices 0..n-1 of a distance table."""

    width = 1  # as a product factor: one column, the index

    def distance_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.table[a, b]

    def sample_batch(self, rng: np.random.Generator, m: int, k: int) -> np.ndarray:
        return rng.integers(self.n, size=(m, k))

    def onto_ball(self, u: np.ndarray) -> np.ndarray:
        """The index column of a product factor, from a uniform column u of
        [-1, 1): min(floor((u + 1) n / 2), n - 1), as floats."""
        return np.minimum(np.floor((u + 1) * self.n / 2), self.n - 1)

    def point(self, i) -> int:
        return int(i)

    def rows(self, points) -> np.ndarray:
        """The points (a sequence) as an index array, checked here, where every
        table read of a point begins: each is an int (not a bool) in range, the
        types checked as a set and the range by the least and greatest point."""
        if not (all(t is int or issubclass(t, np.integer)
                    for t in set(map(type, points)))
                and (len(points) == 0 or (min(points) >= 0 and max(points) < self.n))):
            bad = next(i for i in points if not (is_int(i) and 0 <= i < self.n))
            raise SpaceError(f"{json.dumps(bad, default=repr)} is not an index "
                             f"of {self.describe()}")
        return np.asarray(points, dtype=np.intp)


def read_matrix(doc, name: str) -> np.ndarray:
    """The 'd' entry of a matrix document (its text, or a value parsed from
    it) as a float array; SpaceError names the document unless it is rows of
    one length of JSON numbers, where a float conversion would read a string,
    a bool or null as a number, and fail with TypeError on an object."""
    d = load_document(doc, name, d=list)["d"]
    bad = [x for row in d for x in (row if type(row) is list else (row,))
           if type(x) not in (int, float)]
    if bad:
        raise SpaceError(f"the {name} document's entry {json.dumps(bad[0])} "
                         f"is not a real number")
    try:
        return np.asarray(d, dtype=float)
    except ValueError as exc:
        raise SpaceError(f"the {name} document's rows differ in length") from exc


@dataclass(frozen=True, eq=False)
class FiniteMatrixSpace(_ArrayValued, TableSpace):
    """A finite metric space given by its distance matrix; points are indices."""

    matrix: np.ndarray = field(repr=False)
    quasi_constant: ClassVar[float] = 1.0  # the triangle is checked

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpaceError("matrix must be square")
        if not np.isfinite(m).all():
            raise SpaceError("distances must be finite")
        if not _all_close(m, m.T):
            raise SpaceError("matrix must be symmetric")
        if np.abs(np.diagonal(m)).max(initial=0.0) > ABS_TOL:
            raise SpaceError("diagonal must be zero")
        if (m < 0).any():
            raise SpaceError("distances must be nonnegative")
        n = m.shape[0]
        slack = REL_TOL * (m.max(initial=0.0) + 1.0)
        # m[i, j] against m[i, mid] + m[mid, j] for a block of midpoints at
        # once, at most BLOCK path sums unless one midpoint is more; a path
        # sum past the float range is inf, which no entry exceeds
        step = max(1, BLOCK // max(1, n * n))
        with np.errstate(over="ignore"):
            for lo in range(0, n, step):
                via = m.T[lo:lo + step, :, None] + m[lo:lo + step, None, :]
                if (m > via + slack).any():
                    raise SpaceError("triangle inequality fails")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def table(self) -> np.ndarray:
        return self.matrix

    @classmethod
    def from_json(cls, text: str) -> "FiniteMatrixSpace":
        obj = load_document(text, "matrix", n=int, d=list)
        m = read_matrix(obj, "matrix")
        if m.shape != (obj["n"], obj["n"]):
            raise SpaceError("matrix shape disagrees with n")
        return cls(m)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "d": self.matrix.tolist()})

    def describe(self) -> str:
        return f"matrix:n={self.n}"


GRAPH_VERTEX_CAP = 5000  # the most vertices of a graph table: 200 MB of float64


def check_graph_size(n: int) -> None:
    """Raise SpaceError when a graph of n vertices is past GRAPH_VERTEX_CAP."""
    if n > GRAPH_VERTEX_CAP:
        raise SpaceError(f"a graph of {n} vertices is past the cap of "
                         f"{GRAPH_VERTEX_CAP}: its distance table would take "
                         f"{8 * n * n / 1e6:.0f} MB")


@dataclass(frozen=True)
class GraphMetricSpace(TableSpace):
    """A finite connected graph with unit edge weights and its shortest-path
    table; points are vertex ids.  Graphs past GRAPH_VERTEX_CAP are refused
    before the table is allocated."""

    n: int
    edges: tuple
    table: np.ndarray = field(init=False, compare=False, repr=False)
    quasi_constant: ClassVar[float] = 1.0

    def __post_init__(self):
        if not (is_int(self.n) and self.n >= 1):
            raise SpaceError(f"a graph needs n >= 1 vertices, got {self.n!r}")
        check_graph_size(self.n)
        if not all(len(e) == 2 and all(is_int(x) and 0 <= x < self.n for x in e)
                   for e in self.edges):
            raise SpaceError(f"graph edges must be pairs of vertex ids "
                             f"0..{self.n - 1}")
        table = _apsp(self.n, self.edges)
        if not np.isfinite(table).all():
            raise SpaceError("graph is not connected")
        object.__setattr__(self, "table", table)

    def describe(self) -> str:
        return f"graph:n={self.n}"


def _apsp(n: int, edges) -> np.ndarray:
    """Shortest paths of a general graph; trees take TreeGraph's closed form."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path
    rows = [e[0] for e in edges] + [e[1] for e in edges]
    cols = [e[1] for e in edges] + [e[0] for e in edges]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return shortest_path(adj, method="D", unweighted=True)


@dataclass(frozen=True)
class ProductSpace(RowSpace):
    """lp-product of component spaces; points are tuples of component points.

    A point's row holds its factors' rows side by side: dim columns for an lp
    factor, dim + 1 for a Heisenberg factor and one, the index, for a table
    factor."""

    components: tuple
    p: float

    def __post_init__(self):
        if not self.p >= 1:  # also rejects nan
            raise SpaceError("p must be >= 1")
        ends = itertools.accumulate(c.width for c in self.components)
        object.__setattr__(self, "_slices", tuple(
            slice(e - c.width, e) for c, e in zip(self.components, ends)))

    @property
    def quasi_constant(self) -> float:
        return max(c.quasi_constant for c in self.components)

    @property
    def width(self) -> int:
        return sum(c.width for c in self.components)

    def _factor_rows(self, rows: np.ndarray):
        """(factor, its rows) of every factor, read from its columns."""
        for c, cols in zip(self.components, self._slices):
            part = rows[..., cols]
            yield c, (part[..., 0].astype(np.intp)
                      if isinstance(c, TableSpace) else part)

    def distance_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ds = [c.distance_rows(x, y) for (c, x), (_, y)
              in zip(self._factor_rows(a), self._factor_rows(b))]
        # factor-major, so each factor's distances stay one contiguous run
        return lp_norm_rows(np.moveaxis(np.stack(ds), 0, -1), self.p)

    def onto_ball(self, x: np.ndarray) -> np.ndarray:
        """Each factor's columns of x put onto its ball by its own rule."""
        for c, cols in zip(self.components, self._slices):
            x[..., cols] = c.onto_ball(x[..., cols])
        return x

    def point(self, row: np.ndarray) -> tuple:
        return tuple(c.point(r) for c, r in self._factor_rows(row))

    def rows(self, points) -> np.ndarray:
        """The inverse of `point`: one row per point, each factor's part from
        its own `rows`."""
        if not all(isinstance(q, (tuple, list)) and len(q) == len(self.components)
                   for q in points):
            raise SpaceError("component count mismatch")
        out = np.empty((len(points), self.width))
        for c, cols, col in zip(self.components, self._slices, zip(*points)):
            try:
                out[:, cols] = c.rows(col).reshape(len(points), -1)
            except SpaceError as exc:
                raise SpaceError(f"the product point factor {exc}") from exc
        return out

    def describe(self) -> str:
        p = "inf" if self.p == math.inf else f"{self.p:g}"
        return "prod:p=" + p + ";" + ";".join(c.describe() for c in self.components)


# ---------------------------------------------------------------------------
# Heisenberg groups


@dataclass(frozen=True)
class HPoint:
    """A Heisenberg group element (x, s): horizontal part and vertical part."""

    x: tuple
    s: float


def standard_symplectic(dim: int = 2) -> np.ndarray:
    """The matrix of the standard symplectic form on R^dim."""
    if dim < 2:
        raise SpaceError(f"symplectic form needs dimension >= 2, got {dim}")
    if dim % 2:
        raise SpaceError("symplectic form needs even dimension")
    half = dim // 2
    m = np.zeros((dim, dim))
    m[:half, half:] = np.eye(half)
    m[half:, :half] = -np.eye(half)
    return m


# The group law, dilation and Koranyi norm on rows whose last axis holds
# (x, s); the inverse of such a row is its negation.


def h_mul_rows(space: HeisenbergMetricSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = a + b
    out[..., -1] += space.omega_rows(a[..., :-1], b[..., :-1])
    return out


def h_dilate_rows(t, a: np.ndarray) -> np.ndarray:
    """Dilate each row of `a` by the matching entry of `t` (or by scalar t),
    in a's memory layout; a and t broadcast as in a * t."""
    t = np.asarray(t, dtype=float)[..., None]
    out = np.multiply(a, t, out=np.empty_like(a, dtype=float,
                                              shape=np.broadcast(a, t).shape))
    out[..., -1:] = a[..., -1:] * (t * t)
    return out


def koranyi_norm_rows(a: np.ndarray, p: float, lam: float) -> np.ndarray:
    if lam <= 0:
        raise SpaceError("lambda must be positive")
    xn = lp_norm_rows(a[..., :-1], 2)
    s = np.abs(a[..., -1])
    if p == math.inf:
        return np.maximum(xn, lam * np.sqrt(s))
    with np.errstate(over="ignore"):  # an inf sum is recomputed below
        total = xn ** (2 * p) + lam * s ** p
    norms = total ** (1.0 / (2 * p))
    # the l_{2p} norm of (xn, lam^(1/(2p)) sqrt(s)), scaled where the sum
    # overflows while both terms' bases are finite, or falls below the
    # smallest normal float while a base is nonzero
    if not _in_range(total):
        redo = (((total == math.inf) & np.isfinite(xn) & np.isfinite(s))
                | ((total < _TINY) & ((xn > 0) | (s > 0))))
        if redo.any():
            norms = np.asarray(norms)
            norms[redo] = _scaled_norms(np.stack(
                [xn[redo], lam ** (1.0 / (2 * p)) * np.sqrt(s[redo])], axis=-1), 2 * p)
    return norms


@dataclass(frozen=True, eq=False)
class HeisenbergMetricSpace(_ArrayValued, RowSpace):
    """Heisenberg group over R^dim with a Koranyi quasi-metric d_{p,lambda}
    and antisymmetric form omega(x,y) = x^T O y, computed from the upper
    triangle as the sum over i < j of O_ij (x_i y_j - x_j y_i): each term is
    antisymmetric in floating point too, so omega(x, x) is exactly 0."""

    omega_matrix: np.ndarray = field(repr=False)
    p: float = math.inf
    lam: float = 1.0
    quasi_constant: ClassVar[float] = 2.0  # empirical bound, refine with quasi_constant_estimate

    def __post_init__(self):
        m = np.asarray(self.omega_matrix, dtype=float)
        object.__setattr__(self, "omega_matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpaceError("omega matrix must be square")
        if not np.isfinite(m).all():
            raise SpaceError("omega matrix entries must be finite")
        if not _all_close(m, -m.T):
            raise SpaceError("omega matrix must be antisymmetric")
        i, j = np.nonzero(np.triu(m, 1))
        object.__setattr__(self, "_terms", (i, j, m[i, j]))
        object.__setattr__(self, "_operator_norm", float(np.linalg.norm(m, 2)))
        if not self.p > 0:  # also rejects nan; inf is allowed
            raise SpaceError("p must be positive")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise SpaceError("lambda must be finite and positive")

    @property
    def dim(self) -> int:
        return self.omega_matrix.shape[0]

    def omega_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """omega of every pair of vectors along the last axes of x and y."""
        i, j, w = self._terms
        return ((x[..., i] * y[..., j] - x[..., j] * y[..., i]) * w).sum(axis=-1)

    def operator_norm(self) -> float:
        return self._operator_norm

    def norm_rows(self, a: np.ndarray) -> np.ndarray:
        return koranyi_norm_rows(a, self.p, self.lam)

    def distance_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.norm_rows(h_mul_rows(self, -b, a))

    @property
    def width(self) -> int:
        return self.dim + 1

    def onto_ball(self, x: np.ndarray) -> np.ndarray:
        """(x, s) rows of the cube [-1, 1]^(dim + 1), dilated onto the sphere
        when outside the unit ball."""
        return h_dilate_rows(1.0 / np.maximum(self.norm_rows(x), 1.0), x)

    def point(self, row: np.ndarray) -> HPoint:
        return HPoint(tuple(row[:-1].tolist()), float(row[-1]))

    def rows(self, points) -> np.ndarray:
        return _float_rows(lambda: [p.x + (p.s,) for p in points], self.width)

    def describe(self) -> str:
        p = "inf" if self.p == math.inf else f"{self.p:g}"
        return f"heis:dim={self.dim},metric=koranyi,p={p},lambda={self.lam:g}"


def quasi_constant_estimate(space, n: int, seed: int) -> float:
    """Max over n sampled triples (a, b, c) of d(a,b) / (d(a,c) + d(c,b)),
    skipping triples whose denominator is at most ABS_TOL.  The triples are
    `sample_batch` rows drawn in blocks from one generator: those of 3n
    successive one-point draws, `sample_batch(rng, 1, 1)`."""
    if n < 1:
        raise SpaceError("n must be >= 1")
    rng = np.random.default_rng(seed)
    best = -math.inf
    step = max(1, BLOCK // (3 * space.width))
    for lo in range(0, n, step):
        rows = space.sample_batch(rng, min(step, n - lo), 3)
        a, b, c = np.moveaxis(rows, 1, 0)
        denom = space.distance_rows(a, c) + space.distance_rows(c, b)
        keep = denom > ABS_TOL
        ratios = space.distance_rows(a, b)[keep] / denom[keep]
        best = max(best, float(ratios.max(initial=-math.inf)))
    if best == -math.inf:
        raise SpaceError("sampler produced only degenerate triples")
    return best


# ---------------------------------------------------------------------------
# Descriptor parsing


def parse_exponent(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _fields(text: str, kinds: dict, error=SpaceError) -> tuple[str, dict]:
    """(kind, fields) of a descriptor "kind:key=value,...": the kind is one of
    `kinds`, each key one of that kind's space-separated keys, given once.
    A file= value runs to the end of the descriptor, so a path may hold a
    ","."""
    head, _, rest = text.partition(":")
    if head not in kinds:
        raise error(f"bad descriptor {text!r}: unknown kind {head!r}")
    keys, fields = kinds[head].split(), {}
    pieces = rest.split(",")
    for i, kv in enumerate(pieces):
        if not kv:
            continue
        key, eq, value = kv.partition("=")
        if not eq or key not in keys or key in fields:
            raise error(f"bad field {kv!r} in {text!r}: {head} takes "
                        f"{', '.join(keys)}, each at most once, as key=value")
        if key == "file":
            fields[key] = ",".join([value, *pieces[i + 1:]])
            break
        fields[key] = value
    return head, fields


def parse_space(text: str):
    """Parse descriptors like "l2:dim=3", "lp:p=1.5,dim=4",
    "heis:dim=2,metric=koranyi,p=inf,lambda=1", "graph:file=g.json",
    "matrix:file=m.json", "prod:p=2;l2:dim=2;l2:dim=2"."""
    if text.startswith("prod:"):
        head, *parts = text.split(";")
        if not parts:
            raise SpaceError("product needs components")
        _, fields = _fields(head, {"prod": "p"})
        try:
            p = parse_exponent(fields["p"])
        except (KeyError, ValueError) as exc:
            raise SpaceError(f"bad product exponent in {text!r}") from exc
        return ProductSpace(tuple(parse_space(c) for c in parts), p)
    head, fields = _fields(text, {"l2": "dim", "lp": "p dim", "graph": "file",
                                  "heis": "dim metric p lambda", "matrix": "file"})
    try:
        if head == "l2":
            return LpSpace(int(fields["dim"]), 2.0)
        if head == "lp":
            return LpSpace(int(fields["dim"]), parse_exponent(fields["p"]))
        if head == "heis":
            dim = int(fields["dim"])
            if fields.get("metric", "koranyi") != "koranyi":
                raise SpaceError("only the koranyi metric variant is supported")
            return HeisenbergMetricSpace(
                standard_symplectic(dim),
                parse_exponent(fields.get("p", "inf")),
                float(fields.get("lambda", "1")),
            )
        with open(fields["file"]) as fh:
            if head == "matrix":
                return FiniteMatrixSpace.from_json(fh.read())
            obj = load_document(fh.read(), "graph", n=int, edges=list)
        if not all(isinstance(e, list) for e in obj["edges"]):
            raise SpaceError("the graph document's edges are not [u, v] lists")
        return GraphMetricSpace(obj["n"], tuple(map(tuple, obj["edges"])))
    except KeyError as exc:
        raise SpaceError(f"bad space descriptor {text!r}") from exc
