"""Explicit tree embeddings, distortion and compression measurements, and
lifting of tree maps through quotient-like oracles."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
import numpy as np

from .invariants import ProfileMap, TreeMap
from .spaces import LpSpace, SpaceError
from .trees import TreeSpec, tree_graph


class EmbeddingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bourgain-style embedding


def _conjugate(p: float) -> float:
    """q with 1/p + 1/q = 1, for p in [1, inf]."""
    return math.inf if p == 1 else 1.0 if p == math.inf else p / (p - 1)


@np.errstate(over="ignore", invalid="ignore")
def _bourgain_profile(height: int, p: float):
    """The function T(a, b, c) of broadcastable int arrays: the lp distance
    between the images of two vertices of depths a and b with a common
    prefix of length c <= min(a, b), from O(height^2) prefix sums built
    once.  Coordinates of the shared prefixes carry the weight differences,
    the rest one image's weights alone.  By prefix sums of the p-th powers,
    with a <= b and d = b - a,
        T(a, b, c)^p = G_d(a) - G_d(a - c - 1) + S(a - c) + S(b - c),
    S(m) the sum of w(k)^p over k = 1..m, w(k) = k^(1/q) for the conjugate
    exponent q, and G_d(x) that of |w(y + 1) - w(y + 1 + d)|^p over
    y = 0..x; at p = inf (w(m) = m)
    T = max(a, b) - c.  Where a sum of T^p could pass the float range (huge
    p), the prefix sums are kept as logarithms instead, so T, which is at
    most 2 height, is finite; otherwise T is the plain formula.  Where even
    p log(height + 1) is past the float range, every weight is its index to
    the float and T is max(a, b) - c to the float, as at p = inf."""
    if p == math.inf or not math.isfinite(p * math.log(height + 1)):
        return lambda a, b, c: (np.maximum(a, b) - c).astype(float)
    w = np.arange(height + 2) ** (1.0 / _conjugate(p))
    gap, x = np.indices((height + 1, height + 1))
    # G[d, x + 1] = G_d(x); entries with x + d > height are never read
    diff = np.abs(w[x + 1] - w[np.minimum(x + 1 + gap, height + 1)])
    S = np.concatenate([[0.0], np.cumsum(w[1:height + 1] ** p)])
    G = np.concatenate([np.zeros((height + 1, 1)), np.cumsum(diff ** p, axis=1)], axis=1)
    if np.isfinite(G.max() + S[-1] + S[-1]):  # no sum of T^p overflows
        def profile(a, b, c):
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            return (G[hi - lo, lo + 1] - G[hi - lo, lo - c]
                    + S[lo - c] + S[hi - c]) ** (1.0 / p)
        return profile
    with np.errstate(divide="ignore"):  # the log of a zero term is -inf
        S = np.concatenate([[-np.inf], np.logaddexp.accumulate(p * np.log(w[1:height + 1]))])
        G = np.concatenate([np.full((height + 1, 1), -np.inf),
                            np.logaddexp.accumulate(p * np.log(diff), axis=1)], axis=1)

    @np.errstate(divide="ignore", invalid="ignore")
    def log_profile(a, b, c):
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        top, base = G[hi - lo, lo + 1], G[hi - lo, lo - c]
        # log(G_d(a) - G_d(a - c - 1)), -inf where every term is 0 (d = 0)
        window = np.where(top > -np.inf, top + np.log1p(-np.exp(base - top)), -np.inf)
        return np.exp(np.logaddexp(window, np.logaddexp(S[lo - c], S[hi - c])) / p)
    return log_profile


def bourgain_embed(spec: TreeSpec, p: float = 2.0) -> ProfileMap:
    """Embed a binary or increasing tree into lp, 1 <= p <= inf, by
    f(n_1..n_j) = sum_{i=0}^{j} (j - i + 1)^{1/q} e_{Phi(n_1..n_i)},
    with 1/p + 1/q = 1 and one standard basis coordinate per vertex (prefix):
    at p = 1 every weight is 1, at p = inf the weight is j - i + 1.
    The coordinate enumeration Phi follows vertex order offset by 2*height,
    which is inert for disjointly supported basis vectors."""
    if not 1 <= p <= math.inf:
        raise EmbeddingError(f"p must lie in [1, inf], not {p}")
    q = _conjugate(p)
    n = tree_graph(spec).n  # the vertex cap

    def point_at(i: int) -> tuple:
        # coordinate Phi(v[:l]) - 2k, reindexed to 0, is v's length-l prefix
        graph = tree_graph(spec)
        j = int(graph.depth[i])
        vec = np.zeros(graph.n)
        vec[graph.anc[i, :j + 1]] = [(j - l + 1) ** (1.0 / q) for l in range(j + 1)]
        return tuple(vec)

    return ProfileMap(spec, LpSpace(n, p), point_at,
                      _bourgain_profile(spec.height, p))


# ---------------------------------------------------------------------------
# Distortion and moduli


def distortion(f: TreeMap) -> tuple[float, float, float]:
    """(lip, colip, dist): the Lipschitz constant, the co-Lipschitz constant
    max d_tree/d_img, and their product (scaling-invariant distortion)."""
    return distortion_from_moduli(*moduli(f))


def distortion_from_moduli(rho, omega) -> tuple[float, float, float]:
    """distortion read off the moduli: lip = max_t omega(t)/t and colip =
    max_t t/rho(t).  Rounding is monotone, so these are the maxima of the
    pair ratios bit for bit."""
    t = np.array(rho.breakpoints)
    if rho.values[0] <= 0:  # the smallest image distance
        raise EmbeddingError("constant or non-injective map has infinite colip")
    lip = float(np.max(np.array(omega.values) / t))
    colip = float(np.max(t / np.array(rho.values)))
    return lip, colip, lip * colip


@dataclass(frozen=True)
class ModulusCurve:
    """A nondecreasing right-continuous step function given by breakpoints."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values):
            raise EmbeddingError("breakpoints and values must align")
        bps = self.breakpoints
        if any(b != b for b in bps) or any(a >= b for a, b in zip(bps, bps[1:])):
            raise EmbeddingError("breakpoints must increase")  # nan does not
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise EmbeddingError("values must be nondecreasing")

    def __call__(self, t: float) -> float:
        """The value at the last breakpoint <= t; 0.0 before the first
        breakpoint and at t = nan."""
        i = bisect.bisect_right(self.breakpoints, t) if t == t else 0
        return self.values[i - 1] if i else 0.0


@np.errstate(over="ignore", invalid="ignore")
def moduli(f: TreeMap) -> tuple[ModulusCurve, ModulusCurve]:
    """Compression and expansion curves: rho(t) = min image distance over
    pairs at tree distance >= t (nondecreasing lower envelope of the
    per-distance minima), omega(t) = max image distance over pairs at tree
    distance <= t (nondecreasing upper envelope).  The per-distance extremes
    come from one pair scan; tree distances are the ints 1..2h."""
    top = 2 * f.spec.height + 1
    seen = np.zeros(top, dtype=bool)
    mins, maxs = np.full(top, np.inf), np.full(top, -np.inf)
    for tree, image in f.pair_scan():
        t = tree.astype(np.intp)
        seen[t] = True
        np.minimum.at(mins, t, image)
        np.maximum.at(maxs, t, image)
    if not seen.any():
        raise EmbeddingError("tree has a single vertex")
    ts = np.flatnonzero(seen)
    mins, maxs, ts = mins[ts], maxs[ts], ts.astype(float)
    rho_vals = np.minimum.accumulate(mins[::-1])[::-1]  # min over larger t too
    omega_vals = np.maximum.accumulate(maxs)
    rho = ModulusCurve(tuple(ts.tolist()), tuple(rho_vals.tolist()))
    omega = ModulusCurve(tuple(ts.tolist()), tuple(omega_vals.tolist()))
    return rho, omega


def compression_integral(rho, p: float, T: float) -> float:
    """Integral of (rho(t)/t)^p dt/t over [1, T].  Step curves are integrated
    in closed form piece by piece; callables go through adaptive quadrature.
    The exponent p must be a finite positive number."""
    if not (math.isfinite(p) and p > 0):
        raise EmbeddingError(f"the exponent p must be a finite positive number, not {p}")
    if T <= 1:
        raise EmbeddingError("T must exceed 1")
    if isinstance(rho, ModulusCurve):
        cuts = sorted({1.0, T} | {b for b in rho.breakpoints if 1.0 < b < T})
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            v = rho(a)
            if v:
                try:
                    total += v ** p * (a ** (-p) - b ** (-p)) / p
                except OverflowError:  # v^p past the float range: scale by t
                    total += ((v / a) ** p - (v / b) ** p) / p
        return total
    from scipy import integrate
    val, _ = integrate.quad(lambda t: (rho(t) / t) ** p / t, 1.0, T,
                            epsabs=1e-12, epsrel=1e-12, limit=400)
    return val


# ---------------------------------------------------------------------------
# Lifting through quotient-like maps


@dataclass(frozen=True)
class QuotientOracle:
    """A finite stand-in for a quotient-like map f: Z subset X -> Y with
    constants C >= 1 and K >= 0: every point of Y lies within K of f(Z), and
    f maps r-balls onto K-nets of r/C-balls."""

    domain_space: object
    domain: tuple
    target_space: object
    values: tuple  # f(z) for z in domain, aligned
    C: float
    K: float

    def __post_init__(self):
        for name, least in (("C", 1), ("K", 0)):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= least):
                raise EmbeddingError(f"the oracle constant {name} must be a finite "
                                     f"number >= {least}, not {value}")
        if len(self.values) != len(self.domain):
            raise EmbeddingError("values must align with the domain")
        for space, pts, name in ((self.domain_space, self.domain, "domain"),
                                 (self.target_space, self.values, "value")):
            try:
                if len(pts):  # lift_map refuses an empty domain
                    space.rows(pts)
            except SpaceError as exc:
                raise EmbeddingError(f"a {name} point: {exc}") from exc


_FAR = "a g value lies farther than K from f(Z)"
_TOL = 1e-9  # slack on every bound that lift_map meets and verify_lift checks


def lift_map(g: TreeMap, oracle: QuotientOracle) -> TreeMap:
    """Lift a tree map g into Y through the oracle: pick h(root) within K of
    g(root), then for each child pick a domain point inside the prescribed
    ball whose image is within K of the child's g-value.  Ties break to the
    lowest domain index.

    The construction guarantees, for every edge,
      d_X(h(parent), h(child)) <= C * d_Y(g(parent), g(child)) + C*K
    and, for every vertex, d_Y(f(h(v)), g(v)) <= K.

    Distances are read through rows: the vertices go in vertex order, which
    puts parents first, and each takes one column of the oracle values
    against its g-value and, below the root, one of the domain against its
    parent's pick.
    """
    C, K = oracle.C, oracle.K
    if not oracle.domain:
        raise EmbeddingError(_FAR)
    ys, zs = oracle.target_space, oracle.domain_space
    graph = tree_graph(g.spec)
    values, z, y = ys.rows(oracle.values), zs.rows(oracle.domain), ys.rows(g.points())
    parent = graph.parent
    lengths = ys.distance_rows(y[parent[1:]], y[1:]).tolist()  # of g's edges
    picks = []
    for i in range(graph.n):
        ok = ys.distance_rows(values, y[i]) <= K + _TOL
        if i:
            radius = C * (lengths[i - 1] + K)
            ok &= zs.distance_rows(z[picks[parent[i]]], z) <= radius + _TOL
        if not ok.any():
            raise EmbeddingError(_FAR)
        picks.append(int(ok.argmax()))
    return TreeMap(g.spec, zs, {v: oracle.domain[i]
                                for v, i in zip(graph.vertices, picks)})


def verify_lift(g: TreeMap, h: TreeMap, oracle: QuotientOracle) -> bool:
    """Independent re-check of both lifting postconditions, to within the
    slack lift_map builds them with."""
    dy = oracle.target_space.distance
    dz = oracle.domain_space.distance
    for v in tree_graph(g.spec).vertices:
        hi = oracle.domain.index(h.point(v))
        if dy(oracle.values[hi], g.point(v)) > oracle.K + _TOL:
            return False
        if v:
            bound = oracle.C * dy(g.point(v[:-1]), g.point(v)) + oracle.C * oracle.K
            if dz(h.point(v[:-1]), h.point(v)) > bound + _TOL:
                return False
    return True
