"""The scalar evaluation of every pointwise inequality, the per-sample
certification loop that `umbellab.pointwise` ran before each configuration
became the one-row case of `batch_margins`, the per-triple loop of the
quasi-triangle estimate and the per-cell loop of the horizontal length.
They evaluate one configuration at a time through the scalar `distance`
below and serve as the test oracle for the batched kernels; nothing in the
library imports them.  That distance takes lp vectors through their own
norm and Heisenberg points through the group law and Koranyi norm of one
point at a time, which the library has only as row kernels.  The two
tripod-modulus searches are the library's before it merged them into one,
and the Ramsey refinement at the end is the library's before it read its
distances as rows."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from umbellab import pointwise
from umbellab.pointwise import (FOUR_POINT, UMBEL_FAMILY, CampaignReport,
                                CheckReport, InequalityConfig, InequalityId,
                                ModulusEstimate, PointwiseError, _check_eps,
                                _circle_points, _in_ball, _parallelogram_setup,
                                _polish, check_space)
from umbellab.spaces import (ABS_TOL, HeisenbergMetricSpace, HPoint, LpSpace,
                             ProductSpace, SpaceError)


def lp_norm(x, p: float) -> float:
    """The lp norm of one vector, by the formula of each exponent."""
    v = np.abs(np.asarray(x, dtype=float))
    if p == math.inf:
        return float(v.max(initial=0.0))
    if p == 1:
        return float(v.sum())
    if p == 2:
        return float(np.sqrt((v * v).sum()))
    return float((v ** p).sum() ** (1.0 / p))


# The Heisenberg group point by point: the scalar forms of spaces.h_mul_rows,
# h_dilate_rows and koranyi_norm_rows.


def omega(hsp, x, y) -> float:
    """x^T O y as the sum over i < j of O_ij (x_i y_j - x_j y_i), one term at
    a time, without `omega_rows`."""
    m = hsp.omega_matrix
    total = 0.0
    for i, j in itertools.combinations(range(hsp.dim), 2):
        if m[i, j]:
            total += (x[i] * y[j] - x[j] * y[i]) * m[i, j]
    return float(total)


def h_mul(hsp, a: HPoint, b: HPoint) -> HPoint:
    if len(a.x) != hsp.dim or len(b.x) != hsp.dim:
        raise SpaceError("dimension mismatch")
    x = tuple(float(u + v) for u, v in zip(a.x, b.x))
    return HPoint(x, a.s + b.s + omega(hsp, a.x, b.x))


def h_inv(a: HPoint) -> HPoint:
    return HPoint(tuple(-u for u in a.x), -a.s)


def h_dilate(t: float, a: HPoint) -> HPoint:
    return HPoint(tuple(t * u for u in a.x), t * t * a.s)


def koranyi_norm(a: HPoint, p: float, lam: float) -> float:
    xn = lp_norm(a.x, 2)
    if p == math.inf:
        return max(xn, lam * math.sqrt(abs(a.s)))
    return (xn ** (2 * p) + lam * abs(a.s) ** p) ** (1.0 / (2 * p))


def koranyi_dist(hsp, a: HPoint, b: HPoint, p: float, lam: float) -> float:
    return koranyi_norm(h_mul(hsp, h_inv(b), a), p, lam)


def distance(space, a, b) -> float:
    """d(a, b) without the row path: the lp norm of a - b on an lp space, the
    Koranyi norm of b^-1 a composed point by point on a Heisenberg space, the
    lp norm of the factors' distances on a product, and `space.distance`
    otherwise (a table lookup on table spaces)."""
    if isinstance(space, HeisenbergMetricSpace):
        return koranyi_dist(space.space, a, b, space.p, space.lam)
    if isinstance(space, LpSpace):
        av, bv = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if av.shape != (space.dim,) or bv.shape != (space.dim,):
            raise SpaceError("dimension mismatch")
        return lp_norm(av - bv, space.p)
    if not isinstance(space, ProductSpace):
        return space.distance(a, b)
    if len(a) != len(space.components) or len(b) != len(space.components):
        raise SpaceError("component count mismatch")
    return lp_norm([distance(c, x, y) for c, x, y in zip(space.components, a, b)],
                   space.p)


def _umbel_sides(ineq: InequalityId, cfg: InequalityConfig, points, space):
    w, z, xs = points
    if not xs:
        raise PointwiseError("umbel family needs a nonempty xs list")
    p, K = cfg.exponent, cfg.K
    d = functools.partial(distance, space)
    first = min(d(w, x) ** p for x in xs) / 2 ** p
    if len(xs) >= 2:
        sep = min(d(a, b) ** p for a, b in itertools.combinations(xs, 2))
    else:
        sep = 0.0
    lhs = first + sep / K ** p
    dw = d(z, w) ** p
    dmax = max(d(z, x) ** p for x in xs)
    if ineq is InequalityId.P_UMBEL:
        rhs = 0.5 * dw + 0.5 * dmax
    else:
        rhs = max(dw, dmax)
    return lhs, rhs


def check_inequality(ineq: InequalityId, cfg: InequalityConfig, points, space) -> CheckReport:
    """Evaluate one pointwise inequality at a concrete configuration."""
    q, K = cfg.exponent, cfg.K
    d = functools.partial(distance, space)
    if ineq in UMBEL_FAMILY:
        if len(points) != 3:
            raise PointwiseError("umbel family takes (w, z, xs)")
        lhs, rhs = _umbel_sides(ineq, cfg, points, space)
    elif ineq is InequalityId.Q_TRIPOD:
        w, x, y, z = _four(points)
        lhs = (d(w, x) ** q + d(w, y) ** q) / 2 ** (q + 1) + d(x, y) ** q / (4 * K) ** q
        rhs = 0.5 * d(z, w) ** q + 0.25 * d(z, x) ** q + 0.25 * d(z, y) ** q
    elif ineq is InequalityId.Q_FORK:
        w, x, y, z = _four(points)
        lhs = min(d(w, x) ** q, d(w, y) ** q) / 2 ** q + d(x, y) ** q / (4 ** q * K ** q)
        rhs = 0.5 * d(z, w) ** q + 0.5 * max(d(z, x) ** q, d(z, y) ** q)
    elif ineq is InequalityId.RELAXED_Q_FORK:
        w, x, y, z = _four(points)
        lhs = min(d(w, x) ** q, d(w, y) ** q) / 2 ** q + d(x, y) ** q / (4 ** q * K ** q)
        rhs = max(d(z, w) ** q, d(z, x) ** q, d(z, y) ** q)
    elif ineq is InequalityId.MIDPOINT_CURVATURE:
        x, y, z, m = _four(points)
        lhs = d(z, x) ** 2 + d(z, y) ** 2
        rhs = 2 * d(z, m) ** 2 + d(x, y) ** 2 / 2
    elif ineq is InequalityId.P_UNIFORM_CONVEXITY:
        if len(points) != 2:
            raise PointwiseError("uniform convexity takes 2 vectors")
        check_space(space, ineq)
        x = np.asarray(points[0], float)
        y = np.asarray(points[1], float)
        p = cfg.exponent
        lhs = lp_norm(x, space.p) ** p + lp_norm(y, space.p) ** p / K ** p
        rhs = (lp_norm(x + y, space.p) ** p + lp_norm(x - y, space.p) ** p) / 2
    elif ineq is InequalityId.HEISENBERG_PARALLELOGRAM:
        if len(points) != 2:
            raise PointwiseError("parallelogram takes 2 HPoints")
        check_space(space, ineq)
        return check_parallelogram(space.space, cfg.exponent, cfg.C,
                                   points[0], points[1], slack=cfg.slack)
    else:  # pragma: no cover
        raise PointwiseError(f"unknown inequality {ineq}")
    margin = rhs - lhs
    return CheckReport(margin >= -cfg.slack, margin, tuple(points))


def _four(points):
    if len(points) != 4:
        raise PointwiseError("this inequality takes 4 points")
    return points


def check_parallelogram(hsp, p: float, C: float, a: HPoint, b: HPoint,
                        slack: float = 0.0) -> CheckReport:
    """Parallelogram inequality on a Heisenberg group: with N = N_{p,lambda},
    N(d_half_b)^{2p} + K^{-2p} N((d_half_b)^{ -1} a)^{2p}
      <= (N(a)^{2p} + N(b^{-1} a)^{2p}) / 2."""
    K, lam = _parallelogram_setup(hsp, p, C)
    n = lambda pt: koranyi_norm(pt, p, lam)
    half_b = h_dilate(0.5, b)
    lhs = n(half_b) ** (2 * p) + n(h_mul(hsp, h_inv(half_b), a)) ** (2 * p) / K ** (2 * p)
    rhs = 0.5 * n(a) ** (2 * p) + 0.5 * n(h_mul(hsp, h_inv(b), a)) ** (2 * p)
    margin = rhs - lhs
    return CheckReport(margin >= -slack, margin, (a, b))


def ball_draw(space, ineq: InequalityId, xs_count: int = 4):
    """One configuration per call `draw(rng)`, from successive scalar
    `space.sample` calls: the same points, in the same order, as
    `pointwise.ball_sampler` draws in rows."""
    k = 4 if ineq in FOUR_POINT else 2

    def draw(rng):
        if ineq in UMBEL_FAMILY:
            return (space.sample(rng), space.sample(rng),
                    tuple(space.sample(rng) for _ in range(xs_count)))
        return tuple(space.sample(rng) for _ in range(k))

    return draw


def certify(space, ineq: InequalityId, cfg: InequalityConfig, draw,
            n: int, seed: int) -> CampaignReport:
    """The per-sample campaign: `pointwise.certify`'s chunked substreams,
    one configuration per `draw(rng)` call, each checked by
    `check_inequality` above.  A violation is counted when not
    margin >= -slack; the report holds the first strict minimum, where the
    first NaN margin ranks below every number."""
    if n < 1:
        raise PointwiseError("n must be >= 1")
    check_space(space, ineq)
    chunk = pointwise._CHUNK
    chunks = (n + chunk - 1) // chunk
    seeds = np.random.SeedSequence(seed).spawn(chunks)
    violations = 0
    worst = math.inf
    witness: tuple = ()
    for ci in range(chunks):
        rng = np.random.default_rng(seeds[ci])
        for _ in range(min(chunk, n - ci * chunk)):
            rep = check_inequality(ineq, cfg, draw(rng), space)
            if not rep.holds:
                violations += 1
            if rep.margin < worst or (math.isnan(rep.margin)
                                      and not math.isnan(worst)):
                worst, witness = rep.margin, rep.witness
    return CampaignReport(ineq.value,
                          {"exponent": cfg.exponent, "K": cfg.K, "C": cfg.C,
                           "slack": cfg.slack},
                          n, seed, violations, worst, witness)


def quasi_constant_estimate(space, n: int, seed: int) -> float:
    """Max over n triples of d(a,b) / (d(a,c) + d(c,b)), one triple of
    successive `space.sample` calls at a time."""
    if n < 1:
        raise SpaceError("n must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    seen = False
    for _ in range(n):
        a, b, c = space.sample(rng), space.sample(rng), space.sample(rng)
        denom = distance(space, a, c) + distance(space, c, b)
        if denom <= ABS_TOL:
            continue
        seen = True
        best = max(best, distance(space, a, b) / denom)
    if not seen:
        raise SpaceError("sampler produced only degenerate triples")
    return best


def horizontal_length(sp, samples) -> tuple[float, float]:
    """spaces.horizontal_length as the per-cell loop it replaced."""
    if len(samples) < 2:
        raise SpaceError("need at least 2 samples")
    length = 0.0
    residual = 0.0
    for (x0, z0), (x1, z1) in zip(samples, samples[1:]):
        dx = np.asarray(x1, float) - np.asarray(x0, float)
        length += lp_norm(dx, 2)
        residual = max(residual, abs((z1 - z0) - omega(sp, x0, dx)))
    return length, residual


def modulus_delta_tilde(space: LpSpace, eps: float, grid: int = 24) -> ModulusEstimate:
    """Tripod variant of the convexity modulus:
    inf over ||z||,||x1||,||x2|| <= 1 with ||x1-x2|| >= eps of
    max_i (1 - ||(z - x_i)/2||)."""
    _check_eps(eps, grid)
    pts = _circle_points(space, grid)
    cand = np.concatenate([pts * 0.5, pts])
    diffs = cand[:, None] - cand[None]
    pairs = np.argwhere(space.norm_rows(diffs) >= eps)
    if not len(pairs):  # no eps-separated pair on the grid, as modulus_delta
        return ModulusEstimate(eps, math.inf, grid, 0, False)
    # vals[z, i] = 1 - ||(z - x_i) / 2||; vmax[z, pair] is the larger one
    vals = 1 - space.norm_rows(diffs / 2)
    vmax = np.maximum(vals[:, pairs[:, 0]], vals[:, pairs[:, 1]])
    # the first minimum of the (z, pair) configurations in row-major order
    zi, j = np.unravel_index(np.argmin(vmax), vmax.shape)

    def obj(v):
        z, x1, x2 = v[:2], v[2:4], v[4:6]
        return max(1 - lp_norm((z - x1) / 2, space.p),
                   1 - lp_norm((z - x2) / 2, space.p))

    cons = _in_ball(space, 3) + [
        {"type": "ineq", "fun": lambda v: lp_norm(v[2:4] - v[4:6], space.p) - eps}]
    x0 = np.concatenate([cand[zi], *cand[pairs[j]]])
    polish, polished = _polish(obj, cons, x0)
    best = min(float(vmax[zi, j]), polish)
    return ModulusEstimate(eps, max(best, 0.0), grid, vmax.size, polished)


def modulus_beta(space: LpSpace, t: float, m: int = 3, grid: int = 12) -> ModulusEstimate:
    """Finite-family surrogate of the asymptotic convexity modulus beta(t):
    min over (z, x_1..x_m) in the unit ball with pairwise separation >= t
    of max_i (1 - ||(z - x_i)/2||)."""
    if t <= 0:
        raise PointwiseError("t must be positive")
    if m < 2:
        raise PointwiseError("m must be >= 2")
    pts = _circle_points(space, grid)
    cand = np.concatenate([pts * 0.5, pts, np.zeros((1, 2))])
    n = len(cand)
    dist = space.norm_rows(cand[:, None, :] - cand[None, :, :])
    families = np.array([
        combo for combo in itertools.combinations(range(n), m)
        if all(dist[i, j] >= t for i, j in itertools.combinations(combo, 2))
    ]).reshape(-1, m)
    if not len(families):
        raise PointwiseError("no t-separated family exists at this grid scale")
    best = math.inf
    best_cfg = None
    count = 0
    for zi in range(n):
        vmax = (1 - space.norm_rows((cand[zi] - cand) / 2))[families].max(axis=1)
        count += len(families)
        j = int(np.argmin(vmax))
        if vmax[j] < best:
            best = float(vmax[j])
            best_cfg = (cand[zi], cand[families[j]])
    z0, xs0 = best_cfg

    def obj(v):
        z = v[:2]
        return max(1 - lp_norm((z - v[2 + 2 * i: 4 + 2 * i]) / 2, space.p)
                   for i in range(m))

    cons = _in_ball(space, m + 1)
    for i, j in itertools.combinations(range(m), 2):
        cons.append({"type": "ineq",
                     "fun": lambda v, i=i, j=j: lp_norm(
                         v[2 + 2 * i: 4 + 2 * i] - v[2 + 2 * j: 4 + 2 * j], space.p) - t})
    x0 = np.concatenate([z0] + list(xs0))
    polish, polished = _polish(obj, cons, x0)
    return ModulusEstimate(t, max(min(best, polish), 0.0), grid, count, polished)


def ramsey_refine(points, p: float, K: float, N: int, m: int,
                  space=None, anchors=None) -> tuple[int, ...]:
    """pointwise.ramsey_refine with one scalar `space.distance` call per
    point pair and per (anchor, point)."""
    if m > 5:
        raise PointwiseError("m is capped at 5 (clique search is exponential)")
    if N < 1:
        raise PointwiseError("N must be >= 1")
    if len(points) < m:
        raise PointwiseError("not enough points")
    if space is None:
        space = LpSpace(len(points[0]), 2.0)
    d = space.distance

    def bucket(v: float) -> int:
        return int(math.floor(v * N))

    if anchors is not None:
        w, z = anchors
        unary = [
            (bucket(d(w, x) ** p / 2 ** p), bucket(0.5 * d(z, x) ** p))
            for x in points
        ]
    else:
        unary = [() for _ in points]
    n = len(points)
    color = {}
    for i, j in itertools.combinations(range(n), 2):
        color[i, j] = bucket(d(points[i], points[j]) ** p / K ** p)
    for combo in itertools.combinations(range(n), m):
        if len({unary[i] for i in combo}) > 1:
            continue
        pair_colors = {color[i, j] for i, j in itertools.combinations(combo, 2)}
        if len(pair_colors) <= 1:
            return combo
    raise PointwiseError("no monochromatic subset of the requested size")
