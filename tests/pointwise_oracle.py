"""The scalar evaluation of every pointwise inequality, the per-sample
certification loop that `umbellab.pointwise` ran before each configuration
became the one-row case of `batch_margins`, the per-triple loop of the
quasi-triangle estimate and the per-cell loop of the horizontal length.  They evaluate one configuration at a time through
the scalar `distance` below and serve as the test oracle for the batched
kernels; nothing in the library imports them."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from umbellab import pointwise
from umbellab.pointwise import (FOUR_POINT, UMBEL_FAMILY, CampaignReport,
                                CheckReport, InequalityConfig, InequalityId,
                                PointwiseError, _parallelogram_setup,
                                check_space)
from umbellab.spaces import (ABS_TOL, HeisenbergMetricSpace, HPoint, LpSpace,
                             ProductSpace, SpaceError, h_dilate, h_inv, h_mul,
                             koranyi_dist, koranyi_norm, lp_norm)


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
        lhs = space.norm(x) ** p + space.norm(y) ** p / K ** p
        rhs = (space.norm(x + y) ** p + space.norm(x - y) ** p) / 2
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
    n = lambda pt: koranyi_norm(hsp, pt, p, lam)
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
        residual = max(residual, abs((z1 - z0) - sp.omega(x0, dx)))
    return length, residual
