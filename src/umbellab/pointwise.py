"""Point-configuration inequality checks, certification campaigns, convexity
modulus estimation, and constant solving.

Every inequality is oriented as LHS <= RHS; a check holds when
margin = RHS - LHS >= -slack.  For the umbel family the inner infimum over an
infinite sequence is replaced by a minimum over the supplied finite tail,
which lower-bounds the true left-hand side (the conservative direction for
certification).
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import spaces as sp
from .spaces import HPoint, LpSpace


class PointwiseError(ValueError):
    pass


class NoSolution(ValueError):
    """The defining condition has no feasible constant."""


class InequalityId(str, enum.Enum):
    P_UMBEL = "p-umbel"
    RELAXED_P_UMBEL = "relaxed-p-umbel"
    SUPER_RELAXED_P_UMBEL = "super-relaxed-p-umbel"
    Q_TRIPOD = "tripod"
    Q_FORK = "fork"
    RELAXED_Q_FORK = "relaxed-fork"
    P_UNIFORM_CONVEXITY = "p-uniform-convexity"
    MIDPOINT_CURVATURE = "midpoint-curvature"
    HEISENBERG_PARALLELOGRAM = "parallelogram"


UMBEL_FAMILY = (
    InequalityId.P_UMBEL,
    InequalityId.RELAXED_P_UMBEL,
    InequalityId.SUPER_RELAXED_P_UMBEL,
)

FOUR_POINT = (
    InequalityId.Q_TRIPOD,
    InequalityId.Q_FORK,
    InequalityId.RELAXED_Q_FORK,
    InequalityId.MIDPOINT_CURVATURE,
)

# inequalities that read more than the metric, and the space they need
SPACE_NEEDED = {
    InequalityId.P_UNIFORM_CONVEXITY: LpSpace,
    InequalityId.HEISENBERG_PARALLELOGRAM: sp.HeisenbergMetricSpace,
}


def check_space(space, ineq: InequalityId) -> None:
    """Raise PointwiseError unless `ineq` can be evaluated on `space`."""
    need = SPACE_NEEDED.get(ineq)
    if need is not None and not isinstance(space, need):
        raise PointwiseError(
            f"{ineq.value} needs a {need.__name__}, not a {type(space).__name__}")


@dataclass(frozen=True)
class InequalityConfig:
    exponent: float = 2.0
    K: float = 1.0
    C: float = 1.0
    slack: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.exponent) and self.exponent > 0):
            raise PointwiseError("exponent must be finite and positive")
        if not all(math.isfinite(c) and c > 0 for c in (self.K, self.C)):
            raise PointwiseError("constants must be finite and positive")
        if not (math.isfinite(self.slack) and self.slack >= 0):
            raise PointwiseError("slack must be finite and nonnegative")


@dataclass(frozen=True)
class CheckReport:
    holds: bool
    margin: float
    witness: tuple


@dataclass(frozen=True)
class CampaignReport:
    inequality: str
    config: dict
    n: int
    seed: int
    violations: int
    worst_margin: float
    worst_witness: tuple

    def to_json(self) -> str:
        return json.dumps({
            "id": self.inequality,
            "config": self.config,
            "n": self.n,
            "seed": self.seed,
            "violations": self.violations,
            # a nan margin (a violation) or an empty run has no number
            "worst_margin": (self.worst_margin
                             if math.isfinite(self.worst_margin) else None),
            "worst_witness": sp.jsonable(self.worst_witness),
        })


# ---------------------------------------------------------------------------
# Inequality evaluation


def check_inequality(ineq: InequalityId, cfg: InequalityConfig, points, space) -> CheckReport:
    """Evaluate one pointwise inequality at a concrete configuration: the
    one-row case of `batch_margins`.  Umbel configurations are (w, z, xs),
    the others a tuple of points."""
    if ineq in UMBEL_FAMILY:
        if len(points) != 3:
            raise PointwiseError("umbel family takes (w, z, xs)")
        w, z, xs = points
        flat = (w, z, *xs)
    else:
        k = _points_per_config(ineq, 0)
        if len(points) != k:
            raise PointwiseError(f"{ineq.value} takes {k} points")
        flat = tuple(points)
    check_space(space, ineq)
    margin = float(batch_margins(ineq, cfg, space, space.rows(flat)[None])[0])
    return CheckReport(margin >= -cfg.slack, margin, tuple(points))


def parallelogram_constants(p: float, C: float) -> tuple[float, float]:
    """The constant K and weight lambda attached to the Heisenberg
    parallelogram inequality for a p-uniformly convex horizontal norm."""
    K = max(C, (3 ** (2 * p - 1) * 6 / 4 ** p) ** (1 / (2 * p)))
    lam = (1 / 3 + 1 / (3 ** p * 6)) ** (-1) * 2 ** (1 - p) / C ** p
    return K, lam


def _parallelogram_setup(hsp, p: float, C: float) -> tuple[float, float]:
    if p < 2:
        raise PointwiseError("p must be >= 2")
    if hsp.operator_norm() > 1 + sp.REL_TOL:
        raise PointwiseError("omega operator norm must be <= 1 (rescale the form)")
    return parallelogram_constants(p, C)


def check_parallelogram(hsp, p: float, C: float, a: HPoint, b: HPoint,
                        slack: float = 0.0) -> CheckReport:
    """Parallelogram inequality on a Heisenberg group: with N = N_{p,lambda},
    N(d_half_b)^{2p} + K^{-2p} N((d_half_b)^{ -1} a)^{2p}
      <= (N(a)^{2p} + N(b^{-1} a)^{2p}) / 2."""
    return check_inequality(InequalityId.HEISENBERG_PARALLELOGRAM,
                            InequalityConfig(exponent=p, C=C, slack=slack),
                            (a, b), sp.HeisenbergMetricSpace(hsp))


# ---------------------------------------------------------------------------
# Batched evaluation
#
# Each inequality as a function of the configuration array of one chunk:
# pts[:, i] holds point i of every configuration, as the space's
# sample_batch lays it out.  A kernel that overflows the float range raises
# FloatingPointError.


def _umbel_parts(ineq, p, d, count):
    if count < 1:
        raise PointwiseError("umbel family needs a nonempty xs list")
    xs = range(2, 2 + count)                   # points w, z, x_1 .. x_count
    first = functools.reduce(np.minimum, (d(0, x) for x in xs)) / 2 ** p
    sep = np.zeros(len(first))
    if count >= 2:
        pairs = itertools.combinations(xs, 2)
        sep = functools.reduce(np.minimum, (d(a, b) for a, b in pairs))
    dw = d(1, 0)
    dmax = functools.reduce(np.maximum, (d(1, x) for x in xs))
    if ineq is InequalityId.P_UMBEL:
        rhs = 0.5 * dw + 0.5 * dmax
    else:
        rhs = np.maximum(dw, dmax)
    return rhs - first, sep, p


@np.errstate(over="raise", divide="raise")
def margin_parts(ineq: InequalityId, cfg: InequalityConfig, space,
                 pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(R - A, B, e) for every configuration in `pts`, where the margin at a
    constant K is (R - A) - B / K^e: K enters every inequality only there,
    so cfg.K is not read.  The parallelogram takes its K from C, so its B
    is already divided by K^(2q) and its e is 0; midpoint curvature has
    B = 0."""
    q = cfg.exponent

    def d(i, j, e=q):
        return space.distance_rows(pts[:, i], pts[:, j]) ** e

    if ineq in UMBEL_FAMILY:
        return _umbel_parts(ineq, q, d, pts.shape[1] - 2)
    if ineq is InequalityId.HEISENBERG_PARALLELOGRAM:
        K, lam = _parallelogram_setup(space.space, q, cfg.C)
        n = lambda v: sp.koranyi_norm_rows(v, q, lam) ** (2 * q)
        a, b = pts[:, 0], pts[:, 1]
        half_b = sp.h_dilate_rows(0.5, b)
        rhs = 0.5 * n(a) + 0.5 * n(sp.h_mul_rows(space.space, -b, a))
        return (rhs - n(half_b),
                n(sp.h_mul_rows(space.space, -half_b, a)) / K ** (2 * q), 0.0)
    if ineq is InequalityId.P_UNIFORM_CONVEXITY:
        n = lambda v: space.norm_rows(v) ** q
        x, y = pts[:, 0], pts[:, 1]
        return (n(x + y) + n(x - y)) / 2 - n(x), n(y), q
    if ineq is InequalityId.MIDPOINT_CURVATURE:     # points x, y, z, m
        lhs = d(2, 0, 2) + d(2, 1, 2)
        rhs = 2 * d(2, 3, 2) + d(0, 1, 2) / 2
        return rhs - lhs, np.zeros(len(lhs)), 0.0
    if ineq is InequalityId.Q_TRIPOD:               # points w, x, y, z
        rhs = 0.5 * d(3, 0) + 0.25 * d(3, 1) + 0.25 * d(3, 2)
        return rhs - (d(0, 1) + d(0, 2)) / 2 ** (q + 1), d(1, 2) / 4 ** q, q
    # the forks: w, x, y, z
    if ineq is InequalityId.Q_FORK:
        rhs = 0.5 * d(3, 0) + 0.5 * np.maximum(d(3, 1), d(3, 2))
    else:
        rhs = np.maximum(np.maximum(d(3, 0), d(3, 1)), d(3, 2))
    return rhs - np.minimum(d(0, 1), d(0, 2)) / 2 ** q, d(1, 2) / 4 ** q, q


@np.errstate(over="raise", divide="raise")
def batch_margins(ineq: InequalityId, cfg: InequalityConfig, space,
                  pts: np.ndarray) -> np.ndarray:
    """Margins RHS - LHS of every configuration in `pts`."""
    rest, b, e = margin_parts(ineq, cfg, space, pts)
    return rest - b / cfg.K ** e


# ---------------------------------------------------------------------------
# Certification campaigns

_CHUNK = 4096


def _points_per_config(ineq: InequalityId, xs_count: int) -> int:
    if ineq in UMBEL_FAMILY:
        return 2 + max(xs_count, 0)
    if ineq in FOUR_POINT:
        return 4
    return 2


def ball_sampler(space, ineq: InequalityId, xs_count: int = 4):
    """Default configuration sampler: `draw(rng, m)` returns m configurations
    of points of the space's ball as the rows of `space.sample_batch`, with
    w, z, x_1 .. x_xs_count for the umbel family."""
    return functools.partial(space.sample_batch, k=_points_per_config(ineq, xs_count))


def _witness(ineq: InequalityId, space, row: np.ndarray) -> tuple:
    """One configuration of a batch, in the form check_inequality takes."""
    pts = [space.point(v) for v in row]
    if ineq in UMBEL_FAMILY:
        return (pts[0], pts[1], tuple(pts[2:]))
    return tuple(pts)


def _draws(space, ineq: InequalityId, sampler, n: int, seed: int):
    """The configuration arrays of a seeded run of n samples, chunk by
    chunk, each chunk drawn from its own SeedSequence substream."""
    if n < 1:
        raise PointwiseError("n must be >= 1")
    check_space(space, ineq)
    chunks = (n + _CHUNK - 1) // _CHUNK
    for ci, chunk_seed in enumerate(np.random.SeedSequence(seed).spawn(chunks)):
        yield sampler(np.random.default_rng(chunk_seed), min(_CHUNK, n - ci * _CHUNK))


def certify(space, ineq: InequalityId, cfg: InequalityConfig, sampler,
            n: int, seed: int) -> CampaignReport:
    """Seeded campaign over n sampled configurations.  Sampling is chunked
    with independently derived substreams, so the aggregate is independent of
    evaluation order.

    Each chunk of m configurations is drawn as rows by `sampler(rng, m)` (see
    ball_sampler) and evaluated by `batch_margins`.  A violation is counted
    when not margin >= -slack (so a NaN margin counts), and the report holds
    the first strict minimum of the margins, where the first NaN margin ranks
    below every number."""
    violations = 0
    worst = math.inf
    witness: tuple = ()
    for pts in _draws(space, ineq, sampler, n, seed):
        margins = batch_margins(ineq, cfg, space, pts)
        violations += int(np.count_nonzero(~(margins >= -cfg.slack)))
        nan = np.isnan(margins)
        i = int(np.argmax(nan) if nan.any() else np.argmin(margins))
        if _worse(float(margins[i]), worst):
            worst, witness = float(margins[i]), _witness(ineq, space, pts[i])
    return CampaignReport(ineq.value,
                          {"exponent": cfg.exponent, "K": cfg.K, "C": cfg.C,
                           "slack": cfg.slack},
                          n, seed, violations, worst, witness)


def _worse(margin: float, worst: float) -> bool:
    """Whether `margin` replaces `worst`: a strictly smaller number, or the
    first NaN."""
    return margin < worst or (math.isnan(margin) and not math.isnan(worst))


@np.errstate(over="ignore", divide="ignore")
def _holds(rest: np.ndarray, b: np.ndarray, e: float, K: float,
           slack: float) -> bool:
    """Whether every margin rest - b / K^e, in batch_margins' arithmetic, is
    >= -slack."""
    return bool((rest - b / K ** e >= -slack).all())


def min_feasible_K(space, ineq: InequalityId, cfg: InequalityConfig, sampler,
                   n: int, seed: int, bracket: tuple[float, float]) -> float:
    """Smallest K in the bracket with zero sampled violations, from one pass
    over the samples of `certify(..., n, seed)`, confirmed by a certify run.

    A configuration holds at K exactly when K^e >= B / (R - A + slack) (see
    margin_parts), and keeps holding as K grows.  K starts at lo; a chunk
    that fails at K raises it to the chunk's largest such bound, stepped up
    an ulp at a time while the chunk, in batch_margins' arithmetic, still
    fails.  It raises when no K serves: B > 0 with R - A + slack <= 0, or
    B = 0 with R - A + slack < 0, or a NaN part, or a failed certify at hi.
    Midpoint curvature has no K and the parallelogram derives its K from C,
    so neither has one to fit."""
    if ineq in (InequalityId.MIDPOINT_CURVATURE,
                InequalityId.HEISENBERG_PARALLELOGRAM):
        raise PointwiseError(f"{ineq.value} does not depend on K")
    lo, hi = bracket
    if not 0 < lo <= hi:
        raise PointwiseError(f"the bracket ({lo}, {hi}) needs 0 < lo <= hi")
    infeasible = PointwiseError("upper bracket is still infeasible")
    K = lo
    for pts in _draws(space, ineq, sampler, n, seed):
        rest, b, e = margin_parts(ineq, cfg, space, pts)
        room = rest + cfg.slack
        pos = b > 0
        if (np.isnan(rest).any() or np.isnan(b).any()
                or (pos & ~(room > 0)).any() or (~pos & (room < 0)).any()):
            raise infeasible
        if _holds(rest, b, e, K, cfg.slack):
            continue
        with np.errstate(over="ignore"):
            K = max(K, float(np.max(b[pos] / room[pos]) ** (1 / e)))
        while K < hi and not _holds(rest, b, e, K, cfg.slack):
            K = math.nextafter(K, math.inf)

    def feasible(k: float) -> bool:
        return certify(space, ineq, replace(cfg, K=k), sampler, n, seed).violations == 0

    if K < hi and feasible(K):
        return K
    if feasible(hi):
        return hi
    raise infeasible


# ---------------------------------------------------------------------------
# Constant solving


_K_REL_TOL = 1e-9  # the relative width at which solve_umbel_K's bisection stops


def solve_umbel_K(p: float, c: float) -> float:
    """Least K >= 2c with
    (1/2^p) (2c/K + (2 - (2c/K)^p)^{1/p})^p + 2^{p+1}/K <= 1."""
    if p <= 1:
        raise NoSolution("no feasible K exists for p <= 1")
    if c <= 0:
        raise PointwiseError("c must be positive")

    def g(k: float) -> float:
        u = 2 * c / k
        return (u + (2 - u ** p) ** (1 / p)) ** p / 2 ** p + 2 ** (p + 1) / k

    lo = 2 * c
    hi = 2 * lo
    for _ in range(200):
        if g(hi) <= 1:
            break
        lo, hi = hi, 2 * hi
    else:
        raise NoSolution("condition stays infeasible")
    while (hi - lo) > _K_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 1:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Midpoint curvature iteration


def alpha_sequence(space, x, y, z, m, n: int) -> list[float]:
    """alpha_k solving alpha_k d(z_k, m)^2 = d(z_k,x)^2 + d(z_k,y)^2 - d(x,y)^2/2
    with z_k on the segment from m toward z at distance d(m,z)/2^k (z_0 = z)."""
    if not isinstance(space, LpSpace) or not (1 < space.p < math.inf):
        raise PointwiseError("needs a geodesic space with interpolation (Lp, 1<p<inf)")
    xv, yv, zv, mv = (np.asarray(v, float) for v in (x, y, z, m))
    if space.distance(z, m) <= sp.ABS_TOL:
        raise PointwiseError("z = m: the iteration is undefined")
    dxy2 = space.distance(x, y) ** 2

    def norm2(v) -> float:
        return float(space.norm_rows(v)) ** 2

    out = []
    for k_ in range(n + 1):
        zk = mv + (zv - mv) / 2 ** k_
        out.append((norm2(zk - xv) + norm2(zk - yv) - dxy2 / 2) / norm2(zk - mv))
    return out


# ---------------------------------------------------------------------------
# Convexity moduli


@dataclass(frozen=True)
class ModulusEstimate:
    argument: float
    value: float
    grid: int
    configurations: int
    polished: bool  # SLSQP ran and its point meets every constraint


def _check_eps(eps: float, grid: int) -> None:
    if not 0 < eps <= 2:
        raise PointwiseError("eps must lie in (0, 2]")
    if grid < 8:
        raise PointwiseError("grid resolution must be >= 8")


def _circle_points(space: LpSpace, grid: int) -> np.ndarray:
    """Points on the unit sphere of a 2-dimensional lp space."""
    if space.dim != 2:
        raise PointwiseError("grid estimator supports dim=2 spaces")
    theta = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return pts / space.norm_rows(pts)[:, None]


def _in_ball(space: LpSpace, count: int) -> list:
    """SLSQP constraints keeping each of the first `count` 2-vectors of the
    variables in the unit ball."""
    return [{"type": "ineq", "fun": lambda v, i=i: 1 - space.norm_rows(v[2 * i:2 * i + 2])}
            for i in range(count)]


def _polish(objective, constraints, x0) -> tuple[float, bool]:
    """SLSQP from x0: (objective value, True), or (inf, False) when SLSQP
    fails or its point breaks a constraint."""
    from scipy import optimize
    res = optimize.minimize(objective, x0, method="SLSQP",
                            constraints=constraints,
                            options={"maxiter": 200, "ftol": 1e-12})
    if res.success and all(c["fun"](res.x) >= -1e-9 for c in constraints):
        return float(res.fun), True
    return math.inf, False


def modulus_delta(space: LpSpace, eps: float, grid: int = 64) -> ModulusEstimate:
    """Two-point modulus of uniform convexity
    delta(eps) = inf { 1 - ||(x+y)/2|| : ||x||,||y|| <= 1, ||x-y|| >= eps }."""
    _check_eps(eps, grid)
    pts = _circle_points(space, grid)
    ok = space.norm_rows(pts[None] - pts[:, None]) >= eps
    vals = np.where(ok, 1 - space.norm_rows((pts[:, None] + pts[None]) / 2), math.inf)
    count = int(ok.sum())
    # the first minimum of the (x, y) pairs in row-major order
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    best = float(vals[i, j])
    polished = False
    if ok.any():
        def obj(v):
            return 1 - space.norm_rows((v[:2] + v[2:]) / 2)
        cons = _in_ball(space, 2) + [
            {"type": "ineq", "fun": lambda v: space.norm_rows(v[:2] - v[2:]) - eps}]
        polish, polished = _polish(obj, cons, np.concatenate([pts[i], pts[j]]))
        best = min(best, polish)
    return ModulusEstimate(eps, max(best, 0.0), grid, count, polished)


def _tripod_modulus(space: LpSpace, sep: float, m: int, grid: int,
                    cand: np.ndarray) -> ModulusEstimate:
    """min over z and x_1..x_m among the candidate points, with the x_i
    pairwise at least `sep` apart, of max_i (1 - ||(z - x_i)/2||): the
    first minimum of the (z, family) configurations in row-major order, the
    families in itertools.combinations order, polished by SLSQP over the
    unit ball.  With no separated family the estimate is infinite, as in
    modulus_delta."""
    diffs = cand[:, None] - cand[None]
    far = space.norm_rows(diffs) >= sep
    families = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(len(cand)), m)), np.intp).reshape(-1, m)
    for i, j in itertools.combinations(range(m), 2):
        families = families[far[families[:, i], families[:, j]]]
    if not len(families):
        return ModulusEstimate(sep, math.inf, grid, 0, False)
    # vals[z, i] = 1 - ||(z - x_i) / 2||; vmax[z, family] is its largest
    vals = 1 - space.norm_rows(diffs / 2)
    vmax = vals[:, families[:, 0]]
    for k in range(1, m):
        np.maximum(vmax, vals[:, families[:, k]], out=vmax)
    zi, j = np.unravel_index(np.argmin(vmax), vmax.shape)

    def x(v, i):
        return v[2 + 2 * i:4 + 2 * i]

    def obj(v):
        return max(1 - space.norm_rows((v[:2] - x(v, i)) / 2) for i in range(m))

    cons = _in_ball(space, m + 1) + [
        {"type": "ineq", "fun": lambda v, i=i, j=j: space.norm_rows(x(v, i) - x(v, j)) - sep}
        for i, j in itertools.combinations(range(m), 2)]
    polish, polished = _polish(obj, cons, np.concatenate([cand[zi], *cand[families[j]]]))
    best = min(float(vmax[zi, j]), polish)
    return ModulusEstimate(sep, max(best, 0.0), grid, vmax.size, polished)


def modulus_delta_tilde(space: LpSpace, eps: float, grid: int = 24) -> ModulusEstimate:
    """Tripod variant of the convexity modulus:
    inf over ||z||,||x1||,||x2|| <= 1 with ||x1-x2|| >= eps of
    max_i (1 - ||(z - x_i)/2||), over the half circle and the circle."""
    _check_eps(eps, grid)
    pts = _circle_points(space, grid)
    return _tripod_modulus(space, eps, 2, grid, np.concatenate([pts * 0.5, pts]))


def modulus_beta(space: LpSpace, t: float, m: int = 3, grid: int = 12) -> ModulusEstimate:
    """Finite-family surrogate of the asymptotic convexity modulus beta(t):
    min over (z, x_1..x_m) in the unit ball with pairwise separation >= t
    of max_i (1 - ||(z - x_i)/2||), over the half circle, the circle and
    the origin."""
    if t <= 0:
        raise PointwiseError("t must be positive")
    if m < 2:
        raise PointwiseError("m must be >= 2")
    pts = _circle_points(space, grid)
    cand = np.concatenate([pts * 0.5, pts, np.zeros((1, 2))])
    return _tripod_modulus(space, t, m, grid, cand)


# ---------------------------------------------------------------------------
# Finite Ramsey refinement


def ramsey_refine(points, p: float, K: float, N: int, m: int,
                  space=None, anchors=None) -> tuple[int, ...]:
    """Find m indices whose pairwise values d(x_i,x_j)^p / K^p (and unary
    anchor values, when anchors=(w, z) are given) each fall inside a single
    width-1/N bucket, by brute-force clique search.  The points become rows
    once; their pair distances take one `distance_rows` call and each
    anchor's distances one more, bucketed by the scalar power."""
    if m > 5:
        raise PointwiseError("m is capped at 5 (clique search is exponential)")
    if N < 1:
        raise PointwiseError("N must be >= 1")
    if len(points) < m:
        raise PointwiseError("not enough points")
    if space is None:
        space = LpSpace(len(points[0]), 2.0)
    n, rows = len(points), space.rows(points)

    def bucket(v: float) -> int:
        return int(math.floor(v * N))

    if anchors is not None:
        w, z = (space.distance_rows(space.rows([a]), rows).tolist() for a in anchors)
        unary = [(bucket(dw ** p / 2 ** p), bucket(0.5 * dz ** p))
                 for dw, dz in zip(w, z)]
    else:
        unary = [()] * n
    d = space.distance_rows(rows[:, None], rows[None]).tolist()
    color = {(i, j): bucket(d[i][j] ** p / K ** p)
             for i, j in itertools.combinations(range(n), 2)}
    for combo in itertools.combinations(range(n), m):
        if len({unary[i] for i in combo}) > 1:
            continue
        pair_colors = {color[i, j] for i, j in itertools.combinations(combo, 2)}
        if len(pair_colors) <= 1:
            return combo
    raise PointwiseError("no monochromatic subset of the requested size")
