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
import math
from dataclasses import dataclass

import numpy as np

from . import spaces as sp
from .spaces import LpSpace


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


def _is_linear(space) -> bool:
    """Whether `space` is an lp space or an lp product of such spaces, where
    (x + y) / 2 is a midpoint of x and y."""
    return isinstance(space, LpSpace) or (isinstance(space, sp.ProductSpace)
                                          and all(map(_is_linear, space.components)))


def check_space(space, ineq: InequalityId) -> None:
    """Raise PointwiseError unless `ineq` can be evaluated on `space`."""
    need = SPACE_NEEDED.get(ineq)
    if need is not None and not isinstance(space, need):
        raise PointwiseError(
            f"{ineq.value} needs a {need.__name__}, not a {type(space).__name__}")
    if ineq is InequalityId.MIDPOINT_CURVATURE and not _is_linear(space):
        raise PointwiseError(f"{ineq.value} needs an lp space or a product of lp "
                             f"spaces, not a {type(space).__name__}")


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

    def to_dict(self) -> dict:
        """The report as a JSON-ready dict."""
        return {
            "id": self.inequality,
            "config": self.config,
            "n": self.n,
            "seed": self.seed,
            "violations": self.violations,
            # a nan margin (a violation) or an empty run has no number
            "worst_margin": (self.worst_margin
                             if math.isfinite(self.worst_margin) else None),
            "worst_witness": sp.jsonable(self.worst_witness),
        }


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


def _parallelogram_setup(space, p: float, C: float) -> tuple[float, float]:
    if p < 2:
        raise PointwiseError("p must be >= 2")
    if space.operator_norm() > 1 + sp.REL_TOL:
        raise PointwiseError("omega operator norm must be <= 1 (rescale the form)")
    return parallelogram_constants(p, C)


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
    B = 0, and its R - A is raised by `_midpoint_bound`, so it is negative
    only where the exact margin at the exact midpoint is."""
    q = cfg.exponent

    def d(i, j, e=q):
        return space.distance_rows(pts[:, i], pts[:, j]) ** e

    if ineq in UMBEL_FAMILY:
        return _umbel_parts(ineq, q, d, pts.shape[1] - 2)
    if ineq is InequalityId.HEISENBERG_PARALLELOGRAM:
        K, lam = _parallelogram_setup(space, q, cfg.C)
        n = lambda v: sp.koranyi_norm_rows(v, q, lam) ** (2 * q)
        a, b = pts[:, 0], pts[:, 1]
        half_b = sp.h_dilate_rows(0.5, b)
        rhs = 0.5 * n(a) + 0.5 * n(sp.h_mul_rows(space, -b, a))
        return (rhs - n(half_b),
                n(sp.h_mul_rows(space, -half_b, a)) / K ** (2 * q), 0.0)
    if ineq is InequalityId.P_UNIFORM_CONVEXITY:
        n = lambda v: space.norm_rows(v) ** q
        x, y = pts[:, 0], pts[:, 1]
        return (n(x + y) + n(x - y)) / 2 - n(x), n(y), q
    if ineq is InequalityId.MIDPOINT_CURVATURE:     # points x, y, z, m
        lhs = d(2, 0, 2) + d(2, 1, 2)
        dzm = space.distance_rows(pts[:, 2], pts[:, 3])
        rhs = 2 * dzm ** 2 + d(0, 1, 2) / 2
        norm = space.distance_rows(pts[:, 3], np.zeros_like(pts[:, 3]))
        return (rhs - lhs + _midpoint_bound(space, lhs + rhs, dzm, norm),
                np.zeros(len(lhs)), 0.0)
    if ineq is InequalityId.Q_TRIPOD:               # points w, x, y, z
        rhs = 0.5 * d(3, 0) + 0.25 * d(3, 1) + 0.25 * d(3, 2)
        return rhs - (d(0, 1) + d(0, 2)) / 2 ** (q + 1), d(1, 2) / 4 ** q, q
    # the forks: w, x, y, z
    if ineq is InequalityId.Q_FORK:
        rhs = 0.5 * d(3, 0) + 0.5 * np.maximum(d(3, 1), d(3, 2))
    else:
        rhs = np.maximum(np.maximum(d(3, 0), d(3, 1)), d(3, 2))
    return rhs - np.minimum(d(0, 1), d(0, 2)) / 2 ** q, d(1, 2) / 4 ** q, q


def _distance_roundings(space) -> float:
    """a such that each distance of an lp space, or of an lp product of such
    spaces, is computed within a factor [(1 - u)^a, (1 + u)^a] of the exact
    one.  An lp norm of `count` entries, each within `inner` roundings (a
    coordinate difference: 1; a factor's distance: its own a), is within
    inner + 5 + (count + 2) / p: the p-th powers, by a pow within 1 ulp
    (3 roundings), are within p inner + 3, their sum adds count - 1, and the
    root divides by p and adds 3; a row rescaled by its largest entry
    (`spaces._scaled_norms`) adds a quotient and a product.  The p = 1, 2
    and inf formulas round less.  It assumes no intermediate leaves the
    normal float range."""
    if isinstance(space, LpSpace):
        inner, count = 1, space.dim
    else:
        inner, count = max(map(_distance_roundings, space.components)), len(space.components)
    return inner + 5 + (count + 2) / space.p


def _midpoint_bound(space, sides, dzm, norm):
    """A bound on how far the computed midpoint-curvature margin
    2 d(z,m)^2 + d(x,y)^2 / 2 - d(z,x)^2 - d(z,y)^2 lies from the exact
    margin at the exact midpoint of x and y, from the computed `sides`
    (the sum of the four terms), d(z, m) and |m|.
    - Each distance is within a roundings (`_distance_roundings`), so its
      square is within 2a + 1 and off the exact square by at most
      gamma_(2a+1) of itself (`spaces.gamma`).  The margin's three rounded
      additions, and one rounding for this bound and the addition that
      takes it, make gamma_(2a+4) of the sides.
    - m = fl(x + y) / 2 lies within delta = u |m| of the midpoint, which
      moves 2 d(z,m)^2 by at most 2 delta (2 d(z,m) + delta).  Each
      computed distance is at least half the exact one, so
      16 u |m| d(z,m) + 8 u^2 |m|^2 bounds that."""
    u = sp.UNIT_ROUNDOFF
    return (sp.gamma(2 * _distance_roundings(space) + 4) * sides
            + 16 * u * norm * dzm + 8 * u ** 2 * norm ** 2)


def batch_margins(ineq: InequalityId, cfg: InequalityConfig, space,
                  pts: np.ndarray) -> np.ndarray:
    """Margins RHS - LHS of every configuration in `pts`."""
    rest, b, e = margin_parts(ineq, cfg, space, pts)
    return _margins(rest, b, e, cfg.K)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _margins(rest: np.ndarray, b: np.ndarray, e: float, K: float) -> np.ndarray:
    """rest - B / K^e, with K^e past the float range taken as inf.  Where
    K^e is 0 or so small that B / K^e passes the float range, B / K^e is
    inf and the margin -inf, a violation; B = K^e = 0 gives a NaN margin,
    a violation too.  Neither warns."""
    return rest - b / sp.power(K, e)


# ---------------------------------------------------------------------------
# Certification campaigns

_CHUNK = 4096
_XS_CAP = 128  # the most x_i an umbel configuration draws: C(count, 2) columns


def _points_per_config(ineq: InequalityId, xs_count: int) -> int:
    if ineq in UMBEL_FAMILY:
        return 2 + max(xs_count, 0)
    if ineq in FOUR_POINT:
        return 4
    return 2


def ball_sampler(space, ineq: InequalityId, xs_count: int = 4):
    """Default configuration sampler: `draw(rng, m)` returns m configurations
    of points of the space's ball as the rows of `space.sample_batch`, with
    w, z, x_1 .. x_xs_count for the umbel family, xs_count at most _XS_CAP.
    Midpoint curvature draws x, y and z and takes m = (x + y) / 2, the
    midpoint on the lp spaces and products `check_space` lets it run on."""
    if ineq in UMBEL_FAMILY and xs_count > _XS_CAP:
        raise PointwiseError(f"xs_count {xs_count} is more than the {_XS_CAP} "
                             f"points an umbel configuration draws")
    if ineq is InequalityId.MIDPOINT_CURVATURE:
        return functools.partial(_midpoint_draw, space)
    return functools.partial(space.sample_batch, k=_points_per_config(ineq, xs_count))


def _midpoint_draw(space, rng: np.random.Generator, m: int) -> np.ndarray:
    """m configurations (x, y, z, (x + y) / 2) of three drawn points."""
    pts = space.sample_batch(rng, m, 3)
    return np.concatenate([pts, (pts[:, :1] + pts[:, 1:2]) / 2], axis=1)


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
        i = int(np.argmin(margins))  # the first NaN, else the first minimum
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


def _holds(rest: np.ndarray, b: np.ndarray, e: float, K: float,
           slack: float) -> bool:
    """Whether every margin at K, in batch_margins' arithmetic, is >= -slack."""
    return bool((_margins(rest, b, e, K) >= -slack).all())


def _least_float(holds, lo: float, hi: float) -> float:
    """The float x in (lo, hi], 0 <= lo < hi, that ends a bisection over
    the bit patterns of the floats between, which are ordered as the floats
    are: holds(x) and not holds(the float below x), for a holds false at lo
    and true at hi.  For a monotone holds, x is the least float in (lo, hi]
    with holds(x)."""
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (lo, hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(float(np.int64(mid).view(np.float64))):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def _least_positive_power(e: float) -> float:
    """The least float x with x ** e > 0."""
    return _least_float(lambda x: x ** e > 0, 0.0, 1.0)


def min_feasible_K(space, ineq: InequalityId, cfg: InequalityConfig, sampler,
                   n: int, seed: int, bracket: tuple[float, float]) -> float:
    """Smallest K in the bracket with zero sampled violations, from one pass
    over the samples of `certify(..., n, seed)` that keeps their parts.

    A configuration holds at K exactly when K^e >= B / (R - A + slack) (see
    margin_parts), and keeps holding as K grows.  The fit reads the parts of
    every configuration as one (R - A, B) pair.  K is lo if every margin
    holds there.  Otherwise K starts at the largest such bound, or at the
    least float with K^e > 0 where lo^e is 0, and steps up an ulp at a time,
    clipped at hi, while some margin, in batch_margins' arithmetic, fails.
    Every step tests every configuration, so the answer is the first finite
    K at which all of them hold.  It raises when no K serves: B > 0 with
    R - A + slack <= 0, or B = 0 with R - A + slack < 0, or a NaN part, or
    a failure at hi.  Midpoint curvature has no K and the parallelogram
    derives its K from C, so neither has one to fit."""
    if ineq in (InequalityId.MIDPOINT_CURVATURE,
                InequalityId.HEISENBERG_PARALLELOGRAM):
        raise PointwiseError(f"{ineq.value} does not depend on K")
    lo, hi = bracket
    if not 0 < lo <= hi:
        raise PointwiseError(f"the bracket ({lo}, {hi}) needs 0 < lo <= hi")
    infeasible = PointwiseError("upper bracket is still infeasible")
    rests, bs, es = zip(*(margin_parts(ineq, cfg, space, pts)
                          for pts in _draws(space, ineq, sampler, n, seed)))
    rest, b, e = np.concatenate(rests), np.concatenate(bs), es[0]
    room = rest + cfg.slack
    pos = b > 0
    if (np.isnan(rest).any() or np.isnan(b).any()
            or (pos & ~(room > 0)).any() or (~pos & (room < 0)).any()):
        raise infeasible
    with np.errstate(over="ignore"):
        start = max(lo if sp.power(lo, e) > 0 else _least_positive_power(e),
                    float(np.max(b[pos] / room[pos], initial=0.0) ** (1 / e)))
    K = lo
    while not (math.isfinite(K) and _holds(rest, b, e, K, cfg.slack)):
        if K >= hi:
            raise infeasible
        K = min(hi, max(start, math.nextafter(K, math.inf)))
    return K


# ---------------------------------------------------------------------------
# Constant solving


def solve_umbel_K(p: float, c: float) -> float:
    """Least float K >= 2c with g(K) <= 1, where
    g(K) = (1/2^p) (2c/K + (2 - (2c/K)^p)^{1/p})^p + 2^{p+1}/K."""
    if p <= 1:
        raise NoSolution("no feasible K exists for p <= 1")
    if c <= 0:
        raise PointwiseError("c must be positive")

    def g(k: float) -> float:
        u = 2 * c / k
        return (u + (2 - u ** p) ** (1 / p)) ** p / 2 ** p + 2 ** (p + 1) / k

    lo = 2 * c  # g(2c) = 1 + 2^p / c > 1
    hi = 2 * lo
    for _ in range(200):
        if g(hi) <= 1:
            break
        lo, hi = hi, 2 * hi
    else:
        raise NoSolution("condition stays infeasible")
    return _least_float(lambda k: g(k) <= 1, lo, hi)


# ---------------------------------------------------------------------------
# Midpoint curvature iteration


def alpha_rows(space, pts: np.ndarray, n: int) -> np.ndarray:
    """alpha_k, k = 0..n, of every configuration (x, y, z, m) in `pts`, laid
    out as `ball_sampler(space, midpoint-curvature)` draws them, one row per
    configuration: alpha_k d(z_k,m)^2 = d(z_k,x)^2 + d(z_k,y)^2 - d(x,y)^2/2
    with z_k = m + (z - m) / 2^k on the segment from m toward z (z_0 = z)."""
    check_space(space, InequalityId.MIDPOINT_CURVATURE)
    x, y, z, m = (pts[:, i, None] for i in range(4))
    if (space.distance_rows(z, m) <= sp.ABS_TOL).any():
        raise PointwiseError("z = m: the iteration is undefined")
    zk = m + (z - m) / 2.0 ** np.arange(n + 1)[:, None]
    d2 = lambda a, b: space.distance_rows(a, b) ** 2
    return (d2(zk, x) + d2(zk, y) - d2(x, y) / 2) / d2(zk, m)


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
    delta(eps) = inf { 1 - ||(x+y)/2|| : ||x||,||y|| <= 1, ||x-y|| >= eps },
    over the circle: the base-free case of `_separated_modulus`."""
    _check_eps(eps, grid)
    return _separated_modulus(space, eps, 2, grid, _circle_points(space, grid), False)


def _separated_modulus(space: LpSpace, sep: float, m: int, grid: int,
                       cand: np.ndarray, based: bool) -> ModulusEstimate:
    """min over the families x_1..x_m of candidate points pairwise at least
    `sep` apart of 1 - ||(x_1 + x_2)/2|| (m = 2), or, `based`, over z among
    the candidates too of max_i (1 - ||(z - x_i)/2||): the first minimum of
    the (z, family) configurations in row-major order, the families in
    itertools.combinations order, polished by SLSQP over the unit ball.
    With no separated family the estimate is infinite."""
    far = space.norm_rows(cand[:, None] - cand[None]) >= sep
    families = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(len(cand)), m)), np.intp).reshape(-1, m)
    for i, j in itertools.combinations(range(m), 2):
        families = families[far[families[:, i], families[:, j]]]
    if not len(families):
        return ModulusEstimate(sep, math.inf, grid, 0, False)
    zs = cand if based else np.zeros((1, 0))

    def value(z, xs):  # z and the x_i as broadcast point arrays
        if not based:
            return 1 - space.norm_rows((xs[0] + xs[1]) / 2)
        return functools.reduce(np.maximum, (1 - space.norm_rows((z - x) / 2) for x in xs))

    if based:  # one (z, x) table: a family's value is the max of its columns
        table = value(zs[:, None], [cand])
        vals = functools.reduce(np.maximum, (table[:, families[:, i]] for i in range(m)))
    else:
        vals = value(zs, [cand[families[:, i]] for i in range(m)])[None]
    zi, j = np.unravel_index(np.argmin(vals), vals.shape)
    w = zs.shape[1]
    xs = lambda v: [v[w + 2 * i:w + 2 * i + 2] for i in range(m)]
    cons = _in_ball(space, m + w // 2) + [
        {"type": "ineq", "fun": lambda v, i=i, j=j: space.norm_rows(xs(v)[i] - xs(v)[j]) - sep}
        for i, j in itertools.combinations(range(m), 2)]
    polish, polished = _polish(lambda v: value(v[:w], xs(v)), cons,
                               np.concatenate([zs[zi], *cand[families[j]]]))
    best = min(float(vals[zi, j]), polish)
    return ModulusEstimate(sep, max(best, 0.0), grid, vals.size, polished)


def modulus_delta_tilde(space: LpSpace, eps: float, grid: int = 24) -> ModulusEstimate:
    """Tripod variant of the convexity modulus:
    inf over ||z||,||x1||,||x2|| <= 1 with ||x1-x2|| >= eps of
    max_i (1 - ||(z - x_i)/2||), over the half circle and the circle."""
    _check_eps(eps, grid)
    pts = _circle_points(space, grid)
    return _separated_modulus(space, eps, 2, grid, np.concatenate([pts * 0.5, pts]), True)


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
    return _separated_modulus(space, t, m, grid, cand, True)
