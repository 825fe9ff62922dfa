"""Extremal-constant search: maximize lhs/rhs of a tree functional over
assignments of tree vertices to points of a finite target space.

Assignments are int arrays in vertex order, scored in batches through the
functional's two compiled plans, which the scorer holds."""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .invariants import (InvariantId, TreeMap, _check_exponent, _divisors,
                         _join, _pow, _segments, compile_plan)
from . import spaces as sp
from .spaces import FiniteMatrixSpace, SpaceError, is_int
from .trees import TreeSpec, tree_graph

_EXHAUSTIVE_BUDGET = 10 ** 7
_WINDOW = 1 << 13  # the most gathered entries of a multi-vertex local-search window


class SearchError(ValueError):
    pass


class BudgetExceeded(SearchError):
    pass


@dataclass(frozen=True)
class SearchProblem:
    spec: TreeSpec
    target: FiniteMatrixSpace
    invariant: InvariantId
    exponent: float
    pins: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.target.n < 2:
            raise SearchError("target needs at least 2 points")
        for v, pt in self.pins.items():
            # (1.0,) == (1,): float labels would pass the membership test
            if not (isinstance(v, tuple) and all(map(is_int, v))
                    and v in tree_graph(self.spec).index):
                raise SearchError(f"pinned vertex {v!r} not in the tree")
            try:
                self.target.rows([pt])
            except SpaceError as exc:
                raise SearchError(f"a pinned point: {exc}") from exc

    def __hash__(self):  # pins is a dict
        return hash((self.spec, self.target, self.invariant, self.exponent,
                     frozenset(self.pins.items())))


def pins_from_json(obj) -> dict:
    """Pins {vertex: point} from a document {"pins": [[[label, ...], point],
    ...]}; SearchProblem validates them against the tree and the target."""
    try:
        pairs = [(tuple(v), pt) for v, pt in obj["pins"]]
        pins = dict(pairs)
    except (TypeError, ValueError, KeyError) as exc:
        raise SearchError('pins must be {"pins": [[[label, ...], point], ...]}') from exc
    if len(pins) < len(pairs):
        raise SearchError("the pins document pins a vertex twice")
    return pins


@dataclass(frozen=True)
class SearchResult:
    feasible: bool
    best_map: Optional[TreeMap]
    best_ratio: float
    evaluations: int = 0           # candidates the climbs compared (exhaustive: all)
    feasible_evaluations: int = 0  # of which rhs > 0

    def to_dict(self) -> dict:
        """The result as a JSON-ready dict."""
        ratio = self.best_ratio if math.isfinite(self.best_ratio) else None
        obj = {"feasible": self.feasible, "best_ratio": ratio,
               "evaluations": self.evaluations,
               "feasible_evaluations": self.feasible_evaluations}
        if self.best_map is not None:
            obj["assignment"] = self.best_map.assignment_json()
        return obj


NO_FEASIBLE = SearchResult(False, None, -math.inf)


class _Scorer:
    """lhs/rhs ratios of batches of assignment arrays (columns of a C-contiguous
    (vertices x rows) array A), nan where rhs <= 0.  Plans, exponent check,
    group divisors and power tables are built once.  Each gathered plan
    column and each segment value is a contiguous run over the rows.
    Entries of A are point indices, so a * n + b indexes the flat table; a
    block forms both plans' indices, lhs first, at once, and one gather
    serves both sides when they read one table.  A sum side gathers pw, the
    numpy power `evaluate` takes of each distance.  A min or max side
    reduces the ranks of the distances among the distinct entries, which
    keep their order, and reads spw, the scalar power `evaluate` takes of
    the extreme distance.  (-0.0 ranks with 0.0; the join, `evaluate`'s
    own, drops the sign of a zero.)  `evaluate`'s `_segments` and `_join`
    reduce them, so every ratio has `evaluate`'s bits.  start, the canonical
    map, carries each pinned point down to its unpinned descendants (the
    root defaults to point 0), and free lists the unpinned vertices' indices.
    """

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        p = problem.exponent
        self.plans = tuple(compile_plan(problem.invariant, problem.spec, side)
                           for side in ("lhs", "rhs"))
        _check_exponent(p)
        self.divisors = [_divisors(plan, p) for plan in self.plans]
        graph = tree_graph(problem.spec)
        pinned = {graph.index[v]: pt for v, pt in problem.pins.items()}
        start = [0] * graph.n
        for i, j in enumerate(graph.parent.tolist()):  # parents come first
            start[i] = pinned.get(i, start[j])
        self.start = np.array(start, dtype=np.intp)
        self.free = [i for i in range(graph.n) if i not in pinned]
        lhs, rhs = self.plans
        self.u, self.v = np.concatenate([lhs.u, rhs.u]), np.concatenate([lhs.v, rhs.v])
        self.cut, self.n = len(lhs.u), problem.target.n
        flat = problem.target.table.ravel()
        vals = np.unique(flat)
        rank = np.searchsorted(vals, flat)
        with np.errstate(over="ignore"):  # powers past the float range are inf
            pw = flat ** p
        self.spw = _pow(vals, p)
        self.tables = [pw if plan.reduce == "sum" else rank for plan in self.plans]
        self.rows = max(1, sp.BLOCK // len(self.u))

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, A: np.ndarray) -> np.ndarray:
        """The ratios of the columns of A; self.sides keeps their (lhs, rhs)."""
        (lhs, rhs), (ldivs, rdivs), cut = self.plans, self.divisors, self.cut
        ltable, rtable = self.tables
        out = np.full(A.shape[1], np.nan)
        self.sides = None
        for lo in range(0, len(out), self.rows):
            block = A[:, lo:lo + self.rows]
            idx = (block * self.n).take(self.u, axis=0) + block.take(self.v, axis=0)
            if ltable is rtable:  # one gather serves both sides
                g = ltable.take(idx)
                gl, gr = g[:cut], g[cut:]
            else:
                gl, gr = ltable.take(idx[:cut]), rtable.take(idx[cut:])
            left = _join(lhs, _segments(lhs, gl, self.spw.take), ldivs)
            right = _join(rhs, _segments(rhs, gr, self.spw.take), rdivs)
            np.divide(left, right, out=out[lo:lo + self.rows], where=right > 0)
            self.sides = (left, right) if lo == 0 else tuple(
                map(np.concatenate, zip(self.sides, (left, right))))
        return out

    def result(self, a: np.ndarray, ratio: float) -> SearchResult:
        spec = self.problem.spec
        return SearchResult(True, TreeMap(spec, self.problem.target, dict(
            zip(tree_graph(spec).vertices, a.tolist()))), ratio)


def _touch_index(score: _Scorer) -> tuple:
    """The scorer's plan columns (lhs then rhs, side by side) that touch
    each vertex, as CSR arrays (ptr, other, second, weights, group): for
    each entry, the column's other end, whether the vertex is its second
    end, its weight on each side (2 x entries, 0 on the other side) and the
    index of its group among lhs's groups then rhs's; then `_Delta`'s
    factors in its row order (lhs-low, lhs-high, rhs-high, rhs-low): 1 -+
    each entry's slack (4 x entries) and each row's reset factor (4 x 1);
    and the least weight.  Kept beside the plans on tree_graph's entry for
    the tree."""
    tg = tree_graph(score.problem.spec)
    key = (score.problem.invariant, "touch")
    if key not in tg.plans:
        plans, u, v, cut = score.plans, score.u, score.v, score.cut
        sizes = []
        for plan in plans:  # each group's column count
            ends = [*plan.starts.tolist(), len(plan.u)]
            sizes += [ends[hi] - ends[lo] for lo, hi in plan.groups]
        weights = np.zeros((2, len(u)))
        weights[0, :cut], weights[1, cut:] = plans[0].weights, plans[1].weights
        order = np.argsort(np.concatenate([u, v]), kind="stable")
        column = order % len(u)
        counts = np.bincount(u, minlength=tg.n) + np.bincount(v, minlength=tg.n)
        rnd = sp.UNIT_ROUNDOFF
        sigma = np.array([[sp.gamma(plan.u.size + plan.starts.size + len(plan.groups) + 2)]
                          for plan in plans])
        h = sigma + (4 * tg.n + 2) * rnd
        s = h + np.repeat([sp.gamma(k + 2) for k in counts.tolist()], counts) + 2 * rnd
        a, b = 1 - (h + sigma + 3 * rnd), 1 + (h + 2 * sigma + 4 * rnd)
        tg.plans[key] = (np.concatenate([[0], np.cumsum(counts)]).tolist(),
                         np.concatenate([v, u])[order], order >= len(u),
                         weights[:, column], np.repeat(np.arange(len(sizes)), sizes)[column],
                         np.array([1 - s[0], 1 + s[0], 1 + s[1], 1 - s[1]]),
                         np.array([a[0], b[0], b[1], a[1]]),
                         float(np.concatenate([p.weights for p in plans]).min()))
    return tg.plans[key]


_TINY, _HUGE = 2.0 ** -900, 2.0 ** 1000  # the side values a delta vouches for


class _Delta:
    """Bounds on the ratios of one free vertex's candidates from their
    climbs' sides, for plans whose sides are weighted sums joined by sums
    (markov-directed).  A side is then the sum S of its terms w d^p /
    2^(s p), every term >= 0, and a candidate changes only the terms of the
    columns that touch its vertex: its side is its climb's, less the old
    terms, plus the new ones, one gather and one small matmul over the
    vertex's k entries of `_touch_index`.

    Each climb carries, per side, an interval [L, H] with room h to spare:
    L <= S (1 - h) and H >= S (1 + h), with u = 2^-53.  The scorer's float
    F lies within sigma = gamma_m of S, m = columns + segments + groups + 2
    (each term's roundings; Higham, Accuracy and Stability of Numerical
    Algorithms, lemma 3.1), so a reset [F (1 - h - sigma - 3u),
    F (1 + h + 2 sigma + 4u)] covers F's error and the roundings of its
    factor and product.  A step takes the candidates' p-th powers through four weight
    rows (lhs-low, lhs-high, rhs-high, rhs-low), w / 2^(s p) times 1 -+ s
    with s = h + gamma_(k+2) + 2u: an entry takes 2 roundings, a row's sum
    lies within gamma_k of its terms in any order, with or without FMA
    (lemma 3.1), and 2u covers the rounding of 1 -+ s, so a low row sums to
    at most (1 - h) times its exact terms and a high row to at least (1 + h)
    times.  A candidate's end is its climb's, less the old terms' opposite
    end (the own point's entry of the swapped rows), plus its new terms'
    end.  That offset and add cost at most 3u (S' + room + the terms' room),
    and the terms' room h (old + new) carries the climb's room over to the
    new side S', so a move spends at most 4u S'.  A climb moves at most once
    per free vertex between resets, so with h = sigma + (4V + 2)u, V the
    tree's vertices, every end keeps (sigma + 2u) S to spare: L <= F <= H on
    each side, and as rounding is monotone, L_lhs / H_rhs and H_lhs / L_rhs
    in floats bound the scorer's ratio with no widening.

    Ends are vouched for only in [_TINY, _HUGE], where an underflow costs
    far below u of an end and no sum overflows.  A lhs whose low end may
    fall below _TINY bounds the ratio below by 0 and above by (H_lhs +
    _TINY) / L_rhs, whose add the last u covers; any other end out of range
    leaves the ratio nan, which falls back.  A weight below the normal
    range (a large p) would break the bounds, so such plans get no delta.
    Every slack is below 2^-20 for any plan that fits in memory, so the
    products of two slacks dropped above stay below the u / 2 that each
    constant leaves spare."""

    def __init__(self, score: _Scorer, ptr: list, other, second, weights, group,
                 factors, reset, least: float):
        divisors = np.array(score.divisors[0] + score.divisors[1])
        n = score.n
        P = score.tables[0].reshape(n, n)
        # row a: the candidates' p-th powers against point a, as first end
        # of a column (rows < n) or second
        self.table = np.concatenate([P.T, P])
        self.ptr, self.other, self.off, self.n = ptr, other, (second * n)[:, None], n
        self.rows = (weights / divisors[group])[[0, 0, 1, 1]] * factors
        self.reset = reset
        self.ok = least / divisors.max() >= sys.float_info.min

    @staticmethod
    def of(score: _Scorer) -> Optional["_Delta"]:
        """The scorer's delta, or None unless both its sides are sums joined
        by sums with normal weights."""
        if not all(plan.reduce == plan.outer == "sum" for plan in score.plans):
            return None
        delta = _Delta(score, *_touch_index(score))
        return delta if delta.ok else None

    def based(self, sides) -> np.ndarray:
        """Carried ends (4 x climbs: L and H of lhs, H and L of rhs) reset
        from the scorer's (lhs, rhs)."""
        return np.array(sides)[[0, 0, 1, 1]] * self.reset

    def own(self, climbs: int) -> np.ndarray:
        """Flat indices into a step's (4 x climbs x n) ends of each climb's
        point 0 in the pairwise swapped rows: plus its point, its old terms'
        opposite ends."""
        return (np.array([[1], [0], [3], [2]]) * climbs + np.arange(climbs)) * self.n

    def __call__(self, climbs: np.ndarray, i: int, LH: np.ndarray, own: np.ndarray
                 ) -> tuple:
        """For the climbs (the columns of climbs, with LH their carried ends
        from `based`, own from `own`) and each point at vertex i: bounds on
        the scorer's ratio as a (2 x climbs x n) array, lower then upper,
        nan where a side is not vouched for, and the ends the candidate
        would carry (4 x climbs x n)."""
        lo, hi = self.ptr[i], self.ptr[i + 1]
        g = self.table.take(climbs.take(self.other[lo:hi], axis=0) + self.off[lo:hi], axis=0)
        ends = (self.rows[:, lo:hi] @ g.reshape(hi - lo, -1)).reshape(4, -1, self.n)
        ends += (LH - ends.take(own + climbs[i]))[..., None]
        bounds = ends[:2] / ends[2:]
        if not (ends.min() >= _TINY and ends.max() <= _HUGE):  # every end in range
            small = ends[0] < _TINY
            bounds[0][small] = 0.0
            bounds[1][small] = (ends[1][small] + _TINY) / ends[3][small]
            unsure = ~((ends[3] >= _TINY) & (ends[1:3].max(axis=0) <= _HUGE))
            bounds[:, unsure] = math.nan
        return bounds, ends


def exhaustive_max(problem: SearchProblem,
                   budget: int = _EXHAUSTIVE_BUDGET) -> SearchResult:
    """Global maximum of lhs/rhs over all assignments of the free vertices,
    the first maximum in itertools.product order."""
    if budget < 0:
        raise SearchError(f"the budget must be >= 0, got {budget}")
    n, free = problem.target.n, tree_graph(problem.spec).n - len(problem.pins)
    total = n ** free
    if total > budget:
        raise BudgetExceeded(f"{n}^{free} assignments exceed the exhaustive "
                             f"budget of {budget}")
    score = _Scorer(problem)
    best, feasible = NO_FEASIBLE, 0
    for lo in range(0, total, score.rows):
        combos = np.arange(lo, min(lo + score.rows, total))
        A = np.repeat(score.start[:, None], len(combos), axis=1)  # one column a row
        if free:  # overwrite the start's free entries
            A[score.free] = np.unravel_index(combos, (n,) * free)
        ratios = score(A)
        ok = ~np.isnan(ratios)
        feasible += int(ok.sum())
        if ok.any():
            i = int(np.argmax(np.where(ok, ratios, -math.inf)))
            if ratios[i] > best.best_ratio:
                best = score.result(A[:, i], float(ratios[i]))
    return dataclasses.replace(best, evaluations=total,
                               feasible_evaluations=feasible)


def _accept(ratios: list, lo: int, n: int, active, row: list, current: list,
            improved: set) -> tuple[int, int, bool]:
    """One free vertex's acceptances.  From ratios[lo] on, each active climb
    j has its n candidates in point order; it accepts each one, in order,
    that beats current[j] by more than 1e-15 (any ratio when current[j] is
    -inf, no ratio), and row[j] and current[j] follow.  Its own
    point is skipped until it moves.  Returns the candidates compared, how
    many of them have a ratio, and whether any climb accepted."""
    skipped = nans = 0
    accepted = False
    for j in active:
        old, r_now = row[j], current[j]
        bar = r_now + 1e-15
        for pt, r in enumerate(ratios[lo:lo + n]):
            if pt == old:
                skipped += 1
            elif r > bar:
                r_now, old, bar = r, pt, r + 1e-15
                accepted = True
                improved.add(j)
            elif r != r:  # nan: rhs <= 0
                nans += 1
        row[j] = old
        current[j] = r_now
        lo += n
    compared = n * len(active) - skipped
    return compared, compared - nans, accepted


def _accept_bounded(los: list, his: list, n: int, active, row: list, now_lo: list,
                    now_hi: list, improved: set) -> tuple[int, list, list]:
    """`_accept` from bounds on the ratios: los[c] and his[c] bound the
    ratios of the n candidates of active climb c in point order (nan where
    a candidate is not vouched for, so that it may have no ratio), and
    now_lo[j] and now_hi[j] bound climb j's current ratio (-inf: none).  A
    candidate whose lower bound passes now_hi[j] + 1e-15 beats it by more
    than 1e-15; one whose upper bound stays within now_lo[j] + 1e-15 does
    not; any other leaves the climb undecided, with its state kept.
    Returns the candidates the decided climbs compared (each has a ratio),
    the positions in `active` of the climbs that accepted and the climbs
    left undecided."""
    compared = 0
    moved, fall = [], []
    for c, (j, lo_c, hi_c) in enumerate(zip(active, los, his)):
        old, lo, hi = row[j], now_lo[j], now_hi[j]
        bar_lo, bar_hi = lo + 1e-15, hi + 1e-15
        skipped = 0
        for pt, (r_lo, r_hi) in enumerate(zip(lo_c, hi_c)):
            if pt == old:
                skipped += 1
            elif r_lo > bar_hi:
                old, lo, hi, bar_lo, bar_hi = pt, r_lo, r_hi, r_lo + 1e-15, r_hi + 1e-15
            elif not r_hi <= bar_lo:  # nan: not vouched for
                fall.append(j)
                break
        else:
            compared += n - skipped
            if old != row[j]:
                row[j], now_lo[j], now_hi[j] = old, lo, hi
                moved.append(c)
                improved.add(j)
    return compared, moved, fall


def _window_sweep(score: _Scorer, A: np.ndarray, cols: list, active, current: list,
                  improved: set) -> tuple[int, int]:
    """One sweep of the active climbs, scored in windows.  Returns the
    candidates compared and how many of them have a ratio."""
    n = score.n
    m = len(active) * n  # a vertex's candidates
    most = max(1, min(score.rows // m, _WINDOW // (m * len(score.u))))
    points = np.tile(np.arange(n), len(active))
    ratios, lo, quiet = [], 0, 0
    evaluations = feasible = 0
    for s, i in enumerate(cols):
        if lo == len(ratios):  # score the next window
            window = cols[s:s + min(max(quiet, 1), most)]
            climbs = A if len(active) == A.shape[1] else A[:, active]
            candidates = climbs.repeat(n, axis=1)
            if len(window) == 1:
                candidates[i] = points
            else:  # each vertex's candidates, side by side
                candidates = np.tile(candidates, len(window))
                candidates.reshape(len(candidates), len(window), m)[
                    window, range(len(window))] = points
            ratios, lo = score(candidates).tolist(), 0
        row = A[i].tolist()
        compared, ok, accepted = _accept(ratios, lo, n, active, row, current, improved)
        evaluations += compared
        feasible += ok
        A[i] = row
        if accepted:  # the rest of the window is stale
            ratios, lo, quiet = [], 0, 0
        else:
            lo += m
            quiet += 1
    return evaluations, feasible


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _delta_sweep(score: _Scorer, delta: _Delta, A: np.ndarray, cols: list, active,
                 current: list, improved: set, LH: np.ndarray) -> tuple[int, int]:
    """One sweep of the active climbs by deltas, as `_window_sweep`.  LH
    holds each climb's carried ends (`_Delta.based`), reset from the scorer
    at the start and at the end.  A climb that accepts carries its
    candidate's ends and ratio bounds on.  At a vertex where some climbs'
    candidates fall between their bars, those climbs' candidates are scored
    in full and walked exactly, which also reads their current ratios
    exactly (the own point's candidate is the current map).  At the end one
    call scores the maps of the climbs that still carry bounds."""
    n = score.n
    now_lo = list(current)
    now_hi = list(now_lo)
    bounded = set()
    whole = len(active) == A.shape[1]
    own = delta.own(len(active))
    evaluations = feasible = 0
    for i in cols:
        if whole:
            bounds, ends = delta(A, i, LH, own)
        else:
            bounds, ends = delta(A.take(active, axis=1), i, LH.take(active, axis=1), own)
        row = A[i].tolist()
        compared, moved, fall = _accept_bounded(*bounds.tolist(), n, active, row,
                                                now_lo, now_hi, improved)
        evaluations += compared
        feasible += compared
        for c in moved:
            j = active[c]
            LH[:, j] = ends[:, c, row[j]]
            bounded.add(j)
        if fall:
            candidates = A[:, fall].repeat(n, axis=1)
            candidates[i] = np.tile(np.arange(n), len(fall))
            ratios = score(candidates).tolist()
            for c, j in enumerate(fall):  # the own point's candidate is the map
                r = ratios[c * n + row[j]]
                current[j] = -math.inf if r != r else r
            compared, ok, _ = _accept(ratios, 0, n, fall, row, current, improved)
            evaluations += compared
            feasible += ok
            at = [c * n + row[j] for c, j in enumerate(fall)]
            LH[:, fall] = delta.based([side[at] for side in score.sides])
            for j in fall:
                now_lo[j] = now_hi[j] = current[j]
            bounded.difference_update(fall)
        A[i] = row
    if bounded:
        rest = sorted(bounded)
        for j, r in zip(rest, score(A.take(rest, axis=1)).tolist()):
            current[j] = -math.inf if r != r else r
        LH[:, rest] = delta.based(score.sides)
    return evaluations, feasible


def local_search_max(problem: SearchProblem, restarts: int, steps: int,
                     seed: int) -> SearchResult:
    """Hill-climbing over single-vertex reassignments with random restarts.
    The first climb starts from the scorer's canonical start; each
    restart draws the free vertices uniformly, in vertex order.

    The climbs run in lockstep, in groups of at most rows // n climbs whose
    starts are drawn, in one call, just before the group climbs.  At each
    free vertex the n reassignments of every active climb differ from its
    map only at that vertex, so they are scored in one batch; each climb
    then accepts its candidates in point order, each when it beats its
    current ratio by more than 1e-15.  A climb leaves the group after a
    sweep that does not improve.  A climb's map changes only when its ratio
    rises, so its final state is its best.  Scoring is row-independent and
    climbing draws no random numbers, so the result is that of the climbs
    run one after another: the first maximum in climb order.

    A sweep that has passed q free vertices since a climb last accepted
    scores the batches of the next q vertices in one call (a window), while
    they fit in one scorer block and _WINDOW gathered entries, about one
    call's fixed cost.  The batches are walked in vertex order, and those
    after the first vertex at which a climb accepts are dropped and scored
    again from the new maps.  The walked batches are those one call a
    vertex scores, so are the ratios and counts.

    Plans whose sides are sums joined by sums sweep by deltas instead
    (`_Delta`, `_delta_sweep`): a candidate is decided from bounds on its
    ratio wherever they settle it, and scored in full where they do not,
    so every decision, count and ratio is the one full scoring makes."""
    if restarts < 0 or steps < 0:
        raise SearchError(f"restarts and steps must be >= 0, got {restarts} and {steps}")
    n = problem.target.n
    rng = np.random.default_rng(seed)
    score = _Scorer(problem)
    delta = _Delta.of(score)
    cols, start = score.free, score.start
    group = max(1, score.rows // n)
    best_ratio, best_row = -math.inf, None
    evaluations = feasible = 0
    for first in range(0, restarts + 1, group):
        # the group's climbs are the columns of A, so a vertex's points are
        # one row
        A = np.repeat(start[:, None], min(group, restarts + 1 - first), axis=1)
        drawn = A[:, 1 if first == 0 else 0:]
        drawn[cols] = rng.integers(n, size=(drawn.shape[1], len(cols))).T
        current = [-math.inf if math.isnan(r) else r for r in score(A).tolist()]
        evaluations += len(current)
        feasible += sum(r > -math.inf for r in current)
        if delta is not None:
            LH = delta.based(score.sides)
        active = range(len(current))
        for _ in range(steps):
            improved = set()
            if delta is None:
                counts = _window_sweep(score, A, cols, active, current, improved)
            else:
                counts = _delta_sweep(score, delta, A, cols, active, current,
                                      improved, LH)
            evaluations += counts[0]
            feasible += counts[1]
            active = [j for j in active if j in improved]
            if not active:
                break
        for r, a in zip(current, A.T):
            if r > best_ratio:
                best_ratio, best_row = r, a
    best = NO_FEASIBLE if best_row is None else score.result(best_row, best_ratio)
    return dataclasses.replace(best, evaluations=evaluations,
                               feasible_evaluations=feasible)
