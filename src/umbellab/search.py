"""Extremal-constant search: maximize lhs/rhs of a tree functional over
assignments of tree vertices to points of a finite target space.

Assignments are int arrays in vertex order, scored in batches through the
functional's two compiled plans, which the scorer holds."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .invariants import (InvariantId, TreeMap, _check_exponent, _divisors,
                         _join, _pow, _segments, compile_plan)
from .spaces import FiniteMatrixSpace, SpaceError, is_int
from .trees import TreeSpec, Vertex, tree_graph

_EXHAUSTIVE_BUDGET = 10 ** 7
_BATCH = 1 << 20  # gathered distances per scored batch
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
        index = tree_graph(self.spec).index
        for v, pt in self.pins.items():
            # (1.0,) == (1,): float labels would pass the membership test
            if not (isinstance(v, tuple) and all(map(is_int, v)) and v in index):
                raise SearchError(f"pinned vertex {v!r} not in the tree")
            try:
                self.target.rows([pt])
            except SpaceError as exc:
                raise SearchError(f"a pinned point: {exc}") from exc

    def free_vertices(self) -> list[Vertex]:
        return [v for v in tree_graph(self.spec).vertices if v not in self.pins]


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
    reduce them, so every ratio has `evaluate`'s bits."""

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        p = problem.exponent
        self.plans = tuple(compile_plan(problem.invariant, problem.spec, side)
                           for side in ("lhs", "rhs"))
        _check_exponent(p)
        self.divisors = [_divisors(plan, p) for plan in self.plans]
        graph = tree_graph(problem.spec)
        self.index, self.verts = graph.index, graph.vertices
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
        self.rows = max(1, _BATCH // len(self.u))

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, A: np.ndarray) -> np.ndarray:
        (lhs, rhs), (ldivs, rdivs), cut = self.plans, self.divisors, self.cut
        ltable, rtable = self.tables
        out = np.full(A.shape[1], np.nan)
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
        return out

    def array(self, assignment: dict) -> np.ndarray:
        return np.array([assignment[v] for v in self.verts], dtype=np.intp)

    def result(self, a: np.ndarray, ratio: float) -> SearchResult:
        return SearchResult(True, TreeMap(self.problem.spec, self.problem.target,
                                          dict(zip(self.verts, a.tolist()))),
                            ratio)


def exhaustive_max(problem: SearchProblem,
                   budget: int = _EXHAUSTIVE_BUDGET) -> SearchResult:
    """Global maximum of lhs/rhs over all assignments of the free vertices,
    the first maximum in itertools.product order."""
    if budget < 0:
        raise SearchError(f"the budget must be >= 0, got {budget}")
    free = problem.free_vertices()
    n = problem.target.n
    total = n ** len(free)
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed the exhaustive budget")
    score = _Scorer(problem)
    base = score.array(canonical_start(problem))  # free columns are overwritten
    cols = [score.index[v] for v in free]
    best, feasible = NO_FEASIBLE, 0
    for lo in range(0, total, score.rows):
        combos = np.arange(lo, min(lo + score.rows, total))
        A = np.repeat(base[:, None], len(combos), axis=1)  # one column a row
        if cols:
            A[cols] = np.unravel_index(combos, (n,) * len(cols))
        ratios = score(A)
        ok = ~np.isnan(ratios)
        feasible += int(ok.sum())
        if ok.any():
            i = int(np.argmax(np.where(ok, ratios, -math.inf)))
            if ratios[i] > best.best_ratio:
                best = score.result(A[:, i], float(ratios[i]))
    return dataclasses.replace(best, evaluations=total,
                               feasible_evaluations=feasible)


def canonical_start(problem: SearchProblem) -> dict:
    """Default start: propagate each pinned image down to unpinned
    descendants (root defaults to point 0)."""
    assignment = {}
    for v in tree_graph(problem.spec).vertices:
        if v in problem.pins:
            assignment[v] = problem.pins[v]
        elif v:
            assignment[v] = assignment[v[:-1]]
        else:
            assignment[v] = 0
    return assignment


def _accept(ratios: list, lo: int, n: int, active, row: list, current: list,
            improved: set) -> tuple[int, int, bool]:
    """One free vertex's acceptances.  From ratios[lo] on, each active climb
    j has its n candidates in point order; it accepts each one, in order,
    that beats current[j] by more than 1e-15 (any ratio when current[j] is
    None: no ratio is -inf), and row[j] and current[j] follow.  Its own
    point is skipped until it moves.  Returns the candidates compared, how
    many of them have a ratio, and whether any climb accepted."""
    skipped = nans = 0
    accepted = False
    for j in active:
        old, r_now = row[j], current[j]
        bar = -math.inf if r_now is None else r_now + 1e-15
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


def local_search_max(problem: SearchProblem, restarts: int, steps: int,
                     seed: int) -> SearchResult:
    """Hill-climbing over single-vertex reassignments with random restarts.
    The first climb starts from the canonical pin-propagated map; each
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
    vertex scores, so are the ratios and counts."""
    if restarts < 0 or steps < 0:
        raise SearchError(f"restarts and steps must be >= 0, got {restarts} and {steps}")
    free = problem.free_vertices()
    n = problem.target.n
    rng = np.random.default_rng(seed)
    score = _Scorer(problem)
    cols = [score.index[v] for v in free]
    start = score.array(canonical_start(problem))
    group = max(1, score.rows // n)
    best_ratio, best_row = -math.inf, None
    evaluations = feasible = 0
    for first in range(0, restarts + 1, group):
        # the group's climbs are the columns of A, so a vertex's points are
        # one row
        A = np.repeat(start[:, None], min(group, restarts + 1 - first), axis=1)
        drawn = A[:, 1 if first == 0 else 0:]
        drawn[cols] = rng.integers(n, size=(drawn.shape[1], len(cols))).T
        current = [None if math.isnan(r) else r for r in score(A).tolist()]
        evaluations += len(current)
        feasible += sum(r is not None for r in current)
        active = range(len(current))
        points = np.tile(np.arange(n), len(current))
        for _ in range(steps):
            improved = set()
            m = len(active) * n  # a vertex's candidates
            most = max(1, min(score.rows // m, _WINDOW // (m * len(score.u))))
            ratios, lo, quiet = [], 0, 0
            for s, i in enumerate(cols):
                if lo == len(ratios):  # score the next window
                    window = cols[s:s + min(max(quiet, 1), most)]
                    climbs = A if len(active) == A.shape[1] else A[:, active]
                    candidates = climbs.repeat(n, axis=1)
                    if len(window) == 1:
                        candidates[i] = points[:m]
                    else:  # each vertex's candidates, side by side
                        candidates = np.tile(candidates, len(window))
                        candidates.reshape(len(candidates), len(window), m)[
                            window, range(len(window))] = points[:m]
                    ratios, lo = score(candidates).tolist(), 0
                row = A[i].tolist()
                compared, ok, accepted = _accept(ratios, lo, n, active, row,
                                                 current, improved)
                evaluations += compared
                feasible += ok
                A[i] = row
                if accepted:  # the rest of the window is stale
                    ratios, lo, quiet = [], 0, 0
                else:
                    lo += m
                    quiet += 1
            active = [j for j in active if j in improved]
            if not active:
                break
        for r, a in zip(current, A.T):
            if r is not None and r > best_ratio:
                best_ratio, best_row = r, a
    best = NO_FEASIBLE if best_row is None else score.result(best_row, best_ratio)
    return dataclasses.replace(best, evaluations=evaluations,
                               feasible_evaluations=feasible)
