"""Extremal-constant search: maximize lhs/rhs of a tree functional over
assignments of tree vertices to points of a finite target space.

Assignments are int arrays in vertex order, scored in batches through the
functional's two compiled plans, which the scorer holds."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .invariants import (InvariantId, TreeMap, _check_exponent, compile_plan,
                         evaluate)
from .spaces import FiniteMatrixSpace, is_int
from .trees import TreeSpec, Vertex, tree_graph

_EXHAUSTIVE_BUDGET = 10 ** 7
_BATCH = 1 << 20  # gathered distances per scored batch


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
            if not self.target.has_points([pt]):
                raise SearchError(f"pinned point {pt!r} is not an index of the target")

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
    evaluations: int = 0           # assignments scored
    feasible_evaluations: int = 0  # of which rhs > 0

    def to_json(self) -> str:
        ratio = self.best_ratio if math.isfinite(self.best_ratio) else None
        obj = {"feasible": self.feasible, "best_ratio": ratio,
               "evaluations": self.evaluations,
               "feasible_evaluations": self.feasible_evaluations}
        if self.best_map is not None:
            obj["assignment"] = self.best_map.assignment_json()
        return json.dumps(obj, allow_nan=False)


NO_FEASIBLE = SearchResult(False, None, -math.inf)


class _Scorer:
    """lhs/rhs ratios of batches of assignment arrays (rows of A), nan where
    rhs <= 0.  The two plans are compiled, and the exponent checked, once."""

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        self.plans = tuple(compile_plan(problem.invariant, problem.spec, side)
                           for side in ("lhs", "rhs"))
        _check_exponent(problem.exponent)
        graph = tree_graph(problem.spec)
        self.index, self.verts = graph.index, graph.vertices
        self.rows = max(1, _BATCH // sum(len(plan.u) for plan in self.plans))

    def __call__(self, A: np.ndarray) -> np.ndarray:
        target, p = self.problem.target, self.problem.exponent
        out = np.empty(len(A))
        for lo in range(0, len(A), self.rows):
            block = A[lo:lo + self.rows]
            left, right = (evaluate(plan, target.distance_rows(block[:, plan.u],
                                                               block[:, plan.v]), p)
                           for plan in self.plans)
            ok = right > 0
            out[lo:lo + self.rows] = np.where(ok, left / np.where(ok, right, 1.0),
                                              np.nan)
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
    free = problem.free_vertices()
    n = problem.target.n
    total = n ** len(free)
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed the exhaustive budget")
    score = _Scorer(problem)
    base = score.array({**dict.fromkeys(score.verts, 0), **problem.pins})
    cols = [score.index[v] for v in free]
    best, feasible = NO_FEASIBLE, 0
    for lo in range(0, total, score.rows):
        combos = np.arange(lo, min(lo + score.rows, total))
        A = np.repeat(base[None], len(combos), axis=0)
        if cols:
            A[:, cols] = np.stack(np.unravel_index(combos, (n,) * len(cols)), axis=1)
        ratios = score(A)
        ok = ~np.isnan(ratios)
        feasible += int(ok.sum())
        if ok.any():
            i = int(np.argmax(np.where(ok, ratios, -math.inf)))
            if ratios[i] > best.best_ratio:
                best = score.result(A[i], float(ratios[i]))
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


def local_search_max(problem: SearchProblem, restarts: int, steps: int,
                     seed: int) -> SearchResult:
    """Hill-climbing over single-vertex reassignments with random restarts.
    The first climb starts from the canonical pin-propagated map; each
    restart draws the free vertices uniformly, in vertex order.

    The climbs run in lockstep, in groups of at most rows // n climbs whose
    starts are drawn just before the group climbs.  At each free vertex the
    n reassignments of every active climb differ from its map only at that
    vertex, so they are scored in one batch; each climb then accepts its
    candidates in point order, each when it beats its current ratio by more
    than 1e-15.  A climb leaves the group after a sweep that does not
    improve.  Scoring is row-independent and climbing draws no random
    numbers, so the result is that of the climbs run one after another: the
    first maximum in climb order."""
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
        A = np.repeat(start[None], min(group, restarts + 1 - first), axis=0)
        for a in A[1 if first == 0 else 0:]:
            a[cols] = [int(rng.integers(n)) for _ in cols]
        current = [None if math.isnan(r) else r for r in score(A).tolist()]
        evaluations += len(A)
        feasible += sum(r is not None for r in current)
        climb_best = [-math.inf if r is None else r for r in current]
        climb_rows = list(A.copy())
        active = range(len(A))
        points = np.tile(np.arange(n), len(A))
        for _ in range(steps):
            improved = set()
            for i in cols:
                candidates = np.repeat(A[active], n, axis=0)
                candidates[:, i] = points[:len(candidates)]
                ratios = score(candidates).tolist()
                for k, j in enumerate(active):
                    old, r_now = int(A[j, i]), current[j]
                    for pt, r in enumerate(ratios[k * n:(k + 1) * n]):
                        if pt == old:
                            continue
                        evaluations += 1
                        if math.isnan(r):
                            continue
                        feasible += 1
                        if r_now is None or r > r_now + 1e-15:
                            r_now = r
                            old = pt
                            improved.add(j)
                    A[j, i] = old
                    current[j] = r_now
            for j in active:
                if current[j] is not None and current[j] > climb_best[j]:
                    climb_best[j], climb_rows[j] = current[j], A[j].copy()
            active = [j for j in active if j in improved]
            if not active:
                break
        for r, a in zip(climb_best, climb_rows):
            if r > best_ratio:
                best_ratio, best_row = r, a
    best = NO_FEASIBLE if best_row is None else score.result(best_row, best_ratio)
    return dataclasses.replace(best, evaluations=evaluations,
                               feasible_evaluations=feasible)
