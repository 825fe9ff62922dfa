"""Extremal-constant search: maximize lhs/rhs of a tree functional over
assignments of tree vertices to points of a finite target space.

Assignments are int arrays in vertex order, scored in batches through the
functional's compiled plans (invariants.table_sides)."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .invariants import (InvariantId, InvariantReport, TreeMap, compile_plan,
                         report, table_sides)
from .spaces import FiniteMatrixSpace, is_int
from .trees import TreeSpec, Vertex, tree_graph, vertices

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
        verts = set(vertices(self.spec))
        for v, pt in self.pins.items():
            # (1.0,) == (1,): float labels would pass the membership test
            if not (isinstance(v, tuple) and all(map(is_int, v)) and v in verts):
                raise SearchError(f"pinned vertex {v!r} not in the tree")
            if not self.target.has_points([pt]):
                raise SearchError(f"pinned point {pt!r} is not an index of the target")

    def free_vertices(self) -> list[Vertex]:
        return [v for v in vertices(self.spec) if v not in self.pins]


def pins_from_json(obj) -> dict:
    """Pins {vertex: point} from a document {"pins": [[[label, ...], point],
    ...]}; SearchProblem validates them against the tree and the target."""
    try:
        return {tuple(v): pt for v, pt in obj["pins"]}
    except (TypeError, ValueError, KeyError) as exc:
        raise SearchError('pins must be {"pins": [[[label, ...], point], ...]}') from exc


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
            obj["assignment"] = [[list(v), p] for v, p in
                                 sorted(self.best_map.assignment.items(),
                                        key=lambda kv: (len(kv[0]), kv[0]))]
        return json.dumps(obj, allow_nan=False)


NO_FEASIBLE = SearchResult(False, None, -math.inf)


class _Scorer:
    """lhs/rhs ratios of batches of assignment arrays (rows of A), nan where
    rhs <= 0."""

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        self.index = tree_graph(problem.spec)[1]
        self.verts = list(self.index)
        pairs = sum(len(compile_plan(problem.invariant, problem.spec, side).u)
                    for side in ("lhs", "rhs"))
        self.rows = max(1, _BATCH // pairs)

    def __call__(self, A: np.ndarray) -> np.ndarray:
        pr = self.problem
        out = np.empty(len(A))
        for lo in range(0, len(A), self.rows):
            left, right = table_sides(pr.invariant, pr.spec, pr.target,
                                      A[lo:lo + self.rows], pr.exponent)
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
    for v in vertices(problem.spec):
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
    The first start is the canonical pin-propagated map; later starts draw
    the free vertices uniformly.

    The n reassignments of one vertex differ from the current map only at
    that vertex, so they are scored in one batch and then accepted in point
    order, each when it beats the current ratio by more than 1e-15."""
    free = problem.free_vertices()
    n = problem.target.n
    rng = np.random.default_rng(seed)
    score = _Scorer(problem)
    cols = [score.index[v] for v in free]
    best = NO_FEASIBLE
    evaluations = feasible = 0

    def climb(a: np.ndarray) -> None:
        nonlocal best, evaluations, feasible
        r = float(score(a[None])[0])
        evaluations += 1
        current = None if math.isnan(r) else r
        if current is not None:
            feasible += 1
            if current > best.best_ratio:
                best = score.result(a, current)
        for _ in range(steps):
            improved = False
            for i in cols:
                candidates = np.repeat(a[None], n, axis=0)
                candidates[:, i] = np.arange(n)
                ratios = score(candidates).tolist()
                old = int(a[i])
                for pt, r in enumerate(ratios):
                    if pt == old:
                        continue
                    evaluations += 1
                    if math.isnan(r):
                        continue
                    feasible += 1
                    if current is None or r > current + 1e-15:
                        current = r
                        old = pt
                        improved = True
                a[i] = old
            if current is not None and current > best.best_ratio:
                best = score.result(a, current)
            if not improved:
                break

    climb(score.array(canonical_start(problem)))
    for _ in range(restarts):
        assignment = dict(problem.pins)
        for v in free:
            assignment[v] = int(rng.integers(n))
        climb(score.array(assignment))
    return dataclasses.replace(best, evaluations=evaluations,
                               feasible_evaluations=feasible)


def identity_report(spec: TreeSpec, invariant: InvariantId,
                    p: float) -> InvariantReport:
    """Invariant report for the identity map (the tree in its own path metric)."""
    return report(invariant, TreeMap.identity(spec), p)
