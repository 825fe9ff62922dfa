"""Extremal-constant search: maximize lhs/rhs of a tree functional over
assignments of tree vertices to points of a finite target space."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .invariants import (InvariantId, InvariantReport,
                         TreeMap, lhs, rhs, report)
from .spaces import FiniteMatrixSpace
from .trees import TreeSpec, Vertex, vertices

_EXHAUSTIVE_BUDGET = 10 ** 7


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
            if v not in verts:
                raise SearchError(f"pinned vertex {v} not in the tree")
            if not 0 <= pt < self.target.n:
                raise SearchError("pinned point out of range")

    def free_vertices(self) -> list[Vertex]:
        return [v for v in vertices(self.spec) if v not in self.pins]


@dataclass(frozen=True)
class SearchResult:
    feasible: bool
    best_map: Optional[TreeMap]
    best_ratio: float

    def to_json(self) -> str:
        ratio = self.best_ratio if math.isfinite(self.best_ratio) else None
        obj = {"feasible": self.feasible, "best_ratio": ratio}
        if self.best_map is not None:
            obj["assignment"] = [[list(v), p] for v, p in
                                 sorted(self.best_map.assignment.items(),
                                        key=lambda kv: (len(kv[0]), kv[0]))]
        return json.dumps(obj, allow_nan=False)


NO_FEASIBLE = SearchResult(False, None, -math.inf)


def _ratio(problem: SearchProblem, assignment: dict) -> Optional[float]:
    f = TreeMap(problem.spec, problem.target, assignment)
    denom = rhs(problem.invariant, f, problem.exponent)
    if denom <= 0:
        return None
    return lhs(problem.invariant, f, problem.exponent) / denom


def exhaustive_max(problem: SearchProblem,
                   budget: int = _EXHAUSTIVE_BUDGET) -> SearchResult:
    """Global maximum of lhs/rhs over all assignments of the free vertices."""
    free = problem.free_vertices()
    total = problem.target.n ** len(free)
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed the exhaustive budget")
    best = NO_FEASIBLE
    for combo in itertools.product(range(problem.target.n), repeat=len(free)):
        assignment = dict(problem.pins)
        assignment.update(zip(free, combo))
        r = _ratio(problem, assignment)
        if r is not None and r > best.best_ratio:
            best = SearchResult(True, TreeMap(problem.spec, problem.target,
                                              assignment), r)
    return best


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
    the free vertices uniformly."""
    free = problem.free_vertices()
    rng = np.random.default_rng(seed)
    best = NO_FEASIBLE

    def climb(assignment: dict) -> None:
        nonlocal best
        current = _ratio(problem, assignment)
        if current is not None and current > best.best_ratio:
            best = SearchResult(True, TreeMap(problem.spec, problem.target,
                                              dict(assignment)), current)
        for _ in range(steps):
            improved = False
            for v in free:
                old = assignment[v]
                for pt in range(problem.target.n):
                    if pt == old:
                        continue
                    assignment[v] = pt
                    r = _ratio(problem, assignment)
                    if r is not None and (current is None or r > current + 1e-15):
                        current = r
                        old = pt
                        improved = True
                    else:
                        assignment[v] = old
                assignment[v] = old
            if current is not None and current > best.best_ratio:
                best = SearchResult(True, TreeMap(problem.spec, problem.target,
                                                  dict(assignment)), current)
            if not improved:
                break

    climb(canonical_start(problem))
    for _ in range(restarts):
        assignment = dict(problem.pins)
        for v in free:
            assignment[v] = int(rng.integers(problem.target.n))
        climb(assignment)
    return best


def identity_report(spec: TreeSpec, invariant: InvariantId,
                    p: float) -> InvariantReport:
    """Invariant report for the identity map (the tree in its own path metric)."""
    return report(invariant, TreeMap.identity(spec), p)
