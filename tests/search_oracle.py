"""The sequential hill climb that `umbellab.search.local_search_max` ran
before its climbs moved in lockstep: one climb after another, one scorer
call for each start and for the n reassignments of each free vertex.  It
serves as the test oracle for the lockstep climbs; nothing in the library
imports it."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from umbellab.search import NO_FEASIBLE, SearchProblem, SearchResult, _Scorer


def sequential_local_search_max(problem: SearchProblem, restarts: int,
                                steps: int, seed: int) -> SearchResult:
    n = problem.target.n
    rng = np.random.default_rng(seed)
    score = _Scorer(problem)
    cols = score.free
    best = NO_FEASIBLE
    evaluations = feasible = 0

    def climb(a: np.ndarray) -> None:
        nonlocal best, evaluations, feasible
        r = float(score(a[:, None])[0])
        evaluations += 1
        current = None if math.isnan(r) else r
        if current is not None:
            feasible += 1
            if current > best.best_ratio:
                best = score.result(a, current)
        for _ in range(steps):
            improved = False
            for i in cols:
                candidates = np.repeat(a[:, None], n, axis=1)
                candidates[i] = np.arange(n)
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

    climb(score.start.copy())
    for _ in range(restarts):
        a = score.start.copy()
        for i in cols:
            a[i] = int(rng.integers(n))
        climb(a)
    return dataclasses.replace(best, evaluations=evaluations,
                               feasible_evaluations=feasible)
