"""Extremal-ratio search over tree maps, and lifting through oracles.

Search maximizes lhs/rhs of an invariant over all assignments of tree
vertices to points of a finite metric space, subject to pinned vertices.
"""

import time

import numpy as np

import umbellab as U

mat = np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float)
prob = U.SearchProblem(spec=U.parse_tree_spec("bin:h=2"),
                       target=U.FiniteMatrixSpace(mat),
                       invariant=U.InvariantId.MARKOV_DIRECTED,
                       exponent=2.0, pins={(): 0})

best = U.exhaustive_max(prob)
print(f"exhaustive optimum: ratio {best.best_ratio:.6f}")
local = U.local_search_max(prob, restarts=8, steps=300, seed=0)
print(f"local search:       ratio {local.best_ratio:.6f}")

# the four binary ids on bin:h=8 into a 6-point l2 table, root pinned to
# point 0 (README, "Extremal search and K fits")
pts = np.random.default_rng(0).normal(size=(6, 3))
net = U.FiniteMatrixSpace(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)))
for inv in (U.InvariantId.MARKOV_DIRECTED, U.InvariantId.FORK_CONVEXITY,
            U.InvariantId.FORK_COTYPE, U.InvariantId.TESSERA):
    prob8 = U.SearchProblem(U.parse_tree_spec("bin:h=8"), net, inv, 2.0, {(): 0})
    start = time.perf_counter()
    found = U.local_search_max(prob8, restarts=2, steps=2, seed=0)
    print(f"bin:h=8 {inv.value:16s} best ratio {found.best_ratio:.6f}, "
          f"{found.evaluations} evaluations, {time.perf_counter() - start:.2f} s")

# lifting a tree map through a quotient-like oracle
rng = np.random.default_rng(1)
pts = tuple(tuple(x) for x in rng.uniform(-1, 1, (20, 2)))
oracle = U.QuotientOracle(U.LpSpace(2, 2.0), pts,
                          U.LpSpace(2, 2.0), pts, C=2.0, K=0.05)
spec = U.parse_tree_spec("bin:h=2")
assign = {}
for v in U.vertices(spec):
    i = int(rng.integers(0, len(pts)))
    assign[v] = tuple(np.asarray(pts[i]) + rng.uniform(-0.02, 0.02, 2))
g = U.TreeMap(spec, oracle.target_space, assign)
h = U.lift_map(g, oracle)
print(f"lift verified: {U.verify_lift(g, h, oracle)}")
