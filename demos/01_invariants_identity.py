"""Metric invariants of trees, evaluated on identity maps.

The umbel and fork cotype functionals measure how strongly a tree resists
being flattened.  On the identity map every scale contributes the same
amount, so the k-scale ratio comes out at exactly 2 (k-1)^(1/p).
"""

import umbellab as U

# the worked values of the directed random walk on bin:h=2: one term
# E[d(f(W_t), f(W~_t(t - 2^s)))^q] of Markov convexity on the identity map
f = U.TreeMap.identity(U.parse_tree_spec("bin:h=2"))
for s, t, q in ((0, 1, 1), (1, 2, 2)):
    print(f"markov pair expectation on bin:h=2 at s={s}, t={t}, q={q}: "
          f"E = {U.markov_pair_expectation_exact(f, s, t, q):g}")
print()

for k in (2, 3):
    for p in (1.0, 2.0):
        spec = U.parse_tree_spec(f"inc:h={2 ** k},b={2 ** k + 2}")
        rep = U.report(U.InvariantId.UMBEL_COTYPE, U.TreeMap.identity(spec), p)
        print(f"umbel cotype  k={k} p={p}: ratio_root={rep.ratio_root:.12f} "
              f"(expected {2 * (k - 1) ** (1 / p):.12f})")

for k in (2, 3):
    spec = U.parse_tree_spec(f"bin:h={2 ** k}")
    rep = U.report(U.InvariantId.FORK_COTYPE, U.TreeMap.identity(spec), 2.0)
    print(f"fork cotype   k={k} q=2: ratio_root={rep.ratio_root:.12f}")

# the directed random-walk functional and tessera are sums over
# (depth, depth, lcp) classes: both grow with the number of scales, and the
# class plans run them up to bin:h=16 (tessera needs height >= 4)
print()
print("sum sides on binary trees, ratio_root at p=2:")
for k in (1, 2, 3, 4):
    f = U.TreeMap.identity(U.parse_tree_spec(f"bin:h={2 ** k}"))
    markov = U.report(U.InvariantId.MARKOV_DIRECTED, f, 2.0).ratio_root
    tessera = U.report(U.InvariantId.TESSERA, f, 2.0).ratio_root if k >= 2 else None
    print(f"  k={k}: markov-directed {markov:.6f}"
          + (f"  tessera {tessera:.6f}" if tessera else ""))
