"""Explicit low-distortion tree embeddings and compression moduli.

The weighted prefix-sum embedding sends an increasing or binary tree into
l2 with distortion O(sqrt(log h)); the compression modulus rho and
expansion modulus omega bound how the embedding treats each tree scale.
On binary trees its ratios test the local invariants: Markov and fork
convexity, fork cotype and tessera.
"""

import math

import umbellab as U

for h in (2, 4, 8):
    spec = U.parse_tree_spec(f"inc:h={h},b={h + 2}")
    f = U.bourgain_embed(spec, p=2.0)
    lip, colip, dist = U.distortion(f)
    print(f"h={h}: lip={lip:.4f} colip={colip:.4f} distortion={dist:.4f} "
          f"(bound {4 * math.sqrt(math.log2(2 * h)):.4f})")

spec = U.parse_tree_spec("inc:h=8,b=10")
f = U.bourgain_embed(spec, p=2.0)
rho, omega = U.moduli(f)
print()
print("moduli of the h=8 embedding:")
for t in rho.breakpoints:
    print(f"  t={t:4.1f}  rho={rho(t):.4f}  omega={omega(t):.4f}")

I = U.compression_integral(rho, 2.0, 2.0 ** 2)
lhsv = U.lhs(U.InvariantId.UMBEL_COTYPE, f, 2.0)
bound = (2 ** 2 - 1) / 2 * lhsv * omega(1.0) ** 2
print(f"compression integral: {I:.6f} <= invariant bound {bound:.6f}")

print()
print("ratio_root of the binary ids on the embedding of bin:h=H, q = P = 2:")
ids = ("markov-directed", "fork-convexity", "fork-cotype", "tessera")
for h in (4, 8, 16):
    f = U.bourgain_embed(U.parse_tree_spec(f"bin:h={h}"), p=2.0)
    ratios = [U.report(U.InvariantId(inv), f, 2.0).ratio_root for inv in ids]
    print(f"  H={h}: " + ", ".join(f"{inv} {r:.4f}" for inv, r in zip(ids, ratios)))
