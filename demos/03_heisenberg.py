"""Heisenberg group quasi-metrics and the parallelogram inequality.

Points are pairs (x, s) with x horizontal and s vertical; the group law
twists the vertical coordinate by the symplectic area form.
"""

import umbellab as U

h = U.standard_symplectic(2)
a = U.HPoint((1.0, 0.0), 0.0)
b = U.HPoint((0.0, 1.0), 0.0)
ab = U.h_mul(h, a, b)
ba = U.h_mul(h, b, a)
print(f"a*b vertical part: {ab.s:+.3f}, b*a vertical part: {ba.s:+.3f} "
      "(non-commutative)")

n = U.koranyi_norm(h, ab, 2.0, 1.0)
print(f"Koranyi-type norm of a*b at p=2: {n:.6f}")
print(f"after dilation by 3: {U.koranyi_norm(h, U.h_dilate(3.0, ab), 2.0, 1.0):.6f} "
      f"(= 3x, homogeneous)")

K, lam = U.parallelogram_constants(2.0, 1.0)
print(f"parallelogram constants at p=2, C=1: K={K:.6f}, lambda={lam:.6f}")

hs = U.HeisenbergMetricSpace(h, p=2.0)
cfg = U.InequalityConfig(exponent=2.0, C=1.0)
rep = U.certify(hs, U.InequalityId.HEISENBERG_PARALLELOGRAM, cfg,
                U.ball_sampler(hs, U.InequalityId.HEISENBERG_PARALLELOGRAM),
                n=20_000, seed=5)
print(f"parallelogram campaign: {rep.violations} violations in {rep.n} pairs")

est = U.quasi_constant_estimate(hs, n=5_000, seed=2)
print(f"observed quasi-triangle constant: {est:.4f} "
      f"(declared bound {hs.quasi_constant})")
