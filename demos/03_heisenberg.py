"""Heisenberg group quasi-metrics and the parallelogram inequality.

Points are pairs (x, s) with x horizontal and s vertical; the group law
twists the vertical coordinate by the symplectic area form.  The library
computes on rows (x, s): `h_mul_rows` multiplies, `h_dilate_rows` dilates
and `koranyi_norm_rows` takes the Koranyi-type norm.
"""

import numpy as np

import umbellab as U
from umbellab.spaces import h_dilate_rows, h_mul_rows, koranyi_norm_rows

hs = U.HeisenbergMetricSpace(U.standard_symplectic(2), p=2.0)
a = np.array([1.0, 0.0, 0.0])
b = np.array([0.0, 1.0, 0.0])
ab = h_mul_rows(hs, a, b)
ba = h_mul_rows(hs, b, a)
print(f"a*b vertical part: {ab[-1]:+.3f}, b*a vertical part: {ba[-1]:+.3f} "
      "(non-commutative)")

n = koranyi_norm_rows(ab, 2.0, 1.0)
print(f"Koranyi-type norm of a*b at p=2: {n:.6f}")
print(f"after dilation by 3: {koranyi_norm_rows(h_dilate_rows(3.0, ab), 2.0, 1.0):.6f} "
      f"(= 3x, homogeneous)")

K, lam = U.parallelogram_constants(2.0, 1.0)
print(f"parallelogram constants at p=2, C=1: K={K:.6f}, lambda={lam:.6f}")

cfg = U.InequalityConfig(exponent=2.0, C=1.0)
rep = U.certify(hs, U.InequalityId.HEISENBERG_PARALLELOGRAM, cfg,
                U.ball_sampler(hs, U.InequalityId.HEISENBERG_PARALLELOGRAM),
                n=20_000, seed=5)
print(f"parallelogram campaign: {rep.violations} violations in {rep.n} pairs")

est = U.quasi_constant_estimate(hs, n=5_000, seed=2)
print(f"observed quasi-triangle constant: {est:.4f} "
      f"(declared bound {hs.quasi_constant})")
