"""Randomized certification of pointwise metric inequalities.

The tripod inequality holds in Hilbert space with K = 1 but fails on the
unit star graph: three legs of length one glued at a hub.  The alpha_k of
the non-negative curvature characterisation are 2 on a Hilbert space and
leave 2 on lp spaces with p != 2.  The convexity moduli delta, the tripod
delta~ and the (beta) surrogate come from one search over circle grids.
"""

import numpy as np

import umbellab as U

L2 = U.LpSpace(3, 2.0)
cfg = U.InequalityConfig(exponent=2.0, K=1.0)

rep = U.certify(L2, U.InequalityId.Q_TRIPOD, cfg,
                U.ball_sampler(L2, U.InequalityId.Q_TRIPOD),
                n=20_000, seed=7)
print(f"tripod on R^3: {rep.violations} violations in {rep.n} samples, "
      f"worst margin {rep.worst_margin:.6f}")

star = U.FiniteMatrixSpace(np.array([
    [0.0, 2.0, 2.0, 1.0],
    [2.0, 0.0, 2.0, 1.0],
    [2.0, 2.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 0.0]]))
check = U.check_inequality(U.InequalityId.Q_TRIPOD, cfg, (0, 1, 2, 3), star)
print(f"tripod on the unit star: holds={check.holds}, margin={check.margin}")

# the least K certifying the inequality on a sample, solved in one pass over
# its margins and checked on the margin parts that pass keeps
sampler = U.ball_sampler(L2, U.InequalityId.Q_TRIPOD)
K = U.min_feasible_K(L2, U.InequalityId.Q_TRIPOD, cfg, sampler,
                     n=5_000, seed=7, bracket=(0.25, 16.0))
print(f"least feasible K on R^3 sample: {K:.6f}")

# the self-improvement constant for the umbel inequality
print(f"solve_umbel_K(p=2, c=1) = {U.solve_umbel_K(2.0, 1.0):.9f}")

# alpha_k d(z_k,m)^2 = d(z_k,x)^2 + d(z_k,y)^2 - d(x,y)^2/2 at the midpoint m
# of x and y, with z_k = m + (z - m) / 2^k, over seeded midpoint draws
MID = U.InequalityId.MIDPOINT_CURVATURE
print()
print("alpha_k, k = 0..10, over 2000 midpoint draws (seed 1):")
for name in ("l2:dim=3", "lp:p=1.5,dim=3", "lp:p=3,dim=3", "lp:p=4,dim=3"):
    space = U.parse_space(name)
    pts = U.ball_sampler(space, MID)(np.random.default_rng(1), 2000)
    alpha = U.alpha_rows(space, pts, 10)
    print(f"  {name}: min {alpha.min():.6f}, max {alpha.max():.6f}")

# the moduli at their default grids, beta with pairs (m = 2) on the 12-point
# grid; the l4 beta column is not monotone in t (ROADMAP item 6)
print()
print("convexity moduli on lp:p=2,dim=2 and lp:p=4,dim=2:")
MODULI = [(U.modulus_delta, (0.5, 1.0, 1.5), {}),
          (U.modulus_delta_tilde, (0.5, 1.0, 1.5), {}),
          (U.modulus_beta, (0.1, 0.2, 0.3, 0.4), {"m": 2, "grid": 12})]
for modulus, args, kwargs in MODULI:
    for arg in args:
        values = [modulus(U.parse_space(f"lp:p={p},dim=2"), arg, **kwargs).value
                  for p in (2, 4)]
        print(f"  {modulus.__name__}({arg:g}): " + " ".join(f"{v:.6g}" for v in values))
