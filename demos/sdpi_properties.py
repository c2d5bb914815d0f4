"""Structural properties of the contraction constant, checked numerically.

Three experiments: the constant survives taking i.i.d. products, it can only
shrink under further processing, and discretized bivariate Gaussians
approach the rho^2 value as the quantizer refines.
"""

import numpy as np

from sdpibounds import (
    Channel,
    JointDistribution,
    gaussian_rho_star,
    maximal_correlation,
    quantized_gaussian_joint,
    sstar,
    tensor_product,
    verify_sdpi_inequality,
)

rng = np.random.default_rng(7)

# 1. tensorization: s*(X;Y) = s*(XX';YY') for an independent copy
j = JointDistribution(np.array([[0.4, 0.1], [0.15, 0.35]]))
single = sstar(j, "x_to_y")
double = sstar(tensor_product(j, j), "x_to_y")
print("tensorization: single letter", round(single.value, 6),
      "two letters", round(double.value, 6),
      "gap", f"{abs(single.value - double.value):.1e}")

# 2. post-processing Y through a noisy map cannot raise the constant
noise = rng.dirichlet(np.ones(3), size=2)
degraded = JointDistribution(j.probs @ noise)
s2 = sstar(degraded, "x_to_y")
print("degradation: s* before", round(single.value, 6),
      "after a noisy 2->3 map", round(s2.value, 6))

# 3. the inequality the constant certifies, spot-checked on random chains
worst = -np.inf
for _ in range(200):
    u = Channel(rng.dirichlet(np.ones(2), size=2))
    lhs, rhs, holds = verify_sdpi_inequality(j, u, single.value)
    worst = max(worst, lhs - rhs)
    assert holds
print("I(Y;U) <= s* I(X;U) on 200 random chains; worst slack", f"{-worst:.1e}")

# 4. quantized standard bivariate Gaussians, correlation 1/2
print("quantized Gaussian, target rho^2 =", gaussian_rho_star(0.5))
for levels in (5, 9, 17, 33):
    jq = quantized_gaussian_joint(0.5, levels)
    est = sstar(jq, "x_to_y").value
    print(f"  {levels:3d} levels: s* = {est:.6f}   rho_m = {maximal_correlation(jq):.6f}")
