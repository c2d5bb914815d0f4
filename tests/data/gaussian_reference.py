"""Write gaussian_reference.json: 40-digit cell masses of the quantized
Gaussian pair, the law quantized_gaussian_joint approximates.

Each cell is the exact bivariate normal mass of its rectangle, with the
quantizer's float64 edges and rho taken as exact binary numbers, divided
by the total mass of [-12, 12]^2: Gauss-Legendre quadrature at 50 digits
across the x-cell, split geometrically toward both ends, of the
conditional normal mass of the y-cell.  Every cell is integrated on its
own, so a transpose, which integrates across the other cell, checks it:
the script stops unless each pair agrees to 1e-45 relative.
Needs mpmath (1.3.0 wrote the committed table); the tests only read the
JSON.  Takes about ten minutes.  Run from the repository root:

    python tests/data/gaussian_reference.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

RHOS = (-0.7, 0.2, 0.9, 0.95)
LEVELS = (2, 5, 9, 17)
DIGITS = 40
mp.mp.dps = 50
# Split points of each x-cell, as fractions of its width.
SPLITS = (0, 1 / 64, 1 / 16, 1 / 4, 1 / 2, 3 / 4, 15 / 16, 63 / 64, 1)


def edges(levels):
    """The quantizer's cell edges, computed as it computes them."""
    centers = np.linspace(-4.0, 4.0, levels)
    mids = 0.5 * (centers[:-1] + centers[1:])
    return [mp.mpf(float(e)) for e in np.concatenate([[-12.0], mids, [12.0]])]


def upper_tail(x):
    return mp.erfc(x / mp.sqrt(2)) / 2


def interval_mass(lo, hi):
    """P(lo < Z < hi) for a standard normal Z, from the smaller tails."""
    if lo >= 0:
        return upper_tail(lo) - upper_tail(hi)
    if hi <= 0:
        return upper_tail(-hi) - upper_tail(-lo)
    return 1 - upper_tail(-lo) - upper_tail(hi)


def cell(rho, s, xa, xb, ya, yb):
    def integrand(t):
        return mp.npdf(t) * interval_mass((ya - rho * t) / s, (yb - rho * t) / s)

    # mpmath's quadrature error is absolute: scale the integrand to order 1.
    points = [xa + (xb - xa) * mp.mpf(u) for u in SPLITS]
    scale = max(integrand(t) for t in points)
    return scale * mp.quad(lambda t: integrand(t) / scale, points, method="gauss-legendre")


def table(rho, levels):
    e = edges(levels)
    r = mp.mpf(rho)
    s = mp.sqrt(1 - r * r)
    mass = [[cell(r, s, e[i], e[i + 1], e[j], e[j + 1]) for j in range(levels)]
            for i in range(levels)]
    for i in range(levels):
        for j in range(i):
            assert abs(mass[i][j] - mass[j][i]) <= 1e-45 * mass[i][j], (rho, levels, i, j)
    total = mp.fsum(v for row in mass for v in row)
    return [mp.nstr(v / total, DIGITS, min_fixed=1, max_fixed=0)
            for row in mass for v in row]


def main():
    cases = [{"rho": rho, "levels": levels, "probs": table(rho, levels)}
             for levels in LEVELS for rho in RHOS]
    out = Path(__file__).with_suffix(".json")
    out.write_text(json.dumps({"digits": DIGITS, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    main()
