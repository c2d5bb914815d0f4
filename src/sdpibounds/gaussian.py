"""Closed forms for the jointly Gaussian pair with unit variances.

Everything is in bits and distortions are mean-square, normalized by the
source variance, so they live in (0, 1].  The exact two-terminal sum rate
has a known closed form; this module compares it against the two computable
outer bounds (the contraction-constant sum bound and the cooperative bound)
and emits the comparison as figure-ready rows.

For this source pair the contraction constant is exactly rho squared in
both directions, which is what makes the comparison a clean calibration
target for the discrete solver: quantized versions of the pair should
approach rho**2 as the quantizer refines.

quantized_gaussian_joint keeps the pair's two exact symmetries bit for bit:
its pmf equals its transpose and its 180-degree rotation, so both s*
directions are one problem.  It computes one cell per symmetry orbit, with
sum_i (levels + 1 - 2i) * 40 math.erfc calls (12,240 at 33 levels), each
cell a difference of small normal tails: every cell above 1e-30 lies within
1.5e-13 relative of a 40-digit reference, and none comes out 0.  The tails
of several rows of cells go through one vectorized pass (1 at 9 levels, 6
at 33), so numpy's per-call cost is paid per pass, not per row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from .probability import JointDistribution, _require_integer

# Quantizer levels are evenly spaced on [-_SPAN, _SPAN] standard deviations.
# Cells at the quantizer's ends extend to _TAIL standard deviations; the mass
# beyond it is ~1e-32, far below every tolerance in the package.  Quadrature
# across a tail cell covers only the _TAIL_WIDTH standard deviations next to
# its inner edge b: further out the normal density is below e^-32 of its
# value at b.
_SPAN = 4.0
_TAIL = 12.0
_TAIL_WIDTH = 8.0
_QUAD_NODES = 40
# The quantizer takes the normal tails of as many rows as fit _BATCH_PAIRS
# (row, edge) pairs, _QUAD_NODES tails each, in one _normal_cdf call.
_BATCH_PAIRS = 64


@lru_cache(maxsize=1)
def _legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: computed on
    first use, not at import, and shared by every quantizer call."""
    nodes, weights = leggauss(_QUAD_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _check_rho(rho: float) -> None:
    if not (np.isfinite(rho) and abs(rho) < 1.0):
        raise ValueError(f"need |rho| < 1, got {rho!r}")


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal cdf, 1/2 erfc(-x / sqrt 2), one math.erfc call per entry.

    The entries reach math.erfc through a memoryview, one float at a time:
    no list of them is built, and it is faster than tolist.
    """
    z = -x / math.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, memoryview(z.ravel())), np.float64, z.size)
    erfc *= 0.5
    return erfc.reshape(z.shape)


def _cdf_steps(x: np.ndarray) -> np.ndarray:
    """cdf(x[1:]) - cdf(x[:-1]), the normal cdf taken entry by entry.

    cdf(x) is [x >= 0] plus the signed smaller tail, and each part is
    differenced alone: two entries on one side of 0 subtract their small
    tails, never two values near 1.
    """
    upper = x >= 0.0
    signed = _normal_cdf(-np.abs(x))
    np.negative(signed, out=signed, where=upper)
    return (upper[1:] > upper[:-1]) + (signed[1:] - signed[:-1])


@dataclass(frozen=True)
class GaussianParams:
    """Correlation and the two normalized mean-square distortion targets."""

    rho: float
    dx: float
    dy: float

    def __post_init__(self):
        _check_rho(self.rho)
        for field in ("dx", "dy"):
            v = getattr(self, field)
            if not (np.isfinite(v) and 0.0 < v <= 1.0):
                raise ValueError(f"{field} must lie in (0,1], got {v!r}")


@dataclass(frozen=True)
class FigureRow:
    """One comparison row: exact sum rate vs the two outer bounds."""

    dx: float
    dy: float
    exact: float
    simple: float
    cooperative: float
    max_bound: float

    def __post_init__(self):
        vals = (self.dx, self.dy, self.exact, self.simple, self.cooperative, self.max_bound)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("FigureRow: non-finite entry")
        if self.max_bound != max(self.simple, self.cooperative):
            raise ValueError("FigureRow: max_bound is not the max of the two bounds")
        if self.max_bound > self.exact + 1e-9:
            raise ValueError(
                f"FigureRow: bound {self.max_bound!r} exceeds the exact rate {self.exact!r}"
            )

    def as_csv_row(self) -> list[float]:
        return [self.dx, self.dy, self.exact, self.simple, self.cooperative, self.max_bound]


def beta(p: GaussianParams) -> float:
    """Auxiliary root appearing in the exact sum-rate formula."""
    r2 = p.rho * p.rho
    return 1.0 + float(np.sqrt(1.0 + 4.0 * r2 * p.dx * p.dy / (1.0 - r2) ** 2))


def exact_sum_rate(p: GaussianParams) -> float:
    """Minimal achievable rx + ry meeting both distortion targets."""
    r2 = p.rho * p.rho
    # Logs of dx and dy apart: their product can underflow to 0.
    return 0.5 * float(np.log2((1.0 - r2) * beta(p) / 2.0) - np.log2(p.dx) - np.log2(p.dy))


def contour_rx(p: GaussianParams, ry: float) -> float:
    """Minimal rx meeting the dx target when the other terminal spends ry."""
    if not (np.isfinite(ry) and ry >= 0.0):
        raise ValueError(f"the other terminal's rate must be finite and >= 0, got {ry!r}")
    r2 = p.rho * p.rho
    return max(0.0, 0.5 * float(np.log2((1.0 - r2 + r2 * 4.0 ** (-ry)) / p.dx)))


def linearized_bounds(p: GaussianParams) -> tuple[float, float]:
    """Right-hand sides of the two linear coupled-rate constraints.

    The linear constraint rx + rho^2 * ry >= 0.5*log2(1/dx) supports the
    exact contour: it touches it at ry = 0 (same value, same slope) and
    stays below it everywhere else.  It takes -log2(dx), as 1/dx overflows
    at a subnormal dx; 0 - log2 keeps dx = 1 from giving -0.
    """
    return (
        0.5 * float(0.0 - np.log2(p.dx)),
        0.5 * float(0.0 - np.log2(p.dy)),
    )


def simple_sum_bound(p: GaussianParams) -> float:
    """Sum-rate outer bound from the two linear constraints combined."""
    bx, by = linearized_bounds(p)
    return (bx + by) / (1.0 + p.rho * p.rho)


def cooperative_bound(p: GaussianParams) -> float:
    """Sum rate needed even if the two encoders could fully cooperate."""
    r2 = p.rho * p.rho
    return max(0.0, 0.5 * float(np.log2(1.0 - r2) - np.log2(p.dx) - np.log2(p.dy)))


def gaussian_rho_star(rho: float) -> float:
    """Both contraction constants of the Gaussian pair equal rho squared."""
    _check_rho(rho)
    return rho * rho


def default_figure_grid() -> list[tuple[float, float]]:
    """Standard sweep: 60 equal-distortion points plus an equal-product arc."""
    diag = np.logspace(-3.0, 0.0, 60)
    arc = np.logspace(-2.0, 0.0, 20)
    grid = [(float(d), float(d)) for d in diag]
    grid += [(float(d), float(0.01 / d)) for d in arc]
    return grid


def figure_data(rho: float, grid=None) -> list[FigureRow]:
    """Comparison rows over a (dx, dy) grid, default or user supplied."""
    if grid is None:
        grid = default_figure_grid()
    rows = []
    for dx, dy in grid:
        p = GaussianParams(rho, float(dx), float(dy))
        simple = simple_sum_bound(p)
        coop = cooperative_bound(p)
        rows.append(
            FigureRow(
                dx=p.dx,
                dy=p.dy,
                exact=exact_sum_rate(p),
                simple=simple,
                cooperative=coop,
                max_bound=max(simple, coop),
            )
        )
    return rows


def rows_to_csv(rows, destination) -> None:
    """Write figure rows as CSV with 12 significant digits.

    destination may be a path or an open text stream.  Output is
    byte-stable for identical rows.
    """
    header = ["dx", "dy", "exact", "simple", "cooperative", "max_bound"]

    def _write(stream):
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" for v in row.as_csv_row()])

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(Path(destination), "w", newline="") as f:
            _write(f)


def quantized_gaussian_joint(rho: float, levels: int) -> JointDistribution:
    """Joint law of the Gaussian pair after nearest-level quantization.

    Both coordinates snap to `levels` points evenly spaced on [-_SPAN, _SPAN]
    = [-4, 4]; the outer cells absorb the tails.  A cell's mass is the
    Gauss-Legendre quadrature, across its x-cell, of the conditional normal
    probability of its y-cell, taken as a difference of the smaller normal
    tails so that no cell cancels to 0; then one overall renormalization.

    The pair is exchangeable and centrally symmetric, so only the cells with
    i <= j and i + j <= levels - 1 are computed and each is copied to its
    transpose and its 180-degree rotation: the result equals both bit for
    bit.  Row i needs the normal cdf at edges i .. levels - i only, which is
    sum_i (levels + 1 - 2i) * 40 math.erfc calls (12,240 at 33 levels).
    Consecutive rows share one _normal_cdf call while their (row, edge)
    pairs fit _BATCH_PAIRS = 64: one call at 9 levels, 2 at 17 and 6 at 33.
    The batch bounds the memory: at 33 levels the tracemalloc peak is 140
    KB, against 118 KB one row at a time and 511 KB for all tails at once
    (numpy 2.4).  Each row keeps its own quadrature matmul, so the result
    is the row-by-row loop's bit for bit.
    Against 40-digit references at 2 to 65 levels and |rho| up to 0.95,
    every cell above 1e-30 is within 1.5e-13 relative, and the smaller ones
    (down to 1e-127) within 4e-11; none comes out 0.
    """
    _check_rho(rho)
    if _require_integer(levels, "levels") < 2:
        raise ValueError("levels must be >= 2")
    centers = np.linspace(-_SPAN, _SPAN, levels)
    mids = 0.5 * (centers[:-1] + centers[1:])
    edges = np.concatenate([[-_TAIL], mids, [_TAIL]])
    nodes, weights = _legendre()
    s = float(np.sqrt(1.0 - rho * rho))
    # Row i of the fundamental domain integrates across x-cell [a, b] =
    # edges[i], edges[i + 1] at nodes t[i] with weights w[i].
    half = (levels + 1) // 2
    a, b = edges[:half, None], edges[1:half + 1, None]
    t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    w = 0.5 * (b - a) * weights
    # The tail cell is wide, and every integrand on it is at most the normal
    # density, which falls off steeply away from b: its nodes are packed
    # toward b, t = b - h d^2 for d in [0, 1].
    h = min(edges[1] - edges[0], _TAIL_WIDTH)
    d = 0.5 * (1.0 - nodes)
    t[0], w[0] = edges[1] - h * d * d, h * d * weights
    w = w * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    # Row i needs the cdf at edges i .. levels - i only: the (row, edge)
    # pairs start[i] .. end[i] - 1 of one list, with 40 nodes each.
    size = levels + 1 - 2 * np.arange(half)
    end = np.cumsum(size)
    start = end - size
    mass = np.empty((levels, levels))
    lo = 0
    while lo < half:
        # Rows lo .. hi - 1, as many as fit one batch (at least one row).
        hi = max(lo + 1, int(np.searchsorted(end, start[lo] + _BATCH_PAIRS, side="right")))
        r = np.repeat(np.arange(lo, hi), size[lo:hi])
        e = r + np.arange(start[lo], end[hi - 1]) - start[r]
        steps = _cdf_steps((edges[e, None] - rho * t[r]) / s)
        for i in range(lo, hi):
            # Differences across two rows' pairs are skipped.
            row = steps[start[i] - start[lo]:end[i] - start[lo] - 1] @ w[i]
            j = levels - 1 - i
            mass[i, i:j + 1] = mass[i:j + 1, i] = row
            mass[j, i:j + 1] = mass[i:j + 1, j] = row[::-1]
        lo = hi
    mass /= mass.sum()
    return JointDistribution(mass)
