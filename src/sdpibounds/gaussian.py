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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from .probability import JointDistribution, _require_integer

# Quantizer levels are evenly spaced on [-_SPAN, _SPAN] standard deviations.
# Cells at the quantizer's ends extend to _TAIL standard deviations; the mass
# beyond it is ~1e-32, far below every tolerance in the package.
_SPAN = 4.0
_TAIL = 12.0
_QUAD_NODES = 40

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _check_rho(rho: float) -> None:
    if not (np.isfinite(rho) and abs(rho) < 1.0):
        raise ValueError(f"need |rho| < 1, got {rho!r}")


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal cdf, 1/2 erfc(-x / sqrt 2), one math.erfc call per entry."""
    return 0.5 * _ERFC(-x / math.sqrt(2.0)).astype(np.float64)


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
    return 0.5 * float(np.log2((1.0 - r2) * beta(p) / (2.0 * p.dx * p.dy)))


def contour_rx(p: GaussianParams, ry: float) -> float:
    """Minimal rx meeting the dx target when the other terminal spends ry."""
    if not (np.isfinite(ry) and ry >= 0.0):
        raise ValueError(f"the other terminal's rate must be finite and >= 0, got {ry!r}")
    r2 = p.rho * p.rho
    return max(0.0, 0.5 * float(np.log2((1.0 - r2 + r2 * 4.0 ** (-ry)) / p.dx)))


def contour_ry(p: GaussianParams, rx: float) -> float:
    """Mirror image of contour_rx for the other terminal."""
    return contour_rx(GaussianParams(p.rho, p.dy, p.dx), rx)


def linearized_bounds(p: GaussianParams) -> tuple[float, float]:
    """Right-hand sides of the two linear coupled-rate constraints.

    The linear constraint rx + rho^2 * ry >= 0.5*log2(1/dx) supports the
    exact contour: it touches it at ry = 0 (same value, same slope) and
    stays below it everywhere else.
    """
    return (
        0.5 * float(np.log2(1.0 / p.dx)),
        0.5 * float(np.log2(1.0 / p.dy)),
    )


def simple_sum_bound(p: GaussianParams) -> float:
    """Sum-rate outer bound from the two linear constraints combined."""
    bx, by = linearized_bounds(p)
    return (bx + by) / (1.0 + p.rho * p.rho)


def cooperative_bound(p: GaussianParams) -> float:
    """Sum rate needed even if the two encoders could fully cooperate."""
    r2 = p.rho * p.rho
    return max(0.0, 0.5 * float(np.log2((1.0 - r2) / (p.dx * p.dy))))


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
    = [-4, 4]; the outer cells absorb the tails.  Cell masses come from
    Gauss-Legendre quadrature of the conditional normal cdf across each
    x-cell, accurate to ~1e-13, then one overall renormalization.
    """
    _check_rho(rho)
    if _require_integer(levels, "levels") < 2:
        raise ValueError("levels must be >= 2")
    centers = np.linspace(-_SPAN, _SPAN, levels)
    mids = 0.5 * (centers[:-1] + centers[1:])
    edges = np.concatenate([[-_TAIL], mids, [_TAIL]])
    nodes, weights = leggauss(_QUAD_NODES)
    s = float(np.sqrt(1.0 - rho * rho))
    mass = np.empty((levels, levels))
    for i in range(levels):
        a, b = edges[i], edges[i + 1]
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        w = 0.5 * (b - a) * weights * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
        cdf = _normal_cdf((edges[:, None] - rho * t[None, :]) / s)
        mass[i] = ((cdf[1:] - cdf[:-1]) * w[None, :]).sum(axis=1)
    mass /= mass.sum()
    return JointDistribution(mass)
