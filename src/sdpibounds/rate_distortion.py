"""Rate-distortion functions for finite sources, in bits.

The workhorse is the classical alternating-minimization iteration for the
Lagrangian at a fixed slope, with the standard per-iteration optimality gap
(max over reproduction symbols of the log multiplier minus its average under
the updated output law) as the stopping rule.  Points at a target distortion
come from bisecting the slope.

Each returned point is achievable: the rate is the exact mutual information
of the test channel the iteration ends with, so a point can sit slightly
above the true curve but never below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import entr

from .errors import ConvergenceError, DimensionMismatchError, InfeasibleDistortionError
from .probability import LN2, Distribution, _mi_from_matrix, _sized_matrix

_LOG_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Per-pair distortion costs, sources on rows, reproductions on columns."""

    costs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.costs, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"DistortionMatrix: expected a nonempty matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("DistortionMatrix: non-finite costs")
        if float(arr.min()) < 0.0:
            raise ValueError(f"DistortionMatrix: negative cost {arr.min()!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "costs", arr)

    @property
    def x_size(self) -> int:
        return self.costs.shape[0]

    @property
    def xhat_size(self) -> int:
        return self.costs.shape[1]

    @property
    def zero_cost_coverage(self) -> bool:
        """True when every source symbol has some zero-cost reproduction.

        Without it the curve never reaches distortion 0.  Matrices without
        coverage are legal (the zero-rate end still exists); callers that
        need R(D) down to D=0 should check this flag.
        """
        return bool(np.all(self.costs.min(axis=1) == 0.0))

    @classmethod
    def hamming(cls, n: int) -> "DistortionMatrix":
        return cls(1.0 - np.eye(n))

    @classmethod
    def from_dict(cls, payload: dict) -> "DistortionMatrix":
        return cls(_sized_matrix(payload, "x_size", "xhat_size", "costs", "DistortionMatrix"))

    def to_dict(self) -> dict:
        return {
            "x_size": self.x_size,
            "xhat_size": self.xhat_size,
            "costs": [float(v) for v in self.costs.ravel()],
        }


@dataclass(frozen=True)
class RdPoint:
    """One achievable (distortion, rate) point and the slope that produced it."""

    distortion: float
    rate: float
    slope: float
    iterations: int

    def __post_init__(self):
        if not (np.isfinite(self.distortion) and self.distortion >= 0.0):
            raise ValueError(f"RdPoint: bad distortion {self.distortion!r}")
        if not (np.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"RdPoint: bad rate {self.rate!r}")
        if not (np.isfinite(self.slope) and self.slope <= 0.0):
            raise ValueError(f"RdPoint: bad slope {self.slope!r}")
        if self.iterations < 0:
            raise ValueError("RdPoint: negative iteration count")

    def to_dict(self) -> dict:
        return {
            "distortion": self.distortion,
            "rate": self.rate,
            "slope": self.slope,
            "iterations": self.iterations,
        }


@dataclass(frozen=True)
class RdCurve:
    """Points sorted by distortion, checked for monotonicity and convexity."""

    points: tuple[RdPoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if len(pts) < 2:
            raise ValueError("RdCurve: need at least two points")
        d = np.array([p.distortion for p in pts])
        r = np.array([p.rate for p in pts])
        if np.any(np.diff(d) <= 0.0):
            raise ValueError("RdCurve: distortions must be strictly increasing")
        if np.any(np.diff(r) > 1e-9):
            raise ValueError("RdCurve: rate increased along the curve")
        # Convexity: every interior point must sit on or below the chord of
        # its neighbours, with 1e-7 bits of slack for solver noise.
        if len(pts) >= 3:
            frac = (d[1:-1] - d[:-2]) / (d[2:] - d[:-2])
            chord = r[:-2] + frac * (r[2:] - r[:-2])
            if np.any(r[1:-1] > chord + 1e-7):
                worst = float(np.max(r[1:-1] - chord))
                raise ValueError(f"RdCurve: convexity violated by {worst:.3e} bits")
        object.__setattr__(self, "points", pts)

    @property
    def distortions(self) -> np.ndarray:
        return np.array([p.distortion for p in self.points])

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    def to_dict(self) -> dict:
        return {"points": [p.to_dict() for p in self.points]}


def _check_pair(source: Distribution, d: DistortionMatrix | None) -> DistortionMatrix:
    if d is None:
        return DistortionMatrix.hamming(source.alphabet_size)
    if d.x_size != source.alphabet_size:
        raise DimensionMismatchError(
            f"distortion matrix has {d.x_size} source rows, source has {source.alphabet_size}"
        )
    return d


def _zero_rate_distortion(source: Distribution, d: DistortionMatrix) -> float:
    """Best average distortion with a single fixed reproduction."""
    return float((source.probs @ d.costs).min())


# Stopping rule of blahut_arimoto: optimality gap in bits, and iteration cap.
_BA_TOLERANCE = 1e-10
_BA_MAX_ITERATIONS = 20000


def blahut_arimoto(
    source: Distribution,
    d: DistortionMatrix | None = None,
    slope: float = -1.0,
) -> RdPoint:
    """Curve point at a fixed Lagrangian slope (bits per unit distortion, <= 0).

    Iterates the output-law update until the optimality gap drops below
    _BA_TOLERANCE bits, and raises ConvergenceError, carrying the gap left,
    after _BA_MAX_ITERATIONS iterations without.  The Lagrangian objective
    is checked to be non-increasing every step.
    """
    d = _check_pair(source, d)
    if not (np.isfinite(slope) and slope <= 0.0):
        raise ValueError(f"slope must be <= 0, got {slope!r}")
    if slope == 0.0:
        return RdPoint(_zero_rate_distortion(source, d), 0.0, 0.0, 0)

    p = source.probs
    A = np.exp2(slope * d.costs)
    q = np.full(d.xhat_size, 1.0 / d.xhat_size)
    prev_obj = np.inf
    it = 0
    gap = np.inf
    for it in range(1, _BA_MAX_ITERATIONS + 1):
        lam = np.maximum(A @ q, _LOG_FLOOR)
        obj = -float(p @ np.log2(lam))
        if obj > prev_obj + 1e-9:
            raise ConvergenceError(f"Lagrangian objective increased at iteration {it}", gap=gap)
        prev_obj = obj
        c = (p / lam) @ A
        log_c = np.log2(np.maximum(c, _LOG_FLOOR))
        q = q * c
        gap = float(log_c.max() - q @ log_c)
        if gap < _BA_TOLERANCE:
            break
    else:
        raise ConvergenceError(
            f"no convergence after {_BA_MAX_ITERATIONS} iterations (gap {gap:.3e})", gap=gap
        )

    # Subnormal q entries would leave p_x * p_y = 0 where p_xy > 0 in the rate.
    q[q < _LOG_FLOOR] = 0.0
    lam = np.maximum(A @ q, _LOG_FLOOR)
    W = A * q / lam[:, None]
    distortion = float(p @ (W * d.costs).sum(axis=1))
    rate = _mi_from_matrix(p[:, None] * W)
    return RdPoint(distortion, max(rate, 0.0), slope, it)


# Distortion accuracy at which rd_at_distortion's bisection stops.
_DISTORTION_TOLERANCE = 1e-6


def rd_at_distortion(
    source: Distribution,
    d: DistortionMatrix | None = None,
    target: float = 0.0,
) -> RdPoint:
    """Curve point at a target distortion, by bisection on the slope.

    The bisection stops at a point whose distortion is within
    _DISTORTION_TOLERANCE of the target.  If the target lies on a linear
    curve segment the bisection cannot land inside it; the point returned
    then has distortion <= target, so its rate is a safe stand-in (an upper
    bound on the rate function, achievable at the target).  A non-finite
    target is a ValueError.
    """
    d = _check_pair(source, d)
    if not np.isfinite(target):
        raise ValueError(f"target distortion must be finite, got {target!r}")
    if np.all(d.costs == 0.0):
        # Free reproduction everywhere: the curve is identically zero.
        if target < 0.0:
            raise InfeasibleDistortionError(f"negative distortion {target!r}")
        return RdPoint(float(target), 0.0, 0.0, 0)
    d_min = float(source.probs @ d.costs.min(axis=1))
    if target < d_min - 1e-9:
        raise InfeasibleDistortionError(
            f"target distortion {target!r} below the attainable minimum {d_min!r}"
        )
    if target >= _zero_rate_distortion(source, d):
        return RdPoint(float(target), 0.0, 0.0, 0)

    lo = -64.0
    pt = blahut_arimoto(source, d, lo)
    while pt.distortion > target + _DISTORTION_TOLERANCE:
        lo *= 2.0
        if lo < -2.0 ** 20:
            raise ConvergenceError(f"slope bracket exhausted at {lo}")
        pt = blahut_arimoto(source, d, lo)
    if abs(pt.distortion - target) <= _DISTORTION_TOLERANCE:
        return pt
    hi = 0.0
    best_low = pt
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        pt = blahut_arimoto(source, d, mid)
        if abs(pt.distortion - target) <= _DISTORTION_TOLERANCE:
            return pt
        if pt.distortion > target:
            hi = mid
        else:
            lo = mid
            best_low = pt
    return best_low


def rd_curve(
    source: Distribution,
    d: DistortionMatrix | None = None,
    n_points: int = 33,
) -> RdCurve:
    """Sampled curve from near-lossless down to the zero-rate end.

    Slopes sweep a geometric range, so points cluster where the curve
    bends.  The exact zero-rate endpoint is always included.
    """
    d = _check_pair(source, d)
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    slopes = -np.exp2(np.linspace(6.0, -6.0, n_points - 1))
    pts = [blahut_arimoto(source, d, float(s)) for s in slopes]
    pts.append(blahut_arimoto(source, d, 0.0))
    pts.sort(key=lambda p: (p.distortion, p.rate))
    kept: list[RdPoint] = []
    for p in pts:
        if kept and p.distortion - kept[-1].distortion <= 1e-12:
            # Same distortion from two slopes: keep the cheaper rate.
            if p.rate < kept[-1].rate:
                kept[-1] = p
            continue
        kept.append(p)
    return RdCurve(tuple(kept))


def binary_hamming_rd(p: float, target: float) -> float:
    """Closed-form R(D) of a Bernoulli(p) source under Hamming distortion."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p!r}")
    if target < 0.0:
        raise InfeasibleDistortionError(f"negative distortion {target!r}")
    pm = min(p, 1.0 - p)
    if target >= pm:
        return 0.0
    return float((entr(p) + entr(1.0 - p) - entr(target) - entr(1.0 - target)) / LN2)
