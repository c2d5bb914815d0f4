"""Rate-distortion functions for finite sources, in bits.

The workhorse is the classical alternating-minimization iteration for the
Lagrangian at a fixed slope (Blahut 1972), with the standard per-iteration
optimality gap (max over reproduction symbols of the log multiplier minus
its average under the updated output law) as the stopping rule.  Each
multiplicative update that leaves the gap open is followed by a safeguarded
projected Newton step on the convex dual over the output law, so solves end
in a handful of iterations instead of thousands, also near the slopes where
a reproduction symbol enters or leaves the support.  Points at a target
distortion come from a warm-started secant search on the slope, and
sampled curves warm-start each slope from the one before.

Each returned point is achievable: the rate is the exact mutual information
of the test channel the iteration ends with, so a point can sit slightly
above the true curve but never below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, InfeasibleDistortionError
from .probability import LN2, Distribution, _entr, _mi_from_matrix, _require_integer, _sized_matrix

_LOG_FLOOR = 1e-300
_CELL_FLOOR = 1e-150


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
            raise ValueError(f"DistortionMatrix: negative cost {float(arr.min())!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "costs", arr)

    @property
    def x_size(self) -> int:
        return self.costs.shape[0]

    @property
    def xhat_size(self) -> int:
        return self.costs.shape[1]

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
    # Output law the solver ended with, for warm starts; not part of to_dict.
    output_law: np.ndarray | None = field(default=None, compare=False, repr=False)

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
        if not pts:
            raise ValueError("RdCurve: no points")
        d = np.array([p.distortion for p in pts])
        r = np.array([p.rate for p in pts])
        if np.any(np.diff(d) <= 0.0):
            raise ValueError("RdCurve: distortions must be strictly increasing")
        if np.any(np.diff(r) > 1e-9):
            raise ValueError("RdCurve: rate increased along the curve")
        # Convexity: every interior point must sit on or below the chord of
        # its neighbours, with 1e-7 bits of slack for solver noise.
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
# Uniform mass mixed into a warm start, so that no reproduction symbol
# starts at zero, where the multiplicative update could never revive it.
_START_MIX = 1e-3
# Projected Newton step (_newton_step): the largest mass a leaving symbol
# can have, the share of the way to zero an entry may move in one step,
# and the number of step halvings tried before the step is dropped.
_NEWTON_BINDING = 1e-2
_NEWTON_BOUNDARY = 0.99
_NEWTON_HALVINGS = 10


def _newton_step(p: np.ndarray, A: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q after one safeguarded projected Newton step on F (Bertsekas 1982).

    On the simplex the reduced gradient of F is r = 1 - c, with c = (p/Aq) A
    the multiplicative update's factor, and the optimum has r = 0 on its
    support and r >= 0 off it.  Symbols with mass at most
    min(_NEWTON_BINDING, |min(q, r)|) and r > 0 are leaving: they head for
    zero.  The rest take the Newton step of F's quadratic model under
    sum(q) = 1, with Hessian A^T diag(p/(Aq)^2) A plus |r| / sqrt(q) on its
    diagonal.  That term vanishes at the optimum; it bounds the step where
    F is flat along a face, as at the slope of a linear curve segment or
    between two nearly equal cost columns, and keeps a small entry's step in
    scale with the entry.  No entry moves more than _NEWTON_BOUNDARY of the
    way to zero, so q stays positive and the multiplicative update can still
    revive a symbol.  The step is halved until F drops; q comes back
    unchanged if it never does.
    """
    lam = np.maximum(A @ q, _LOG_FLOOR)
    w = p / lam
    r = 1.0 - w @ A
    eps = min(_NEWTON_BINDING, float(np.linalg.norm(np.minimum(q, r))))
    leaving = (q <= eps) & (r > 0.0)
    free = np.flatnonzero(~leaving & (q > 0.0))
    k = free.size
    delta = np.where(leaving, -q, 0.0)
    WA = (w / lam)[:, None] * A[:, free]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = A[:, free].T @ WA
    kkt[:k, :k] += np.diag(np.linalg.norm(r[free]) / np.sqrt(q[free]))
    kkt[:k, k] = kkt[k, :k] = 1.0
    rhs = np.append(-r[free] - WA.T @ (A @ delta), -delta.sum())
    if not (np.all(np.isfinite(kkt)) and np.all(np.isfinite(rhs))):
        return q
    delta[free] = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
    down = delta < 0.0
    alpha = 1.0
    if down.any():
        alpha = min(alpha, _NEWTON_BOUNDARY * float(np.min(q[down] / -delta[down])))
    # F(q + alpha delta) - F(q), summed through log1p so that a change far
    # below F's own rounding keeps its sign.
    ratio = (A @ delta) / lam
    for _ in range(_NEWTON_HALVINGS):
        if p @ np.log1p(alpha * ratio) > 0.0:
            trial = q + alpha * delta
            return trial / trial.sum()
        alpha *= 0.5
    return q


def blahut_arimoto(
    source: Distribution,
    d: DistortionMatrix | None = None,
    slope: float = -1.0,
    *,
    start: np.ndarray | None = None,
) -> RdPoint:
    """Curve point at a fixed Lagrangian slope (bits per unit distortion, <= 0).

    Iterates the output-law update until the optimality gap drops below
    _BA_TOLERANCE bits, and raises ConvergenceError, carrying the gap left,
    after _BA_MAX_ITERATIONS iterations without.  Each update that leaves
    the gap open is followed by one safeguarded Newton step on the dual
    (_newton_step), which turns the update's linear convergence into a
    fast local one.  The Lagrangian objective is checked to be
    non-increasing every step.  ``start`` is an output law to begin from
    (uniform by default), mixed with _START_MIX uniform mass.
    """
    d = _check_pair(source, d)
    if not (np.isfinite(slope) and slope <= 0.0):
        raise ValueError(f"slope must be <= 0, got {slope!r}")
    if slope == 0.0:
        return RdPoint(_zero_rate_distortion(source, d), 0.0, 0.0, 0)

    p = source.probs
    # Costs above each row's minimum: scaling a row of A leaves the test
    # channel, c and the gap unchanged, and keeps A's largest entry at 1.
    # An exponent past the float range is -inf, and its entry 0, as it
    # should be.
    with np.errstate(over="ignore"):
        A = np.exp2(slope * (d.costs - d.costs.min(axis=1, keepdims=True)))
    n = d.xhat_size
    if start is None:
        q = np.full(n, 1.0 / n)
    else:
        q = np.asarray(start, dtype=np.float64)
        if q.shape != (n,) or not (np.all(np.isfinite(q)) and q.min() >= 0.0 and q.sum() > 0.0):
            raise ValueError(f"start must be an output law on {n} symbols")
        q = (1.0 - _START_MIX) * q / q.sum() + _START_MIX / n
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
        q = _newton_step(p, A, q)
    else:
        raise ConvergenceError(
            f"no convergence after {_BA_MAX_ITERATIONS} iterations (gap {gap:.3e})", gap=gap
        )

    # A joint cell below _CELL_FLOOR is dropped: with both of its marginals
    # that small, their product could underflow to 0 under a positive cell.
    lam = np.maximum(A @ q, _LOG_FLOOR)
    pxy = p[:, None] * A * q / lam[:, None]
    pxy[pxy < _CELL_FLOOR] = 0.0
    distortion = float((pxy * d.costs).sum())
    rate = _mi_from_matrix(pxy)
    q.setflags(write=False)
    return RdPoint(distortion, max(rate, 0.0), slope, it, q)


# Distortion accuracy at which rd_at_distortion's search stops, and its cap
# on solves.
_DISTORTION_TOLERANCE = 1e-6
_SLOPE_STEPS = 200
# A bracket on u narrower than this, relative, with the distortion still
# jumping across the target, is a linear curve segment to machine
# precision: solves inside it meet a dual that is flat along a face.
_JUMP_WIDTH = 1e-12


def rd_at_distortion(
    source: Distribution,
    d: DistortionMatrix | None = None,
    target: float = 0.0,
) -> RdPoint:
    """Curve point at a target distortion, by a secant search on the slope.

    Distortion rises with the slope s, from the least distortion D_min at
    s -> -inf to the zero-rate distortion D_max at s = 0.  The search runs
    on u = 2^(s * gap) in (0, 1], where gap is the least positive cost above
    a row's minimum, so that D(u) - D_min vanishes at least linearly as
    u -> 0; g(u) = D(u) - target is then known at both ends without a solve,
    g(0) = D_min - target and g(1) = D_max - target.  Illinois-type regula
    falsi steps shrink the bracket, each solve starting from the previous
    one's output law, and the search stops at a point whose distortion is
    within _DISTORTION_TOLERANCE of the target.  A target that close to
    D_min takes the first of the slopes -64, -128, ... that reaches it.  If
    the target lies on a linear curve segment, D jumps over it and the
    search stops once the bracket is narrower than _JUMP_WIDTH relative;
    the point returned then has distortion <= target, so its rate is a safe
    stand-in (an upper bound on the rate function, achievable at the
    target).  A non-finite target is a ValueError.
    """
    d = _check_pair(source, d)
    if not np.isfinite(target):
        raise ValueError(f"target distortion must be finite, got {target!r}")
    d_min = float(source.probs @ d.costs.min(axis=1))
    if target < d_min - 1e-9:
        raise InfeasibleDistortionError(
            f"target distortion {target!r} below the attainable minimum {d_min!r}"
        )
    d_max = _zero_rate_distortion(source, d)
    if target >= d_max:
        return RdPoint(float(target), 0.0, 0.0, 0)
    if target <= d_min + _DISTORTION_TOLERANCE:
        slope = -64.0
        pt = blahut_arimoto(source, d, slope)
        while pt.distortion > target + _DISTORTION_TOLERANCE:
            slope *= 2.0
            if slope < -2.0 ** 20:
                raise ConvergenceError(f"slope bracket exhausted at {slope}")
            pt = blahut_arimoto(source, d, slope, start=pt.output_law)
        return pt

    excess = d.costs - d.costs.min(axis=1, keepdims=True)
    gap = float(excess[excess > 0.0].min())
    lo, g_lo = 0.0, d_min - target
    hi, g_hi = 1.0, d_max - target
    best_low = law = None
    side = 0
    for _ in range(_SLOPE_STEPS):
        u = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < u < hi or hi - lo <= _JUMP_WIDTH * hi:
            break
        pt = blahut_arimoto(source, d, float(np.log2(u)) / gap, start=law)
        law = pt.output_law
        g = pt.distortion - target
        if abs(g) <= _DISTORTION_TOLERANCE:
            return pt
        if g > 0.0:
            hi, g_hi = u, g
            if side > 0:
                g_lo *= 0.5
            side = 1
        else:
            lo, g_lo = u, g
            best_low = pt
            if side < 0:
                g_hi *= 0.5
            side = -1
    if best_low is None:
        raise ConvergenceError(f"no slope reached distortion {target!r}")
    return best_low


def rd_curve(
    source: Distribution,
    d: DistortionMatrix | None = None,
    n_points: int = 33,
) -> RdCurve:
    """Sampled curve from near-lossless down to the zero-rate end.

    Slopes sweep a geometric range, so points cluster where the curve
    bends; each solve starts from the output law of the one before.  The
    exact zero-rate endpoint is always included; where the least and the
    zero-rate distortion coincide, it is the curve's one point.
    """
    d = _check_pair(source, d)
    if _require_integer(n_points, "n_points") < 2:
        raise ValueError("n_points must be >= 2")
    slopes = -np.exp2(np.linspace(6.0, -6.0, n_points - 1))
    pts = []
    law = None
    for s in slopes:
        pts.append(blahut_arimoto(source, d, float(s), start=law))
        law = pts[-1].output_law
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
    """Closed-form R(D) of a Bernoulli(p) source under Hamming distortion.
    A non-finite target is a ValueError."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p!r}")
    if not np.isfinite(target):
        raise ValueError(f"target distortion must be finite, got {target!r}")
    if target < 0.0:
        raise InfeasibleDistortionError(f"negative distortion {target!r}")
    pm = min(p, 1.0 - p)
    if target >= pm:
        return 0.0
    e = _entr([p, 1.0 - p, target, 1.0 - target])
    return float((e[0] + e[1] - e[2] - e[3]) / LN2)
