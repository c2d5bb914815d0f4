"""Rate-distortion functions for finite sources, in bits.

Costs that are Hamming up to relabeling, row offsets and scale take no
solve: every point, at a target distortion or at a slope of a sampled
curve, D_min and the slope -inf included, comes in closed form from the
water-filling solution (Erokhin 1958).  Every other cost matrix goes
through one iterative solver, the classical alternating-minimization
iteration for the Lagrangian at a fixed slope (Blahut 1972), with the
standard per-iteration optimality gap (max over reproduction symbols of
the log multiplier minus its average under the updated output law) as the
stopping rule.  A solve on square costs and a full-support source starts
at the closed-form optimum that uses every reproduction symbol when that
optimum exists, and then ends after one iteration.  In every other solve,
each multiplicative update that leaves the gap open is followed by a
safeguarded projected Newton step on the convex dual over the output law,
so solves end in a handful of iterations instead of thousands, also near
the slopes where a reproduction symbol enters or leaves the support.  Points at a target distortion come from a
safeguarded Newton search on the slope, with the slope's derivative from
the solver's optimality conditions, inside a bracket closed by the
critical slope where the zero-rate point mass stops being optimal; it
starts at the slope where the uniform output law meets the target, and
warm-starts each solve from the one before.  A target within the stop
tolerance of the least distortion D_min takes one solve at slope -inf,
where the kernel is a 0/1 mask (_kernel).  Sampled curves warm-start each
slope from the one before and solve no slope past the critical one.
Distortion tolerances and curve slopes are in units of the largest excess
cost, capped at 1 (_cost_unit), so costs scaled down give the same rates
at distortions scaled with them.

Each returned point is achievable: the rate is the exact mutual information
of the test channel the iteration ends with, or of the closed-form one, so
a point can sit slightly above the true curve but never below it.
"""

from __future__ import annotations

import math
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
    """One achievable (distortion, rate) point and the slope, -inf at D_min, that produced it.

    ``iterations`` counts the Blahut-Arimoto iterations behind the point: 0
    for a closed-form point (zero rate, or water-filling under Hamming-form
    costs), and the sum of both solves' for a time-shared one.
    """

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
        if not self.slope <= 0.0:
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
# A solve that starts at the closed-form full-support optimum uses
# neither the warm start nor this mix.
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
    # Overflow leaves a system non-finite (q comes back) or a boundary ratio inf (never binds).
    with np.errstate(over="ignore", invalid="ignore"):
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


def _kernel(slope: float, excess: np.ndarray) -> np.ndarray:
    """2^(slope * excess), and at slope -inf its limit, the 0/1 mask of each
    row's least costs.  An exponent past the float range gives 0, as it should."""
    if slope == -np.inf:
        return (excess == 0.0).astype(np.float64)
    with np.errstate(over="ignore"):
        return np.exp2(slope * excess)


def _joint(p: np.ndarray, A: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Joint law of source and reproduction under the test channel A q / (A q).

    A joint cell below _CELL_FLOOR is dropped: with both of its marginals
    that small, their product could underflow to 0 under a positive cell.
    """
    lam = np.maximum(A @ q, _LOG_FLOOR)
    pxy = p[:, None] * A * q / lam[:, None]
    pxy[pxy < _CELL_FLOOR] = 0.0
    return pxy


def blahut_arimoto(
    source: Distribution,
    d: DistortionMatrix | None = None,
    slope: float = -1.0,
    *,
    start: np.ndarray | None = None,
) -> RdPoint:
    """Curve point at a fixed Lagrangian slope (bits per unit distortion, <= 0).

    Slope -inf gives (D_min, R(D_min)): the kernel is then a 0/1 mask (_kernel).
    Iterates the output-law update until the optimality gap drops below
    _BA_TOLERANCE bits, and raises ConvergenceError, carrying the gap left,
    after _BA_MAX_ITERATIONS iterations without.  Each update that leaves
    the gap open is followed by one safeguarded Newton step on the dual
    (_newton_step), which turns the update's linear convergence into a
    fast local one.  The Lagrangian objective is checked to be
    non-increasing every step.  ``start`` is an output law to begin from
    (uniform by default), mixed with _START_MIX uniform mass.
    rd_at_distortion and rd_curve call it only for costs that are not
    Hamming in form (_hamming_form), whose points have a closed form
    (_water_filling).

    Where the source has full support and the kernel A is square, the
    solve first tries the optimum that uses every reproduction symbol:
    A^T w = 1, then A q = p / w.  If w and q are positive and finite, q
    meets the optimality conditions with c = 1 on every symbol, and the
    iteration starts at q instead of at ``start`` (which is still checked),
    so the gap test stops it after one iteration.  A singular A, a
    non-positive entry or a zero-mass source symbol leaves the start as
    above.
    """
    d = _check_pair(source, d)
    if not slope <= 0.0:
        raise ValueError(f"slope must be <= 0, got {slope!r}")
    if slope == 0.0:
        return RdPoint(_zero_rate_distortion(source, d), 0.0, 0.0, 0)

    p = source.probs
    # Costs above each row's minimum: scaling a row of A leaves the test
    # channel, c and the gap unchanged, and keeps A's largest entry at 1.
    A = _kernel(slope, d.costs - d.costs.min(axis=1, keepdims=True))
    n = d.xhat_size
    if start is None:
        q = np.full(n, 1.0 / n)
    else:
        q = np.asarray(start, dtype=np.float64)
        if q.shape != (n,) or not (np.all(np.isfinite(q)) and q.min() >= 0.0 and q.sum() > 0.0):
            raise ValueError(f"start must be an output law on {n} symbols")
        q = (1.0 - _START_MIX) * q / q.sum() + _START_MIX / n
    if A.shape[0] == n and p.min() > 0.0:
        # An optimum that uses every symbol has c_y = 1 for all y: with
        # w = p / (A q), that is A^T w = 1, and then A q = p / w (Blahut
        # 1972; Berger 1971, ch. 2).  If both solves give positive finite
        # vectors, their q is that optimum, and the loop below certifies it.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            try:
                w = np.linalg.solve(A.T, np.ones(n))
                full = np.linalg.solve(A, p / w)
            except np.linalg.LinAlgError:
                w = full = np.zeros(n)
        if np.all(np.isfinite(w) & (w > 0.0)) and np.all(np.isfinite(full) & (full > 0.0)):
            q = full
    prev_obj = np.inf
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

    pxy = _joint(p, A, q)
    distortion = float((pxy * d.costs).sum())
    rate = _mi_from_matrix(pxy)
    q.setflags(write=False)
    return RdPoint(distortion, max(rate, 0.0), slope, it, q)


# Distortion accuracy at which rd_at_distortion's search stops, in cost
# units (_cost_unit), and its cap on solves.
_DISTORTION_TOLERANCE = 1e-6
_SLOPE_STEPS = 200
# A bracket on u narrower than this, relative, with the distortion still
# jumping across the target, is a linear curve segment to machine
# precision: solves inside it meet a dual that is flat along a face.
_JUMP_WIDTH = 1e-12
# Output-law mass below which a symbol counts as off the support in
# _distortion_slope.
_SUPPORT_FLOOR = 1e-9
# Steps of the scalar searches for the uniform-law slope and the critical
# slope, which cost no solve.
_SCALAR_STEPS = 100


def _cost_unit(costs: np.ndarray) -> float:
    """The largest cost above its row's least, capped at 1 (1 if all tie)."""
    return min(1.0, float(np.ptp(costs, axis=1).max())) or 1.0


def _critical_slope(p: np.ndarray, costs: np.ndarray) -> tuple[float, list[int]]:
    """Largest s < 0 at which the best point mass stops being optimal.

    The point mass on y*, the column of least average cost, meets the
    optimality conditions at slope s while f_y(s) = sum_x p(x)
    2^(s (d(x,y) - d(x,y*))) <= 1 for every y.  Each h_y = log2 f_y is
    convex with h_y(0) = 0 and, if the column is cheaper than y* somewhere,
    one more root s_y < 0.  The critical slope s_c is the largest s_y, 0 if
    a column ties with y*, and -inf if no column has a root (then D_min =
    D_max).  The roots are those of h_y(s)/s, which stay simple as they
    near 0, found by Newton's method on all columns at once from a slope
    left of every root.  Also returned is the support just below s_c:
    [y*, y_c] with y_c the column of the largest root, or [y*] if s_c is 0
    or -inf.
    """
    rows = p > 0.0
    y_star = int(np.argmin(p @ costs))
    e = costs[rows] - costs[rows, y_star][:, None]
    w = p[rows][:, None]
    e_min = e.min(axis=0)
    cols = np.flatnonzero(e_min < 0.0)
    if cols.size == 0:
        return -np.inf, [y_star]
    # Costs in units of the largest cost drop, so that no product overflows.
    scale = -float(e_min.min())
    e, e_min = e[:, cols] / scale, e_min[cols] / scale
    if float((w[:, 0] @ e).min()) <= 0.0:
        return 0.0, [y_star]
    # At this s the term of each column's cheapest row alone gives h_y >= 1.
    s = (np.log2(w[np.argmin(e, axis=0), 0]) - 1.0) / -e_min
    for _ in range(_SCALAR_STEPS):
        terms = w * np.exp2(s * e)
        total = terms.sum(axis=0)
        h = np.log2(total)
        dh = (terms * e).sum(axis=0) / total
        step = h * s / (dh * s - h)
        s = np.minimum(s - step, 0.5 * s)
        if np.all(np.abs(step) <= 1e-13 * np.abs(s)):
            break
    k = int(np.argmax(s))
    return float(s[k]) / scale, [y_star, int(cols[k])]


def _distortion_slope(
    p: np.ndarray, excess: np.ndarray, slope: float, q: np.ndarray, support=None
) -> float:
    """dD/ds along the curve at output law q, optimal at ``slope`` (Rose 1994).

    With A = 2^(s E) for the excess costs E, lam = A q and the test channel
    W = A q / lam, the optimal q keeps c_y = sum_x p_x A_xy / lam_x at 1 on
    its support S (by default the symbols with mass above _SUPPORT_FLOOR).
    Differentiating that in s gives q' on S from
    (A_S^T diag(p/lam^2) A_S) q'_S = ln2 sum_x p_x A_xy / lam_x (E_xy - e_x),
    with e_x the mean excess cost of row x under W; the matrix is the
    Hessian that _newton_step builds.  Then
    D' = sum_x p_x sum_y W_xy E_xy [q'_y/q_y + ln2 (E_xy - e_x) - (A q')_x/lam_x],
    where W_xy q'_y / q_y = A_xy q'_y / lam_x stays finite as q_y -> 0.  On
    a linear curve segment the system is singular; the least-squares q'
    then gives some slope, which the search's safeguard judges.
    """
    if support is None:
        support = np.flatnonzero(q > _SUPPORT_FLOOR)
    A = _kernel(slope, excess)
    # Costs near the float range can overflow the products below; the
    # result is then inf or nan, which the search does not step on.
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.maximum(A @ q, _LOG_FLOOR)
        w = p / lam
        W = A * (q / lam[:, None])
        e_bar = (W * excess).sum(axis=1)
        dev = excess - e_bar[:, None]
        AS = A[:, support]
        hess = AS.T @ ((w / lam)[:, None] * AS)
        rhs = LN2 * (w @ (AS * dev[:, support]))
        if not (np.all(np.isfinite(hess)) and np.all(np.isfinite(rhs))):
            return np.nan
        dq = np.zeros_like(q)
        dq[support] = np.linalg.lstsq(hess, rhs, rcond=None)[0]
        return float(LN2 * (p @ (W * excess * dev).sum(axis=1))
                     + w @ ((A * excess) @ dq - e_bar * (A @ dq)))


def _hermite_root(a: tuple, b: tuple) -> float:
    """Root of the cubic Hermite interpolant of s as a function of g.

    ``a`` and ``b`` are (s, g, g') at two slopes; the interpolant matches
    s and ds/dg = 1/g' at both, so its value at g = 0 refines the Newton
    step from ``b`` with what ``a`` knows.
    """
    (s0, g0, d0), (s1, g1, d1) = a, b
    h = g1 - g0
    t = -g0 / h
    return (((2.0 * t - 3.0) * t * t + 1.0) * s0 + (t - 1.0) ** 2 * t * h / d0
            + (3.0 - 2.0 * t) * t * t * s1 + (t - 1.0) * t * t * h / d1)


def _slope_steps(s: float, gap: float, u_hi: float, g_lo: float, g_hi: float, dg_hi):
    """Safeguarded Newton iteration for g(s) = D(s) - target = 0, as a generator.

    Yields slopes, starting at s, and receives (g, g') at each.  The
    bracket lives on u = 2^(s * gap) in (0, u_hi], with g_lo = D_min -
    target < 0 < g_hi known at its ends; dg_hi() gives g' at the upper end
    (0 if unknown) and is called only if that end is used.

    Steps run on psi = log((D - D_min) / (target - D_min)), which is nearly
    linear in s where D - D_min falls like 2^(s * gap): Newton's
    s - psi/psi', refined by the root of the cubic Hermite interpolant
    through the slope before (_hermite_root); for the step after the first
    slope, the bracket's upper end stands in for the slope before if the
    first slope fell below the target.  Such a step is taken while it lies
    inside the bracket, unless the Newton step before it did not halve
    |g|; otherwise the next slope is the bracket's midpoint on u, and the
    step after a midpoint tries Newton again.  A first slope outside
    the bracket is moved to where the line through the bracket's ends
    meets g = 0.  The generator ends once the bracket is narrower than
    _JUMP_WIDTH relative, or when rounding leaves no point inside it.
    """
    scale = -g_lo

    def psi(s, g, dg):
        # psi is -inf where D rounds to D_min: no step from there.
        if scale + g > 0.0 and dg > 0.0:
            return s, float(np.log1p(g / scale)), dg / (scale + g)
        return None

    lo, hi = 0.0, u_hi
    u = 2.0 ** min(s * gap, 0.0)
    if not lo < u < hi:
        u = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < u < hi:
            return
        s = float(np.log2(u)) / gap
    g, dg = yield s
    before = psi(float(np.log2(u_hi)) / gap, g_hi, dg_hi()) if g < 0.0 else None
    g_prev = np.inf
    while True:
        if g > 0.0:
            hi = u
        else:
            lo = u
        if hi - lo <= _JUMP_WIDTH * hi:
            return
        here = psi(s, g, dg)
        u = 0.0
        if abs(g) <= 0.5 * abs(g_prev) and here is not None:
            s = s - here[1] / here[2]
            if before is not None and before[1] != here[1]:
                s = _hermite_root(before, here)
            u = 2.0 ** min(s * gap, 0.0)
        before, g_prev = here, g
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
            if not lo < u < hi:
                return
            s = float(np.log2(u)) / gap
            g_prev = np.inf
        g, dg = yield s


def _uniform_law_slope(p: np.ndarray, excess: np.ndarray, gap: float, aim: float) -> float:
    """Slope at which the uniform output law meets excess distortion ``aim``.

    Under the uniform law the test channel is each row of A = 2^(s E)
    normalized, so its distortion is a monotone scalar function of s with
    derivative ln2 times the mean conditional variance of E; no solve is
    needed.  For Hamming costs at a slope where every reproduction symbol
    is active, the optimal distortion (k-1)2^s / (1 + (k-1)2^s) equals this
    one whatever the source, so the slope returned is exact there.  Such
    costs take the closed form (_water_filling) and never reach this
    search; costs near them start it near its answer.
    """
    stop = 1e-3 * _DISTORTION_TOLERANCE * _cost_unit(excess)
    # Costs and slopes in units of the gap, so that no square overflows.
    unit, aim = excess / gap, aim / gap
    search = _slope_steps(-1.0, 1.0, 1.0, -aim, float(p @ unit.mean(axis=1)) - aim, lambda: 0.0)
    t = next(search)
    for _ in range(_SCALAR_STEPS):
        A = np.exp2(t * unit)
        W = A / A.sum(axis=1, keepdims=True)
        e_bar = (W * unit).sum(axis=1)
        g = float(p @ e_bar) - aim
        if abs(g) * gap <= stop:
            break
        var = (W * (unit - e_bar[:, None]) ** 2).sum(axis=1)
        try:
            t = search.send((g, LN2 * float(p @ var)))
        except StopIteration:
            break
    return t / gap


def _time_share(p: np.ndarray, costs: np.ndarray, excess: np.ndarray,
                low: RdPoint, high: RdPoint, target: float) -> RdPoint:
    """Point at the target that mixes the test channels of two solves.

    ``low`` and ``high`` have distortions below and above the target; the
    channel theta W_low + (1 - theta) W_high meets the target, and its
    mutual information, the rate returned, is at most the chord between the
    two points, since mutual information is convex in the channel.
    ``excess`` holds the costs above each row's least, as in blahut_arimoto.
    """
    theta = (high.distortion - target) / (high.distortion - low.distortion)
    pxy = (theta * _joint(p, _kernel(low.slope, excess), low.output_law)
           + (1.0 - theta) * _joint(p, _kernel(high.slope, excess), high.output_law))
    law = theta * low.output_law + (1.0 - theta) * high.output_law
    law.setflags(write=False)
    return RdPoint(float((pxy * costs).sum()), _mi_from_matrix(pxy), low.slope,
                   low.iterations + high.iterations, law)


# Largest spread, in units of the largest cost, of the excess costs that
# stand for one value c in _hamming_form.  Costs offset + c [y != sigma(x)]
# carry one rounding of that sum when stored, and the row minimum's
# subtraction adds one more: each is at most u = 2^-53 times the largest
# cost, so each excess is within 2u of c and two of them within 4u.
_FORM_ROUNDING = 4.0 * 2.0 ** -53


def _hamming_form(costs: np.ndarray, excess: np.ndarray) -> tuple[float, np.ndarray] | None:
    """(c, sigma) if the excess costs are c [y != sigma(x)] for one c > 0
    and a permutation sigma, else None.

    That is Hamming distortion up to relabeling, row offsets and scale:
    each row and each column of ``excess`` (costs above each row's least)
    has exactly one zero, and its other entries agree to within
    _FORM_ROUNDING.  c is their largest, so relabeling leaves it bit for
    bit unchanged.  A 1x1 matrix has no such entry, hence no c: None.
    """
    # Every row has a zero, so n zeros in all put one in each row, and
    # then one in each column if no column lacks one.
    zero = excess == 0.0
    n = excess.shape[0]
    if excess.shape[1] != n or n < 2 or np.count_nonzero(zero) != n or not zero.any(axis=0).all():
        return None
    off = excess[~zero]
    if float(off.max() - off.min()) > _FORM_ROUNDING * float(costs.max()):
        return None
    return float(off.max()), np.argmax(zero, axis=1)


def _water_filling(p: np.ndarray, costs: np.ndarray, excess: np.ndarray, c: float,
                   sigma: np.ndarray, slope: float) -> RdPoint:
    """Curve point at ``slope`` < 0 under excess costs c [y != sigma(x)].

    The water-filling solution (Erokhin 1958; Berger, Rate Distortion
    Theory, 1971, ch. 2): the kernel is beta = 2^(slope c) off sigma, and
    with p sorted downward and P_m the mass of the m largest, the output
    law lives on the images of the m largest masses, m the largest index
    with p_(m) (1 + beta (m - 1)) > beta P_m.  There q_sigma(x) = (p_x (1 +
    beta (m - 1)) - beta P_m) / (P_m (1 - beta)), which puts every c_y at 1
    on the support and at most 1 off it.  At slope -inf, beta = 0: m counts
    the symbols with mass, and q is the source law itself, the point (D_min,
    H(X)).  The point returned is the test channel at ``slope``, with its
    own distortion and mutual information, so it is achievable like a
    solve's; its iteration count is 0.
    """
    beta = 2.0 ** (slope * c)
    order = np.argsort(-p, kind="stable")
    ps = p[order]
    top = np.cumsum(ps)
    m = int(np.flatnonzero(ps * (1.0 + beta * np.arange(ps.size)) > beta * top)[-1]) + 1
    q = np.zeros(ps.size)
    q[sigma[order[:m]]] = ((ps[:m] * (1.0 + beta * (m - 1)) - beta * top[m - 1])
                           / (top[m - 1] * (1.0 - beta)))
    pxy = _joint(p, _kernel(slope, excess), q)
    q.setflags(write=False)
    return RdPoint(float((pxy * costs).sum()), _mi_from_matrix(pxy), slope, 0, q)


def _water_filling_slope(p: np.ndarray, c: float, aim: float) -> float | None:
    """Slope at which the water-filling point (_water_filling) under excess
    costs c [y != sigma(x)] has excess distortion ``aim``.

    With t = aim / c, floored at 0, and p sorted downward, m is the largest
    support whose smallest mass has p_(m) (m - 1) > D' = t - (1 - P_m), and
    then beta = D' / ((m - 1)(1 - t)).  At t = 0, m counts the symbols with
    mass, and D' and beta are 0: slope -inf.  None if rounding leaves no
    beta = 2^(slope c) in [0, 1), as it can at a target within rounding of
    D_max.
    """
    t = max(aim, 0.0) / c
    ps = np.sort(p)[::-1]
    # 1 - P_m for m = 1..n, summed from the smallest mass up.
    level = t - np.append(np.cumsum(ps[:0:-1])[::-1], 0.0)
    fits = np.flatnonzero(ps * np.arange(ps.size) > level)
    m = int(fits[-1]) + 1 if fits.size else 0
    if m < 2:
        return None
    # D' = level[m - 1] is 0 at t = 0, and below 0 by rounding alone.
    beta = max(float(level[m - 1]), 0.0) / ((m - 1) * (1.0 - t))
    slope = math.log2(beta) / c if beta > 0.0 else -math.inf
    return slope if 2.0 ** (slope * c) < 1.0 else None


def rd_at_distortion(
    source: Distribution,
    d: DistortionMatrix | None = None,
    target: float = 0.0,
) -> RdPoint:
    """Curve point at a target distortion, in closed form under Hamming-form
    costs, else by a safeguarded Newton search on the slope.

    Costs that are c [y != sigma(x)] above each row's least, for one c > 0
    and a permutation sigma (_hamming_form), give the water-filling point
    (_water_filling) at the slope that meets the target
    (_water_filling_slope): no solve, 0 iterations, a distortion at the
    target up to rounding, and the rate of its test channel.  That holds at
    every target, D_min included, where the slope is -inf; a target that
    rounding leaves with no slope, within rounding of D_max, returns the
    zero-rate point.  Every other cost matrix takes the search below.

    Distortion rises with the slope s, from the least distortion D_min at
    s -> -inf to the zero-rate distortion D_max, which the point mass on
    the best constant reproduction reaches at the critical slope s_c and
    keeps up to s = 0 (_critical_slope).  The search runs in the bracket
    (-inf, s_c), where D - target is known at both ends without a solve,
    so no solve lands on the zero-rate plateau; each solve starts from the
    previous one's output law.
    - First slope: where the uniform output law meets the target, found
      without a solve (_uniform_law_slope).
    - Further slopes: Newton steps, with dD/ds from the solve's optimality
      conditions (_distortion_slope), refined by the slope before
      (_slope_steps).  A step that leaves the bracket, or follows a Newton
      step that did not halve |D - target|, bisects the bracket instead.
    The search stops at a point whose distortion is within
    _DISTORTION_TOLERANCE cost units (_cost_unit) of the target; a target
    that close to D_min returns the one solve at slope -inf, whose rate is
    R(D_min) >= R(target) (D_min = D_max returns the zero-rate point).  If
    the target lies on a linear curve segment, D jumps over it, and the
    search ends once the bracket is narrower than _JUMP_WIDTH relative.
    The point returned then time-shares the test channels of the nearest
    solves on either side of the target, or of the one below (the slope
    -inf solve if none) and the zero-rate point mass (_time_share): its
    distortion is the target, and its rate, at or below the chord of those
    solves, is a safe stand-in (an upper bound on the rate function,
    achievable at the target).  A non-finite target is a ValueError.
    """
    d = _check_pair(source, d)
    if not np.isfinite(target):
        raise ValueError(f"target distortion must be finite, got {target!r}")
    least = d.costs.min(axis=1)
    d_min = float(source.probs @ least)
    # A target that sums the same n products in another order is D_min too.
    # Two float sums of them differ by at most 2 gamma_n sum |p_x least_x|,
    # gamma_n = n u / (1 - n u) with u = 2^-53 (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., section 3.1), on top of
    # the absolute slack.
    nu = least.size * 2.0 ** -53
    rounding = 2.0 * nu / (1.0 - nu) * float(source.probs @ np.abs(least))
    if target < d_min - 1e-9 - rounding:
        raise InfeasibleDistortionError(
            f"target distortion {target!r} below the attainable minimum {d_min!r}"
        )
    d_max = _zero_rate_distortion(source, d)
    if target >= d_max:
        return RdPoint(float(target), 0.0, 0.0, 0)
    p = source.probs
    excess = d.costs - least[:, None]
    y_star = int(np.argmin(p @ d.costs))
    # The zero-rate end: its channel sends every x to the best constant.
    best_high = RdPoint(d_max, 0.0, 0.0, 0, np.eye(d.xhat_size)[y_star])
    # Every column ties with the best constant's where y* is least on each
    # row with mass: then D_min = D_max, and _critical_slope would give -inf.
    if not excess[p > 0.0, y_star].any():
        return best_high
    form = _hamming_form(d.costs, excess)
    if form is not None:
        slope = _water_filling_slope(p, form[0], target - d_min)
        return best_high if slope is None else _water_filling(p, d.costs, excess, *form, slope)
    unit = _cost_unit(d.costs)
    if target - d_min <= _DISTORTION_TOLERANCE * unit:
        return blahut_arimoto(source, d, -np.inf)
    s_c, top = _critical_slope(p, d.costs)
    gap = float(excess[excess > 0.0].min(initial=np.inf))

    def dg_c():
        if len(top) == 1:
            return 0.0
        return _distortion_slope(p, excess, s_c, best_high.output_law, top)

    search = _slope_steps(_uniform_law_slope(p, excess, gap, target - d_min), gap,
                          2.0 ** (s_c * gap), d_min - target, d_max - target, dg_c)
    slope = next(search, None)
    best_low = law = None
    for _ in range(_SLOPE_STEPS):
        if slope is None:
            break
        pt = blahut_arimoto(source, d, slope, start=law)
        law = pt.output_law
        g = pt.distortion - target
        if abs(g) <= _DISTORTION_TOLERANCE * unit:
            return pt
        if g < 0.0:
            if best_low is None or pt.distortion > best_low.distortion:
                best_low = pt
        elif pt.distortion < best_high.distortion:
            best_high = pt
        try:
            slope = search.send((g, _distortion_slope(p, excess, slope, law)))
        except StopIteration:
            slope = None
    if best_low is None:
        best_low = blahut_arimoto(source, d, -np.inf)
    return _time_share(p, d.costs, excess, best_low, best_high, target)


def rd_curve(
    source: Distribution,
    d: DistortionMatrix | None = None,
    n_points: int = 33,
) -> RdCurve:
    """Sampled curve from near-lossless down to the zero-rate end.

    Slopes sweep a geometric range upward, -2^6 to -2^-6 per cost unit
    (_cost_unit), so points cluster where the curve bends.  Under
    Hamming-form costs (_hamming_form) each point is the closed-form
    water-filling one at its slope (_water_filling); otherwise each solve
    starts from the output law of the one before.
    Slopes at or above the critical slope (_critical_slope), where the
    point mass of the zero-rate end is optimal, are not solved, and the
    exact zero-rate endpoint (D_max, 0) is always the last point; where
    the least and the zero-rate distortion coincide, it is the curve's one
    point.
    """
    d = _check_pair(source, d)
    if _require_integer(n_points, "n_points") < 2:
        raise ValueError("n_points must be >= 2")
    unit = _cost_unit(d.costs)
    slopes = -np.exp2(np.linspace(6.0, -6.0, n_points - 1)) / unit
    s_c, _ = _critical_slope(source.probs, d.costs)
    excess = d.costs - d.costs.min(axis=1, keepdims=True)
    form = _hamming_form(d.costs, excess)
    pts = []
    law = None
    for s in slopes[slopes < s_c]:
        if form is not None:
            pts.append(_water_filling(source.probs, d.costs, excess, *form, float(s)))
            continue
        pts.append(blahut_arimoto(source, d, float(s), start=law))
        law = pts[-1].output_law
    pts.append(RdPoint(_zero_rate_distortion(source, d), 0.0, 0.0, 0))
    pts.sort(key=lambda p: (p.distortion, p.rate))
    kept: list[RdPoint] = []
    for p in pts:
        if kept and p.distortion - kept[-1].distortion <= 1e-12 * unit:
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
