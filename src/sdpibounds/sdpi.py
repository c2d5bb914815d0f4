"""Strong data processing constants of a finite joint distribution.

The contraction constant in direction X -> Y is the supremum of

    D(q_Y || P_Y) / D(q_X || P_X)

over input laws q_X != P_X, where q_Y is q_X pushed through the conditional
P(Y|X).  It lives in [0, 1] and is lower bounded by the squared maximal
correlation of the pair.  The supremum has no closed form in general, so
this module estimates it from below and takes the best of:

 - the squared maximal correlation (a certified lower bound via SVD);
 - the k vertices, and a simplex grid at pitch 1/20 on small alphabets;
 - vectorized multi-start ascent on the log ratio, from the grid's best
   points or, without a grid, the best local maxima along two SVD tilts
   (_tilt_starts): a coarse scan of each, refined ten times finer near its
   best peaks only, 575 to 650 evaluations where one fine scan took 4,802
   on the benchmark Gaussians.  No start is random.  Every start takes
   Newton steps where the log ratio is locally concave and gradient steps
   elsewhere; _directions picks each direction.  Its concavity test is one
   Cholesky call for all rows, and its Newton steps one solve; both work
   per matrix, so a failed matrix fails alone.  Every step is a mirror
   step, q exp(t v)/Z, in the KL geometry, where projected gradient steps
   crawl (a 9-level Gaussian stopped 1.2e-5 short after 2,000 rounds) or
   park on a simplex face.

y_to_x is x_to_y on the swapped joint (_posed, the one reader of a
direction): a joint equal to its transpose gets identical results both ways.

Nothing here certifies the supremum from above.  A result's method names
the stages that ran (see SdpiResult), and every result carries the
first-order gap at the best search point.

Both divergences are sums of a non-negative term per symbol (see
probability._kl_rows), so a ratio near the input marginal, where the
supremum is often approached, keeps about 11 significant digits (measured
within 2.1e-11 relative of 50-digit arithmetic at total-variation distance
1e-4 to 1e-2).

Each ascent start keeps its own rounds and backtracking; _multistart_search
has the schedule.  The evaluation count includes the tries that halving one
try at a time would skip (2,095 on the bundled quaternary joint, 2,661
on dsbs_p10).

A row's ratio, output law and direction can move in the last bits with the
number of rows in its _evaluate or _directions call: on 17 and 33 input
symbols at 116 and 62 of 199 subset sizes of a 200-row batch, on 2 to 9
only for a row alone.  So a batching change is checked on its results.
The search's bookkeeping (start selection, the sweep's per-start state,
skipping empty stacks) keeps the rows of every batched call, which is why
trimming it leaves every answer bit-identical.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateRatioError, DimensionMismatchError, ProbabilityError
from .probability import (
    Channel,
    Distribution,
    JointDistribution,
    _kl_rows,
    _mi_from_matrix,
    _require_integer,
    conditional,
)

# Floor for log arguments inside the ascent; keeps gradients finite on the
# simplex boundary without affecting any reported ratio value.
_LOG_FLOOR = 1e-300
# Numerator/denominator below this are treated as zero when forming ascent
# directions (the ratio itself is still computed exactly).
_TINY = 1e-15
# Total-variation radius of the ball around the input marginal that every
# search skips: the ratio is 0/0 at the marginal itself, and its limit there
# is at most rho_m^2 (Anantharam, Gohari, Kamath & Nair, arXiv:1304.6133),
# which the SVD bound already supplies, so one fixed small ball loses nothing.
EXCLUSION_RADIUS = 1e-4


@dataclass(frozen=True)
class SdpiConfig:
    """Which stages of the contraction-constant search run.

    The grid runs on input alphabets up to grid_max_alphabet (0: never),
    and the ascent starts at multistart_count grid or tilt points.  Setting
    multistart_count to 0 turns the ascent off (useful for isolating one
    method; the reported value is then a weaker lower bound).  Outside the
    tests, the benchmark's stage-isolating re-runs are the only callers that
    set either field; both go once the benchmark times the stages itself.
    """

    grid_max_alphabet: int = 4
    multistart_count: int = 8

    def __post_init__(self):
        for name in ("grid_max_alphabet", "multistart_count"):
            if _require_integer(getattr(self, name), name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True, eq=False)
class SdpiResult:
    """Outcome of a contraction-constant search.

    value is the best lower bound found: the divergence ratio at argmax_q,
    the best search point, or the squared maximal correlation with argmax_q
    None when that SVD bound beat every search point, i.e. the witness is a
    local perturbation rather than a simplex point.  first_order_gap is the
    first-order (KKT) gap of the log ratio (_first_order_gap) at the best
    search point, argmax_q or not; None when there is none, on one input
    symbol.  It is 0 at a local maximum, and inf at a point that leaves a
    symbol unused when the ratio rises into that symbol with infinite
    slope, as at every vertex of a channel with rows of full support.  So
    it shows how far the search was from converging there, not how far
    value is from the supremum.
    Where rho_m^2 wins, the best point often rests on the exclusion ball
    around the marginal and its gap stays large (0.056 on the 33-level
    Gaussian at rho = 0.5).  rho_m_squared is computed on the oriented
    pair, the swapped joint for y_to_x, so the two directions of one joint
    can differ in it at rounding level.
    method names the stages that ran: "combined" is the pitch-1/20 grid
    plus the ascent from its best points (2 to 4 input symbols),
    "multistart" the ascent from SVD tilt starts alone (5 or more), and
    "vertex" no search (one input symbol).  An SdpiConfig that switches
    a stage off can give "multistart" or "vertex" at any size, and "grid"
    when the ascent is off.
    """

    value: float
    argmax_q: Distribution | None
    rho_m_squared: float
    method: str
    evaluations: int
    first_order_gap: float | None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax_q": None if self.argmax_q is None else [float(v) for v in self.argmax_q.probs],
            "rho_m_squared": self.rho_m_squared,
            "method": self.method,
            "evaluations": self.evaluations,
            "first_order_gap": self.first_order_gap,
        }


def _posed(j: JointDistribution, direction: str) -> JointDistribution:
    """j posed as x_to_y: itself, or j.swapped() for y_to_x; the one direction check."""
    if direction not in ("x_to_y", "y_to_x"):
        raise ProbabilityError(f"unknown direction {direction!r}, expected 'x_to_y' or 'y_to_x'")
    return j if direction == "x_to_y" else j.swapped()


def _oriented(j: JointDistribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(input marginal, output marginal, conditional matrix) of a joint
    already posed as x_to_y (_posed)."""
    return j.probs.sum(axis=1), j.probs.sum(axis=0), conditional(j).rows


def divergence_ratio(
    q: Distribution,
    j: JointDistribution,
    direction: str = "x_to_y",
) -> float:
    """D(q_out || P_out) / D(q || P_in) for one candidate input law.

    q must stay at total-variation distance > EXCLUSION_RADIUS from the
    true input marginal; at the marginal itself the ratio is 0/0.
    """
    p_in, p_out, T = _oriented(_posed(j, direction))
    if q.alphabet_size != p_in.shape[0]:
        raise DimensionMismatchError(
            f"divergence_ratio: q has {q.alphabet_size} symbols, joint input has {p_in.shape[0]}"
        )
    tv = 0.5 * float(np.abs(q.probs - p_in).sum())
    if tv <= EXCLUSION_RADIUS:
        raise DegenerateRatioError(
            f"q is within total variation {tv:.2e} of the input marginal "
            f"(exclusion radius {EXCLUSION_RADIUS:g}); the ratio is 0/0 there"
        )
    return float(_evaluate(q.probs[None, :], p_in, p_out, T)[0][0])


def maximal_correlation(j: JointDistribution) -> float:
    """Second singular value of p(x,y)/sqrt(p(x)p(y)), clipped to [0, 1].

    Zero iff X and Y are independent, one iff they share a common nontrivial
    deterministic function.  Its square lower bounds both contraction
    constants.
    """
    return _correlation_svd(j)[1]


def _correlation_svd(j: JointDistribution):
    """(U, maximal correlation) from the reduced SVD of p(x,y)/sqrt(p(x)p(y))."""
    px = j.probs.sum(axis=1)
    py = j.probs.sum(axis=0)
    U, s, _ = np.linalg.svd(j.probs / np.sqrt(np.outer(px, py)), full_matrices=False)
    return U, (float(np.clip(s[1], 0.0, 1.0)) if s.size > 1 else 0.0)


def _evaluate(Q: np.ndarray, p_in, p_out, T):
    """(ratio, output law, numerator, denominator) per row of Q.

    The ratio is -inf inside the exclusion ball.  Computed in nats; the
    ratio is base-independent.  The output law is p_out plus the input's
    offset pushed through T, which keeps the digits that Q @ T - p_out
    would cancel near the marginal, clipped at 0 where rounding leaves it a
    hair below.  Both laws reach the kernel as marginal plus offset, the
    form _kl_rows needs.
    """
    d = Q - p_in
    dy = d @ T
    Qy = np.maximum(dy + p_out, 0.0)
    num = _kl_rows(Qy, dy, p_out)
    den = _kl_rows(d + p_in, d, p_in)
    # Twice the total variation against twice the radius.
    out = np.where(np.abs(d).sum(axis=1) > 2 * EXCLUSION_RADIUS,
                   num / np.maximum(den, _LOG_FLOOR), -np.inf)
    return out, Qy, num, den


@lru_cache(maxsize=8)
def _composition_grid(k: int, n: int) -> np.ndarray:
    """Compositions of n into k parts, divided by n, in lexicographic order.

    All pmfs on k symbols whose entries are multiples of 1/n, read-only and
    shared: built on first use and cached per (k, n).  Built one part at a
    time: each row's last part, the mass still left, is split into every
    (head, rest) pair.
    """
    comp = np.full((1, 1), n, dtype=np.int64)
    for _ in range(k - 1):
        reps = comp[:, -1] + 1
        comp = np.repeat(comp, reps, axis=0)
        head = np.arange(comp.shape[0]) - np.repeat(np.cumsum(reps) - reps, reps)
        comp = np.column_stack([comp[:, :-1], head, comp[:, -1] - head])
    grid = comp / n
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=8)
def _sum_zero_basis(k: int) -> np.ndarray:
    """Orthonormal basis (k x k-1) of the sum-zero vectors on k symbols.

    Read-only and cached per k, like the grid: every ascent round on k
    symbols uses the same basis.
    """
    basis = np.linalg.qr(np.eye(k) - 1.0 / k)[0][:, :k - 1]
    basis.flags.writeable = False
    return basis


def _top_rows(values: np.ndarray, rows: np.ndarray, count: int, spread: float) -> np.ndarray:
    """Up to count rows of finite value, best first, each at total variation
    >= spread from those taken before it; ties in lexicographic order.

    That is one greedy pass down the rows sorted by value, descending, then
    lexicographically, and a row's fate depends only on the rows before it.
    So the pass reads that order in blocks of 5 count rows (at most 64),
    sorting only the rows at or above the block's last value, and stops once
    it has count rows: the 8 grid starts of 2 to 4 symbols took at most 39
    rows on the benchmark inputs.  A block takes its distances to the rows
    already taken and among its own rows in one call.  They are summed in
    the order a row sum takes below 8 symbols; at spread 0 a distance only
    has to be a number, not NaN, to keep a row, whatever the order.
    """
    live = np.isfinite(values).nonzero()[0]
    v = values[live]
    taken, done = [], 0
    while len(taken) < count and done < live.size:
        lo, done = done, min(live.size, done + min(5 * count, 64))
        cand = live if done == live.size else live[v >= np.partition(v, -done)[-done]]
        block = cand[np.lexsort((*rows[cand, ::-1].T, -values[cand]))][lo:done].tolist()
        if not taken:
            # The best row is always taken, with no distance to check.
            taken.append(block.pop(0))
            if len(taken) == count or not block:
                continue
        # Symbols first, and contiguous: broadcasting runs along rows.
        Y = rows[taken + block].T.copy()
        # far[j, i]: is block row i at total variation > spread from row j
        # of Y, the rows taken so far and then the block's own?  The sums
        # are twice the total variation.  The slack absorbs rounding: grid
        # distances are multiples of the pitch.
        far = np.abs(Y[:, :, None] - Y[:, None, len(taken):]).sum(axis=0) > 2 * (spread - 1e-9)
        # Each row of far as an integer, bit i for block row i; bit i of
        # alive: block row i is far from every row taken so far.
        bits = (far @ np.left_shift(1, np.arange(len(block), dtype=np.uint64))).tolist()
        alive, before = (1 << len(block)) - 1, len(taken)
        for b in bits[:before]:
            alive &= b
        while alive and len(taken) < count:
            i = (alive & -alive).bit_length() - 1
            taken.append(block[i])
            alive &= bits[before + i] & ~(1 << i)
    return rows[taken]


# The grid pitch is 1/_GRID_PITCH; ascent starts from it are _GRID_SPREAD apart.
_GRID_PITCH, _GRID_SPREAD = 20, 0.1
# Tilt strengths theta along each SVD direction: a fine grid of 2,401 points
# on [-60, 60] at step 0.05, exactly symmetric, so a vector's sign does not
# matter.  A scan evaluates every _COARSE-th of them (241 points, step 0.5,
# also symmetric), then only the fine points near its best peaks.
_TILTS = np.arange(-1200, 1201)[:, None] / 20.0
_COARSE = 10


def _peaks(f):
    """f where it is >= both neighbours, -inf elsewhere; the ends see -inf."""
    edged = np.concatenate([[-np.inf], f, [-np.inf]])
    return np.where((f >= edged[:-2]) & (f >= edged[2:]), f, -np.inf)


def _tilted(theta, u, p_in):
    """The laws p_in exp(theta u / sqrt(p_in)) / Z, one row per theta: the
    mirror step from p_in."""
    return _mirror_rows(p_in[None, :], theta * (u / np.sqrt(p_in)))


def _tilt_starts(p_in, p_out, T, vectors, count):
    """(list of start arrays, evaluations): local maxima along SVD tilts.

    For each singular vector u, the laws q_theta ∝ p_in exp(theta u /
    sqrt(p_in)) at _TILTS points, whose ratio tends to u's squared singular
    value as theta -> 0; the discrete counterpart of the Gaussian extremals
    (Anantharam, Gohari, Kamath & Nair, arXiv:1304.6133; Makur & Zheng,
    arXiv:1510.01844).  The first vector gets the larger half of count, n.
    Two passes per vector: the coarse points, of which the n best local
    maxima are kept, then every fine point within one coarse step of a
    kept one, clipped to [-60, 60] and each evaluated once where windows
    overlap.  The starts are the n best fine local maxima, a window's
    unscanned neighbours counting as -inf.  That is 241 + at most 21 n
    evaluations per vector where the full fine grid took 2,401.
    """
    starts, evals = [], 0
    coarse = np.arange(0, _TILTS.shape[0], _COARSE)
    for u, n in zip(vectors, (count - count // 2, count // 2)):
        f = _evaluate(_tilted(_TILTS[coarse], u, p_in), p_in, p_out, T)[0]
        kept = _top_rows(_peaks(f), coarse[:, None], n, 0.0)
        window = kept + np.arange(-_COARSE, _COARSE + 1)
        fine = np.unique(np.clip(window, 0, _TILTS.shape[0] - 1))
        Q = _tilted(_TILTS[fine], u, p_in)
        full = np.full(_TILTS.shape[0], -np.inf)
        full[fine] = _evaluate(Q, p_in, p_out, T)[0]
        evals += coarse.size + fine.size
        starts.append(_top_rows(_peaks(full)[fine], Q, n, 0.0))
    return starts, evals


def _mirror_rows(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Mirror step Q * exp(V) / Z per row, in the KL geometry.

    Formed in the log domain, log max(Q, _LOG_FLOOR) + V minus its row max,
    so no row underflows to all zeros and an entry at 0 can come back.
    """
    W = np.log(np.maximum(Q, _LOG_FLOOR)) + V
    W -= W.max(axis=1, keepdims=True)
    np.exp(W, out=W)
    W /= W.sum(axis=1, keepdims=True)
    return W


def _negative_definite(H):
    """Per matrix of the stack H: does a Cholesky factorization of -H succeed?

    One call for the whole stack.  np.linalg.cholesky raises for a stack
    when one matrix fails, so this calls the per-matrix gufunc behind it,
    cholesky_lo of numpy's private numpy.linalg._umath_linalg (the same
    LAPACK routine), which fills a failed matrix with NaN instead and sets
    the invalid flag: call it under np.errstate(all="ignore"), as
    _directions does.  A factor that succeeds starts with sqrt(-H[0, 0]) > 0;
    one that fails, with NaN.
    """
    return _umath_linalg.cholesky_lo(-H, signature="d->d")[:, 0, 0] > 0.0


def _solved(H, b):
    """x with H x = b per matrix of the stack, one call for the whole stack.

    Bit for bit np.linalg.solve on each matrix alone where that returns; a
    matrix it raises on, one that LAPACK finds singular, gets NaN here
    instead of failing the stack.  The same private gufunc route, and the
    same errstate, as _negative_definite.
    """
    return _umath_linalg.solve(H, b[:, :, None], signature="dd->d")[:, :, 0]


def _directions(Q, Qy, num, den, p_in, p_out, T, TB):
    """(concave, direction) per row: the ascent direction of log(num/den).

    Qy, num and den are the output laws and ratio parts of Q from _evaluate,
    and TB is T' B, which stays fixed over a search.  Each direction is the
    exponent v of a mirror step q exp(t v)/Z: the gradient, zeroed where
    num or den vanishes, or, on a row where the log ratio is locally
    concave, d/q for the Newton direction d, whose mirror step is q + t d
    to first order.
    Newton works in the sum-zero tangent space with an orthonormal basis B
    (k x k-1); a row is concave when the reduced Hessian
        H_N/N - g_N g_N'/N^2 - H_D/D + g_D g_D'/D^2,
    H_N = T diag(1/q_out) T', H_D = diag(1/q), g_N = T log(q_out/p_out),
    g_D = log(q/p_in), is negative definite: when a Cholesky factorization
    of its negation succeeds (_negative_definite, one call for all rows).
    One call to _solved gives the Newton steps of all concave rows.  A row
    with an entry near 0, where 1/q puts entries up to 1e300 into H, can
    pass the factorization and still be singular to solve; it takes the
    gradient.
    """
    k = Q.shape[1]
    N = np.maximum(num, _TINY)[:, None]
    D = np.maximum(den, _TINY)[:, None]
    q_out = np.maximum(Qy, _LOG_FLOOR)
    q = np.maximum(Q, _LOG_FLOOR)
    log_out = np.log(q_out / p_out)
    log_in = np.log(q / p_in)
    G = ((log_out + 1.0) @ T.T) / N - (log_in + 1.0) / D
    # num < _TINY or den < _TINY: fmin, unlike minimum, skips a NaN.
    vanishing = np.fmin(num, den) < _TINY
    G[vanishing] = 0.0

    B = _sum_zero_basis(k)
    bN = log_out @ T.T @ B
    bD = log_in @ B
    gN, gD = bN / N, bD / D
    inv_q = 1.0 / q
    # One errstate for the whole stack: H overflows on rows near a face, and
    # the factorization and solve flag their failed matrices.
    with np.errstate(all="ignore"):
        H = ((TB.T / q_out[:, None, :]) @ TB - bN[:, :, None] * gN[:, None, :]) / N[:, :, None]
        H -= ((B.T * inv_q[:, None, :]) @ B - bD[:, :, None] * gD[:, None, :]) / D[:, :, None]
        concave = np.isfinite(H).all(axis=(1, 2))
        concave[vanishing] = False
        # No factorization, solve or assignment for an empty stack.
        if concave.any():
            concave[concave] = _negative_definite(H[concave])
        rows = concave.nonzero()[0]
        if rows.size:
            v = (_solved(H[rows], (gD - gN)[rows]) @ B.T) * inv_q[rows]
            # A row whose solve failed, or whose d/q overflows, takes the gradient.
            ok = np.isfinite(v).all(axis=1)
            concave[rows] = ok
            G[rows[ok]] = v[ok]
    return concave, G


def _first_order_gap(q, qy, num, den, p_in, p_out, T) -> float:
    """First-order (KKT) gap of log(num/den) at the simplex point q.

    qy, num and den are q's output law and ratio parts, a row of _evaluate.
    The gap is the spread of the gradient over q's support; 0 at a local
    maximum, and where num or den vanishes, as _directions has it.  Mass
    eps moved onto a symbol x off the support changes log(num/den) by
    eps log(eps) (c/num - 1/den) plus O(eps), where c is the mass of x's
    row of T on outputs that qy leaves at 0.  So the gap is inf when
    c den < num for some such x: the ratio rises there with infinite
    slope, as at every vertex of a channel with rows of full support.  Any
    other x lowers the ratio with infinite slope, or where c den = num with
    a finite one that the gap leaves out.
    """
    if num < _TINY or den < _TINY:
        return 0.0
    on = q > 0
    if (T[~on][:, qy <= 0].sum(axis=1) * den < num).any():
        return np.inf
    g = ((np.log(np.maximum(qy, _LOG_FLOOR) / p_out) + 1.0) @ T.T / num)[on]
    g -= (np.log(q[on] / p_in[on]) + 1.0) / den
    return float(g.max() - g.min())


# A round tries a start's step, then each halving of it, 40 tries at most;
# past the first, a try runs only while its step is at least
# _STEP_TOLERANCE.  A round's first sweep makes _FIRST_TRIES of them.  A
# start retires after _MAX_ROUNDS rounds at most.
_HALVINGS = 40
_FIRST_TRIES = 2
_STEP_TOLERANCE = 1e-10
_MAX_ROUNDS = 2000


def _multistart_search(p_in, p_out, T, starts: np.ndarray, max_iterations: int):
    """Ascent on the log ratio from each row of starts.

    A try is a step along the direction v from _directions, tried from
    step 1.0 on locally concave (Newton) rows: the mirror step
    q exp(t v)/Z in the KL geometry (Beck & Teboulle 2003), where the
    divergence's Hessian diag(1/q) would make Euclidean steps crawl.

    Each start keeps its own step, round count and backtracking phase.  A
    round takes a direction and tries the step and one halving; if both
    fail, the next sweep tries the other halvings.  A start accepts its
    first improving try, as halving one at a time would, and retires when a
    whole round fails or after max_iterations rounds.  Every sweep scores
    all tries in one mirror step and one evaluation.  A step grows by half
    on success, with no cap.  Returns the final value and point of every
    start, and the evaluation count.
    """
    Q = starts.copy()
    n = Q.shape[0]
    f, Qy, num, den = _evaluate(Q, p_in, p_out, T)
    evals = n
    # The bookkeeping is per start, on Python floats, whose arithmetic is
    # numpy's float64 arithmetic; only the batched steps use numpy.
    f, step = f.tolist(), [0.1] * n
    # Rounds each start has left, 0 once retired.
    left = [max_iterations] * n
    # The halvings each start tries in its next sweep, and the usable ones
    # past its first window.  Halving h tries step * 2**-h, exactly, and is
    # usable if step >= floor[h]: always for h = 0, then while
    # step * 2**-h >= _STEP_TOLERANCE.
    tries, rest = [range(0)] * n, [range(0)] * n
    floor = [-math.inf] + [math.ldexp(_STEP_TOLERANCE, h) for h in range(1, _HALVINGS)]
    G = np.empty_like(Q)
    # Starts that begin a round, with Qy, num and den of their points.
    fresh = list(range(n))
    TB = T.T @ _sum_zero_basis(Q.shape[1])

    while live := [r for r in range(n) if left[r]]:
        # A sweep that only goes on with halvings needs no new direction.
        if fresh:
            concave, G[fresh] = _directions(Q[fresh], Qy, num, den, p_in, p_out, T, TB)
            for r, newton in zip(fresh, concave.tolist()):
                if newton:
                    step[r] = 1.0
                usable = bisect.bisect_right(floor, step[r])
                tries[r], rest[r] = range(min(usable, _FIRST_TRIES)), range(_FIRST_TRIES, usable)
        # The tries come start by start, each start's in halving order.
        idx = [r for r in live for _ in tries[r]]
        tried = [math.ldexp(step[r], -h) for r in live for h in tries[r]]
        at = np.array(idx)
        trial = _mirror_rows(Q[at], np.array(tried)[:, None] * G[at])
        ft, ty, tn, td = _evaluate(trial, p_in, p_out, T)
        evals += len(idx)
        scores = ft.tolist()
        won, again, u = [], [], 0
        for r in live:
            # The first improving try, as halving one at a time would take.
            bar, end = f[r] + 1e-15, u + len(tries[r])
            while u < end and not scores[u] > bar:
                u += 1
            if u == end:
                # A failed first window goes on to any usable halvings left;
                # any other failure leaves a direction useless at this
                # scale: retire.
                tries[r], rest[r] = rest[r], range(0)
                if not tries[r]:
                    left[r] = 0
                continue
            f[r], step[r] = scores[u], tried[u] * 1.5
            left[r] -= 1
            won.append(u)
            if left[r]:
                again.append(u)
            u = end
        if won:
            Q[at[won]] = trial[won]
        fresh = [idx[u] for u in again]
        if again:
            Qy, num, den = ty[again], tn[again], td[again]

    return np.array(f), Q, evals


def sstar(
    j: JointDistribution,
    direction: str = "x_to_y",
    cfg: SdpiConfig | None = None,
) -> SdpiResult:
    """Best available lower bound on the contraction constant of one direction.

    Takes the max over the squared maximal correlation, the vertices, the
    simplex grid (input alphabets of 2 to cfg.grid_max_alphabet symbols),
    and multi-start ascent (2 symbols or more; one input symbol leaves no
    law but the marginal, and the value is rho_m^2 = 0), and the
    first-order gap at the best of those points.  At the default cfg, a
    function of the joint and the direction alone.
    """
    if cfg is None:
        cfg = SdpiConfig()
    j = _posed(j, direction)
    p_in, p_out, T = _oriented(j)
    k = p_in.shape[0]
    U, rho = _correlation_svd(j)
    rho2 = rho ** 2

    corners = np.eye(k)
    cand_vals = [_evaluate(corners, p_in, p_out, T)[0]]
    cand_rows = [corners]
    evals = k

    ran = []
    if 2 <= k <= cfg.grid_max_alphabet:
        grid = _composition_grid(k, _GRID_PITCH)
        vals = _evaluate(grid, p_in, p_out, T)[0]
        evals += grid.shape[0]
        ran.append("grid")
        # Only the grid rows tied at its best value can be the best point
        # (a ratio is a number or -inf, never NaN).
        top = vals == vals.max()
        cand_vals.append(vals[top])
        cand_rows.append(grid[top])
        starts = [_top_rows(vals, grid, cfg.multistart_count, _GRID_SPREAD)]
    if k >= 2 and cfg.multistart_count > 0:
        if not ran:
            starts, n = _tilt_starts(p_in, p_out, T, U.T[1:3], cfg.multistart_count)
            evals += n
        starts = np.vstack(starts) if starts else np.empty((0, k))
        f, Q, n = _multistart_search(p_in, p_out, T, starts, _MAX_ROUNDS)
        evals += n
        ran.append("multistart")
        cand_vals.append(f)
        cand_rows.append(Q)
    best = _top_rows(np.concatenate(cand_vals), np.vstack(cand_rows), 1, 0.0)
    method = "combined" if len(ran) == 2 else (ran[0] if ran else "vertex")

    value, argmax, gap = rho2, None, None
    if best.size:
        # Report the ratio at the pmf handed back, not at the unnormalized search row.
        q = Distribution(best[0])
        at_q, qy, num, den = (a[0] for a in _evaluate(q.probs[None, :], p_in, p_out, T))
        gap = _first_order_gap(q.probs, qy, num, den, p_in, p_out, T)
        if at_q >= rho2:
            value, argmax = float(at_q), q
    value = float(np.clip(value, 0.0, 1.0))
    return SdpiResult(value=value, argmax_q=argmax, rho_m_squared=rho2,
                      method=method, evaluations=evals, first_order_gap=gap)


def verify_sdpi_inequality(
    j: JointDistribution,
    u_channel: Channel,
    sstar_value: float,
) -> tuple[float, float, bool]:
    """Check I(Y;U) <= sstar_value * I(X;U) for U drawn from X via u_channel.

    u_channel rows are P(U=.|X=x), making U -- X -- Y a chain.  Returns
    (lhs, rhs, holds) with holds allowing 1e-9 slack.  Only meaningful when
    sstar_value is (an upper estimate of) the X -> Y contraction constant;
    with an underestimate a failed check is inconclusive.  A NaN, infinite
    or negative sstar_value raises ValueError; values above 1 are vacuous
    upper estimates and allowed.
    """
    if not (np.isfinite(sstar_value) and sstar_value >= 0.0):
        raise ValueError(f"sstar_value must be finite and >= 0, got {sstar_value!r}")
    if u_channel.input_size != j.x_size:
        raise DimensionMismatchError(
            f"u_channel input {u_channel.input_size} does not match x alphabet {j.x_size}"
        )
    px = j.probs.sum(axis=1)
    pxu = px[:, None] * u_channel.rows
    pyu = j.probs.T @ u_channel.rows
    lhs = _mi_from_matrix(pyu)
    rhs = sstar_value * _mi_from_matrix(pxu)
    return lhs, rhs, lhs <= rhs + 1e-9

