"""Strong data processing constants of a finite joint distribution.

The contraction constant in direction X -> Y is the supremum of

    D(q_Y || P_Y) / D(q_X || P_X)

over input laws q_X != P_X, where q_Y is q_X pushed through the conditional
P(Y|X).  It lives in [0, 1] and is lower bounded by the squared maximal
correlation of the pair.  The supremum has no closed form in general, so
this module estimates it from below and takes the best of:

 - the squared maximal correlation (a certified lower bound via SVD);
 - a simplex grid at pitch 1/20 on small alphabets, which holds the k
   vertices, or the vertices alone without it;
 - on two input symbols, one Newton search on the segment of input laws
   from the grid's local maxima (_segment_search): safeguarded Newton
   steps on the log ratio's slope in the log-odds, in about a third of the
   time the ascent below took on the benchmark's binary-input joints (2
   vCPUs of an Intel Xeon);
 - otherwise, vectorized multi-start ascent on the log ratio, from the
   grid's best points (3 or 4 input symbols) or, without a grid, the best
   local maxima along two SVD tilts (_tilt_starts): a coarse scan of each,
   refined ten times finer near its best peaks only, 575 to 650
   evaluations where one fine scan took 4,802 on the benchmark Gaussians.
   No start is random.  Every start takes Newton steps where the log ratio
   is locally concave, saddle-free Newton steps where it is not, and
   gradient steps only where neither can be formed; _directions picks each
   direction.  Its concavity test is one Cholesky call for all rows, its
   Newton steps one solve and its saddle-free steps one
   eigendecomposition; each works per matrix, so a failed matrix fails
   alone.  Every step is a mirror step, q exp(t v)/Z,
   in the KL geometry, where projected gradient steps crawl (a 9-level
   Gaussian stopped 1.2e-5 short after 2,000 rounds) or park on a simplex
   face.  A grid start retires once a better start is within reach of it
   (_multistart_search), and every search skips the laws within the same
   reach of the input marginal, where the ratio is 0/0 (_evaluate).

An independent joint, where the rows of P(Y|X) or of P(X|Y) are
bit-identical, takes none of these: its constants are exactly 0.

y_to_x is x_to_y on the transpose (_posed, the one reader of a direction
and of the joint): a joint equal to its transpose gets identical results
both ways.

Nothing here certifies the supremum from above.  A result's method names
the stages that ran (see SdpiResult), and every result carries the
first-order gap at the best search point.

Both divergences are sums of a non-negative term per symbol (see
probability._kl_rows), so a ratio near the input marginal, where the
supremum is often approached, keeps about 11 significant digits: against
50-digit arithmetic at log distance 1e-3 to 1e-1 from the marginal (total
variation 2.2e-5 to 4.8e-2), it was within 1.4e-11 relative where the
ratio is above 1e-3, and within 3.0e-10 at a ratio of 9.1e-7.

Every round of every ascent start tries the same steps, 1 and its
halvings, whatever its direction; _multistart_search has the schedule.  The
evaluation count includes the tries that halving one try at a time would
skip (1,947 on the bundled quaternary joint).  On two input symbols it
counts the grid and each point the segment search scores (25 on dsbs_p10,
where every bracket from below rho_m^2 heads into the ball around the
marginal, and none on independent_binary).

A row's ratio, output law and direction can move in the last bits with the
number of rows in its _evaluate or _directions call: on 17 and 33 input
symbols at 116 and 62 of 199 subset sizes of a 200-row batch, on 2 to 9
only for a row alone.  So a batching change is checked on its results.
The search's bookkeeping (start selection, the sweep's per-start state,
skipping empty stacks) keeps the rows of every batched call, which is why
trimming it leaves every answer bit-identical.
"""

from __future__ import annotations

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
    _marginal_sums,
    _mi_from_matrix,
    _require_integer,
)

# Floor for log arguments inside the ascent; keeps gradients finite on the
# simplex boundary without affecting any reported ratio value.
_LOG_FLOOR = 1e-300
# Numerator/denominator below this are treated as zero when forming ascent
# directions (the ratio itself is still computed exactly).
_TINY = 1e-15
# Two laws are near when max_x |ln q_a(x) - ln q_b(x)| <= _MERGE_RADIUS,
# the log geometry of the mirror steps.  A grid start merges into a better
# start near it (_multistart_search), and every search skips the laws near
# the input marginal (_evaluate), where the ratio is 0/0 and its limit is
# at most rho_m^2 (Anantharam, Gohari, Kamath & Nair, arXiv:1304.6133),
# which the SVD bound supplies: the marginal acts as a retired start of
# value rho_m^2.  However small p_in(x), a law near a vertex is not near
# p_in, so unlike a total-variation ball this one holds no face region.
_MERGE_RADIUS = 1e-3


@dataclass(frozen=True)
class SdpiConfig:
    """Which stages of the contraction-constant search run.

    The grid runs on input alphabets up to grid_max_alphabet (0: never),
    and the ascent starts at multistart_count grid or tilt points; on two
    input symbols with the grid on, the ascent is the segment search
    (_segment_search), whatever the count.  Setting multistart_count to 0
    turns the ascent off (useful for isolating one method; the reported
    value is then a weaker lower bound).  Outside the tests, the
    benchmark's stage-isolating re-runs are the only callers that set
    either field; both go once the benchmark times the stages itself.
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
    search point, argmax_q or not; None when there is none, on an
    independent joint.  Where grid starts merged (_multistart_search), the
    best point is the start that stayed, so the gap is that start's; on two
    input symbols it is the best point a segment search bracket ended at
    (_segment_search).  It is 0 at a local maximum, and inf at a point
    that leaves a symbol unused when the ratio rises into that symbol with
    infinite slope, as at every vertex of a channel with rows of full
    support.  So it shows how far the search was from converging there,
    not how far value is from the supremum.
    Where rho_m^2 wins, the best point is often a start that retired when
    its try entered the ball around the marginal (_evaluate), or a segment
    search point at the ball's edge, and its gap stays above the witnesses'
    (2.7e-5 on the 33-level Gaussian at rho = 0.5, 2.4e-4 on dsbs_p10).
    rho_m_squared is computed on the posed pair, the transpose for y_to_x
    (_posed): its marginals are the joint's swapped bit for bit, but the
    SVD of a transpose can round differently, so the two directions of one
    joint can differ in it at rounding level.
    method names the stages that ran: "combined" is the pitch-1/20 grid
    plus the segment search from its local maxima on 2 input symbols or the
    ascent from its best points on 3 and 4, "multistart" the ascent from
    SVD tilt starts alone (5 or more), and "independent" no search: the
    joint is independent (_independent, one input or output symbol
    included), value and rho_m_squared are 0.0, evaluations 0, and
    argmax_q and first_order_gap None.  An SdpiConfig
    that switches a stage off can give "multistart" at any size, "grid"
    when the ascent is off, and "vertex" (the vertices alone) when both
    are.
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


def _posed(j: JointDistribution, direction: str):
    """(P, p_in, p_out, T): j posed as x_to_y, the one direction check.

    P is j.probs, or for y_to_x its transpose copied C-contiguous: the bits
    and layout of j.swapped().probs, not validated again.  p_in and p_out
    are P's marginals (_marginal_sums), and T = P / p_in is P(Y|X) as
    conditional forms it.
    """
    if direction not in ("x_to_y", "y_to_x"):
        raise ProbabilityError(f"unknown direction {direction!r}, expected 'x_to_y' or 'y_to_x'")
    P = j.probs if direction == "x_to_y" else np.ascontiguousarray(j.probs.T)
    p_in, p_out = _marginal_sums(P)
    return P, p_in, p_out, P / p_in[:, None]


def divergence_ratio(
    q: Distribution,
    j: JointDistribution,
    direction: str = "x_to_y",
) -> float:
    """D(q_out || P_out) / D(q || P_in) for one candidate input law.

    Raises DegenerateRatioError where _evaluate masks q: within the ball
    max_x |ln q(x) - ln p_in(x)| <= _MERGE_RADIUS around the input marginal
    p_in, where the ratio is 0/0 at p_in itself.
    """
    _, p_in, p_out, T = _posed(j, direction)
    if q.alphabet_size != p_in.shape[0]:
        raise DimensionMismatchError(
            f"divergence_ratio: q has {q.alphabet_size} symbols, joint input has {p_in.shape[0]}"
        )
    ratio = float(_evaluate(q.probs[None, :], p_in, p_out, T)[0][0])
    if ratio == -math.inf:
        raise DegenerateRatioError(
            f"q is within log distance {_MERGE_RADIUS:g} of the input marginal in every "
            "symbol; the ratio is 0/0 at the marginal"
        )
    return ratio


def maximal_correlation(j: JointDistribution) -> float:
    """Second singular value of p(x,y)/sqrt(p(x)p(y)), clipped to [0, 1].

    Zero iff X and Y are independent, one iff they share a common nontrivial
    deterministic function.  Its square lower bounds both contraction
    constants.  Exactly 0.0 where the rows of P(Y|X) or of P(X|Y) are
    bit-identical (_independent), where the SVD leaves rounding noise.
    """
    P, p_in, p_out, T = _posed(j, "x_to_y")
    return 0.0 if _independent(P, p_out, T) else _correlation_svd(P, p_in, p_out)[1]


def _independent(P, p_out, T) -> bool:
    """Are the rows of T = P(Y|X), or those of P(X|Y), bit-identical?

    Then X and Y are independent up to the rounding of one division per
    cell, and both contraction constants are 0: every ratio the search
    would take is rounding noise (2.8e-34 on independent_binary.json).
    One input or one output symbol leaves a single row, so it counts.
    P(X|Y) is P' / p_out, the rows conditional forms on the swapped joint.
    """
    if (T == T[0]).all():
        return True
    rows = P.T / p_out[:, None]
    return bool((rows == rows[0]).all())


def _correlation_svd(P, p_in, p_out):
    """(U, maximal correlation) from the reduced SVD of p(x,y)/sqrt(p(x)p(y)).

    Both marginals are scaled by 2^511, so a product of two masses of at
    least the least normal double (JointDistribution) stays normal; the
    powers of two cancel exactly, so every other quotient keeps its bits.
    """
    scale = 2.0 ** 511
    U, s, _ = np.linalg.svd(P * scale / np.sqrt(np.outer(p_in * scale, p_out * scale)),
                            full_matrices=False)
    return U, (float(np.clip(s[1], 0.0, 1.0)) if s.size > 1 else 0.0)


def _evaluate(Q: np.ndarray, p_in, p_out, T):
    """(ratio, output law, numerator, denominator) per row of Q.

    The ratio is -inf on the rows near the input marginal, where every
    |ln q(x) - ln p_in(x)| = |log1p(d(x) / p_in(x))| <= _MERGE_RADIUS, for
    the offset d = q - p_in.  Computed in nats; the ratio is
    base-independent.  The output law is p_out plus the input's
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
    # Far from the marginal: some offset outside p_in (e^-r - 1, e^r - 1).
    r = _MERGE_RADIUS
    far = ((d < p_in * math.expm1(-r)) | (d > p_in * math.expm1(r))).any(axis=1)
    out = np.where(far, num / np.maximum(den, _LOG_FLOOR), -np.inf)
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
    At spread 0 the pass keeps every row (the rows are finite, so each
    distance is a number), which is the first count rows of that order:
    one partial sort to the count-th best value, then one sort of the rows
    at or above it.  Otherwise the pass reads the order in blocks of 5
    count rows (at most 64), sorting only the rows at or above the block's
    last value, and stops once it has count rows: the 8 grid starts of 2
    to 4 symbols took at most 39 rows on the benchmark inputs.  A block
    takes its distances to the rows already taken and among its own rows
    in one call, summed in the order a row sum takes below 8 symbols.
    """
    live = np.isfinite(values).nonzero()[0]
    v = values[live]
    if spread == 0.0:
        n = min(count, live.size)
        if n == 0:
            return rows[:0]
        cand = live[v >= np.partition(v, -n)[-n]]
        return rows[cand[np.lexsort((*rows[cand, ::-1].T, -values[cand]))][:n]]
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


# Floor of the saddle-free step's |eigenvalues|, relative to the row's
# largest.  An eigenvalue near 0 would send the step along its eigenvector
# off to infinity; rounding leaves one only eps |lambda_max| accurate, so
# the floor caps the modified Hessian's condition number at 1e8, where the
# floored eigenvalues still hold about 8 digits.
_EIGEN_FLOOR = 1e-8


def _saddle_free(H, b):
    """x = -|H|^-1 b per matrix of the stack, |H| = V diag(|lambda|) V' from
    the eigendecomposition H = V diag(lambda) V', with each |lambda| raised
    to at least _EIGEN_FLOOR times the matrix's largest.

    Where H is negative definite, -|H| = H and x solves H x = b as _solved
    does.  With b the negated gradient of a function to maximize, x is the
    saddle-free Newton step (Dauphin et al., arXiv:1406.2572; Nocedal &
    Wright, Numerical Optimization, 3.4): Newton's step with every
    curvature taken as negative, so it ascends along every eigenvector.
    One call for the stack through eigh_lo, the per-matrix gufunc behind
    np.linalg.eigh, which gives NaN for a matrix whose decomposition fails;
    the same private route and errstate as _negative_definite.
    """
    lam, V = _umath_linalg.eigh_lo(H, signature="d->dd")
    lam = np.abs(lam)
    lam = np.maximum(lam, _EIGEN_FLOOR * lam.max(axis=1, keepdims=True))
    return -(V @ ((b[:, None, :] @ V)[:, 0, :] / lam)[:, :, None])[:, :, 0]


def _gradient(q, q_out, N, D, p_in, p_out, T):
    """Gradient of log(N/D) at q, output law q_out (both floored)."""
    return ((np.log(q_out / p_out) + 1.0) @ T.T) / N - (np.log(q / p_in) + 1.0) / D


def _directions(Q, Qy, num, den, p_in, p_out, T, TB):
    """(concave, saddle, direction) per row: the ascent direction of log(num/den).

    Qy, num and den are the output laws and ratio parts of Q from _evaluate,
    and TB is T' B, which stays fixed over a search.  Each direction is the
    exponent v of a mirror step q exp(t v)/Z: d/q for a Newton direction d,
    whose mirror step is q + t d to first order, on the rows flagged
    concave (Newton) or saddle (saddle-free Newton), and the gradient
    elsewhere, zeroed where num or den vanishes.
    Newton works in the sum-zero tangent space with an orthonormal basis B
    (k x k-1); a row is concave when the reduced Hessian
        H = H_N/N - g_N g_N'/N^2 - H_D/D + g_D g_D'/D^2,
    H_N = T diag(1/q_out) T', H_D = diag(1/q), g_N = T log(q_out/p_out),
    g_D = log(q/p_in), is negative definite: when a Cholesky factorization
    of its negation succeeds (_negative_definite, one call for all rows).
    One call to _solved gives the Newton steps of all concave rows, and one
    call to _saddle_free the steps of the rows with a finite H that fail
    the factorization, where gradient steps crawl (52 % of the rows on the
    benchmark's quantized Gaussians).  A row with an entry near 0, where
    1/q puts entries up to 1e300 into H, can pass the factorization and
    still be singular to solve; it takes the gradient, as does a row whose
    eigendecomposition fails.  The gradient is formed only when some row
    takes it, and a path that every row takes factors and solves the whole
    stack, with no copy of it; neither changes a bit of any direction.
    """
    k = Q.shape[1]
    N = np.maximum(num, _TINY)[:, None]
    D = np.maximum(den, _TINY)[:, None]
    q_out = np.maximum(Qy, _LOG_FLOOR)
    q = np.maximum(Q, _LOG_FLOOR)
    log_out, log_in = np.log(q_out / p_out), np.log(q / p_in)
    # num < _TINY or den < _TINY: fmin, unlike minimum, skips a NaN.
    vanishing = np.fmin(num, den) < _TINY

    B = _sum_zero_basis(k)
    bN = log_out @ T.T @ B
    bD = log_in @ B
    gN, gD = bN / N, bD / D
    b = gD - gN
    inv_q = 1.0 / q
    steps = []
    # One errstate for the whole stack: H overflows on rows near a face, and
    # the factorization, solve and eigendecomposition flag their failed
    # matrices.
    with np.errstate(all="ignore"):
        H = ((TB.T / q_out[:, None, :]) @ TB - bN[:, :, None] * gN[:, None, :]) / N[:, :, None]
        H -= ((B.T * inv_q[:, None, :]) @ B - bD[:, :, None] * gD[:, None, :]) / D[:, :, None]
        concave = np.isfinite(H).all(axis=(1, 2))
        concave[vanishing] = False
        saddle = concave.copy()
        # No factorization, solve or assignment for an empty stack.
        if concave.all():
            concave = _negative_definite(H)
        elif concave.any():
            concave[concave] = _negative_definite(H[concave])
        saddle &= ~concave
        for flags, solve in ((concave, _solved), (saddle, _saddle_free)):
            rows = flags.nonzero()[0]
            if rows.size == flags.size:
                v = (solve(H, b) @ B.T) * inv_q
            elif rows.size:
                v = (solve(H[rows], b[rows]) @ B.T) * inv_q[rows]
            else:
                continue
            # A row whose solve or eigendecomposition failed, or whose d/q
            # overflows, takes the gradient.
            ok = np.isfinite(v).all(axis=1)
            flags[rows] = ok
            steps.append((rows[ok], v[ok]))
    if (concave | saddle).all():
        G = np.empty_like(Q)
    else:
        G = _gradient(q, q_out, N, D, p_in, p_out, T)
        G[vanishing] = 0.0
    for rows, v in steps:
        G[rows] = v
    return concave, saddle, G


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
    g = _gradient(np.maximum(q, _LOG_FLOOR), np.maximum(qy, _LOG_FLOOR), num, den,
                  p_in, p_out, T)[on]
    return float(g.max() - g.min())


# A round tries the steps 1, 1/2, ..., 2**(1 - _STEPS) in halving order, the
# first _FIRST_TRIES of them in its first sweep and the rest in the next;
# the last, 2**-33, is about 1.2e-10.  A start retires after _MAX_ROUNDS
# rounds at most.
_STEPS = 34
_FIRST_TRIES = 2
_MAX_ROUNDS = 2000


def _multistart_search(p_in, p_out, T, starts: np.ndarray, max_iterations: int, rho2: float,
                       merge: bool):
    """Ascent on the log ratio from each row of starts.

    sstar runs it from grid starts on 3 and 4 input symbols and from tilt
    starts without a grid; on two input symbols with the grid it runs
    _segment_search instead.
    A try is the mirror step q exp(t v)/Z along the direction v from
    _directions, in the KL geometry (Beck & Teboulle 2003), where the
    divergence's Hessian diag(1/q) would make Euclidean steps crawl.

    Each start keeps its own round count and backtracking phase.  A round
    takes a direction and tries the steps t = 1, 1/2, ..., 2**(1 - _STEPS),
    the same whatever the direction: the first _FIRST_TRIES in one sweep
    and, if those fail, the rest in the next.  A start accepts its first
    improving try, as halving one at a time would.  It retires when a whole
    round fails, after max_iterations rounds, or when a try from below rho2
    (rho_m^2) enters the ball around the marginal (_evaluate): read in
    halving order, a try inside the ball that comes before the first
    improving one.  Such a start heads for the marginal, where the ratio
    tends to at most rho_m^2, and would creep up to the ball in ever
    smaller steps.  That is the merge rule below with the marginal as a
    retired start of value rho_m^2, applied to a try.  Every sweep scores
    all tries in one mirror step and one evaluation.  Returns the final
    value and point of every start, and the evaluation count.

    With merge, a live start also retires after a sweep's acceptances, with
    its value and point, when another start, live or retired, has a higher
    value within _MERGE_RADIUS of it in the log geometry of the mirror
    steps; of two equal values the lower index stays.  It would end where
    that start does: the clustering rule of multi-level single linkage
    (Rinnooy Kan & Timmer, Math. Programming 39, 1987).  The 8 grid starts
    of 2 to 4 symbols nearly always end at one point, and the slowest of
    those duplicates set the sweep count: on the benchmark's bounds-small
    joints (seeds 1 and 9001), while binary inputs still took this ascent,
    merging cut direction calls from 614 to 448 and sweeps from 692 to 490,
    and moved no s* by more than 7.1e-14 relative.  sstar merges only grid
    starts.  A tilt start can stall on a simplex face near a better start's
    path, where merging lost answers (fuzz draw 23 y_to_x fell
    0.1480354896847176 -> 0.1480344266612553), and a radius in total
    variation lost up to 7.2e-6 on the fuzz.
    """
    Q = starts.copy()
    n = Q.shape[0]
    f, Qy, num, den = _evaluate(Q, p_in, p_out, T)
    evals = n
    # The bookkeeping is per start, on Python floats, whose arithmetic is
    # numpy's float64 arithmetic; only the batched steps use numpy.
    f = f.tolist()
    # Rounds each start has left, 0 once retired.
    left = [max_iterations] * n
    # Halving h tries the step 2**-h.  The halvings of a round's first sweep
    # and of its second, and those each start tries in its next sweep.
    steps = [math.ldexp(1.0, -h) for h in range(_STEPS)]
    first, rest = range(min(_FIRST_TRIES, _STEPS)), range(_FIRST_TRIES, _STEPS)
    tries = [first] * n
    G = np.empty_like(Q)
    # Starts that begin a round, with Qy, num and den of their points.
    fresh = list(range(n))
    TB = T.T @ _sum_zero_basis(Q.shape[1])

    while live := [r for r in range(n) if left[r]]:
        # A sweep that only goes on with halvings needs no new direction.
        if fresh:
            G[fresh] = _directions(Q[fresh], Qy, num, den, p_in, p_out, T, TB)[2]
        # The tries come start by start, each start's in halving order.
        idx = [r for r in live for _ in tries[r]]
        tried = [steps[h] for r in live for h in tries[r]]
        at = np.array(idx)
        trial = _mirror_rows(Q[at], np.array(tried)[:, None] * G[at])
        ft, ty, tn, td = _evaluate(trial, p_in, p_out, T)
        evals += len(idx)
        scores = ft.tolist()
        won, again, u = [], [], 0
        for r in live:
            # The first improving try, as halving one at a time would take.
            bar, end = f[r] + 1e-15, u + len(tries[r])
            below = f[r] < rho2
            while u < end and not scores[u] > bar:
                if below and scores[u] == -math.inf:
                    break
                u += 1
            if u < end and not scores[u] > bar:
                # A try from below rho_m^2 entered the ball first: retire.
                left[r], u = 0, end
                continue
            if u == end:
                # A failed first sweep goes on to the round's other steps;
                # a failed round leaves a direction useless at this scale:
                # retire.
                if tries[r] is first and rest:
                    tries[r] = rest
                else:
                    left[r] = 0
                continue
            f[r], tries[r] = scores[u], first
            left[r] -= 1
            won.append(u)
            if left[r]:
                again.append(u)
            u = end
        if won:
            Q[at[won]] = trial[won]
        if merge and (live := [r for r in live if left[r]]):
            L = np.log(np.maximum(Q, _LOG_FLOOR))
            near = np.abs(L[live, None, :] - L[None, :, :]).max(axis=2) <= _MERGE_RADIUS
            for i, s in zip(*(a.tolist() for a in near.nonzero())):
                r = live[i]
                if f[s] > f[r] or f[s] == f[r] and s < r:
                    left[r] = 0
            again = [u for u in again if left[idx[u]]]
        fresh = [idx[u] for u in again]
        if again:
            Qy, num, den = ty[again], tn[again], td[again]

    return np.array(f), Q, evals


# On two input symbols, q = (x, 1 - x) is searched in its log-odds
# z = ln(x / (1 - x)).  A vertex's bracket reaches _Z_REACH beyond the log of
# the marginal's entry there, where the ratio has long settled at its vertex
# value, and never past _Z_LIMIT, where x stays a normal double.  A bracket
# stops once a step is below _Z_TOL times max(1, |z|), or after _Z_STEPS.
_Z_REACH, _Z_LIMIT, _Z_TOL, _Z_STEPS = 40.0, 700.0, 1e-10, 100
_EPS = 2.0 ** -52
# The log-odds of the pitch-1/20 grid's rows 1 to 19.
_Z_GRID = [math.log(i / (_GRID_PITCH - i)) for i in range(1, _GRID_PITCH)]


def _log_ratio(a, d, p):
    """ln(a / p) for a = p + d > 0: log1p(d / p) near p, where it keeps d's
    digits, and ln(a / p) far from it, where d / p can round to -1."""
    return math.log1p(d / p) if abs(d) < 0.5 * p else math.log(a / p)


def _segment_search(p_in, p_out, T, vals, rho2):
    """(candidate rows, evaluations): the ascent on two input symbols.

    The laws are the segment q = (x, 1 - x), searched in the log-odds z,
    the mirror geometry of _multistart_search.  vals are the ratios on the
    pitch-1/20 grid, whose row i is (i/20, 1 - i/20).  Each of its local
    maxima (_peaks) brackets one of the ratio's between its grid
    neighbours, started at the peak, or between its neighbour and _Z_REACH
    beyond a vertex, started 1 in z from the neighbour: most of that
    bracket lies deep in the vertex's tail, where the ratio can be flat to
    rounding and a start there reads no slope.  A vertex peak whose ratio
    falls into the segment with infinite slope is a local maximum itself,
    held by the grid, and gets no bracket.  The ratio tends to rho2
    at the marginal, and the two edges of the ball around it are scored
    too.  An edge where the ratio rises into the ball is a candidate: the
    best point near it on its side, which can lie above rho2 (by 8e-8
    relative on a dense 2x3 joint).  An edge where it rises away from the
    ball brackets a maximum out to the next grid point, which need not make
    a grid peak, when the ratio falls again by that point.

    Each bracket is refined by the Newton-bisection hybrid of Press et al.,
    Numerical Recipes, 9.4 (rtsafe), on g = d/dz ln(N/D): a Newton step
    where g' < 0 and the step stays inside the bracket, a bisection
    otherwise, and the bracket's end on the side that g's sign points away
    from moved to each point scored.  N, D, their first two derivatives and
    g are Python floats summed over the m outputs, each term in _kl_rows'
    form; numpy calls per step were slower.  A bracket ends when g is 0 or
    a step falls below _Z_TOL, with its last point as the candidate; or,
    with the best point it scored as the candidate, when a bisection could
    move ln(N/D) by no more than rounding, or when a Newton step from below
    rho2 enters the ball, exactly where _evaluate masks: the ratio tends to
    at most rho2 there, which covers the ball, as in _multistart_search.
    Each point scored counts as an evaluation.
    """
    a0, a1 = p_in.tolist()
    r = _MERGE_RADIUS
    ball = (a0 * math.expm1(-r), a0 * math.expm1(r), a1 * math.expm1(-r), a1 * math.expm1(r))
    cols = list(zip(p_out.tolist(), *T.tolist()))

    def near(z):
        """Is q at z inside the ball around the marginal?"""
        d0, d1 = 1.0 / (1.0 + math.exp(-z)) - a0, 1.0 / (1.0 + math.exp(z)) - a1
        return ball[0] <= d0 <= ball[1] and ball[2] <= d1 <= ball[3]

    def score(z):
        """(ratio, g, g') at z, outside the ball."""
        x0, x1 = 1.0 / (1.0 + math.exp(-z)), 1.0 / (1.0 + math.exp(z))
        # The offset from the marginal is (d, -d) on the segment, taken
        # from the smaller entry of q: offsets that fail to cancel by a
        # rounding would swamp the output offset d (t0 - t1) of rows that
        # differ by less than that.
        d = x0 - a0 if z < 0.0 else a1 - x1
        l0, l1 = _log_ratio(x0, d, a0), _log_ratio(x1, -d, a1)
        D, D1, D2 = x0 * l0 - d + (x1 * l1 + d), l0 - l1, 1.0 / x0 + 1.0 / x1
        N = N1 = N2 = 0.0
        for p, t0, t1 in cols:
            w = t0 - t1
            qy = max(x0 * t0 + x1 * t1, _LOG_FLOOR)
            dy = d * w
            ly = _log_ratio(qy, dy, p)
            N += qy * ly - dy
            N1 += w * ly
            N2 += w * w / qy
        if N <= 0.0:
            # Rows that differ only below rounding: a flat ratio of 0.
            return 0.0, 0.0, 0.0
        # d/dx ln(N/D) and its derivative; dx/dz = x0 x1.
        gN, gD = N1 / N, D1 / D
        gx = gN - gD
        hx = N2 / N - gN * gN - D2 / D + gD * gD
        s = x0 * x1
        return N / D, s * gx, s * (s * hx + (x1 - x0) * gx)

    ends = (max(-_Z_LIMIT, math.log(a0) - _Z_REACH), min(_Z_LIMIT, _Z_REACH - math.log(a1)))
    z_grid = [ends[0], *_Z_GRID, ends[1]]
    # Mass moved off the vertex (0, 1) onto symbol 0 raises the ratio with
    # infinite slope where the mass c0 that row 0 puts on the outputs row 1
    # misses is below the vertex's ratio, and lowers it where c0 is above
    # (_first_order_gap).  Likewise c1 at the vertex (1, 0).
    c0 = sum(t0 for _, t0, t1 in cols if t1 == 0.0)
    c1 = sum(t1 for _, t0, t1 in cols if t0 == 0.0)
    # (lo, hi, start) per bracket.
    brackets = []
    for i in np.isfinite(_peaks(vals)).nonzero()[0].tolist():
        if i == 0 and c0 > vals[0] or i == _GRID_PITCH and c1 > vals[i]:
            continue
        lo, hi = z_grid[max(i - 1, 0)], z_grid[min(i + 1, _GRID_PITCH)]
        brackets.append((lo, hi, z_grid[i] if 0 < i < _GRID_PITCH else
                         hi - 1.0 if i == 0 else lo + 1.0))
    evals = 0

    def climb(lo, hi, z, at=None):
        """The point that the bracket [lo, hi] ends at from z, or None; at
        is z's score where that is known."""
        nonlocal evals
        best, top = None, -math.inf
        for _ in range(_Z_STEPS):
            if at is None:
                if near(z):
                    break
                at = score(z)
                evals += 1
            (f, g, h), at = at, None
            if f > top:
                best, top = z, f
            if g > 0.0:
                lo = z
            elif g < 0.0:
                hi = z
            else:
                return z
            step = -g / h if h < 0.0 else math.nan
            if f < rho2 and abs(z + step) <= _Z_LIMIT and near(z + step):
                # Headed for the marginal, where the ratio tends to at most
                # rho2.
                break
            if not lo < z + step < hi:
                # Bisect, unless ln(N/D) moves by less than rounding across
                # the bracket at slope g.
                if abs(g) * (hi - lo) <= _EPS:
                    break
                step = 0.5 * (lo + hi) - z
            if abs(step) <= _Z_TOL * max(1.0, abs(z)):
                # Converged: the last point holds the maximum, where the
                # points before it can be higher only by rounding.
                return z
            z += step
        return best

    found = [climb(*b) for b in brackets]
    # The ball's edges, where each side leaves it: a0 e^(+-r) for q's first
    # entry or a1 e^(-+r) for its second, whichever comes first, moved out
    # past rounding to where _evaluate no longer masks.  Where the ratio
    # rises into the ball at an edge, the edge is the best point near it on
    # that side.  Where it rises away from the ball, and falls again by the
    # next grid point, a maximum lies between them, which need not make a
    # grid peak; where it still rises there, a grid peak beyond holds it.
    for sign in (-1.0, 1.0):
        e = math.exp(sign * r)
        edges = [math.log(a0 * e) - math.log1p(-a0 * e)] if a0 * e < 1.0 else []
        if a1 / e < 1.0:
            edges.append(math.log1p(-a1 / e) - math.log(a1 / e))
        edge = sign * min(sign * z for z in edges)
        while near(edge):
            edge += sign * 4.0 * _EPS * max(1.0, abs(edge))
        if not ends[0] < edge < ends[1]:
            continue
        at = score(edge)
        evals += 1
        if sign * at[1] <= 0.0:
            found.append(edge)
            continue
        far = min((z for z in z_grid if sign * (z - edge) > 0.0), key=lambda z: abs(z - edge))
        evals += 1
        if sign * score(far)[1] > 0.0:
            continue
        found.append(climb(min(edge, far), max(edge, far), edge, at))
    rows = [(1.0 / (1.0 + math.exp(-z)), 1.0 / (1.0 + math.exp(z)))
            for z in found if z is not None]
    return np.array(rows).reshape(-1, 2), evals


def sstar(
    j: JointDistribution,
    direction: str = "x_to_y",
    cfg: SdpiConfig | None = None,
) -> SdpiResult:
    """Best available lower bound on the contraction constant of one direction.

    Takes the max over the squared maximal correlation, the vertices, the
    simplex grid (input alphabets of up to cfg.grid_max_alphabet symbols),
    and the ascent: the segment search on two input symbols with the grid,
    multi-start ascent otherwise; and the first-order gap at the best of
    those points.  At the default cfg, a function of the joint and the
    direction alone.  An independent joint (_independent), one input or
    output symbol included, takes no search: value and rho_m^2 are 0.0,
    with method "independent", no evaluation, no witness and no gap.
    """
    if cfg is None:
        cfg = SdpiConfig()
    P, p_in, p_out, T = _posed(j, direction)
    if _independent(P, p_out, T):
        return SdpiResult(value=0.0, argmax_q=None, rho_m_squared=0.0, method="independent",
                          evaluations=0, first_order_gap=None)
    k = p_in.shape[0]
    U, rho = _correlation_svd(P, p_in, p_out)
    rho2 = rho ** 2

    cand_vals, cand_rows, evals, ran = [], [], 0, []
    if k <= cfg.grid_max_alphabet:
        # The grid holds the vertices, bit for bit.
        grid = _composition_grid(k, _GRID_PITCH)
        vals = _evaluate(grid, p_in, p_out, T)[0]
        evals += grid.shape[0]
        ran.append("grid")
        # Only the grid rows tied at its best value can be the best point
        # (a ratio is a number or -inf, never NaN).
        top = vals == vals.max()
        cand_vals.append(vals[top])
        cand_rows.append(grid[top])
    else:
        corners = np.eye(k)
        cand_vals.append(_evaluate(corners, p_in, p_out, T)[0])
        cand_rows.append(corners)
        evals += k
    if cfg.multistart_count > 0:
        if ran and k == 2:
            Q, n = _segment_search(p_in, p_out, T, vals, rho2)
            f = _evaluate(Q, p_in, p_out, T)[0]
        else:
            if ran:
                starts, n = [_top_rows(vals, grid, cfg.multistart_count, _GRID_SPREAD)], 0
            else:
                starts, n = _tilt_starts(p_in, p_out, T, U.T[1:3], cfg.multistart_count)
            # Grid starts merge; tilt starts do not (_multistart_search).
            f, Q, m = _multistart_search(p_in, p_out, T, np.vstack(starts), _MAX_ROUNDS, rho2,
                                         merge=bool(ran))
            n += m
        evals += n
        ran.append("multistart")
        cand_vals.append(f)
        cand_rows.append(Q)
    best = _top_rows(np.concatenate(cand_vals), np.vstack(cand_rows), 1, 0.0)
    method = "combined" if len(ran) == 2 else (ran[0] if ran else "vertex")

    # Past the screen k >= 2, so no vertex is in the ball and best holds a row.
    # Report the ratio at the pmf handed back, not at the unnormalized search row.
    q = Distribution(best[0])
    at_q, qy, num, den = (a[0] for a in _evaluate(q.probs[None, :], p_in, p_out, T))
    gap = _first_order_gap(q.probs, qy, num, den, p_in, p_out, T)
    value, argmax = (float(at_q), q) if at_q >= rho2 else (rho2, None)
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
    px = _marginal_sums(j.probs)[0]
    pxu = px[:, None] * u_channel.rows
    pyu = j.probs.T @ u_channel.rows
    lhs = _mi_from_matrix(pyu)
    rhs = sstar_value * _mi_from_matrix(pxu)
    return lhs, rhs, lhs <= rhs + 1e-9

