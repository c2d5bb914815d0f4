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
   points or, without a grid, along two SVD tilts (_tilt_starts).  No start
   is random.  Every start takes Newton steps where the log ratio is
   locally concave and gradient steps elsewhere; _directions picks each
   direction.  Every step is a mirror step, q exp(t v)/Z, in the KL
   geometry, where projected gradient steps crawl (a 9-level Gaussian
   stopped 1.2e-5 short after 2,000 rounds) or park on a simplex face.

Nothing here certifies the supremum from above.  Results carry a note when
the grid did not run, and the first-order gap at the best search point.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateRatioError, DimensionMismatchError, ProbabilityError
from .probability import (
    Channel,
    Distribution,
    JointDistribution,
    _kl_rows,
    _mi_from_matrix,
    _require_integer,
    conditional,
    tensor_product,
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
    Gaussian at rho = 0.5).  gap_note is non-empty
    when the simplex grid did not run, so no start came from a grid that
    covers the simplex: the ascent started at SVD tilt points alone.
    """

    value: float
    argmax_q: Distribution | None
    rho_m_squared: float
    method: str
    evaluations: int
    first_order_gap: float | None

    @property
    def gap_note(self) -> str:
        if self.method in ("grid", "combined"):
            return ""
        return (
            "simplex grid skipped for this input alphabet; the value rests on "
            "local search from SVD tilt starts"
        )

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax_q": None if self.argmax_q is None else [float(v) for v in self.argmax_q.probs],
            "rho_m_squared": self.rho_m_squared,
            "method": self.method,
            "evaluations": self.evaluations,
            "first_order_gap": self.first_order_gap,
            "gap_note": self.gap_note,
        }


def _oriented(j: JointDistribution, direction: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(input marginal, output marginal, conditional matrix) for a direction."""
    px = j.probs.sum(axis=1)
    py = j.probs.sum(axis=0)
    if direction == "x_to_y":
        return px, py, conditional(j, "y_given_x").rows
    if direction == "y_to_x":
        return py, px, conditional(j, "x_given_y").rows
    raise ProbabilityError(f"unknown direction {direction!r}, expected 'x_to_y' or 'y_to_x'")


def divergence_ratio(
    q: Distribution,
    j: JointDistribution,
    direction: str = "x_to_y",
) -> float:
    """D(q_out || P_out) / D(q || P_in) for one candidate input law.

    q must stay at total-variation distance > EXCLUSION_RADIUS from the
    true input marginal; at the marginal itself the ratio is 0/0.
    """
    p_in, p_out, T = _oriented(j, direction)
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
    """(U, maximal correlation, Vt) from the reduced SVD of p(x,y)/sqrt(p(x)p(y))."""
    px = j.probs.sum(axis=1)
    py = j.probs.sum(axis=0)
    U, s, Vt = np.linalg.svd(j.probs / np.sqrt(np.outer(px, py)), full_matrices=False)
    return U, (float(np.clip(s[1], 0.0, 1.0)) if s.size > 1 else 0.0), Vt


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
    tv = 0.5 * np.abs(d).sum(axis=1)
    out = np.where(tv > EXCLUSION_RADIUS, num / np.maximum(den, _LOG_FLOOR), -np.inf)
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
    """
    live = np.flatnonzero(np.isfinite(values))
    order = live[np.lexsort(np.vstack([rows[live][:, ::-1].T, -values[live]]))]
    taken = []
    while order.size and len(taken) < count:
        taken.append(order[0])
        tv = 0.5 * np.abs(rows[order[1:]] - rows[order[0]]).sum(axis=1)
        # The slack absorbs rounding: grid distances are multiples of the pitch.
        order = order[1:][tv > spread - 1e-9]
    return rows[taken]


# The grid pitch is 1/_GRID_PITCH; ascent starts from it are _GRID_SPREAD apart.
_GRID_PITCH, _GRID_SPREAD = 20, 0.1
# Tilt strengths theta scanned along each SVD direction: 2,401 points on
# [-60, 60], exactly symmetric, so a vector's sign does not matter.
_TILTS = np.arange(-1200, 1201)[:, None] / 20.0


def _tilt_starts(p_in, p_out, T, vectors, count):
    """(list of start arrays, evaluations): local maxima along SVD tilts.

    For each singular vector u, the laws q_theta ∝ p_in exp(theta u /
    sqrt(p_in)) at every _TILTS point, whose ratio tends to u's squared
    singular value as theta -> 0; the discrete counterpart of the Gaussian
    extremals (Anantharam, Gohari, Kamath & Nair, arXiv:1304.6133; Makur &
    Zheng, arXiv:1510.01844).  The first vector gets the larger half of
    count.
    """
    starts, evals = [], 0
    for u, n in zip(vectors, (count - count // 2, count // 2)):
        z = _TILTS * (u / np.sqrt(p_in)) + np.log(p_in)
        Q = np.exp(z - z.max(axis=1, keepdims=True))
        Q /= Q.sum(axis=1, keepdims=True)
        f = _evaluate(Q, p_in, p_out, T)[0]
        evals += Q.shape[0]
        edged = np.concatenate([[-np.inf], f, [-np.inf]])
        peaks = np.where((f >= edged[:-2]) & (f >= edged[2:]), f, -np.inf)
        starts.append(_top_rows(peaks, Q, n, 0.0))
    return starts, evals


def _mirror_rows(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Mirror step Q * exp(V) / Z per row, in the KL geometry.

    Formed in the log domain, log max(Q, _LOG_FLOOR) + V minus its row max,
    so no row underflows to all zeros and an entry at 0 can come back.
    """
    Z = np.log(np.maximum(Q, _LOG_FLOOR)) + V
    W = np.exp(Z - Z.max(axis=1, keepdims=True))
    return W / W.sum(axis=1, keepdims=True)


def _directions(Q, Qy, num, den, p_in, p_out, T):
    """(concave, direction) per row: the ascent direction of log(num/den).

    Qy, num and den are the output laws and ratio parts of Q from _evaluate.
    Each direction is the exponent v of a mirror step q exp(t v)/Z: the
    gradient, zeroed where num or den vanishes, or, on a row where the log
    ratio is locally concave, d/q for the Newton direction d, whose mirror
    step is q + t d to first order.
    Newton works in the sum-zero tangent space with an orthonormal basis B
    (k x k-1); a row is concave when the reduced Hessian
        H_N/N - g_N g_N'/N^2 - H_D/D + g_D g_D'/D^2,
    H_N = T diag(1/q_out) T', H_D = diag(1/q), g_N = T log(q_out/p_out),
    g_D = log(q/p_in), is negative definite; one batched eigh decides that
    and solves for the direction.
    """
    k = Q.shape[1]
    N = np.maximum(num, _TINY)[:, None]
    D = np.maximum(den, _TINY)[:, None]
    log_out = np.log(np.maximum(Qy, _LOG_FLOOR) / p_out)
    log_in = np.log(np.maximum(Q, _LOG_FLOOR) / p_in)
    G = ((log_out + 1.0) @ T.T) / N - (log_in + 1.0) / D
    vanishing = (num < _TINY) | (den < _TINY)
    G[vanishing] = 0.0

    B = _sum_zero_basis(k)
    bN = log_out @ T.T @ B
    bD = log_in @ B
    TB = T.T @ B
    inv_q = 1.0 / np.maximum(Q, _LOG_FLOOR)
    with np.errstate(over="ignore", invalid="ignore"):
        H = ((TB.T / np.maximum(Qy, _LOG_FLOOR)[:, None, :]) @ TB
             - bN[:, :, None] * (bN / N)[:, None, :]) / N[:, :, None]
        H -= ((B.T * inv_q[:, None, :]) @ B
              - bD[:, :, None] * (bD / D)[:, None, :]) / D[:, :, None]
    usable = np.isfinite(H).all(axis=(1, 2)) & ~vanishing
    H[~usable] = 0.0
    w, V = np.linalg.eigh(H)
    concave = usable & (w.max(axis=1) < 0.0)
    # -inf eigenvalues keep the other rows' Newton terms finite (zero).
    w[~concave] = -np.inf
    b = np.einsum("rji,rj->ri", V, bN / N - bD / D)
    d = -np.einsum("rij,rj->ri", V, b / w) @ B.T
    G[concave] = (d * inv_q)[concave]
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
    step = np.full(Q.shape[0], 0.1)
    f, Qy, num, den = _evaluate(Q, p_in, p_out, T)
    evals = Q.shape[0]
    G = np.empty_like(Q)
    # Rounds each start has left, 0 once retired.
    left = np.full(Q.shape[0], max_iterations)
    deep = np.zeros(Q.shape[0], dtype=bool)
    # Try h >= 1 steps by exactly step * 2**-h, and runs if step >= floor[h - 1].
    floor = np.ldexp(_STEP_TOLERANCE, np.arange(1, _HALVINGS))
    # Starts that begin a round, with Qy, num and den of their points.
    fresh = np.arange(Q.shape[0])

    while (rows := np.flatnonzero(left)).size:
        concave, G[fresh] = _directions(Q[fresh], Qy, num, den, p_in, p_out, T)
        step[fresh[concave]] = 1.0
        late = deep[rows]
        # Row r tries halvings lo[r] to hi[r] - 1, in order.
        usable = 1 + np.searchsorted(floor, step[rows], side="right")
        lo = late * _FIRST_TRIES
        hi = np.where(late, usable, np.minimum(usable, _FIRST_TRIES))
        at = np.repeat(np.arange(rows.size), hi - lo)
        halvings = np.arange(at.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
        idx = rows[at]
        tried_steps = np.ldexp(step[idx], -halvings)
        V = tried_steps[:, None] * G[idx]
        trial = _mirror_rows(Q[idx], V)
        ft, ty, tn, td = _evaluate(trial, p_in, p_out, T)
        evals += at.size
        pick = (ft > f[idx] + 1e-15).nonzero()[0]
        # Tries run row by row in halving order; keep each first improvement.
        won = at[pick]
        first = np.ones(pick.size, dtype=bool)
        first[1:] = won[1:] != won[:-1]
        pick = pick[first]
        acc = idx[pick]
        Q[acc], f[acc] = trial[pick], ft[pick]
        step[acc] = tried_steps[pick] * 1.5
        left[acc] -= 1
        failed = np.bincount(at[pick], minlength=rows.size) == 0
        # A failed first window goes on to any usable halvings left; any
        # other failure leaves a direction useless at this scale: retire.
        deep[rows] = failed & ~late & (usable > _FIRST_TRIES)
        left[rows[failed & ~deep[rows]]] = 0
        pick = pick[left[acc] > 0]
        fresh, Qy, num, den = idx[pick], ty[pick], tn[pick], td[pick]

    return f, Q, evals


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
    p_in, p_out, T = _oriented(j, direction)
    k = p_in.shape[0]
    U, rho, Vt = _correlation_svd(j)
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
        cand_vals.append(vals)
        cand_rows.append(grid)
        starts = [_top_rows(vals, grid, cfg.multistart_count, _GRID_SPREAD)]
    if k >= 2 and cfg.multistart_count > 0:
        if not ran:
            vectors = (U.T if direction == "x_to_y" else Vt)[1:3]
            starts, n = _tilt_starts(p_in, p_out, T, vectors, cfg.multistart_count)
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


def rho_star(j: JointDistribution) -> float:
    """max of the two directional contraction constants."""
    return max(sstar(j, "x_to_y").value, sstar(j, "y_to_x").value)


def verify_sdpi_inequality(
    j: JointDistribution,
    u_channel: Channel,
    sstar_value: float,
) -> tuple[float, float, bool]:
    """Check I(Y;U) <= sstar_value * I(X;U) for U drawn from X via u_channel.

    u_channel rows are P(U=.|X=x), making U -- X -- Y a chain.  Returns
    (lhs, rhs, holds) with holds allowing 1e-9 slack.  Only meaningful when
    sstar_value is (an upper estimate of) the X -> Y contraction constant;
    with an underestimate a failed check is inconclusive.
    """
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


def tensorization_check(j: JointDistribution) -> tuple[float, float, float]:
    """Compare the constant of j with that of the two-letter product j (x) j.

    The constant is invariant under taking i.i.d. copies, so the gap should
    vanish up to solver tolerance.  Returns (single, product, product - single).
    """
    if j.x_size ** 2 > 16 or j.y_size ** 2 > 16:
        raise ProbabilityError(
            f"tensorization_check: product alphabet {j.x_size ** 2}x{j.y_size ** 2} "
            "exceeds the 16-state limit"
        )
    single = sstar(j, "x_to_y").value
    product = sstar(tensor_product(j, j), "x_to_y").value
    return single, product, product - single
