"""Strong data processing constants of a finite joint distribution.

The contraction constant in direction X -> Y is the supremum of

    D(q_Y || P_Y) / D(q_X || P_X)

over input laws q_X != P_X, where q_Y is q_X pushed through the conditional
P(Y|X).  It lives in [0, 1] and is lower bounded by the squared maximal
correlation of the pair.  The supremum has no closed form in general, so
this module estimates it three ways and takes the best:

 - the squared maximal correlation (a certified lower bound via SVD);
 - an exhaustive simplex grid, feasible for input alphabets up to ~4;
 - vectorized multi-start projected ascent on the log ratio: gradient
   steps, and Newton steps where the log ratio is locally concave on input
   alphabets up to 4; _directions picks each start's direction.

Every reported value is a lower bound on the true constant.  In 396
searches on random and benchmark joints of 2 to 4 symbols, the grid's best
never beat the multi-start's by more than 1e-12 relative, but nothing here
certifies the supremum from above; results carry a note when the exhaustive
grid could not run.

Both divergences are sums of a non-negative term per symbol (see
probability._kl_rows), so a ratio near the input marginal, where the
supremum is often approached, keeps about 11 significant digits (measured
within 2.1e-11 relative of 50-digit arithmetic at total-variation distance
1e-4 to 1e-2).

The ascent backtracks in batches: a round tries every live start at its
step, then the failures at one halving, then the remaining failures at all
their halvings at once, and each start keeps its first improving try, the
point a one-halving-at-a-time search reaches.  A successful step grows by
half without a cap; a Newton direction is tried from step 1.0 each round.
The evaluation count includes the batched tries such a search would have
skipped, so it reads higher than the number of distinct tries it needed
(180,022 on the bundled quaternary joint, 22,745 on dsbs_p10).  The grid
pitch is 1/200 on binary inputs and 1/100 otherwise; each grid is built
once per alphabet size in a process and shared read-only.
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
    """Knobs for the contraction-constant search.

    The grid runs on input alphabets up to grid_max_alphabet, at the fixed
    pitch of _grid_search.  Setting multistart_count or grid_max_alphabet to
    0 disables that search entirely (useful for isolating one method; the
    reported value is then a weaker lower bound).
    """

    grid_max_alphabet: int = 4
    multistart_count: int = 64
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name in ("grid_max_alphabet", "multistart_count", "max_iterations", "seed"):
            _require_integer(getattr(self, name), name)
        if self.grid_max_alphabet < 0:
            raise ValueError("grid_max_alphabet must be >= 0")
        if self.multistart_count < 0:
            raise ValueError("multistart_count must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class SdpiResult:
    """Outcome of a contraction-constant search.

    value is the best lower bound found: the divergence ratio at argmax_q,
    the best search point, or the squared maximal correlation with argmax_q
    None when that SVD bound beat every search point, i.e. the witness is a
    local perturbation rather than a simplex point.  gap_note is non-empty
    when the exhaustive grid did not run and the value rests on local
    search alone.
    """

    value: float
    argmax_q: Distribution | None
    rho_m_squared: float
    method: str
    evaluations: int

    @property
    def gap_note(self) -> str:
        if self.method in ("grid", "combined"):
            return ""
        return (
            "exhaustive grid skipped for this input alphabet; "
            "the value rests on local search and is only a lower bound"
        )

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax_q": None if self.argmax_q is None else [float(v) for v in self.argmax_q.probs],
            "rho_m_squared": self.rho_m_squared,
            "method": self.method,
            "evaluations": self.evaluations,
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
    px = j.probs.sum(axis=1)
    py = j.probs.sum(axis=0)
    m = j.probs / np.sqrt(np.outer(px, py))
    svals = np.linalg.svd(m, compute_uv=False)
    if svals.shape[0] < 2:
        return 0.0
    return float(np.clip(svals[1], 0.0, 1.0))


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
    grid = comp.astype(np.float64) / n
    grid.flags.writeable = False
    return grid


def _best_of(values: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Best (value, row) with deterministic lexicographic tie-breaking."""
    finite = np.isfinite(values)
    if not finite.any():
        return -np.inf, None
    top = values[finite].max()
    tied = np.flatnonzero(finite & (values == top))
    pick = tied[np.lexsort(rows[tied][:, ::-1].T)[0]]
    return float(values[pick]), rows[pick].copy()


# Grid rows per kernel call.  The kernel holds about six row-sized
# temporaries; in chunks they stay near 0.5 MB each on four symbols instead
# of 5.7 MB for the whole 176,851-row grid.
_GRID_CHUNK = 1 << 14


def _grid_search(p_in, p_out, T):
    """Best grid point at pitch 1/200 on binary inputs, 1/100 otherwise."""
    k = p_in.shape[0]
    grid = _composition_grid(k, 200 if k <= 2 else 100)
    vals = np.concatenate([
        _evaluate(grid[i:i + _GRID_CHUNK], p_in, p_out, T)[0]
        for i in range(0, grid.shape[0], _GRID_CHUNK)
    ])
    best, q = _best_of(vals, grid)
    return best, q, grid.shape[0]


def _project_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    k = V.shape[1]
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    ind = np.arange(1, k + 1)
    rho = (U - css / ind > 0.0).sum(axis=1)
    theta = css[np.arange(V.shape[0]), rho - 1] / rho
    W = np.maximum(V - theta[:, None], 0.0)
    # Rescale away the float residue so every row is an exact pmf.
    return W / W.sum(axis=1, keepdims=True)


# Input alphabets up to this size get Newton directions on concave rows.
# Measured with gradient steps alone on the 3-4 symbol benchmark inputs of
# one seed: 403 of the 433 rows still live at round 2,000 sat where the log
# ratio is locally concave, a basin Newton finishes in a few rounds.  On 12
# quantized Gaussians (k >= 9) any row was concave in only 3 to 253 of the
# 2,000 rounds, so rows crawl all the same, and testing every row in every
# round made their multistart 11 times slower (8.8 s to 94 s, 2-core Xeon).
_NEWTON_MAX_ALPHABET = 4


def _directions(Q, Qy, num, den, p_in, p_out, T):
    """(concave, direction) per row: the ascent direction of log(num/den).

    Qy, num and den are the output laws and ratio parts of Q from _evaluate.
    Every row gets the gradient, zeroed where num or den vanishes, with its
    length capped.  On input alphabets up to _NEWTON_MAX_ALPHABET, a row
    where the log ratio is locally concave gets the Newton direction
    instead.  Newton works in the sum-zero tangent space with an orthonormal
    basis B (k x k-1); a row is concave when the reduced Hessian
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
    # Cap the row magnitude: near-flat ratios divided by the floors above
    # give astronomically long directions, and projecting those loses mass
    # to float cancellation.  Direction is what matters, not length.
    G /= np.maximum(np.abs(G).max(axis=1) / 100.0, 1.0)[:, None]
    if k > _NEWTON_MAX_ALPHABET:
        return np.zeros(Q.shape[0], dtype=bool), G

    B = np.linalg.qr(np.eye(k) - 1.0 / k)[0][:, :k - 1]
    bN = log_out @ T.T @ B
    bD = log_in @ B
    TB = T.T @ B
    with np.errstate(over="ignore", invalid="ignore"):
        H = (np.einsum("yi,ry,yj->rij", TB, 1.0 / np.maximum(Qy, _LOG_FLOOR), TB)
             - np.einsum("ri,rj->rij", bN, bN / N)) / N[:, :, None]
        H -= (np.einsum("xi,rx,xj->rij", B, 1.0 / np.maximum(Q, _LOG_FLOOR), B)
              - np.einsum("ri,rj->rij", bD, bD / D)) / D[:, :, None]
    usable = np.isfinite(H).all(axis=(1, 2)) & ~vanishing
    H[~usable] = 0.0
    w, V = np.linalg.eigh(H)
    concave = usable & (w.max(axis=1) < 0.0)
    # -inf eigenvalues keep the other rows' Newton terms finite (zero).
    w[~concave] = -np.inf
    b = np.einsum("rji,rj->ri", V, bN / N - bD / D)
    G[concave] = (-np.einsum("rij,rj->ri", V, b / w) @ B.T)[concave]
    return concave, G


# Backtracking schedule of one ascent round, as halvings of the row's step:
# the step itself, then one halving, then every remaining halving (40 tries
# in all) in one batch.  A try past the first one runs only while its step
# is at least _STEP_TOLERANCE.
_HALVING_BATCHES = (np.arange(0, 1), np.arange(1, 2), np.arange(2, 40))
_STEP_TOLERANCE = 1e-10


def _multistart_search(p_in, p_out, T, cfg: SdpiConfig):
    """Projected ascent on the log ratio from random and corner starts.

    All starts advance in lockstep as one array; each keeps its own step
    size with backtracking on failure and growth by half on success.  A row
    accepts its first improving try of _HALVING_BATCHES, the point that
    trying one halving at a time reaches.  Step growth has no cap: the
    direction's length cap in _directions counts the constant component
    that the simplex projection removes, so on binary inputs useful steps
    reach 1e3 and more.  With a cap of 1.0 those starts crawled through
    every round; now they retire within about 50.

    On input alphabets up to _NEWTON_MAX_ALPHABET, a row where the log ratio
    is locally concave takes the Newton direction from step 1.0 instead:
    those basins are badly conditioned, and a gradient step crossed them in
    hundreds to thousands of rounds where Newton needs a few.
    """
    k = p_in.shape[0]
    rng = np.random.default_rng(cfg.seed)
    corners = 0.999 * np.eye(k) + 0.001 / k
    Q = np.vstack([rng.dirichlet(np.ones(k), size=cfg.multistart_count), corners])
    step = np.full(Q.shape[0], 0.1)
    f, Qy, num, den = _evaluate(Q, p_in, p_out, T)
    evals = Q.shape[0]
    alive = np.ones(Q.shape[0], dtype=bool)

    for _ in range(cfg.max_iterations):
        rows = np.flatnonzero(alive)
        if rows.size == 0:
            break
        concave, G = _directions(Q[rows], Qy[rows], num[rows], den[rows], p_in, p_out, T)
        step[rows[concave]] = 1.0
        for halvings in _HALVING_BATCHES:
            # Powers of two: the same steps as halving one at a time.
            steps = (step[rows, None] * 0.5 ** halvings).ravel()
            flat = (steps >= (_STEP_TOLERANCE if halvings[0] else 0.0)).nonzero()[0]
            if flat.size == 0:
                break
            at = flat // halvings.size
            idx = rows[at]
            tried_steps = steps[flat]
            trial = _project_rows(Q[idx] + tried_steps[:, None] * G[at])
            ft, ty, tn, td = _evaluate(trial, p_in, p_out, T)
            evals += flat.size
            pick = (ft > f[idx] + 1e-15).nonzero()[0]
            # Tries are in row-major order; keep each row's first improvement.
            won = at[pick]
            first = np.ones(pick.size, dtype=bool)
            first[1:] = won[1:] != won[:-1]
            pick = pick[first]
            acc = idx[pick]
            Q[acc], f[acc], Qy[acc], num[acc], den[acc] = (
                trial[pick], ft[pick], ty[pick], tn[pick], td[pick]
            )
            step[acc] = tried_steps[pick] * 1.5
            pending = np.ones(rows.size, dtype=bool)
            pending[at[pick]] = False
            rows, G = rows[pending], G[pending]
        # Rows that burned all backtracks this round, or whose step fell
        # below the tolerance, have a useless direction at the current
        # scale; retire them.
        alive[rows] = False

    best, q = _best_of(f, Q)
    return best, q, evals


def sstar(
    j: JointDistribution,
    direction: str = "x_to_y",
    cfg: SdpiConfig | None = None,
) -> SdpiResult:
    """Best available lower bound on the contraction constant of one direction.

    Takes the max over the squared maximal correlation, the exhaustive grid
    (input alphabets of 2 to cfg.grid_max_alphabet symbols), and multi-start
    ascent (2 symbols or more; one input symbol leaves no law but the
    marginal, and the value is rho_m^2 = 0).  Deterministic for a fixed
    config, including its seed.
    """
    if cfg is None:
        cfg = SdpiConfig()
    p_in, p_out, T = _oriented(j, direction)
    k = p_in.shape[0]
    rho2 = maximal_correlation(j) ** 2

    corners = np.eye(k)
    cand_vals = [_evaluate(corners, p_in, p_out, T)[0]]
    cand_rows = [corners]
    evals = k

    ran = []
    if 2 <= k <= cfg.grid_max_alphabet:
        gv, gq, n = _grid_search(p_in, p_out, T)
        evals += n
        ran.append("grid")
        if gq is not None:
            cand_vals.append(np.array([gv]))
            cand_rows.append(gq[None, :])
    if k >= 2 and cfg.multistart_count > 0:
        mv, mq, n = _multistart_search(p_in, p_out, T, cfg)
        evals += n
        ran.append("multistart")
        if mq is not None:
            cand_vals.append(np.array([mv]))
            cand_rows.append(mq[None, :])
    _, best_q = _best_of(np.concatenate(cand_vals), np.vstack(cand_rows))

    if len(ran) == 2:
        method = "combined"
    elif ran:
        method = ran[0]
    else:
        method = "vertex"

    value, argmax = rho2, None
    if best_q is not None:
        # Report the ratio at the pmf handed back, not at the unnormalized search row.
        q = Distribution(best_q)
        at_q = float(_evaluate(q.probs[None, :], p_in, p_out, T)[0][0])
        if at_q >= rho2:
            value, argmax = at_q, q
    value = float(np.clip(value, 0.0, 1.0))
    return SdpiResult(
        value=value,
        argmax_q=argmax,
        rho_m_squared=rho2,
        method=method,
        evaluations=evals,
    )


def rho_star(j: JointDistribution, cfg: SdpiConfig | None = None) -> float:
    """max of the two directional contraction constants."""
    return max(sstar(j, "x_to_y", cfg).value, sstar(j, "y_to_x", cfg).value)


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


def tensorization_check(
    j: JointDistribution,
    cfg: SdpiConfig | None = None,
) -> tuple[float, float, float]:
    """Compare the constant of j with that of the two-letter product j (x) j.

    The constant is invariant under taking i.i.d. copies, so the gap should
    vanish up to solver tolerance.  Returns (single, product, product - single).
    """
    if j.x_size ** 2 > 16 or j.y_size ** 2 > 16:
        raise ProbabilityError(
            f"tensorization_check: product alphabet {j.x_size ** 2}x{j.y_size ** 2} "
            "exceeds the 16-state limit"
        )
    single = sstar(j, "x_to_y", cfg).value
    product = sstar(tensor_product(j, j), "x_to_y", cfg).value
    return single, product, product - single
