import json
from decimal import Decimal, localcontext
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import sdpibounds
from sdpibounds import sdpi
from sdpibounds import (
    Channel,
    DegenerateRatioError,
    DimensionMismatchError,
    Distribution,
    JointDistribution,
    ProbabilityError,
    SdpiConfig,
    divergence_ratio,
    maximal_correlation,
    quantized_gaussian_joint,
    rho_star,
    sstar,
    tensor_product,
    tensorization_check,
    verify_sdpi_inequality,
)
from sdpibounds.sdpi import (
    _best_of,
    _composition_grid,
    _directions,
    _evaluate,
    _grid_search,
    _multistart_search,
    _oriented,
    _project_rows,
)
from conftest import random_joint

GRID_ONLY = SdpiConfig(multistart_count=0)
DATA = Path(sdpibounds.__file__).parent / "data"


class TestConfig:
    def test_defaults(self, dsbs, quaternary):
        assert sdpi.EXCLUSION_RADIUS == 1e-4
        # Grid-only evaluations are the k vertices plus the grid: pitch
        # 1/200 on binary inputs (201 points), 1/100 on four symbols
        # (C(103, 3) = 176,851 points).
        assert sstar(dsbs, "x_to_y", GRID_ONLY).evaluations == 203
        assert sstar(quaternary, "x_to_y", GRID_ONLY).evaluations == 176_855

    @pytest.mark.parametrize("kwargs", [
        {"grid_max_alphabet": -1},
        {"multistart_count": -1},
        {"max_iterations": 0},
        {"seed": -1},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SdpiConfig(**kwargs)

    def test_accepts_numpy_reals(self, dsbs):
        # Integer fields take numpy integer scalars as well as int.
        cfg = SdpiConfig(grid_max_alphabet=np.int64(2), multistart_count=np.int32(8),
                         max_iterations=np.int64(50), seed=np.uint8(3))
        want = sstar(dsbs, "x_to_y", SdpiConfig(grid_max_alphabet=2, multistart_count=8,
                                                max_iterations=50, seed=3))
        got = sstar(dsbs, "x_to_y", cfg)
        assert (got.value, got.evaluations) == (want.value, want.evaluations)


class TestDivergenceRatio:
    def test_independent_is_zero(self, independent_binary):
        got = divergence_ratio(Distribution([0.9, 0.1]), independent_binary)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_is_one(self, diagonal_binary):
        for q in ([0.9, 0.1], [0.2, 0.8], [1.0, 0.0]):
            assert divergence_ratio(Distribution(q), diagonal_binary) == 1.0

    def test_quaternary_vertex(self, quaternary):
        got = divergence_ratio(Distribution([1.0, 0, 0, 0]), quaternary)
        assert got == pytest.approx(0.0390359525563188, rel=1e-12)

    def test_exclusion_ball(self, dsbs):
        with pytest.raises(DegenerateRatioError):
            divergence_ratio(Distribution([0.5, 0.5]), dsbs)
        with pytest.raises(DegenerateRatioError):
            divergence_ratio(Distribution([0.50005, 0.49995]), dsbs)
        # just outside the default radius is fine
        divergence_ratio(Distribution([0.502, 0.498]), dsbs)

    def test_dimension_mismatch(self, dsbs):
        with pytest.raises(DimensionMismatchError):
            divergence_ratio(Distribution.uniform(3), dsbs)

    def test_matches_decimal_reference_near_the_marginal(self, dsbs):
        # The supremum is often approached at the marginal, where summing
        # q log(q/p) lost 7.3e-8 relative on these cases (now 2.3e-12).
        rng = np.random.default_rng(1304)
        for j in (dsbs, random_joint(rng, 4, 4)):
            for direction in ("x_to_y", "y_to_x"):
                p_in = _oriented(j, direction)[0]
                for tv in np.geomspace(1.0001e-4, 1e-2, 7):
                    u = rng.standard_normal(p_in.size)
                    u -= u.mean()
                    q = Distribution(p_in + tv * 2.0 * u / np.abs(u).sum())
                    want = _decimal_ratio(q, j, direction)
                    assert divergence_ratio(q, j, direction) == pytest.approx(want, rel=1e-11)

    def test_entries_below_an_ulp_of_the_marginal(self):
        # An entry below half an ulp of the marginal has a - p == -p in
        # floats: it must score like a zero entry, not reach log1p(-1).
        p_in = np.array([0.3, 0.7])
        T = np.array([[0.9, 0.1], [0.2, 0.8]])
        f = _evaluate(np.array([[1e-20, 1.0 - 1e-20], [0.0, 1.0]]), p_in, p_in @ T, T)[0]
        assert np.isfinite(f).all()
        assert f[0] == pytest.approx(f[1], rel=1e-12)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            k = j.x_size
            q = Distribution(rng.dirichlet(np.ones(k)))
            try:
                r = divergence_ratio(q, j)
            except DegenerateRatioError:
                continue
            assert -1e-12 <= r <= 1.0 + 1e-9


class TestMaximalCorrelation:
    def test_independent(self, independent_binary):
        assert maximal_correlation(independent_binary) == pytest.approx(0.0, abs=1e-7)

    def test_diagonal(self, diagonal_binary):
        assert maximal_correlation(diagonal_binary) == pytest.approx(1.0, abs=1e-12)

    def test_dsbs_equals_one_minus_two_p(self, dsbs):
        assert maximal_correlation(dsbs) == pytest.approx(0.8, rel=1e-12)

    def test_single_row_joint(self):
        j = JointDistribution([[0.5, 0.5]])
        assert maximal_correlation(j) == 0.0

    def test_bounded_fuzz(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            assert 0.0 <= maximal_correlation(j) <= 1.0


class TestSstar:
    def test_independent_is_zero(self, independent_binary):
        assert sstar(independent_binary).value == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_is_one(self, diagonal_binary):
        res = sstar(diagonal_binary)
        assert res.value == 1.0
        assert res.argmax_q is not None
        assert divergence_ratio(res.argmax_q, diagonal_binary) == pytest.approx(
            res.value, abs=1e-9
        )

    def test_dsbs_svd_bound_dominates(self, dsbs):
        res = sstar(dsbs)
        assert res.value == pytest.approx(0.64, abs=1e-6)
        # the grid tops out fractionally below rho_m^2 here, so the SVD
        # bound wins and there is no simplex witness
        assert res.value == res.rho_m_squared
        assert res.argmax_q is None
        assert res.method == "combined"
        assert res.gap_note == ""

    @pytest.mark.parametrize("probs", [[[0.5, 0.5]], [[0.3], [0.7]]], ids=["1x2", "2x1"])
    def test_one_symbol_alphabet(self, probs):
        # One input symbol leaves no law but the marginal; one output symbol
        # makes every output law the marginal.  Either way s* is rho_m^2 = 0.
        j = JointDistribution(probs)
        for direction in ("x_to_y", "y_to_x"):
            res = sstar(j, direction)
            assert res.value == 0.0 and res.rho_m_squared == 0.0
        assert rho_star(j) == 0.0

    def test_binary_inputs_retire_early(self, dsbs):
        # Every start retires within a short round budget, so the default
        # 2,000 rounds change nothing.  Binary starts do because step growth
        # is uncapped (a cap of 1.0 kept dsbs crawling for all 2,000 rounds,
        # 132,269 evaluations); 3 and 4 symbol starts because locally
        # concave rows take Newton steps.  The 3x3 joint, from the benchmark
        # inputs, was still rising at round 2,000 under gradient steps alone.
        rng = np.random.default_rng(2)
        binary = [dsbs, *(random_joint(rng, 2, n) for n in (2, 3, 4))]
        larger = [random_joint(rng, k, n) for n in (2, 3, 4) for k in (3, 4)]
        larger.append(JointDistribution([
            [0.3514271956667196, 0.15435736773902198, 0.034712958439118265],
            [0.0880164388358699, 0.08455099983468538, 0.1605952965453869],
            [0.04345279792817732, 0.05201448466777489, 0.030872460343245728],
        ]))
        for j in binary + larger:
            for direction in ("x_to_y", "y_to_x"):
                res = sstar(j, direction)
                short = sstar(j, direction, SdpiConfig(max_iterations=200))
                assert res.evaluations == short.evaluations
                assert res.value == short.value
                if _oriented(j, direction)[0].size == 2:
                    assert res.evaluations < 30_000

    def test_quaternary(self, quaternary):
        res = sstar(quaternary)
        assert res.value == pytest.approx(0.04529, abs=2e-4)
        assert res.evaluations > 170000
        assert res.rho_m_squared == pytest.approx(0.04, abs=1e-12)

    def test_argmax_reproduces_value(self):
        # The value is the ratio at the returned pmf exactly, up to the clip
        # to [0, 1]; without a witness it is rho_m^2.
        joints = [JointDistribution.from_dict(json.loads(path.read_text()))
                  for path in sorted(DATA.glob("*.json"))]
        joints.append(JointDistribution([[0.5, 0.5 - 1e-300], [1e-300, 0.0]]))
        rng = np.random.default_rng(3)
        joints += [random_joint(rng, 2, 3) for _ in range(10)]
        for j in joints:
            for direction in ("x_to_y", "y_to_x"):
                res = sstar(j, direction)
                if res.argmax_q is None:
                    assert res.value == res.rho_m_squared
                else:
                    got = divergence_ratio(res.argmax_q, j, direction)
                    assert float(np.clip(got, 0.0, 1.0)) == res.value

    def test_deterministic(self, dsbs):
        a = sstar(dsbs, "x_to_y", SdpiConfig(seed=42))
        b = sstar(dsbs, "x_to_y", SdpiConfig(seed=42))
        assert a.value == b.value
        assert a.evaluations == b.evaluations
        assert (a.argmax_q is None) == (b.argmax_q is None)
        if a.argmax_q is not None:
            assert np.array_equal(a.argmax_q.probs, b.argmax_q.probs)

    def test_gap_note_only_for_large_alphabets(self, quaternary):
        assert sstar(quaternary).gap_note == ""
        big = quantized_gaussian_joint(0.3, 5)
        res = sstar(big)
        assert res.gap_note != ""
        assert res.method == "multistart"

    def test_value_bounds_fuzz(self):
        rng = np.random.default_rng(99)
        light = SdpiConfig(multistart_count=8, max_iterations=300)
        for _ in range(30):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            res = sstar(j, "x_to_y", light)
            assert 0.0 <= res.value <= 1.0
            assert res.value >= res.rho_m_squared - 1e-9

    def test_unknown_direction(self, dsbs):
        with pytest.raises(ProbabilityError):
            sstar(dsbs, "backwards")


class TestInvariance:
    @staticmethod
    def joints(seed, sizes):
        rng = np.random.default_rng(seed)
        return [random_joint(rng, int(rng.choice(sizes)), int(rng.choice(sizes)))
                for _ in range(12)]

    def test_relabeling_symbols(self):
        # Converged maxima do not depend on the order of the symbols; with
        # gradient steps alone the search stopped up to 9.5e-7 apart.
        rng = np.random.default_rng(31)
        for j in self.joints(30, (3, 4)):
            relabeled = JointDistribution(
                j.probs[rng.permutation(j.x_size)][:, rng.permutation(j.y_size)]
            )
            for direction in ("x_to_y", "y_to_x"):
                want = sstar(j, direction).value
                assert sstar(relabeled, direction).value == pytest.approx(want, rel=1e-12)

    def test_swapping_the_pair(self):
        for j in self.joints(32, (2, 3, 4)):
            want = sstar(j, "y_to_x").value
            assert sstar(j.swapped(), "x_to_y").value == pytest.approx(want, rel=1e-12)

    def test_splitting_an_output_column(self):
        # Y -> (Y, Z) with Z drawn from Y alone leaves every likelihood
        # ratio on the outputs, hence D(q_Y || P_Y), unchanged.
        rng = np.random.default_rng(34)
        for j in self.joints(33, (3, 4)):
            c = int(rng.integers(j.y_size))
            u = float(rng.uniform(0.2, 0.8))
            split = np.column_stack([j.probs, (1.0 - u) * j.probs[:, c]])
            split[:, c] *= u
            want = sstar(j, "x_to_y").value
            assert sstar(JointDistribution(split), "x_to_y").value == pytest.approx(want, rel=1e-12)


class TestGridAndMultistartAgree:
    def test_on_random_binary_joints(self):
        rng = np.random.default_rng(20260816)
        cfg = SdpiConfig(multistart_count=16, max_iterations=600)
        for _ in range(100):
            j = random_joint(rng, 2, 2)
            p_in, p_out, T = _oriented(j, "x_to_y")
            gv, gq, _ = _grid_search(p_in, p_out, T)
            mv, mq, _ = _multistart_search(p_in, p_out, T, cfg)
            assert abs(gv - mv) <= 0.01
            assert gq is not None and mq is not None

    def test_simplex_grid_shape(self):
        g = _composition_grid(3, 10)
        assert g.shape == (66, 3)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
        assert g.min() >= 0.0
        for k in range(1, 6):
            for n in (10, 4):
                got = _composition_grid(k, n)
                want = _stars_and_bars(k, n)
                assert got.shape == want.shape
                assert np.array_equal(_lex_sorted(got), _lex_sorted(want))
        assert _composition_grid(3, 10) is g
        with pytest.raises(ValueError):
            g[0, 0] = 0.5


class TestBatchedLineSearch:
    LIGHT = SdpiConfig(multistart_count=8, max_iterations=200)

    @staticmethod
    def cases():
        rng = np.random.default_rng(20261018)
        joints = [random_joint(rng, k, int(rng.integers(2, 5))) for k in (2, 3, 4) for _ in range(7)]
        return joints + [quantized_gaussian_joint(0.6, 9)]

    @staticmethod
    def check(joints, cfg):
        for j in joints:
            p_in, p_out, T = _oriented(j, "x_to_y")
            got, got_q, got_evals = _multistart_search(p_in, p_out, T, cfg)
            want, want_q, want_evals = _sequential_multistart(p_in, p_out, T, cfg)
            assert got == pytest.approx(want, rel=1e-12)
            assert (got_q is None) == (want_q is None)
            assert got_evals >= want_evals

    def test_matches_one_halving_at_a_time(self):
        self.check(self.cases(), self.LIGHT)

    # Tolerances that end a round's halvings early, only after all 40 tries,
    # and before its second try.
    @pytest.mark.parametrize("tolerance", [1e-3, 1e-15, 0.3])
    def test_matches_at_other_step_tolerances(self, tolerance, monkeypatch):
        monkeypatch.setattr(sdpi, "_STEP_TOLERANCE", tolerance)
        self.check(self.cases()[::3], self.LIGHT)


class TestDirections:
    """_directions against finite differences of log(num/den) on the simplex."""

    H = 1e-6

    @staticmethod
    def interior_rows(seed):
        """(p_in, p_out, T, Q, B) for random 3-4 symbol joints and interior rows."""
        rng = np.random.default_rng(seed)
        for k in (3, 4):
            for ny in (2, 3, 4):
                j = random_joint(rng, k, ny)
                p_in, p_out, T = _oriented(j, "x_to_y")
                Q = rng.dirichlet(np.full(k, 3.0), size=40)
                Q = Q[0.5 * np.abs(Q - p_in).sum(axis=1) > 0.05]
                B = np.linalg.qr(np.eye(k) - 1.0 / k)[0][:, :k - 1]
                yield p_in, p_out, T, Q, B

    @staticmethod
    def directions(Q, p_in, p_out, T):
        return _directions(Q, *_evaluate(Q, p_in, p_out, T)[1:], p_in, p_out, T)

    @staticmethod
    def log_ratio(Q, p_in, p_out, T):
        _, _, num, den = _evaluate(Q, p_in, p_out, T)
        return np.log(num / den)

    def central_differences(self, values, k1):
        """Rows q + H b_i then q - H b_i, i < k1, to derivatives along b_i."""
        return (values[:k1] - values[k1:]) / (2 * self.H)

    def test_gradient_matches_central_differences(self):
        checked = 0
        for p_in, p_out, T, Q, B in self.interior_rows(11):
            concave, G = self.directions(Q, p_in, p_out, T)
            # Rows where the length cap binds have a rescaled gradient.
            keep = ~concave & (np.abs(G).max(axis=1) < 99.0)
            for q, g in zip(Q[keep], G[keep]):
                pts = np.vstack([q + self.H * B.T, q - self.H * B.T])
                diffs = self.central_differences(self.log_ratio(pts, p_in, p_out, T), B.shape[1])
                np.testing.assert_allclose(B.T @ g, diffs, rtol=1e-6, atol=1e-7)
                checked += 1
        assert checked >= 50

    def test_newton_solves_the_reduced_system(self, monkeypatch):
        cases = list(self.interior_rows(12))
        newton = [self.directions(Q, p_in, p_out, T) for p_in, p_out, T, Q, _ in cases]
        # With Newton switched off every row's direction is the gradient.
        monkeypatch.setattr(sdpi, "_NEWTON_MAX_ALPHABET", 0)
        checked = 0
        for (p_in, p_out, T, Q, B), (concave, G) in zip(cases, newton):
            assert not self.directions(Q, p_in, p_out, T)[0].any()
            for q, d in zip(Q[concave], G[concave]):
                assert d.sum() == pytest.approx(0.0, abs=1e-12)
                pts = np.vstack([q, q + self.H * B.T, q - self.H * B.T])
                grads = self.directions(pts, p_in, p_out, T)[1]
                if np.abs(grads).max() >= 99.0:
                    continue
                red = grads @ B
                hess = self.central_differences(red[1:], B.shape[1])
                np.testing.assert_allclose(hess @ (B.T @ d), -red[0], rtol=1e-5, atol=1e-6)
                checked += 1
        assert checked >= 15


def _decimal_ratio(q, j, direction):
    """divergence_ratio in 50-digit decimal arithmetic.

    The float inputs are taken as exact and q and j are renormalized, so
    this is the ratio of the laws that the floats stand for.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        P = [[Decimal(float(v)) for v in row] for row in j.probs]
        if direction == "y_to_x":
            P = [list(col) for col in zip(*P)]
        total = sum(map(sum, P))
        P = [[v / total for v in row] for row in P]
        qd = [Decimal(float(v)) for v in q.probs]
        qd = [v / sum(qd) for v in qd]
        p_in = [sum(row) for row in P]
        p_out = [sum(col) for col in zip(*P)]
        q_out = [sum(qx * row[y] / px for qx, row, px in zip(qd, P, p_in))
                 for y in range(len(p_out))]

        def kl(a, p):
            return sum(ai * (ai / pi).ln() for ai, pi in zip(a, p) if ai)

        return float(kl(q_out, p_out) / kl(qd, p_in))


def _stars_and_bars(k, n):
    """Grid rows from (k-1)-subsets of bar positions among n + k - 1 slots."""
    rows = []
    for bars in combinations(range(n + k - 1), k - 1):
        edges = (-1, *bars, n + k - 1)
        rows.append([(b - a - 1) / n for a, b in zip(edges, edges[1:])])
    return np.array(rows)


def _lex_sorted(rows):
    return rows[np.lexsort(rows[:, ::-1].T)]


def _sequential_multistart(p_in, p_out, T, cfg):
    """Multistart ascent that backtracks one halving at a time.

    The batched line search of _multistart_search must accept the same
    points; this loop tries each halving only after the previous one failed.
    It takes the library's direction per row from _directions, and resets
    the step to 1.0 on the rows that get a Newton direction.
    """
    k = p_in.shape[0]
    rng = np.random.default_rng(cfg.seed)
    corners = 0.999 * np.eye(k) + 0.001 / k
    Q = np.vstack([rng.dirichlet(np.ones(k), size=cfg.multistart_count), corners])
    step = np.full(Q.shape[0], 0.1)
    f = _evaluate(Q, p_in, p_out, T)[0]
    evals = Q.shape[0]
    alive = np.ones(Q.shape[0], dtype=bool)
    for _ in range(cfg.max_iterations):
        if not alive.any():
            break
        _, Qy, num, den = _evaluate(Q, p_in, p_out, T)
        concave, G = _directions(Q, Qy, num, den, p_in, p_out, T)
        step[concave] = 1.0
        pending = alive.copy()
        for _ in range(40):
            idx = np.flatnonzero(pending)
            if idx.size == 0:
                break
            trial = _project_rows(Q[idx] + step[idx, None] * G[idx])
            ft = _evaluate(trial, p_in, p_out, T)[0]
            evals += idx.size
            better = ft > f[idx] + 1e-15
            good = idx[better]
            bad = idx[~better]
            Q[good] = trial[better]
            f[good] = ft[better]
            step[good] *= 1.5
            pending[good] = False
            step[bad] *= 0.5
            stuck = bad[step[bad] < sdpi._STEP_TOLERANCE]
            alive[stuck] = False
            pending[stuck] = False
        alive[pending] = False
    best, q = _best_of(f, Q)
    return best, q, evals


class TestRhoStar:
    def test_symmetric_joint_directions_agree(self, quaternary):
        assert rho_star(quaternary) == pytest.approx(
            sstar(quaternary, "x_to_y").value, abs=1e-12
        )

    def test_is_max_of_directions(self):
        rng = np.random.default_rng(8)
        j = random_joint(rng, 2, 3)
        expected = max(sstar(j, "x_to_y").value, sstar(j, "y_to_x").value)
        assert rho_star(j) == expected


class TestVerifySdpiInequality:
    def test_identity_channel(self, dsbs):
        s = sstar(dsbs).value
        lhs, rhs, holds = verify_sdpi_inequality(dsbs, Channel.identity(2), s)
        # U = X: left side is I(X;Y), right side is s* H(X)
        assert lhs == pytest.approx(0.5310044064107188, rel=1e-10)
        assert rhs == pytest.approx(s * 1.0, rel=1e-10)
        assert holds

    def test_independent_joint(self, independent_binary):
        lhs, rhs, holds = verify_sdpi_inequality(
            independent_binary, Channel([[0.7, 0.3], [0.2, 0.8]]), 0.0
        )
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_dimension_mismatch(self, dsbs):
        with pytest.raises(DimensionMismatchError):
            verify_sdpi_inequality(dsbs, Channel.identity(3), 0.5)

    def test_random_chains_hold(self):
        rng = np.random.default_rng(424242)
        for _ in range(25):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            j = random_joint(rng, nx, ny)
            s = sstar(j, "x_to_y", GRID_ONLY).value
            for _ in range(4):
                nu = int(rng.integers(2, 5))
                u = Channel(rng.dirichlet(np.ones(nu), size=nx))
                lhs, rhs, holds = verify_sdpi_inequality(j, u, s)
                assert holds, f"{lhs} > {rhs}"


class TestTensorization:
    def test_dsbs_gap_small(self, dsbs):
        s1, s2, gap = tensorization_check(dsbs)
        assert s1 == pytest.approx(0.64, abs=1e-6)
        assert abs(gap) <= 0.02

    def test_rejects_large_product(self):
        big = quantized_gaussian_joint(0.3, 5)
        with pytest.raises(ProbabilityError):
            tensorization_check(big)

    def test_maximal_correlation_tensorizes(self, dsbs):
        t = tensor_product(dsbs, dsbs)
        assert maximal_correlation(t) == pytest.approx(
            maximal_correlation(dsbs), rel=1e-9
        )


class TestDegradationMonotonicity:
    def test_post_processing_cannot_raise_the_constant(self):
        rng = np.random.default_rng(314)
        for _ in range(30):
            j = random_joint(rng, 2, 2)
            nz = int(rng.integers(2, 4))
            degrade = rng.dirichlet(np.ones(nz), size=2)
            j2 = JointDistribution(j.probs @ degrade)
            s1 = sstar(j, "x_to_y", GRID_ONLY).value
            s2 = sstar(j2, "x_to_y", GRID_ONLY).value
            assert s2 <= s1 + 0.01
