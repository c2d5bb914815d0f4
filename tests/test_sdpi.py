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
    _composition_grid,
    _directions,
    _evaluate,
    _first_order_gap,
    _mirror_rows,
    _multistart_search,
    _oriented,
    _sum_zero_basis,
    _tilt_starts,
    _top_rows,
)
from conftest import random_joint

GRID_ONLY = SdpiConfig(multistart_count=0)
DATA = Path(sdpibounds.__file__).parent / "data"


class TestConfig:
    def test_defaults(self, dsbs, quaternary):
        assert sdpi.EXCLUSION_RADIUS == 1e-4
        # Grid-only evaluations are the k vertices plus the grid at pitch
        # 1/20: 21 points on binary inputs, C(23, 3) = 1,771 on four symbols.
        assert sstar(dsbs, "x_to_y", GRID_ONLY).evaluations == 23
        assert sstar(quaternary, "x_to_y", GRID_ONLY).evaluations == 1_775

    @pytest.mark.parametrize("kwargs", [
        {"grid_max_alphabet": -1},
        {"multistart_count": -1},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SdpiConfig(**kwargs)

    def test_accepts_numpy_reals(self, dsbs):
        # Integer fields take numpy integer scalars as well as int.
        cfg = SdpiConfig(grid_max_alphabet=np.int64(2), multistart_count=np.uint8(8))
        want = sstar(dsbs, "x_to_y", SdpiConfig(grid_max_alphabet=2, multistart_count=8))
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

    def test_one_output_symbol_on_many_inputs(self):
        # Six inputs get no tilt starts when the output has one symbol, so
        # the ascent runs from no start at all.
        j = JointDistribution(np.arange(1.0, 7.0)[:, None] / 21.0)
        for direction in ("x_to_y", "y_to_x"):
            res = sstar(j, direction)
            assert 0.0 <= res.value <= 1e-12 and res.rho_m_squared == 0.0

    def test_binary_inputs_retire_early(self, dsbs, monkeypatch):
        # Every start retires within a short round budget, so the default
        # 2,000 rounds change nothing, because locally concave rows take
        # Newton steps.  Under mirror steps no binary step here grows past
        # 1.5, and capping step growth at 1.0 leaves dsbs at 2,661
        # evaluations.  The 3x3 joint, from the benchmark inputs, was still
        # rising at round 2,000 under gradient steps alone.
        rng = np.random.default_rng(2)
        binary = [dsbs, *(random_joint(rng, 2, n) for n in (2, 3, 4))]
        larger = [random_joint(rng, k, n) for n in (2, 3, 4) for k in (3, 4)]
        larger.append(JointDistribution([
            [0.3514271956667196, 0.15435736773902198, 0.034712958439118265],
            [0.0880164388358699, 0.08455099983468538, 0.1605952965453869],
            [0.04345279792817732, 0.05201448466777489, 0.030872460343245728],
        ]))
        calls = [(j, direction) for j in binary + larger for direction in ("x_to_y", "y_to_x")]
        full = [sstar(j, direction) for j, direction in calls]
        monkeypatch.setattr(sdpi, "_MAX_ROUNDS", 200)
        for (j, direction), res in zip(calls, full):
            short = sstar(j, direction)
            assert res.evaluations == short.evaluations
            assert res.value == short.value
            if _oriented(j, direction)[0].size == 2:
                assert res.evaluations < 30_000

    def test_quaternary(self, quaternary):
        res = sstar(quaternary)
        # The value of the search that also scored 176,851 grid points at
        # pitch 1/100 and ran 64 random starts.
        assert res.value >= 0.045289749742147285 * (1 - 1e-12)
        assert res.value == pytest.approx(0.04529, abs=2e-4)
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

    def test_deterministic(self, dsbs, quaternary):
        # Grid starts, tilt starts, and no witness at all.
        for j in (dsbs, quaternary, quantized_gaussian_joint(0.5, 6)):
            a = sstar(j, "x_to_y")
            b = sstar(j, "x_to_y")
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

    def test_witnesses_match_decimal_reference(self):
        # Every witness of the bundled joints and of criterion 4's
        # Gaussians, against 50-digit arithmetic.
        joints = [JointDistribution.from_dict(json.loads(path.read_text()))
                  for path in sorted(DATA.glob("*.json"))]
        joints += [quantized_gaussian_joint(0.5, lv) for lv in (9, 17, 33)]
        checked = 0
        for j in joints:
            for direction in ("x_to_y", "y_to_x"):
                res = sstar(j, direction)
                if res.argmax_q is not None:
                    want = _decimal_ratio(res.argmax_q, j, direction)
                    assert res.value == pytest.approx(want, rel=1e-11)
                    checked += 1
        assert checked >= 6

    def test_nine_level_gaussian_reaches_the_newton_value(self):
        # Projected gradient steps from the tilt starts stopped at 0.2140006;
        # Newton from the best of them reaches 0.2140031.
        assert sstar(quantized_gaussian_joint(0.5, 9)).value >= 0.2140031

    @pytest.mark.parametrize("rho", [0.5, 0.79])
    def test_first_order_gap_at_nine_level_witnesses(self, rho):
        # At a local maximum on the simplex the gradient of log(num/den) is
        # flat over the support and no higher off it.  Projected gradient
        # steps left gaps of 4.7e-2 and 3.7e-2 here.
        j = quantized_gaussian_joint(rho, 9)
        res = sstar(j)
        p_in, p_out, T = _oriented(j, "x_to_y")
        assert res.first_order_gap == _gap_at(res.argmax_q.probs, p_in, p_out, T)
        assert res.first_order_gap <= 1e-7

    @pytest.mark.parametrize("levels", [9, 17])
    def test_first_order_gap_across_rho(self, levels):
        # Mirror gradient steps with a Newton finish of the best point alone
        # left up to 1.4e-6 on 17 levels; Newton on every concave start
        # leaves at most 2.6e-7 (9 levels, rho = 0.3).
        for rho in np.linspace(0.2, 0.9, 8):
            res = sstar(quantized_gaussian_joint(rho, levels))
            assert res.argmax_q is not None
            assert res.first_order_gap <= 1e-6

    def test_seventeen_level_gaussian_value(self):
        # The value of mirror steps with a Newton finish of the best point.
        res = sstar(quantized_gaussian_joint(0.5, 17))
        assert res.value >= 0.2399015067914831 * (1 - 1e-12)

    def test_first_order_gap_matches_differences(self):
        # On interior points the gap is the largest derivative along
        # e_i - e_j, and it is 0 where the ratio is flat.
        rng = np.random.default_rng(21)
        h = 1e-6
        for k, ny in ((3, 4), (6, 5)):
            j = random_joint(rng, k, ny)
            p_in, p_out, T = _oriented(j, "x_to_y")
            for q in rng.dirichlet(np.full(k, 3.0), size=5):
                E = np.eye(k)
                steps = np.array([E[a] - E[b] for a in range(k) for b in range(k) if a != b])
                _, _, num, den = _evaluate(np.vstack([q + h * steps, q - h * steps]),
                                           p_in, p_out, T)
                slopes = np.log(num / den)
                want = ((slopes[:len(steps)] - slopes[len(steps):]) / (2 * h)).max()
                assert _gap_at(q, p_in, p_out, T) == pytest.approx(want, rel=1e-5)
        diagonal = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        assert sstar(diagonal).first_order_gap == 0.0
        # One input symbol leaves no search point.
        assert sstar(JointDistribution([[0.5, 0.5]])).first_order_gap is None

    def test_first_order_gap_off_the_support(self):
        # At a vertex of a full-support channel the denominator's slope into
        # any other symbol is -inf: the ratio rises with infinite slope.
        j = random_joint(np.random.default_rng(5), 4, 3)
        p_in, p_out, T = _oriented(j, "x_to_y")
        E = np.eye(4)
        assert _gap_at(E[1], p_in, p_out, T) == np.inf
        for h in (1e-3, 1e-6, 1e-9):
            assert (divergence_ratio(Distribution(E[1] + h * (E[2] - E[1])), j)
                    > divergence_ratio(Distribution(E[1]), j))
        # A symbol whose row lies on outputs that q leaves at 0 lowers the
        # ratio with infinite slope, so the gap is the spread on the support.
        block = JointDistribution([[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.3]])
        p_in, p_out, T = _oriented(block, "x_to_y")
        E, h = np.eye(3), 1e-6
        q = np.array([0.9, 0.1, 0.0])
        _, _, num, den = _evaluate(np.array([q + h * (E[0] - E[1]), q - h * (E[0] - E[1])]),
                                   p_in, p_out, T)
        slope = (np.log(num[0] / den[0]) - np.log(num[1] / den[1])) / (2 * h)
        assert _gap_at(q, p_in, p_out, T) == pytest.approx(abs(slope), rel=1e-5)
        assert (divergence_ratio(Distribution(q + h * (E[2] - E[0])), block)
                < divergence_ratio(Distribution(q), block))

    def test_wide_joints_no_lower_than_projected_gradient(self):
        # Both directions of six 5-9 symbol joints, against the values of
        # projected gradient steps from corner and tilt starts, printed at
        # commit 9bd1799 from the repository root by
        #   PYTHONPATH=src:tests python -c "import numpy as np;
        #   from conftest import random_joint; from sdpibounds import sstar;
        #   rng = np.random.default_rng(20261019); [print([sstar(j, d).value
        #   for d in ('x_to_y', 'y_to_x')]) for j in (random_joint(rng,
        #   int(rng.integers(5, 10)), int(rng.integers(5, 10)))
        #   for _ in range(6))]"
        before = [
            (0.18990282564994565, 0.14686989196025563),
            (0.2502288603433869, 0.25570472300269315),
            (0.2472977265575741, 0.25379599890832216),
            (0.2410472725030757, 0.2350681118715693),
            (0.25641538982119527, 0.25117521945239357),
            (0.2863763231102547, 0.2996568765070651),
        ]
        rng = np.random.default_rng(20261019)
        for want in before:
            j = random_joint(rng, int(rng.integers(5, 10)), int(rng.integers(5, 10)))
            for direction, floor in zip(("x_to_y", "y_to_x"), want):
                assert sstar(j, direction).value >= floor * (1 - 1e-12)

    @pytest.mark.parametrize("weights, direction, floor", [
        ([[3, 1, 5], [3, 0, 1], [4, 4, 3]], "y_to_x", 0.20482859760093952),
        ([[1, 2, 5, 4], [5, 1, 2, 4], [1, 4, 0, 0], [5, 1, 1, 1]], "x_to_y", 0.4765148736242415),
    ], ids=["3x3", "4x4"])
    def test_witness_leaves_the_simplex_face(self, weights, direction, floor):
        # Euclidean-projected steps parked these witnesses on a simplex face,
        # where the ratio still rose with infinite slope (gap inf), at
        # 0.20394303087297413 and 0.47578241523075676.  Mirror steps keep
        # every entry positive and reach the interior maximum.
        j = JointDistribution(np.array(weights) / np.sum(weights))
        res = sstar(j, direction)
        assert res.value >= floor * (1 - 1e-12)
        assert np.isfinite(res.first_order_gap) and res.first_order_gap <= 1e-6
        assert divergence_ratio(res.argmax_q, j, direction) == res.value

    def test_value_bounds_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            res = sstar(j, "x_to_y")
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
        # gradient steps alone the search stopped up to 9.5e-7 apart, and
        # from random starts the 5-7 symbol joints here ended up to 7.8e-7
        # apart.
        rng = np.random.default_rng(31)
        wide = np.random.default_rng(35)
        larger = [random_joint(wide, int(wide.integers(5, 8)), int(wide.integers(2, 6)))
                  for _ in range(12)]
        for j in self.joints(30, (3, 4)) + larger:
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
        # No lower than the best point of a fine grid, pitch 1/200 on binary
        # inputs and 1/100 on 3 and 4 symbols (176,851 points), which the
        # search scored in full before it started from a coarse one.
        rng = np.random.default_rng(20260816)
        joints = [random_joint(rng, 2, 2) for _ in range(100)]
        joints += [random_joint(rng, k, int(rng.integers(2, 5))) for k in (3, 4) for _ in range(3)]
        for j in joints:
            p_in, p_out, T = _oriented(j, "x_to_y")
            k = p_in.shape[0]
            grid = _composition_grid(k, 200 if k == 2 else 100)
            vals = _evaluate(grid, p_in, p_out, T)[0]
            best = vals[np.isfinite(vals)].max()
            assert sstar(j, "x_to_y").value >= best * (1 - 1e-12)

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
    # Eight grid or tilt starts, as sstar takes, and a short round budget.
    STARTS, ROUNDS = 8, 200

    @staticmethod
    def cases():
        rng = np.random.default_rng(20261018)
        joints = [random_joint(rng, k, int(rng.integers(2, 5))) for k in (2, 3, 4) for _ in range(7)]
        return joints + [quantized_gaussian_joint(0.6, 9)]

    @classmethod
    def check(cls, joints, rounds):
        for j in joints:
            p_in, p_out, T = _oriented(j, "x_to_y")
            starts = _sstar_starts(j, cls.STARTS)
            got_f, got_Q, got_evals = _multistart_search(p_in, p_out, T, starts, rounds)
            want_f, want_Q, want_evals = _sequential_multistart(p_in, p_out, T, starts, rounds)
            # Every start, not only the best, ends at the same value.
            np.testing.assert_allclose(got_f, want_f, rtol=1e-12, atol=0.0)
            # Values near a maximum, where Newton takes the search, are flat
            # to second order, so the points are compared too.
            np.testing.assert_allclose(got_Q, want_Q, rtol=1e-6, atol=1e-15)
            assert got_evals >= want_evals

    def test_matches_one_halving_at_a_time(self):
        self.check(self.cases(), self.ROUNDS)

    # Each start stops after max_iterations rounds of its own; a sweep spent
    # on the later halvings of a round does not count as another round.
    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 7])
    @pytest.mark.parametrize("case", range(22))
    def test_matches_under_round_caps(self, case, max_iterations):
        self.check([self.cases()[case]], max_iterations)

    # Tolerances that end a round's halvings early, only after all 40 tries,
    # and before its second try.
    @pytest.mark.parametrize("tolerance", [1e-3, 1e-15, 0.3])
    def test_matches_at_other_step_tolerances(self, tolerance, monkeypatch):
        monkeypatch.setattr(sdpi, "_STEP_TOLERANCE", tolerance)
        self.check(self.cases()[::3], self.ROUNDS)


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
                B = _sum_zero_basis(k)
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

    def test_sum_zero_basis(self):
        for k in range(2, 6):
            B = _sum_zero_basis(k)
            assert B.shape == (k, k - 1)
            np.testing.assert_allclose(B.T @ B, np.eye(k - 1), atol=1e-14)
            np.testing.assert_allclose(B.sum(axis=0), 0.0, atol=1e-14)
            assert _sum_zero_basis(k) is B
            with pytest.raises(ValueError):
                B[0, 0] = 0.5

    def test_mirror_rows(self):
        # Q exp(V) / Z, with no row lost to underflow at any step length.
        rng = np.random.default_rng(13)
        Q = rng.dirichlet(np.ones(9), size=20)
        Q[:5, 0] = 0.0
        V = rng.normal(size=Q.shape)
        want = Q * np.exp(V)
        np.testing.assert_allclose(_mirror_rows(Q, V), want / want.sum(axis=1, keepdims=True),
                                   rtol=1e-12, atol=1e-290)
        for scale in (1e3, 1e8, 1e300):
            W = _mirror_rows(Q, scale * V)
            assert np.isfinite(W).all() and W.min() >= 0.0
            np.testing.assert_allclose(W.sum(axis=1), 1.0, rtol=1e-15)
        # An entry at zero sits at the log floor, from where a step can
        # bring it back.
        assert (_mirror_rows(Q[:5], np.where(np.arange(9) == 0, 800.0, 0.0)[None, :])[:, 0] > 0).all()

    def test_gradient_matches_central_differences(self):
        checked = 0
        for p_in, p_out, T, Q, B in self.interior_rows(11):
            concave, G = self.directions(Q, p_in, p_out, T)
            for q, g in zip(Q[~concave], G[~concave]):
                pts = np.vstack([q + self.H * B.T, q - self.H * B.T])
                diffs = self.central_differences(self.log_ratio(pts, p_in, p_out, T), B.shape[1])
                np.testing.assert_allclose(B.T @ g, diffs, rtol=1e-6, atol=1e-7)
                checked += 1
        assert checked >= 50

    @staticmethod
    def gradients(Q, p_in, p_out, T):
        """The gradient of log(num/den) per row, written out."""
        _, Qy, num, den = _evaluate(Q, p_in, p_out, T)
        return ((np.log(Qy / p_out) + 1.0) @ T.T) / num[:, None] \
            - (np.log(Q / p_in) + 1.0) / den[:, None]

    @staticmethod
    def reduced_hessian(q, p_in, p_out, T, B):
        """B'[T diag(1/q_out) T'/N - g_N g_N'/N^2 - diag(1/q)/D + g_D g_D'/D^2]B
        at one row, term by term: the Hessian of log(num/den) on the simplex."""
        q_out = q @ T
        g_num = T @ np.log(q_out / p_out)
        g_den = np.log(q / p_in)
        num, den = q_out @ np.log(q_out / p_out), q @ g_den
        full = (T @ np.diag(1.0 / q_out) @ T.T / num - np.outer(g_num, g_num) / num ** 2
                - np.diag(1.0 / q) / den + np.outer(g_den, g_den) / den ** 2)
        return B.T @ full @ B

    def check_newton(self, cases):
        """Count the concave rows.  On each, the direction v is d/q, whose
        mirror step q exp(t v)/Z is q + t d to first order: d = v q must
        solve H (B'd) = -B'g with H from reduced_hessian, and H must match
        central differences of the gradient."""
        checked = 0
        for p_in, p_out, T, Q, B in cases:
            concave, G = self.directions(Q, p_in, p_out, T)
            for q, v in zip(Q[concave], G[concave]):
                d = v * q
                assert d.sum() == pytest.approx(0.0, abs=1e-12)
                hess = self.reduced_hessian(q, p_in, p_out, T, B)
                red = self.gradients(q[None, :], p_in, p_out, T)[0] @ B
                np.testing.assert_allclose(hess @ (B.T @ d), -red, rtol=1e-10, atol=0.0)
                grads = self.gradients(np.vstack([q + self.H * B.T, q - self.H * B.T]),
                                       p_in, p_out, T)
                diffs = self.central_differences(grads @ B, B.shape[1])
                np.testing.assert_allclose(diffs, hess, rtol=1e-5, atol=1e-6)
                checked += 1
        return checked

    def test_newton_solves_the_reduced_system(self):
        assert self.check_newton(self.interior_rows(12)) >= 15

    def test_mirror_newton_direction_is_newton_over_q(self):
        # The same check on 5 and 7 symbols.
        rng = np.random.default_rng(14)
        cases = []
        for k in (5, 7):
            for ny in (2, 4):
                j = random_joint(rng, k, ny)
                p_in, p_out, T = _oriented(j, "x_to_y")
                # Flatter draws than interior_rows': fewer are concave here.
                # Entries below 0.02 would spoil the differences.
                Q = rng.dirichlet(np.ones(k), size=400)
                Q = Q[(0.5 * np.abs(Q - p_in).sum(axis=1) > 0.05) & (Q.min(axis=1) > 0.02)]
                cases.append((p_in, p_out, T, Q, _sum_zero_basis(k)))
        assert self.check_newton(cases) >= 15


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


def _gap_at(q, p_in, p_out, T):
    """_first_order_gap at one simplex point."""
    return _first_order_gap(q, *(a[0] for a in _evaluate(q[None, :], p_in, p_out, T)[1:]),
                            p_in, p_out, T)


def _stars_and_bars(k, n):
    """Grid rows from (k-1)-subsets of bar positions among n + k - 1 slots."""
    rows = []
    for bars in combinations(range(n + k - 1), k - 1):
        edges = (-1, *bars, n + k - 1)
        rows.append([(b - a - 1) / n for a, b in zip(edges, edges[1:])])
    return np.array(rows)


def _lex_sorted(rows):
    return rows[np.lexsort(rows[:, ::-1].T)]


def _sstar_starts(j, count):
    """The ascent starts of sstar(j, "x_to_y") under the default grid size:
    grid points on up to 4 symbols, tilt points above.
    """
    p_in, p_out, T = _oriented(j, "x_to_y")
    k = p_in.shape[0]
    if k <= 4:
        grid = _composition_grid(k, 20)
        return _top_rows(_evaluate(grid, p_in, p_out, T)[0], grid, count, 0.1)
    U = sdpi._correlation_svd(j)[0]
    return np.vstack(_tilt_starts(p_in, p_out, T, U.T[1:3], count)[0])


def _sequential_multistart(p_in, p_out, T, starts, max_iterations):
    """Multistart ascent that backtracks one halving at a time.

    The batched line search of _multistart_search must accept the same
    points from the same starts; this loop tries each halving only after
    the previous one failed.  It takes the library's direction per row from
    _directions, and resets the step to 1.0 on the rows that get a Newton
    direction.  Its tries are mirror steps q exp(t v)/Z, with v the gradient
    or, on Newton rows, the Newton direction d over q, so that the step is
    q + t d to first order.  Returns the final value and point of every
    start, and the evaluation count.
    """
    Q = starts.copy()
    step = np.full(Q.shape[0], 0.1)
    f = _evaluate(Q, p_in, p_out, T)[0]
    evals = Q.shape[0]
    alive = np.ones(Q.shape[0], dtype=bool)
    for _ in range(max_iterations):
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
            V = step[idx, None] * G[idx]
            trial = _mirror_rows(Q[idx], V)
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
    return f, Q, evals


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
