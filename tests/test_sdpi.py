import json
from decimal import Decimal, localcontext
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

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
    verify_sdpi_inequality,
)
from sdpibounds.probability import _kl_rows
from sdpibounds.sdpi import (
    _FIRST_TRIES,
    _HALVINGS,
    _LOG_FLOOR,
    _STEP_TOLERANCE,
    _TINY,
    EXCLUSION_RADIUS,
    _composition_grid,
    _directions,
    _evaluate,
    _first_order_gap,
    _mirror_rows,
    _multistart_search,
    _negative_definite,
    _oriented,
    _posed,
    _solved,
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
                p_in = _oriented(_posed(j, direction))[0]
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
            if _oriented(_posed(j, direction))[0].size == 2:
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

    def test_method_names_the_start_rule(self, quaternary):
        assert sstar(quaternary).method == "combined"
        assert sstar(quantized_gaussian_joint(0.3, 5)).method == "multistart"

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
        p_in, p_out, T = _oriented(j)
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
            p_in, p_out, T = _oriented(j)
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
        p_in, p_out, T = _oriented(j)
        E = np.eye(4)
        assert _gap_at(E[1], p_in, p_out, T) == np.inf
        for h in (1e-3, 1e-6, 1e-9):
            assert (divergence_ratio(Distribution(E[1] + h * (E[2] - E[1])), j)
                    > divergence_ratio(Distribution(E[1]), j))
        # A symbol whose row lies on outputs that q leaves at 0 lowers the
        # ratio with infinite slope, so the gap is the spread on the support.
        block = JointDistribution([[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.3]])
        p_in, p_out, T = _oriented(block)
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
            assert sstar(j.swapped(), "x_to_y").value == sstar(j, "y_to_x").value

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


class TestOneCodePath:
    """y_to_x is x_to_y on the swapped joint, at every alphabet size."""

    @staticmethod
    def joints():
        rng = np.random.default_rng(25)
        small = [random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
                 for _ in range(16)]
        return small + [random_joint(rng, int(rng.integers(5, 10)), int(rng.integers(5, 10)))
                        for _ in range(4)]

    def test_sstar_is_x_to_y_on_the_swapped_joint(self):
        for j in self.joints():
            assert sstar(j, "y_to_x").to_dict() == sstar(j.swapped(), "x_to_y").to_dict()

    def test_divergence_ratio_is_x_to_y_on_the_swapped_joint(self):
        rng = np.random.default_rng(26)
        for j in self.joints():
            for _ in range(5):
                q = Distribution(rng.dirichlet(np.ones(j.y_size)))
                want = divergence_ratio(q, j.swapped(), "x_to_y")
                assert divergence_ratio(q, j, "y_to_x") == want

    @staticmethod
    def symmetric_joints():
        """Random full-support joints of 5 to 8 symbols, each equal to its
        transpose bit for bit."""
        rng = np.random.default_rng(27)
        joints = []
        for k in (6, 5, 6, 7, 8, 6):
            m = rng.dirichlet(np.ones(k * k)).reshape(k, k) + 1e-3
            m = m + m.T
            joints.append(JointDistribution(m / m.sum()))
        return joints

    def test_symmetric_joints_get_identical_directions(self):
        bundled = [JointDistribution.from_dict(json.loads(path.read_text()))
                   for path in sorted(DATA.glob("*.json"))]
        assert len(bundled) == 3
        for j in bundled + self.symmetric_joints():
            assert (j.probs == j.probs.T).all()
            assert sstar(j, "x_to_y").to_dict() == sstar(j, "y_to_x").to_dict()


class TestGridAndMultistartAgree:
    def test_on_random_binary_joints(self):
        # No lower than the best point of a fine grid, pitch 1/200 on binary
        # inputs and 1/100 on 3 and 4 symbols (176,851 points), which the
        # search scored in full before it started from a coarse one.
        rng = np.random.default_rng(20260816)
        joints = [random_joint(rng, 2, 2) for _ in range(100)]
        joints += [random_joint(rng, k, int(rng.integers(2, 5))) for k in (3, 4) for _ in range(3)]
        for j in joints:
            p_in, p_out, T = _oriented(j)
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


class TestTopRows:
    @staticmethod
    def by_lexsort(values, rows, count, spread):
        """_top_rows by one full sort: value descending, then rows in
        lexicographic order, then a greedy pass that drops the rows within
        spread of each row taken."""
        live = np.flatnonzero(np.isfinite(values))
        order = live[np.lexsort(np.vstack([rows[live][:, ::-1].T, -values[live]]))]
        taken = []
        while order.size and len(taken) < count:
            taken.append(order[0])
            tv = 0.5 * np.abs(rows[order[1:]] - rows[order[0]]).sum(axis=1)
            order = order[1:][tv > spread - 1e-9]
        return rows[taken]

    @pytest.mark.parametrize("spread", [0.0, 0.1])
    def test_matches_a_full_sort(self, spread):
        # Few distinct values, so ties are common; +-inf and NaN; rows
        # repeated with the same and with other values.
        rng = np.random.default_rng(31)
        for k in (2, 3, 4):
            grid = _composition_grid(k, 10)
            for _ in range(40):
                rows = grid[rng.integers(0, grid.shape[0], size=int(rng.integers(1, 60)))]
                values = rng.choice([0.1, 0.2, 0.3, -0.0, 0.0, np.inf, -np.inf, np.nan],
                                    size=rows.shape[0])
                for count in (1, 3, 8, rows.shape[0]):
                    want = self.by_lexsort(values, rows, count, spread)
                    got = _top_rows(values, rows, count, spread)
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)

    def test_matches_a_full_sort_on_the_start_grids(self):
        # The pitch-1/20 grids that sstar starts from, 21, 231 and 1,771
        # rows, at the start spread.  Values are ratios of random joints, or
        # 3 or 4 levels over bands of a random linear score, whose ties
        # straddle any cut by value.
        rng = np.random.default_rng(41)
        beyond = 0
        for k in (2, 3, 4):
            grid = _composition_grid(k, 20)
            for draw in range(12):
                if draw % 2:
                    p_in, p_out, T = _oriented(random_joint(rng, k, int(rng.integers(2, 5))))
                    values = _evaluate(grid, p_in, p_out, T)[0]
                else:
                    score = grid @ rng.normal(size=k)
                    edges = np.quantile(score, np.linspace(0, 1, 3 + draw % 4 // 2 + 1)[1:-1])
                    values = 0.1 * np.digitize(score, edges)
                for count in (0, 1, 8, grid.shape[0]):
                    want = self.by_lexsort(values, grid, count, 0.1)
                    got = _top_rows(values, grid, count, 0.1)
                    assert got.shape == want.shape == (min(count, want.shape[0]), k)
                    assert np.array_equal(got, want)
                    beyond += self.order_read(values, grid, want) > min(5 * count, 64)
        # Every pass over the 231 or 1,771 rows that takes all it can reads
        # on past its first block.
        assert beyond >= 24

    @staticmethod
    def order_read(values, rows, taken):
        """Rows of the full sort up to and including the last one taken."""
        if not taken.size:
            return 0
        order = np.lexsort(np.vstack([rows[:, ::-1].T, -values]))
        return 1 + max(int(np.flatnonzero((rows[order] == t).all(axis=1))[0]) for t in taken)

    def test_best_of_a_concatenation_with_repeated_rows(self):
        # sstar's final pick: count 1 at spread 0 over the vertices, the
        # grid and the ascent's points, which repeat grid rows, with values
        # tied across the parts.
        rng = np.random.default_rng(42)
        for k in (2, 3, 4):
            grid = _composition_grid(k, 20)
            for _ in range(20):
                again = grid[rng.integers(0, grid.shape[0], size=8)]
                rows = np.vstack([np.eye(k), grid, again, again[:3]])
                values = rng.choice([0.1, 0.3, 0.6, -np.inf], size=rows.shape[0])
                values[-11:-3] = rng.choice([0.6, 0.3], size=8)
                want = self.by_lexsort(values, rows, 1, 0.0)
                got = _top_rows(values, rows, 1, 0.0)
                assert got.shape == want.shape == (1, k)
                assert np.array_equal(got, want)

    def test_no_finite_value(self):
        rows = np.eye(3)
        got = _top_rows(np.array([np.nan, np.inf, -np.inf]), rows, 8, 0.0)
        assert got.shape == (0, 3)


class TestTiltStarts:
    @staticmethod
    def full_scan(p_in, p_out, T, vectors, count):
        """_tilt_starts by one pass over all 2,401 fine tilts per vector."""
        starts, evals = [], 0
        for u, n in zip(vectors, (count - count // 2, count // 2)):
            z = sdpi._TILTS * (u / np.sqrt(p_in)) + np.log(p_in)
            Q = np.exp(z - z.max(axis=1, keepdims=True))
            Q /= Q.sum(axis=1, keepdims=True)
            f = _evaluate(Q, p_in, p_out, T)[0]
            evals += Q.shape[0]
            edged = np.concatenate([[-np.inf], f, [-np.inf]])
            peaks = np.where((f >= edged[:-2]) & (f >= edged[2:]), f, -np.inf)
            starts.append(_top_rows(peaks, Q, n, 0.0))
        return starts, evals

    @staticmethod
    def corpus():
        """(joint, direction) pairs with 5 or more input symbols: quantized
        Gaussians, and random joints that are dense, have 30 % of their cells
        zeroed, or are drawn from Dirichlet(0.05)."""
        cases = [(quantized_gaussian_joint(rho, levels), "x_to_y")
                 for levels in (5, 9, 17, 21) for rho in (-0.7, 0.3, 0.85)]
        rng = np.random.default_rng(20261019)
        for i in range(24):
            k, ny = int(rng.integers(5, 10)), int(rng.integers(2, 10))
            p = rng.dirichlet(np.full(k * ny, 0.05 if i % 3 == 2 else 1.0)).reshape(k, ny)
            if i % 3 == 1:
                p[rng.uniform(size=p.shape) < 0.3] = 0.0
            p[:, p.sum(axis=0) == 0] = 1e-3
            p[p.sum(axis=1) == 0] = 1e-3
            j = JointDistribution(p / p.sum())
            cases += [(j, d) for d in ("x_to_y", "y_to_x")[:1 + (ny >= 5)]]
        return cases

    @staticmethod
    def vectors(j, direction):
        return sdpi._correlation_svd(sdpi._posed(j, direction))[0].T[1:3]

    @staticmethod
    def scanned(monkeypatch):
        """The tilts of every _tilted call, in call order: a vector's coarse
        pass, then its fine pass."""
        thetas, tilted = [], sdpi._tilted

        def spy(theta, u, p_in):
            thetas.append(theta[:, 0].copy())
            return tilted(theta, u, p_in)

        monkeypatch.setattr(sdpi, "_tilted", spy)
        return thetas

    def test_ascent_loses_nothing_against_the_full_scan(self, monkeypatch):
        # sstar runs _multistart_search from the starts of each scan.  The
        # starts themselves differ: on a flat ridge rounding noise makes
        # adjacent local maxima, and the two scans keep different ones.
        for j, direction in self.corpus():
            got = sstar(j, direction)
            with monkeypatch.context() as m:
                m.setattr(sdpi, "_tilt_starts", self.full_scan)
                want = sstar(j, direction)
            assert got.value >= want.value * (1 - 1e-12)
            assert (got.argmax_q is None) == (want.argmax_q is None)
            assert got.method == want.method == "multistart"

    def test_evaluations_are_pinned(self):
        # 241 coarse tilts and at most 21 fine ones per start, per vector;
        # the full scan took 2 x 2,401.
        for j, direction in self.corpus():
            p_in, p_out, T = _oriented(_posed(j, direction))
            evals = _tilt_starts(p_in, p_out, T, self.vectors(j, direction), 8)[1]
            assert evals <= 2 * (241 + 4 * 21)

    def test_no_finite_coarse_value(self, monkeypatch):
        # A zero vector leaves every tilt at the marginal of the six-input,
        # one-output joint of test_one_output_symbol_on_many_inputs, inside
        # the exclusion ball: no peak, no fine point, no start.
        p_in = np.arange(1.0, 7.0) / 21.0
        thetas = self.scanned(monkeypatch)
        starts, evals = _tilt_starts(p_in, np.ones(1), np.ones((6, 1)), np.zeros((2, 6)), 8)
        assert [s.shape for s in starts] == [(0, 6), (0, 6)]
        assert [t.size for t in thetas] == [241, 0, 241, 0]
        assert evals == 2 * 241

    def test_window_of_an_end_peak_is_clipped(self, monkeypatch):
        # The ratio along this joint's second vector is flat towards the
        # vertex at theta = -60, a kept coarse peak and a start.  Its window
        # keeps the fine points on its inner side and wraps to none at +60.
        j = random_joint(np.random.default_rng(5), 5, 3)
        p_in, p_out, T = _oriented(j)
        vectors = self.vectors(j, "x_to_y")
        thetas = self.scanned(monkeypatch)
        starts, evals = _tilt_starts(p_in, p_out, T, vectors, 8)
        fine = thetas[3]
        assert np.isin(sdpi._TILTS[:11, 0], fine).all()
        assert not np.isin(sdpi._TILTS[-10:, 0], fine).any()
        assert np.unique(fine).size == fine.size
        assert evals == sum(t.size for t in thetas)
        end = sdpi._tilted(sdpi._TILTS[:1], vectors[1], p_in)
        assert (starts[1] == end).all(axis=1).any()

    def test_adjacent_peaks_share_their_fine_points(self, monkeypatch):
        # Y = X makes the ratio exactly 1 off the exclusion ball, so every
        # coarse point there is a peak; the ties keep the four lowest, one
        # coarse step apart, and their windows merge into the 41 fine points
        # on [-60, -58], each evaluated once.
        p_in = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        thetas = self.scanned(monkeypatch)
        starts, evals = _tilt_starts(p_in, p_in, np.eye(5), np.eye(5)[:2], 8)
        assert [t.size for t in thetas] == [241, 41, 241, 41]
        for fine in thetas[1::2]:
            assert np.array_equal(fine, sdpi._TILTS[:41, 0])
        assert evals == 2 * (241 + 41)
        assert [s.shape for s in starts] == [(4, 5), (4, 5)]


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
            p_in, p_out, T = _oriented(j)
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


    def test_no_direction_call_without_a_start(self, monkeypatch):
        # A sweep that only goes on with the halvings of earlier rounds
        # begins no round, so it takes no direction.
        rows = []
        directions = sdpi._directions

        def counted(Q, *args):
            rows.append(Q.shape[0])
            return directions(Q, *args)

        monkeypatch.setattr(sdpi, "_directions", counted)
        quaternary = JointDistribution.from_dict(json.loads((DATA / "quaternary.json").read_text()))
        for j, direction in [(quantized_gaussian_joint(0.5, 33), "x_to_y"),
                             (quaternary, "x_to_y"), (quaternary, "y_to_x")]:
            before = len(rows)
            sstar(j, direction)
            assert len(rows) > before
        assert min(rows) > 0


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
                p_in, p_out, T = _oriented(j)
                Q = rng.dirichlet(np.full(k, 3.0), size=40)
                Q = Q[0.5 * np.abs(Q - p_in).sum(axis=1) > 0.05]
                B = _sum_zero_basis(k)
                yield p_in, p_out, T, Q, B

    @staticmethod
    def directions(Q, p_in, p_out, T):
        return _directions(Q, *_evaluate(Q, p_in, p_out, T)[1:], p_in, p_out, T,
                           T.T @ _sum_zero_basis(T.shape[0]))

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

    def check_newton(self, cases, conditioned=True):
        """Count the concave rows.  On each, the direction v is d/q, whose
        mirror step q exp(t v)/Z is q + t d to first order: d = v q must
        solve H (B'd) = -B'g with H from reduced_hessian, and H must match
        central differences of the gradient.

        Rows with conditioned=False have entries too small for differences
        at step H and an H too ill-conditioned for the residual entry by
        entry, so there the residual is checked in norm instead, relative
        to |H| |B'd| + |B'g|: the backward error of the solve.
        """
        checked = 0
        for p_in, p_out, T, Q, B in cases:
            concave, G = self.directions(Q, p_in, p_out, T)
            for q, v in zip(Q[concave], G[concave]):
                d = v * q
                assert d.sum() == pytest.approx(0.0, abs=1e-12)
                hess = self.reduced_hessian(q, p_in, p_out, T, B)
                red = self.gradients(q[None, :], p_in, p_out, T)[0] @ B
                checked += 1
                if not conditioned:
                    scale = np.linalg.norm(hess, 2) * np.linalg.norm(B.T @ d) + np.linalg.norm(red)
                    assert np.linalg.norm(hess @ (B.T @ d) + red) <= 1e-10 * scale
                    continue
                np.testing.assert_allclose(hess @ (B.T @ d), -red, rtol=1e-10, atol=0.0)
                grads = self.gradients(np.vstack([q + self.H * B.T, q - self.H * B.T]),
                                       p_in, p_out, T)
                diffs = self.central_differences(grads @ B, B.shape[1])
                np.testing.assert_allclose(diffs, hess, rtol=1e-5, atol=1e-6)
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
                p_in, p_out, T = _oriented(j)
                # Flatter draws than interior_rows': fewer are concave here.
                # Entries below 0.02 would spoil the differences.
                Q = rng.dirichlet(np.ones(k), size=400)
                Q = Q[(0.5 * np.abs(Q - p_in).sum(axis=1) > 0.05) & (Q.min(axis=1) > 0.02)]
                cases.append((p_in, p_out, T, Q, _sum_zero_basis(k)))
        assert self.check_newton(cases) >= 15

    @pytest.mark.parametrize("levels, least", [(17, 10), (33, 6)])
    def test_newton_on_gaussian_ascent_rows(self, levels, least):
        # The tilt starts of the 17- and 33-level Gaussians and their points
        # after one and two rounds, where most Newton directions of
        # sstar-sized searches are solved.  Their reduced Hessians have
        # condition numbers of 1e8 to 1e10, so the residual is checked in
        # norm.  Later rounds are left out: near convergence the gradient
        # falls to its rounding level (4e-12 at 17 levels, rho = 0.6, where
        # it is 0.4 % off a 50-digit value), and so does any direction
        # solved from it.
        cases = []
        for rho in (0.3, 0.6, 0.85):
            j = quantized_gaussian_joint(rho, levels)
            p_in, p_out, T = _oriented(j)
            starts = _sstar_starts(j, 8)
            Q = np.vstack([starts] + [_multistart_search(p_in, p_out, T, starts, rounds)[1]
                                      for rounds in (1, 2)])
            cases.append((p_in, p_out, T, Q, _sum_zero_basis(levels)))
        assert self.check_newton(cases, conditioned=False) >= least

    FACE_ROWS = [
        ([[0.11494768806776054, 0.028170251681758567],
          [0.049716566881553265, 0.3768463007926013],
          [0.32413713230969304, 0.10618206026663311]],
         "x_to_y", [4.625445919708648e-255, 0.9484745794825644, 0.05152542051743558]),
        ([[0.13195691812076105, 0.026431970129774243],
          [0.28761049907248837, 0.12042156854154412],
          [0.03398877129944181, 0.23451913469710084],
          [0.13214146294116777, 0.03292967519772192]],
         "x_to_y", [0.0, 0.2, 0.8, 0.0]),
        ([[0.012382145197849432, 0.10734568883084035, 0.04649328750461464, 0.06713074552011448],
          [0.1420651727722625, 0.0866700676281666, 0.052047012377145305, 0.19948770573426508],
          [0.04326241068705156, 0.08381502992208785, 0.0666447388907022, 0.09265599493489998]],
         "y_to_x", [0.7497367765136889, 6.168655109198179e-268, 6.289918393202385e-268,
                    0.250263223486311]),
    ]

    @pytest.mark.parametrize("probs, direction, q", FACE_ROWS)
    def test_face_rows_take_finite_directions(self, probs, direction, q):
        # Rows that the ascent reaches on 3- and 4-symbol joints of the
        # benchmark, with entries at or near 0: 1/q puts entries up to 1e300
        # into the reduced Hessian, whose Cholesky factorization can succeed
        # while the solve finds it singular.  Such a row takes the gradient.
        # Alone and among interior rows, no row raises and every direction
        # is finite.
        p_in, p_out, T = _oriented(_posed(JointDistribution(probs), direction))
        interior = np.random.default_rng(15).dirichlet(np.full(len(q), 3.0), size=5)
        for Q in (np.array([q]), np.vstack([interior[:2], q, interior[2:]])):
            assert np.isfinite(self.directions(Q, p_in, p_out, T)[1]).all()

    def face_hessians(self, monkeypatch):
        """(H, b) stacks that _directions hands to _solved on the face rows
        above, alone, with each row's (concave, direction)."""
        stacks, outcomes = [], []
        solved = sdpi._solved
        monkeypatch.setattr(sdpi, "_solved", lambda H, b: stacks.append((H, b)) or solved(H, b))
        for probs, direction, q in self.FACE_ROWS:
            p_in, p_out, T = _oriented(_posed(JointDistribution(probs), direction))
            outcomes.append(self.directions(np.array([q]), p_in, p_out, T))
        monkeypatch.undo()
        return stacks, outcomes

    @staticmethod
    def public_outcomes(H, b):
        """Per matrix, alone, through the public calls: does the Cholesky
        factorization of -H succeed, and x with H x = b, None where
        np.linalg.solve raises."""
        definite, x = [], []
        for h, r in zip(H, b):
            try:
                np.linalg.cholesky(-h)
                definite.append(True)
            except np.linalg.LinAlgError:
                definite.append(False)
            try:
                x.append(np.linalg.solve(h, r[:, None])[:, 0])
            except np.linalg.LinAlgError:
                x.append(None)
        return definite, x

    def test_one_call_per_stack_matches_public_calls_per_matrix(self, monkeypatch):
        # numpy's public calls raise for a whole stack on one failed matrix;
        # the helpers report each matrix as those calls do on it alone, and
        # the solve is the same bit for bit.  The stacks mix
        # negative-definite, indefinite and singular matrices, the face rows'
        # Hessians (entries up to 1e300) and a matrix whose LU overflows to
        # inf - inf.  The helpers run under their caller's errstate, as
        # _directions calls them: a failed matrix sets the invalid flag.
        H = np.stack([-np.eye(2), np.eye(2), np.diag([-1.0, 0.0]), -2.0 * np.eye(2)])
        with np.errstate(all="ignore"):
            assert _negative_definite(H).tolist() == [True, False, False, True]
            assert _negative_definite(H[:0]).shape == (0,)
            x = _solved(H, np.arange(8.0).reshape(4, 2))
        np.testing.assert_array_equal(x[[0, 1, 3]], [[-0.0, -1.0], [2.0, 3.0], [-3.0, -3.5]])
        assert np.isnan(x[2]).all()

        rng = np.random.default_rng(16)
        pools = {}
        for m in (1, 3, 32):
            A = rng.normal(size=(m, m))
            negative = -(A @ A.T) - np.eye(m)
            zeroed = negative.copy()
            zeroed[-1], zeroed[:, -1] = 0.0, 0.0
            V = rng.normal(size=(m, max(1, m // 4)))
            pools[m] = [negative, A + A.T, zeroed, -(V @ V.T), np.zeros((m, m))]
        face, _ = self.face_hessians(monkeypatch)
        for F, _ in face:
            pools.setdefault(F.shape[1], []).extend(F)
        pools[3].append(np.array([[1.0, 1e308, -1e308], [1.0, -1e308, 1e308], [0.0, 1.0, 1.0]]))
        assert np.isnan(np.linalg.solve(pools[3][-1], np.ones((3, 1)))).all()

        seen = {"definite": 0, "not definite": 0, "solve raises": 0, "solve NaN": 0}
        for m, pool in pools.items():
            for size in range(1, 9):
                for _ in range(6):
                    H = np.stack([pool[i] for i in rng.integers(len(pool), size=size)])
                    b = rng.normal(size=(size, m))
                    definite, want = self.public_outcomes(H, b)
                    with np.errstate(all="ignore"):
                        assert _negative_definite(H).tolist() == definite
                        got = _solved(H, b)
                    for row, x in zip(got, want):
                        if x is None:
                            assert np.isnan(row).all()
                        else:
                            assert row.tobytes() == x.tobytes()
                    seen["definite"] += sum(definite)
                    seen["not definite"] += size - sum(definite)
                    seen["solve raises"] += sum(x is None for x in want)
                    seen["solve NaN"] += sum(x is not None and np.isnan(x).any() for x in want)
        assert min(seen.values()) > 0, seen

    def test_row_whose_solve_raises_takes_the_gradient(self, monkeypatch):
        # Two face rows pass the factorization, and np.linalg.solve raises
        # on their Hessians: they take the same gradient as a row that
        # fails the factorization.
        stacks, outcomes = self.face_hessians(monkeypatch)
        monkeypatch.setattr(sdpi, "_negative_definite", lambda H: np.zeros(H.shape[0], dtype=bool))
        raised = 0
        for (H, b), (concave, G), (probs, direction, q) in zip(stacks, outcomes, self.FACE_ROWS):
            _, x = self.public_outcomes(H, b)
            p_in, p_out, T = _oriented(_posed(JointDistribution(probs), direction))
            gradient = self.directions(np.array([q]), p_in, p_out, T)[1]
            if x[0] is None:
                raised += 1
                assert not concave[0]
                assert G.tobytes() == gradient.tobytes()
            else:
                assert concave[0]
        assert raised == 2

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
    p_in, p_out, T = _oriented(j)
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
        concave, G = _directions(Q, Qy, num, den, p_in, p_out, T,
                                 T.T @ _sum_zero_basis(T.shape[0]))
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


class TestTrimmedKernels:
    """The ascent's kernels against their versions before their bookkeeping
    was trimmed (the _reference_* functions below), byte for byte: the
    trims keep every operation on a value and every call's rows."""

    SIZES = (1, 2, 8, 64)

    @staticmethod
    def pools():
        """(p_in, p_out, T, pool of rows) per joint on k = 2 to 33 inputs.

        A random joint with full support and one whose first two inputs
        share their conditional row.  The rows: dense draws, face rows with
        entries at 0 and 1e-300, the marginal itself (num = den = 0), and
        the marginal moved 1e-9 between the shared inputs (num and den below
        _TINY).
        """
        rng = np.random.default_rng(33)
        for k in range(2, 34):
            ny = int(rng.integers(2, 6))
            shared = random_joint(rng, k, ny).probs.copy()
            shared[1] = shared[0] * (shared[1].sum() / shared[0].sum())
            for j in (random_joint(rng, k, ny), JointDistribution(shared / shared.sum())):
                p_in, p_out, T = _oriented(j)
                dense = rng.dirichlet(np.full(k, 2.0), size=6)
                face = rng.dirichlet(np.ones(k), size=6)
                face[:, 0] = 0.0
                face[::2, -1] = 1e-300
                face /= face.sum(axis=1, keepdims=True)
                nudged = p_in.copy()
                nudged[:2] += [1e-9, -1e-9]
                yield p_in, p_out, T, np.vstack([dense, face, p_in, nudged])

    @classmethod
    def stacks(cls):
        """(p_in, p_out, T, Q) with Q of each size in SIZES drawn from a pool."""
        rng = np.random.default_rng(34)
        for p_in, p_out, T, pool in cls.pools():
            for size in cls.SIZES:
                yield p_in, p_out, T, pool[rng.integers(0, pool.shape[0], size=size)]
        for probs, direction, q in TestDirections.FACE_ROWS:
            p_in, p_out, T = _oriented(_posed(JointDistribution(probs), direction))
            interior = rng.dirichlet(np.full(len(q), 3.0), size=63)
            for Q in (np.array([q]), np.vstack([interior[:1], q]), np.vstack([interior[:7], q]),
                      np.vstack([interior[:31], q, interior[31:]])):
                yield p_in, p_out, T, Q

    def test_directions(self):
        seen = {"concave": 0, "not concave": 0, "vanishing": 0}
        for p_in, p_out, T, Q in self.stacks():
            _, Qy, num, den = _reference_evaluate(Q, p_in, p_out, T)
            TB = T.T @ _sum_zero_basis(Q.shape[1])
            want = _reference_directions(Q, Qy, num, den, p_in, p_out, T, TB)
            got = _directions(Q, Qy, num, den, p_in, p_out, T, TB)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            seen["concave"] += int(want[0].sum())
            seen["not concave"] += int((~want[0]).sum())
            seen["vanishing"] += int(((num < 1e-15) | (den < 1e-15)).sum())
        assert min(seen.values()) > 0, seen

    def test_evaluate_and_mirror_rows(self):
        rng = np.random.default_rng(35)
        for p_in, p_out, T, Q in self.stacks():
            for got, want in zip(_evaluate(Q, p_in, p_out, T), _reference_evaluate(Q, p_in, p_out, T)):
                assert got.tobytes() == want.tobytes()
            for scale in (1e-3, 1.0, 1e3):
                V = scale * rng.standard_normal(Q.shape)
                assert _mirror_rows(Q, V).tobytes() == _reference_mirror_rows(Q, V).tobytes()

    @pytest.mark.parametrize("rounds", [3, 2000])
    def test_multistart_search(self, rounds):
        # TestBatchedLineSearch's joints and the 9-, 17- and 33-level
        # Gaussians: every start's value and point, and the evaluations.
        joints = TestBatchedLineSearch.cases() + [quantized_gaussian_joint(rho, levels)
                                                 for rho, levels in ((0.3, 9), (0.5, 17), (0.8, 33))]
        for j in joints:
            p_in, p_out, T = _oriented(j)
            starts = _sstar_starts(j, 8)
            got = _multistart_search(p_in, p_out, T, starts, rounds)
            want = _reference_multistart_search(p_in, p_out, T, starts, rounds)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2]


# The kernels of the ascent before their bookkeeping was trimmed, verbatim
# but for the _reference_ prefix on their names and calls.

def _reference_evaluate(Q: np.ndarray, p_in, p_out, T):
    d = Q - p_in
    dy = d @ T
    Qy = np.maximum(dy + p_out, 0.0)
    num = _kl_rows(Qy, dy, p_out)
    den = _kl_rows(d + p_in, d, p_in)
    tv = 0.5 * np.abs(d).sum(axis=1)
    out = np.where(tv > EXCLUSION_RADIUS, num / np.maximum(den, _LOG_FLOOR), -np.inf)
    return out, Qy, num, den


def _reference_mirror_rows(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    Z = np.log(np.maximum(Q, _LOG_FLOOR)) + V
    W = np.exp(Z - Z.max(axis=1, keepdims=True))
    return W / W.sum(axis=1, keepdims=True)


def _reference_negative_definite(H):
    with np.errstate(all="ignore"):
        L = _umath_linalg.cholesky_lo(-H, signature="d->d")
    return ~np.isnan(L[:, 0, 0])


def _reference_solved(H, b):
    with np.errstate(all="ignore"):
        return _umath_linalg.solve(H, b[:, :, None], signature="dd->d")[:, :, 0]


def _reference_directions(Q, Qy, num, den, p_in, p_out, T, TB):
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
    inv_q = 1.0 / np.maximum(Q, _LOG_FLOOR)
    with np.errstate(over="ignore", invalid="ignore"):
        H = ((TB.T / np.maximum(Qy, _LOG_FLOOR)[:, None, :]) @ TB
             - bN[:, :, None] * (bN / N)[:, None, :]) / N[:, :, None]
        H -= ((B.T * inv_q[:, None, :]) @ B
              - bD[:, :, None] * (bD / D)[:, None, :]) / D[:, :, None]
    concave = np.isfinite(H).all(axis=(1, 2)) & ~vanishing
    concave[concave] = _reference_negative_definite(H[concave])
    rows = np.flatnonzero(concave)
    d = _reference_solved(H[rows], (bD / D - bN / N)[rows]) @ B.T
    with np.errstate(over="ignore", invalid="ignore"):
        v = d * inv_q[rows]
    # A row whose solve failed, or whose d/q overflows, takes the gradient.
    ok = np.isfinite(v).all(axis=1)
    concave[rows[~ok]] = False
    G[rows[ok]] = v[ok]
    return concave, G


def _reference_multistart_search(p_in, p_out, T, starts: np.ndarray, max_iterations: int):
    Q = starts.copy()
    step = np.full(Q.shape[0], 0.1)
    f, Qy, num, den = _reference_evaluate(Q, p_in, p_out, T)
    evals = Q.shape[0]
    G = np.empty_like(Q)
    # Rounds each start has left, 0 once retired.
    left = np.full(Q.shape[0], max_iterations)
    deep = np.zeros(Q.shape[0], dtype=bool)
    # Try h >= 1 steps by exactly step * 2**-h, and runs if step >= floor[h - 1].
    floor = np.ldexp(_STEP_TOLERANCE, np.arange(1, _HALVINGS))
    # Starts that begin a round, with Qy, num and den of their points.
    fresh = np.arange(Q.shape[0])
    TB = T.T @ _sum_zero_basis(Q.shape[1])

    while (rows := np.flatnonzero(left)).size:
        # A sweep that only goes on with halvings needs no new direction.
        if fresh.size:
            concave, G[fresh] = _reference_directions(Q[fresh], Qy, num, den, p_in, p_out, T, TB)
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
        trial = _reference_mirror_rows(Q[idx], V)
        ft, ty, tn, td = _reference_evaluate(trial, p_in, p_out, T)
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.1], ids=["nan", "inf", "negative"])
    def test_rejects_invalid_constant(self, dsbs, value):
        with pytest.raises(ValueError, match="sstar_value must be finite and >= 0"):
            verify_sdpi_inequality(dsbs, Channel.identity(2), value)

    def test_constant_above_one_is_vacuous(self, dsbs):
        lhs, rhs, holds = verify_sdpi_inequality(dsbs, Channel.identity(2), 1.5)
        assert rhs == pytest.approx(1.5, rel=1e-12)
        assert holds

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
        s1 = sstar(dsbs).value
        s2 = sstar(tensor_product(dsbs, dsbs)).value
        assert s1 == pytest.approx(0.64, abs=1e-6)
        assert abs(s2 - s1) <= 0.02

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
