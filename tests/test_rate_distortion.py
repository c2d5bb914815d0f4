import numpy as np
import pytest

from sdpibounds import (
    ConvergenceError,
    DimensionMismatchError,
    Distribution,
    DistortionMatrix,
    InfeasibleDistortionError,
    RdCurve,
    RdPoint,
    binary_hamming_rd,
    blahut_arimoto,
    entropy,
    rd_at_distortion,
    rd_curve,
)
from sdpibounds import rate_distortion


def plain_blahut_arimoto(p, costs, slope):
    """The multiplicative iteration alone, from the uniform law, with the
    solver's stopping rule: the reference the Newton-accelerated solver must
    agree with.  Returns (distortion, rate), or None without convergence.
    """
    A = np.exp2(slope * costs)
    q = np.full(costs.shape[1], 1.0 / costs.shape[1])
    for _ in range(rate_distortion._BA_MAX_ITERATIONS):
        lam = np.maximum(A @ q, 1e-300)
        c = (p / lam) @ A
        log_c = np.log2(np.maximum(c, 1e-300))
        q = q * c
        if log_c.max() - q @ log_c < rate_distortion._BA_TOLERANCE:
            break
    else:
        return None
    q[q < 1e-300] = 0.0
    lam = np.maximum(A @ q, 1e-300)
    pxy = p[:, None] * A * q / lam[:, None]
    outer = np.outer(pxy.sum(axis=1), pxy.sum(axis=0))
    cells = pxy > 0.0
    rate = float(np.sum(pxy[cells] * np.log2(pxy[cells] / outer[cells])))
    return float((pxy * costs).sum()), max(rate, 0.0)


def random_cost_source(rng, n):
    """Random source on n symbols with random zero-diagonal costs."""
    src = Distribution(rng.dirichlet(np.ones(n)))
    costs = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(costs, 0.0)
    return src, DistortionMatrix(costs)


class TestDistortionMatrix:
    def test_hamming(self):
        d = DistortionMatrix.hamming(3)
        assert d.x_size == d.xhat_size == 3
        assert d.costs[0, 0] == 0.0 and d.costs[0, 1] == 1.0
        assert d.zero_cost_coverage

    def test_coverage_flag(self):
        assert not DistortionMatrix([[0.5, 1.0], [0.0, 2.0]]).zero_cost_coverage
        assert DistortionMatrix(np.zeros((2, 3))).zero_cost_coverage

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError, match="negative cost -1.0$"):
            DistortionMatrix([[0.0, -1.0]])
        with pytest.raises(ValueError):
            DistortionMatrix([[0.0, np.inf]])

    def test_json_round_trip(self):
        d = DistortionMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5]])
        back = DistortionMatrix.from_dict(d.to_dict())
        np.testing.assert_array_equal(back.costs, d.costs)

    def test_from_dict_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            DistortionMatrix.from_dict({"x_size": 2, "xhat_size": 2, "costs": [0.0]})


class TestRdPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            RdPoint(-0.1, 0.5, -1.0, 3)
        with pytest.raises(ValueError):
            RdPoint(0.1, -0.5, -1.0, 3)
        with pytest.raises(ValueError):
            RdPoint(0.1, 0.5, 1.0, 3)

    def test_to_dict(self):
        d = RdPoint(0.1, 0.5, -2.0, 7).to_dict()
        assert set(d) == {"distortion", "rate", "slope", "iterations"}

    def test_output_law_is_outside_dict_and_equality(self):
        pt = blahut_arimoto(Distribution([0.3, 0.7]), slope=-2.0)
        assert pt.output_law.shape == (2,) and pt.output_law.sum() == pytest.approx(1.0)
        assert "output_law" not in pt.to_dict()
        assert pt == RdPoint(pt.distortion, pt.rate, pt.slope, pt.iterations)


class TestBlahutArimoto:
    def test_rejects_positive_slope(self):
        with pytest.raises(ValueError):
            blahut_arimoto(Distribution.uniform(2), slope=0.5)

    def test_slope_zero_endpoint(self):
        pt = blahut_arimoto(Distribution([0.2, 0.8]), slope=0.0)
        assert pt.rate == 0.0
        assert pt.distortion == pytest.approx(0.2, abs=1e-15)
        assert pt.iterations == 0

    def test_steep_slope_reaches_entropy(self):
        src = Distribution([0.2, 0.8])
        pt = blahut_arimoto(src, slope=-64.0)
        assert pt.distortion == pytest.approx(0.0, abs=1e-12)
        assert pt.rate == pytest.approx(entropy(src), abs=1e-9)

    def test_costs_past_the_float_range(self):
        # slope * cost overflows to -inf: the entry of A is 0, with no warning.
        src = Distribution([0.2, 0.8])
        pt = blahut_arimoto(src, DistortionMatrix([[0.0, 1e308], [1e308, 0.0]]), slope=-64.0)
        assert pt.distortion == 0.0
        assert pt.rate == pytest.approx(entropy(src), abs=1e-9)

    def test_binary_uniform_known_slope(self):
        # for the uniform binary source the optimal channel at slope s has
        # crossover 1/(1+2^-s), with rate 1 - h(crossover)
        s = -3.0
        pt = blahut_arimoto(Distribution.uniform(2), slope=s)
        d = 1.0 / (1.0 + 2.0 ** (-s))
        assert pt.distortion == pytest.approx(d, rel=1e-8)
        assert pt.rate == pytest.approx(binary_hamming_rd(0.5, d), rel=1e-7)

    def test_convergence_error_carries_gap(self, monkeypatch):
        monkeypatch.setattr(rate_distortion, "_BA_MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as exc:
            blahut_arimoto(Distribution([0.2, 0.8]), slope=-1.0)
        assert exc.value.gap is not None and exc.value.gap > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            blahut_arimoto(Distribution.uniform(3), DistortionMatrix.hamming(2), -1.0)

    # Both solvers stop at a gap below 1e-10 bits; on these draws their
    # distortions and rates differ by at most 3e-9.
    AGREEMENT = 1e-8

    def test_agrees_with_plain_iteration(self):
        rng = np.random.default_rng(20240)
        compared = 0
        for _ in range(60):
            nx, ny = (int(v) for v in rng.integers(2, 7, size=2))
            src = Distribution(rng.dirichlet(np.ones(nx)))
            costs = DistortionMatrix(rng.uniform(0.0, 1.0, size=(nx, ny)))
            slope = -float(np.exp2(rng.uniform(-3.0, 4.0)))
            pt = blahut_arimoto(src, costs, slope)
            want = plain_blahut_arimoto(src.probs, costs.costs, slope)
            if want is None:
                continue
            compared += 1
            assert pt.distortion == pytest.approx(want[0], abs=self.AGREEMENT)
            assert pt.rate == pytest.approx(want[1], abs=self.AGREEMENT)
        assert compared >= 50

    def test_warm_start_reaches_the_same_point(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            src, costs = random_cost_source(rng, n)
            slope = -float(np.exp2(rng.uniform(-2.0, 4.0)))
            cold = blahut_arimoto(src, costs, slope)
            warm = blahut_arimoto(src, costs, slope, start=rng.dirichlet(np.ones(n)))
            assert warm.distortion == pytest.approx(cold.distortion, abs=self.AGREEMENT)
            assert warm.rate == pytest.approx(cold.rate, abs=self.AGREEMENT)

    @pytest.mark.parametrize("start", [[0.5, 0.5, 0.0], [-0.1, 1.1], [np.nan, 1.0], [0.0, 0.0]])
    def test_rejects_bad_start(self, start):
        with pytest.raises(ValueError, match="start must be an output law"):
            blahut_arimoto(Distribution([0.3, 0.7]), slope=-1.0, start=start)

    def test_critical_slope_converges(self):
        # At slope -log2(0.8/0.2) = -2 the rate of Bernoulli(0.2) reaches
        # zero; the plain iteration stalls there with a gap near 1.6e-9.
        pt = blahut_arimoto(Distribution([0.2, 0.8]), slope=-2.0)
        assert pt.distortion == pytest.approx(0.2, abs=1e-6)
        assert pt.rate == pytest.approx(binary_hamming_rd(0.2, pt.distortion), abs=1e-12)

    def test_underflowing_output_law_keeps_rate_finite(self):
        # Some output-law entries end below 1e-300, where p_x * p_y underflows.
        src = Distribution([0.0095, 0.1777, 0.1349, 0.477, 0.001, 0.1253, 0.0221, 0.0525])
        pt = blahut_arimoto(src, DistortionMatrix.hamming(8), -1.956)
        assert pt.rate == pytest.approx(0.0742, abs=1e-4)
        assert pt.distortion == pytest.approx(0.479, abs=1e-3)


class TestRdAtDistortion:
    def test_binary_uniform(self):
        pt = rd_at_distortion(Distribution.uniform(2), target=0.1)
        assert pt.rate == pytest.approx(0.5310044064107188, abs=1e-5)
        assert pt.distortion == pytest.approx(0.1, abs=1e-6)

    def test_binary_skewed(self):
        pt = rd_at_distortion(Distribution([0.2, 0.8]), target=0.05)
        assert pt.rate == pytest.approx(0.43553113777140623, abs=1e-5)

    def test_four_symbol_uniform(self):
        pt = rd_at_distortion(Distribution.uniform(4), target=0.1)
        assert pt.rate == pytest.approx(1.372508156338603, abs=1e-4)

    def test_above_dmax_is_free(self):
        pt = rd_at_distortion(Distribution([0.2, 0.8]), target=0.5)
        assert pt.rate == 0.0
        assert pt.slope == 0.0

    def test_zero_distortion_is_entropy(self):
        src = Distribution([0.3, 0.7])
        pt = rd_at_distortion(src, target=0.0)
        assert pt.rate == pytest.approx(entropy(src), abs=1e-6)

    def test_infeasible_target(self):
        d = DistortionMatrix([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InfeasibleDistortionError):
            rd_at_distortion(Distribution.uniform(2), d, target=0.5)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("d", [None, DistortionMatrix(np.zeros((2, 2)))], ids=["hamming", "free"])
    def test_rejects_non_finite_target(self, monkeypatch, target, d):
        def no_solve(*args):
            raise AssertionError("Blahut-Arimoto ran on a non-finite target")

        monkeypatch.setattr(rate_distortion, "blahut_arimoto", no_solve)
        with pytest.raises(ValueError, match=f"target distortion must be finite, got {target!r}"):
            rd_at_distortion(Distribution([0.3, 0.7]), d, target=target)

    def test_all_zero_costs_fast_path(self):
        d = DistortionMatrix(np.zeros((2, 2)))
        pt = rd_at_distortion(Distribution.uniform(2), d, target=0.0)
        assert pt.rate == 0.0 and pt.iterations == 0
        with pytest.raises(InfeasibleDistortionError):
            rd_at_distortion(Distribution.uniform(2), d, target=-0.1)

    def test_all_zero_costs_get_the_usual_slack_below_the_minimum(self):
        d = DistortionMatrix(np.zeros((2, 2)))
        for target in (-1e-9, -5e-10):
            pt = rd_at_distortion(Distribution.uniform(2), d, target=target)
            assert pt.distortion == 0.0 and pt.rate == 0.0
        with pytest.raises(InfeasibleDistortionError, match="below the attainable minimum 0.0"):
            rd_at_distortion(Distribution.uniform(2), d, target=-2e-9)

    def test_bernoulli_sweep_matches_closed_form(self):
        # 14 of these 19 targets raised ConvergenceError under slope bisection.
        for target in np.linspace(0.01, 0.19, 19):
            pt = rd_at_distortion(Distribution([0.2, 0.8]), target=float(target))
            assert abs(pt.distortion - target) <= 1e-6
            assert pt.rate == pytest.approx(binary_hamming_rd(0.2, pt.distortion), abs=1e-9)

    @pytest.mark.parametrize(
        "probs, target",
        [
            # Hamming marginals of random benchmark joints (seeds 1, 9001
            # and 2) on which the plain iteration ran out of iterations.
            ([0.5285154629291083, 0.27236777086717945, 0.19911676620371213], 0.4009468425528101),
            (
                [0.4054648258460647, 0.23675249785238542, 0.1787706758391444, 0.1790120004624054],
                0.5211166681339413,
            ),
            (
                [0.5164656664981038, 0.17093827236398762, 0.08346579123057973, 0.22913026990732893],
                0.39289521348433293,
            ),
        ],
    )
    def test_benchmark_points_that_used_to_raise(self, probs, target):
        pt = rd_at_distortion(Distribution(probs), target=target)
        assert abs(pt.distortion - target) <= 1e-6
        assert 0.0 < pt.rate < 1.0

    @pytest.mark.parametrize(
        "probs, costs, target",
        [
            # A target on a linear segment: solves land next to the slope
            # where the dual is flat along a face.
            (
                [0.13732228541204744, 0.8626777145879526],
                [
                    [0.8730269422265322, 0.2821428477429727, 0.9256119104041685,
                     0.8889919952581794, 0.7184865468648028],
                    [0.9994905604369455, 0.6205070956625057, 0.12151602673707174,
                     0.7063827671033145, 0.14235847921728917],
                ],
                0.20835448266045986,
            ),
            # Near the zero-rate end, with two cost columns that differ only
            # in the row of a 4e-4 source symbol.
            (
                [0.029954042369419228, 0.9696640190252248, 0.0003819386053559893],
                [[2.0, 3.0, 1.0, 1.0, 3.0, 1.0], [1.0, 0.0, 3.0, 2.0, 3.0, 2.0],
                 [2.0, 0.0, 2.0, 1.0, 3.0, 3.0]],
                0.08980221902351884,
            ),
        ],
    )
    def test_fuzzed_inputs_that_used_to_raise(self, probs, costs, target):
        pt = rd_at_distortion(Distribution(probs), DistortionMatrix(costs), target=target)
        assert pt.distortion <= target + 1e-6

    def test_linear_segment_returns_point_below_target(self):
        # A third reproduction symbol erases at cost 0.2.  The uniform bit's
        # curve follows 1 - h(D) up to D ~ 0.036, then the straight line of
        # time sharing with erasure to (0.2, 0).  D(s) jumps across that
        # line at one slope, where the dual is flat along a face.
        d = DistortionMatrix([[0.0, 1.0, 0.2], [1.0, 0.0, 0.2]])
        curve = rd_curve(Distribution.uniform(2), d, n_points=65)
        lo = max(p.distortion for p in curve.points if p.distortion < 0.1)
        hi = min(p.distortion for p in curve.points if p.distortion > 0.1)
        target = 0.5 * (lo + hi)
        pt = rd_at_distortion(Distribution.uniform(2), d, target=target)
        assert pt.distortion <= target + 1e-6
        assert pt.rate >= np.interp(target, curve.distortions, curve.rates) - 1e-6

    def test_matches_closed_form_fuzz(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            p = float(rng.uniform(0.05, 0.95))
            pm = min(p, 1.0 - p)
            target = float(rng.uniform(0.001, pm - 1e-3))
            pt = rd_at_distortion(Distribution([p, 1.0 - p]), target=target)
            assert pt.rate == pytest.approx(binary_hamming_rd(p, target), abs=1e-4)


class TestRdCurve:
    def test_binary_uniform_endpoints(self):
        c = rd_curve(Distribution.uniform(2), n_points=16)
        assert c.points[0].distortion == pytest.approx(0.0, abs=1e-9)
        assert c.points[0].rate == pytest.approx(1.0, abs=1e-9)
        assert c.points[-1].distortion == pytest.approx(0.5, abs=1e-12)
        assert c.points[-1].rate == 0.0

    def test_rates_non_increasing(self):
        c = rd_curve(Distribution([0.15, 0.6, 0.25]), n_points=20)
        assert np.all(np.diff(c.rates) <= 1e-9)
        assert np.all(np.diff(c.distortions) > 0.0)

    def test_random_sources_build_valid_curves(self):
        # the constructor itself enforces monotonicity and convexity
        rng = np.random.default_rng(77)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            src = Distribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
            costs = DistortionMatrix(rng.uniform(0.0, 2.0, (n, n)) * (1.0 - np.eye(n)))
            rd_curve(src, costs, n_points=12)

    def test_random_cost_curves_all_converge(self):
        # 22 of these 40 curves raised ConvergenceError without the Newton
        # step, on slopes where a reproduction symbol enters or leaves.
        rng = np.random.default_rng(2024)
        for _ in range(40):
            src, d = random_cost_source(rng, int(rng.integers(2, 9)))
            c = rd_curve(src, d, 33)
            assert c.rates[-1] == pytest.approx(0.0, abs=1e-9)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            rd_curve(Distribution.uniform(2), n_points=1)

    def test_curve_validation(self):
        up = (RdPoint(0.1, 0.5, -1.0, 1), RdPoint(0.2, 0.6, -1.0, 1))
        with pytest.raises(ValueError):
            RdCurve(up)
        bent = (
            RdPoint(0.1, 1.0, -1.0, 1),
            RdPoint(0.2, 0.95, -1.0, 1),
            RdPoint(0.3, 0.0, -1.0, 1),
        )
        with pytest.raises(ValueError):
            RdCurve(bent)
        with pytest.raises(ValueError):
            RdCurve((RdPoint(0.1, 0.5, -1.0, 1),))

    def test_to_dict(self):
        c = rd_curve(Distribution.uniform(2), n_points=4)
        assert len(c.to_dict()["points"]) == len(c.points)


class TestBinaryHammingRd:
    def test_known_values(self):
        assert binary_hamming_rd(0.5, 0.1) == pytest.approx(0.5310044064107188, rel=1e-12)
        assert binary_hamming_rd(0.2, 0.05) == pytest.approx(0.43553113777140623, rel=1e-12)
        assert binary_hamming_rd(0.3, 0.1) == pytest.approx(0.4122953056414115, rel=1e-12)

    def test_zero_beyond_pmin(self):
        assert binary_hamming_rd(0.2, 0.2) == 0.0
        assert binary_hamming_rd(0.2, 0.4) == 0.0

    def test_full_rate_at_zero(self):
        assert binary_hamming_rd(0.5, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            binary_hamming_rd(0.0, 0.1)
        with pytest.raises(ValueError):
            binary_hamming_rd(1.0, 0.1)
        with pytest.raises(InfeasibleDistortionError):
            binary_hamming_rd(0.5, -0.01)
