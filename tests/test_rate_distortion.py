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
        with pytest.raises(ValueError):
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
