from decimal import Decimal, localcontext

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
    rd_at_distortion,
    rd_curve,
)
from sdpibounds import rate_distortion
from sdpibounds.probability import entropy


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


def _decimal_hamming_rd(p, target):
    """R(target) under Hamming costs, in 40-digit decimal arithmetic of the
    source given: the water-filling solution (Berger, Rate Distortion
    Theory, 1971, ch. 2).  With p sorted downward, the support is the largest
    m whose smallest mass has p_(m) (m - 1) > D' = target - (1 - P_m), P_m
    the mass of the m largest, and R = -sum_{i <= m} p_i log2 p_i
    + P_m log2(1 - target) + D' log2(D' / ((m - 1)(1 - target))).
    """
    with localcontext() as ctx:
        ctx.prec = 40
        ps = sorted((Decimal(float(v)) for v in p if v > 0.0), reverse=True)
        return _decimal_water_filling_rate(ps, Decimal(float(target)))


def _decimal_water_filling_rate(ps, t):
    """The rate of _decimal_hamming_rd for Decimal masses ps, sorted
    downward, at the Decimal target t."""
    m = max(m for m in range(1, len(ps) + 1) if ps[m - 1] * (m - 1) > t - sum(ps[m:]))
    dp = t - sum(ps[m:])
    nats = -sum(v * v.ln() for v in ps[:m]) + sum(ps[:m]) * (1 - t).ln()
    if dp:
        nats += dp * (dp / ((m - 1) * (1 - t))).ln()
    return float(nats / Decimal(2).ln())


def _decimal_hamming_rd_at_slope(p, slope, c):
    """R at the curve point of slope ``slope`` under costs c [y != x], in
    40-digit decimal arithmetic of the source, the slope and c given: with
    beta = 2^(slope c), p sorted downward and P_m the mass of the m largest,
    m is the largest index with p_(m) (1 + beta (m - 1)) > beta P_m, and the
    point's distortion is c t with t = (T_m + beta (m - 1)) / (1 + beta (m -
    1)), T_m the mass of the rest; R is _decimal_hamming_rd's at that t,
    taken unrounded.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        ps = sorted((Decimal(float(v)) for v in p if v > 0.0), reverse=True)
        beta = (Decimal(float(slope)) * Decimal(float(c)) * Decimal(2).ln()).exp()
        m = max(m for m in range(1, len(ps) + 1)
                if ps[m - 1] * (1 + beta * (m - 1)) > beta * sum(ps[:m]))
        t = (sum(ps[m:]) + beta * (m - 1)) / (1 + beta * (m - 1))
        return _decimal_water_filling_rate(ps, t)


def random_cost_source(rng, n):
    """Random source on n symbols with random zero-diagonal costs."""
    src = Distribution(rng.dirichlet(np.ones(n)))
    costs = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(costs, 0.0)
    return src, DistortionMatrix(costs)


def count_solves(monkeypatch):
    """Wrap rate_distortion.blahut_arimoto; the list it returns grows by one
    entry per solve."""
    solves = []
    solve = rate_distortion.blahut_arimoto

    def counted(*args, **kwargs):
        solves.append(args[2] if len(args) > 2 else kwargs.get("slope"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(rate_distortion, "blahut_arimoto", counted)
    return solves


class TestDistortionMatrix:
    def test_hamming(self):
        d = DistortionMatrix.hamming(3)
        assert d.x_size == d.xhat_size == 3
        assert d.costs[0, 0] == 0.0 and d.costs[0, 1] == 1.0

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

    @pytest.mark.parametrize("costs", [np.zeros((0, 2)), np.zeros((2, 0)), [0.0, 1.0]])
    def test_rejects_empty_and_non_matrix_costs(self, costs):
        with pytest.raises(ValueError, match="expected a nonempty matrix"):
            DistortionMatrix(costs)


class TestRdPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            RdPoint(-0.1, 0.5, -1.0, 3)
        with pytest.raises(ValueError):
            RdPoint(0.1, -0.5, -1.0, 3)
        with pytest.raises(ValueError):
            RdPoint(0.1, 0.5, 1.0, 3)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError, match="negative iteration count"):
            RdPoint(0.1, 0.5, -1.0, -1)

    def test_to_dict(self):
        d = RdPoint(0.1, 0.5, -2.0, 7).to_dict()
        assert set(d) == {"distortion", "rate", "slope", "iterations"}

    def test_slope_minus_infinity_is_accepted_and_nan_is_not(self):
        assert RdPoint(0.0, 1.0, -np.inf, 1).to_dict()["slope"] == -np.inf
        with pytest.raises(ValueError, match="bad slope nan"):
            RdPoint(0.0, 1.0, np.nan, 1)

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

    def test_slope_minus_infinity_solves_the_least_distortion(self):
        # The kernel is then the 0/1 mask of each row's least costs.
        excess = np.array([[0.0, 2.0, 0.0], [1e-300, 0.0, 5.0]])
        np.testing.assert_array_equal(rate_distortion._kernel(-np.inf, excess),
                                      [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        src = Distribution([0.2, 0.8])
        pt = blahut_arimoto(src, slope=-np.inf)
        assert (pt.distortion, pt.slope) == (0.0, -np.inf)
        assert pt.rate == pytest.approx(entropy(src), abs=1e-12)
        # On rectangular costs it is the limit of steep finite slopes.
        rng = np.random.default_rng(3)
        for _ in range(10):
            nx, ny = (int(v) for v in rng.integers(2, 9, size=2))
            src = Distribution(rng.dirichlet(np.ones(nx)))
            d = DistortionMatrix(rng.uniform(0.0, 1.0, size=(nx, ny)))
            at_inf = blahut_arimoto(src, d, -np.inf)
            steep = blahut_arimoto(src, d, -1e4)
            assert at_inf.distortion == pytest.approx(src.probs @ d.costs.min(axis=1), abs=1e-15)
            assert at_inf.rate == pytest.approx(steep.rate, abs=1e-9)
        with pytest.raises(ValueError, match="slope must be <= 0"):
            blahut_arimoto(src, d, np.nan)

    def test_steep_slope_with_a_subnormal_newton_entry_warns_not(self):
        # At slope -1e4 a Newton step entry of this 8x8 rectangular draw is
        # subnormal, so its boundary ratio overflows to inf: that entry never
        # limits the step, and no warning may escape.
        rng = np.random.default_rng(5)
        for i in range(295):
            n = rng.integers(2, 9)
            p = rng.dirichlet(np.ones(n))
            if i % 3 == 0:
                costs = rng.uniform(0, 1, (n, rng.integers(2, 9)))
            elif i % 3 == 1:
                costs = rng.integers(0, 4, (n, n))
            else:
                costs = rng.uniform(0.1, 1, (n, n))
                np.fill_diagonal(costs, 0.0)
        assert costs.shape == (8, 8)
        pt = blahut_arimoto(Distribution(p), DistortionMatrix(costs), -1e4)
        assert pt.distortion == pytest.approx(0.19811731805610877, rel=1e-12)
        assert pt.rate == pytest.approx(2.4735523131701305, rel=1e-12)
        assert pt.iterations == 2

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

    @pytest.mark.parametrize("start", [None, [0.9, 0.1]])
    @pytest.mark.parametrize("p, slope", [(0.3, -3.0), (0.1, -4.0), (0.5, -0.5)])
    def test_full_support_binary_solve_takes_one_iteration(self, p, slope, start):
        # The optimum uses both symbols, so the solve starts at it (A^T w =
        # 1, then A q = p / w), warm start or not, and stops at iteration 1.
        pt = blahut_arimoto(Distribution([p, 1.0 - p]), slope=slope, start=start)
        assert pt.iterations == 1
        assert pt.distortion == pytest.approx(2.0 ** slope / (1.0 + 2.0 ** slope), abs=1e-15)
        assert abs(pt.rate - binary_hamming_rd(p, pt.distortion)) <= 1e-12

    @pytest.mark.parametrize("k, slope", [(3, -2.0), (4, -3.5), (6, -1.0), (8, -5.0)])
    def test_full_support_uniform_solve_takes_one_iteration(self, k, slope):
        # From a warm start far from the optimum, the uniform law: one
        # iteration, at the closed form log2 k - h(D) - D log2(k - 1) with
        # D = (k - 1) 2^s / (1 + (k - 1) 2^s).
        start = np.arange(1.0, k + 1.0) ** 3
        pt = blahut_arimoto(Distribution.uniform(k), slope=slope, start=start)
        assert pt.iterations == 1
        d = (k - 1) * 2.0 ** slope / (1.0 + (k - 1) * 2.0 ** slope)
        assert pt.distortion == pytest.approx(d, abs=1e-15)
        h = -(d * np.log2(d) + (1.0 - d) * np.log2(1.0 - d))
        assert abs(pt.rate - (np.log2(k) - h - d * np.log2(k - 1))) <= 1e-12

    # Inputs the full-support start does not serve, so they start at the
    # uniform law, with the rate that the uniform-law start reaches without
    # the closed form.  No warning may escape the failed try.
    @pytest.mark.parametrize("probs, costs, slope, rate", [
        # Two equal cost columns: A is singular, and its solve raises.
        ([0.5, 0.3, 0.2], [[0, 1, 1], [1, 0, 0], [1, 0.5, 0.5]], -3.0, 0.42153858529340327),
        # w = (1, 0), so p / w divides by zero.
        ([0.5, 0.5], [[0, 0], [1, 0]], -np.inf, 3.906250000001071e-13),
        # The optimum leaves a symbol unused: A q = p / w gives a q < 0.
        ([0.1, 0.2, 0.7], None, -2.0, 0.03804877101874369),
        # Costs that are not square.
        ([0.5, 0.3, 0.2], [[0, 1, 1, 0.5], [1, 0, 1, 0.5], [1, 1, 0, 0.5]], -3.0, 0.56354720235495),
        # A source symbol with zero mass.
        ([0.0, 0.6, 0.4], None, -3.0, 0.4676922596837259),
    ])
    def test_inputs_without_the_full_support_start(self, probs, costs, slope, rate):
        d = None if costs is None else DistortionMatrix(costs)
        pt = blahut_arimoto(Distribution(probs), d, slope)
        assert pt.iterations > 1
        assert abs(pt.rate - rate) <= 1e-10

    def test_objective_increase_raises(self, monkeypatch):
        # Neither the update nor an accepted Newton step raises the
        # objective, so only a faulty step can: here one that jumps to a
        # near point mass on the wrong symbol.  The costs are not square, so
        # the solve starts at the uniform law, not at the full-support
        # optimum, and the step runs after iteration 1.
        monkeypatch.setattr(rate_distortion, "_newton_step",
                            lambda p, A, q: np.array([0.001, 0.001, 0.001, 0.997]))
        costs = DistortionMatrix([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]])
        with pytest.raises(ConvergenceError, match="objective increased at iteration 2") as exc:
            blahut_arimoto(Distribution([0.5, 0.3, 0.2]), costs, slope=-5.0)
        assert np.isfinite(exc.value.gap)

    def test_newton_step_on_an_overflowing_system_keeps_q(self):
        # p / (Aq)^2 overflows in the second row: no step, and no warning.
        q = np.array([0.5, 0.5])
        A = np.array([[1.0, 0.0], [0.0, 1e-200]])
        assert rate_distortion._newton_step(np.array([0.5, 0.5]), A, q) is q

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

    def test_least_distortion_summed_in_another_order_on_offset_costs(self, monkeypatch):
        # Costs of 1e9 plus zero-diagonal uniform(0.1, 1), where an ulp of
        # D_min is 1.2e-7: D_min summed in Python order falls below numpy's
        # sum by more than the absolute slack of 1e-9 on draws 10, 13, 17
        # and 18, which raised.  Every such target is the slope -inf solve;
        # a target a thousandth of a cost unit below D_min still raises.
        solves = count_solves(monkeypatch)
        rng = np.random.default_rng(1)
        below = 0
        for _ in range(20):
            costs = rng.uniform(0.1, 1.0, size=(3, 3))
            np.fill_diagonal(costs, 0.0)
            costs += 1e9
            src = Distribution(rng.dirichlet(np.ones(3)))
            d_min = float(src.probs @ costs.min(axis=1))
            target = sum(float(p) * float(c) for p, c in zip(src.probs, costs.min(axis=1)))
            below += target < d_min - 1e-9
            solves.clear()
            pt = rd_at_distortion(src, DistortionMatrix(costs), target=target)
            assert solves == [-np.inf] and pt.slope == -np.inf
            assert pt.distortion == pytest.approx(d_min, rel=1e-15)
            with pytest.raises(InfeasibleDistortionError):
                rd_at_distortion(src, DistortionMatrix(costs), target=d_min - 1e-3)
        assert below == 4

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
        # curve follows 1 - h(D) up to D_a ~ 0.036, then the straight line of
        # time sharing with erasure to (0.2, 0).  D(s) jumps across that
        # line at the critical slope, where the dual is flat along a face,
        # so the point returned time-shares the last solve below the target
        # with the zero-rate point mass.
        d = DistortionMatrix([[0.0, 1.0, 0.2], [1.0, 0.0, 0.2]])
        curve = rd_curve(Distribution.uniform(2), d, n_points=65)
        lo = max(p.distortion for p in curve.points if p.distortion < 0.1)
        hi = min(p.distortion for p in curve.points if p.distortion > 0.1)
        target = 0.5 * (lo + hi)
        pt = rd_at_distortion(Distribution.uniform(2), d, target=target)
        assert pt.distortion <= target + 1e-6
        # The rate function lies on or above each curve point's supporting
        # line R_i + s_i (D - D_i), and on or below the curve's chords.
        support = max(p.rate + p.slope * (target - p.distortion) for p in curve.points)
        assert support - 1e-6 <= pt.rate <= np.interp(target, curve.distortions, curve.rates) + 1e-9
        # On the segment the rate function is the line from (D_a, 1 - h(D_a))
        # to (0.2, 0), tangent to 1 - h(D) at D_a; bisect for D_a.
        def tangent_gap(x):
            # R(x) + R'(x) (0.2 - x): the tangent at x, read at D = 0.2.
            return binary_hamming_rd(0.5, x) - np.log2((1.0 - x) / x) * (0.2 - x)
        a, b = 0.01, 0.19
        for _ in range(60):
            m = 0.5 * (a + b)
            a, b = (a, m) if tangent_gap(m) > 0.0 else (m, b)
        line = binary_hamming_rd(0.5, a) * (0.2 - target) / (0.2 - a)
        assert pt.rate == pytest.approx(line, abs=1e-6)

    def test_jump_inside_the_curve_meets_the_target(self):
        # D(s) jumps over the target at a slope well below the critical one;
        # the point returned time-shares the nearest solves on either side.
        probs = [0.7590008586135956, 0.24099914138640455]
        costs = [
            [0.9069731290135322, 0.4557080716495051, 0.8185409085143726,
             0.18671930216633503, 0.06803315774149488, 0.6186153985176414],
            [0.54353336364427, 0.7850098721149444, 0.793989508365939,
             0.5468301845224876, 0.8239747993989686, 0.15734730894419313],
        ]
        target = 0.2486078777909334
        src, d = Distribution(probs), DistortionMatrix(costs)
        pt = rd_at_distortion(src, d, target=target)
        assert pt.distortion == pytest.approx(target, abs=1e-12)
        curve = rd_curve(src, d, 65)
        support = max(p.rate + p.slope * (target - p.distortion) for p in curve.points)
        assert support - 1e-6 <= pt.rate <= np.interp(target, curve.distortions, curve.rates) + 1e-9

    def test_hamming_target_with_every_symbol_active_takes_no_solve(self, monkeypatch):
        # Water-filling with every symbol active puts the slope where D(s) =
        # (k-1)2^s / (1 + (k-1)2^s), whatever the source.
        solves = count_solves(monkeypatch)
        src = Distribution([0.2, 0.5, 0.3])
        for target in (0.02, 0.1, 0.3):
            pt = rd_at_distortion(src, target=target)
            assert abs(pt.distortion - target) <= 1e-15
            assert pt.iterations == 0
            assert pt.slope == pytest.approx(np.log2(target / (2.0 * (1.0 - target))), abs=1e-12)
        assert solves == []

    def test_hamming_targets_match_the_40_digit_water_filling(self):
        # Dense, Dirichlet(0.05) and zero-mass sources on 2-8 symbols, at
        # targets from just above the D_min tolerance to 0.999 D_max.  The
        # slope search left rates off by up to 2e-5 bits here.
        rng = np.random.default_rng(38)
        checked = 0
        while checked < 600:
            k = int(rng.integers(2, 9))
            p = rng.dirichlet(np.full(k, 0.05 if checked % 3 == 1 else 1.0))
            if checked % 3 == 2:
                p[rng.random(k) < 0.35] = 0.0
            if np.count_nonzero(p > 1e-300) < 2:
                continue
            src = Distribution(p / p.sum())
            lo, hi = 1.001e-6, 0.999 * (1.0 - src.probs.max())
            if hi <= lo:
                continue
            u = float(rng.random())
            target = lo * (hi / lo) ** u if checked % 2 else lo + u * (hi - lo)
            pt = rd_at_distortion(src, target=target)
            assert pt.iterations == 0
            assert abs(pt.distortion - target) <= 1e-15
            assert abs(pt.rate - _decimal_hamming_rd(src.probs, target)) <= 1e-14
            checked += 1

    @pytest.mark.parametrize("c", [1.0, 1e-2, 1e-7])
    def test_relabeled_offset_and_scaled_hamming_takes_no_solve(self, monkeypatch, c):
        solves = count_solves(monkeypatch)
        rng = np.random.default_rng(8)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            src = Distribution(rng.dirichlet(np.ones(k)))
            rows, cols = rng.permutation(k), rng.permutation(k)
            offsets = rng.uniform(0.0, 3.0, size=k) * c
            costs = (c * (1.0 - np.eye(k)))[rows][:, cols] + offsets[:, None]
            d_min = float(src.probs @ costs.min(axis=1))
            for frac in (0.01, 0.5, 0.99):
                target = frac * (1.0 - src.probs.max())
                pt = rd_at_distortion(src, DistortionMatrix(costs), d_min + c * target)
                assert pt.iterations == 0
                assert pt.distortion == pytest.approx(d_min + c * target, abs=1e-12 * c)
                assert pt.rate == pytest.approx(_decimal_hamming_rd(src.probs, target), abs=1e-12)
        assert solves == []

    def test_hamming_target_within_rounding_of_dmax_takes_no_solve(self, monkeypatch):
        # D_max sums 0.035 + 0.393 one way and the water-filling tail the
        # other: at the float just below D_max, t reaches 1 - p_max and no
        # support of two or more symbols fits, so the zero-rate point
        # answers, one float above the target.
        solves = count_solves(monkeypatch)
        src = Distribution([0.035, 0.393, 0.572])
        d_max = float((src.probs @ (1.0 - np.eye(3))).min())
        target = float(np.nextafter(d_max, 0.0))
        pt = rd_at_distortion(src, target=target)
        assert solves == [] and pt.iterations == 0
        assert pt.distortion == d_max == np.nextafter(target, 1.0) and pt.rate == 0.0

    @pytest.mark.parametrize("move, solved", [(2.0 ** -52, False), (2.0 ** -48, True)])
    def test_an_entry_moved_past_the_rounding_takes_the_search(self, monkeypatch, move, solved):
        # The excess costs of a Hamming form may spread by 4u of the largest
        # cost (u = 2^-53): one ulp of 1 is inside, 16 ulps are not.  The
        # search stops within 1e-6 of the target, so its rate is within
        # |slope| 1e-6 bits of the closed form's.
        solves = count_solves(monkeypatch)
        src = Distribution([0.4, 0.3, 0.2, 0.1])
        costs = 1.0 - np.eye(4)
        costs[2, 0] += move
        for target in (0.05, 0.3, 0.55):
            solves.clear()
            exact = rd_at_distortion(src, target=target)
            pt = rd_at_distortion(src, DistortionMatrix(costs), target)
            assert bool(solves) is solved
            assert abs(pt.rate - exact.rate) <= abs(exact.slope) * 1e-6 + 1e-12

    def test_integer_costs_with_ties_near_dmax_take_few_solves(self, monkeypatch):
        # Targets 0.999 of the way to D_max under costs in {0, 1, 2, 3},
        # where the secant search took 8 to 44 solves on these 40 draws.
        solves = count_solves(monkeypatch)
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 40:
            n = int(rng.integers(3, 9))
            src = Distribution(rng.dirichlet(np.ones(n)))
            costs = rng.integers(0, 4, size=(n, n)).astype(float)
            d_min = float(src.probs @ costs.min(axis=1))
            d_max = float((src.probs @ costs).min())
            if d_max - d_min < 1e-6:
                continue
            target = d_min + 0.999 * (d_max - d_min)
            solves.clear()
            pt = rd_at_distortion(src, DistortionMatrix(costs), target=target)
            assert abs(pt.distortion - target) <= 1e-6
            assert len(solves) <= 3
            checked += 1

    def test_targets_at_the_least_distortion_take_the_one_search(self, monkeypatch):
        # Off Hamming form, a target within the tolerance of D_min (1e-6
        # cost units; every cost unit here is above 0.6) takes one solve,
        # at slope -inf, whose distortion is D_min up to rounding.  Under
        # Hamming costs the target D_min is the closed-form point at slope
        # -inf, with no solve: (D_min, H(X)), the point that solve gives.
        solves = count_solves(monkeypatch)
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            src = Distribution(rng.dirichlet(np.ones(n)))
            costs = [1.0 - np.eye(n), random_cost_source(rng, n)[1].costs,
                     rng.integers(0, 4, size=(n, n)).astype(float),
                     rng.uniform(0.0, 1.0, size=(n, int(rng.integers(2, 9))))][trial % 4]
            d_min = float(src.probs @ costs.min(axis=1))
            if float((src.probs @ costs).min()) - d_min < 1e-6:
                continue
            if trial % 4 == 0:
                solves.clear()
                pt = rd_at_distortion(src, DistortionMatrix(costs), target=d_min)
                assert solves == [] and (pt.slope, pt.iterations) == (-np.inf, 0)
                solved = blahut_arimoto(src, DistortionMatrix(costs), -np.inf)
                assert pt.distortion == solved.distortion == 0.0
                assert pt.rate == pytest.approx(solved.rate, abs=1e-15)
                assert pt.rate == pytest.approx(entropy(src), abs=1e-12)
                continue
            for target in (d_min, d_min + 1e-7, d_min + 5e-7):
                solves.clear()
                pt = rd_at_distortion(src, DistortionMatrix(costs), target=target)
                assert solves == [-np.inf] and pt.slope == -np.inf
                assert pt.distortion == pytest.approx(d_min, rel=1e-15, abs=1e-15)

    def test_hamming_targets_near_the_least_distortion_match_the_40_digit_water_filling(
            self, monkeypatch):
        # At and just above D_min, inside the 1e-6 tolerance within which
        # other costs take the slope -inf solve and its rate R(D_min), a
        # Hamming target takes the closed form like any other: R(target),
        # with no solve.
        solves = count_solves(monkeypatch)
        rng = np.random.default_rng(39)
        checked = 0
        while checked < 60:
            k = int(rng.integers(2, 9))
            p = rng.dirichlet(np.full(k, 0.05 if checked % 3 == 1 else 1.0))
            if checked % 3 == 2:
                p[rng.random(k) < 0.35] = 0.0
            # Two symbols with mass, and D_max above every target.
            if np.count_nonzero(p > 1e-300) < 2 or 1.0 - p.max() / p.sum() < 1e-5:
                continue
            src = Distribution(p / p.sum())
            for target in (0.0, 1e-7, 5e-7):
                pt = rd_at_distortion(src, target=target)
                assert pt.iterations == 0
                assert abs(pt.distortion - target) <= 1e-15
                assert abs(pt.rate - _decimal_hamming_rd(src.probs, target)) <= 1e-14
            checked += 1
        assert solves == []

    @pytest.mark.parametrize("probs, costs, target", [
        # The least positive excess cost is far above the cost unit of 1.
        ([0.3, 0.7], [[0.0, 1e308], [1e308, 0.0]], 0.0),
        # Every cost is offset by 1e6, where an ulp is 1.2e-10.
        ([0.3, 0.7], [[1e6, 1e6 + 1.0], [1e6 + 1.0, 1e6]], 1e6),
        # D_max - D_min is 1e-20, far inside the tolerance.
        ([1e-20, 1.0 - 1e-20], [[0.0, 1.0], [1.0, 0.0]], 0.0),
    ], ids=["huge-gap", "offset", "thin-span"])
    def test_least_distortion_targets_on_extreme_costs(self, monkeypatch, probs, costs, target):
        # Each is (D_min, H(X)) under these costs.  The costs as given are
        # Hamming in form: the closed-form point at slope -inf, no solve.  A
        # third column at each row's largest cost leaves D_min, D_max and
        # R(D) as they are, but not the form: the one solve at slope -inf.
        solves = count_solves(monkeypatch)
        src = Distribution(probs)
        costs = np.array(costs, dtype=float)
        for d, want in ((costs, []), (np.column_stack([costs, costs.max(axis=1)]), [-np.inf])):
            solves.clear()
            pt = rd_at_distortion(src, DistortionMatrix(d), target=target)
            assert solves == want and pt.slope == -np.inf
            assert pt.distortion == pytest.approx(target, rel=1e-15)
            assert pt.rate == pytest.approx(entropy(src), abs=1e-12)

    def test_a_search_with_no_point_below_takes_the_least_distortion_solve(self, monkeypatch):
        # With no slope step left, the search has no solve below the target:
        # the slope -inf solve stands in, time-shared with the zero-rate end.
        # Hamming costs take the closed form; a dominated third column
        # keeps binary-Hamming R(D) but takes the search.
        monkeypatch.setattr(rate_distortion, "_SLOPE_STEPS", 0)
        d = DistortionMatrix([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        pt = rd_at_distortion(Distribution.uniform(2), d, target=0.25)
        assert pt.distortion == pytest.approx(0.25, abs=1e-15) and pt.slope == -np.inf
        # Its rate lies between R(0.25) and the chord from (0, 1) to (0.5, 0).
        assert binary_hamming_rd(0.5, 0.25) <= pt.rate <= 0.5 + 1e-12

    def test_no_solve_on_the_zero_rate_plateau(self, monkeypatch):
        solves = count_solves(monkeypatch)
        rng = np.random.default_rng(31)
        for _ in range(20):
            src, d = random_cost_source(rng, int(rng.integers(2, 7)))
            s_c, _ = rate_distortion._critical_slope(src.probs, d.costs)
            d_min = float(src.probs @ d.costs.min(axis=1))
            d_max = float((src.probs @ d.costs).min())
            for frac in (0.5, 0.9, 0.999):
                solves.clear()
                rd_at_distortion(src, d, target=d_min + frac * (d_max - d_min))
                assert all(s < s_c for s in solves)

    @pytest.mark.parametrize("c", [1e-7, 1e-5, 1e-2])
    def test_scaled_costs_scale_the_distortions_only(self, c):
        # Tolerances and curve slopes are in units of the largest excess
        # cost (capped at 1), so costs times c give the same rates at c
        # times the distortions.  With absolute ones, 1e-5 times these
        # costs read 0.58 bits at 0.3 of the span against 0.6338.
        rng = np.random.default_rng(4)
        src = Distribution(rng.dirichlet(np.ones(4)))
        costs = rng.uniform(0.1, 1.0, size=(4, 4))
        np.fill_diagonal(costs, 0.0)
        bit = Distribution([0.3, 0.7])
        hamming = 1.0 - np.eye(2)

        def span_point(scale):
            d = DistortionMatrix(scale * costs)
            d_min = float(src.probs @ d.costs.min(axis=1))
            d_max = float((src.probs @ d.costs).min())
            return rd_at_distortion(src, d, d_min + 0.3 * (d_max - d_min))

        want, got = span_point(1.0), span_point(c)
        assert got.rate == pytest.approx(want.rate, rel=1e-9)
        assert got.distortion == pytest.approx(c * want.distortion, rel=1e-9)
        assert rd_at_distortion(bit, DistortionMatrix(c * hamming), 0.0).rate == pytest.approx(
            entropy(bit), abs=1e-9)
        for source, d in ((bit, hamming), (src, costs)):
            want = rd_curve(source, DistortionMatrix(d), 9).points
            got = rd_curve(source, DistortionMatrix(c * d), 9).points
            assert len(got) == len(want) >= 5
            for g, w in zip(got, want):
                assert g.rate == pytest.approx(w.rate, rel=1e-9, abs=1e-12)
                assert g.distortion == pytest.approx(c * w.distortion, rel=1e-9)

    def test_relabeling_and_row_offsets_keep_the_rate(self):
        # R(D) does not see the order of the source or reproduction symbols,
        # and adding c to the costs of row x shifts every distortion by
        # p_x c.  Each change moves the rate by rounding alone: at most
        # 1.3e-14 bits over these 531 cases.
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(64):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            m = n if trial % 4 < 3 else int(rng.integers(2, 7))
            costs = [1.0 - np.eye(n), rng.uniform(0.1, 1.0, size=(n, n)) * (1.0 - np.eye(n)),
                     rng.integers(0, 4, size=(n, n)).astype(float),
                     rng.uniform(0.0, 1.0, size=(n, m))][trial % 4]
            d_min = float(p @ costs.min(axis=1))
            d_max = float((p @ costs).min())
            if d_max - d_min < 1e-6:
                continue
            rows, cols = rng.permutation(n), rng.permutation(m)
            x, c = int(rng.integers(n)), float(rng.uniform(0.5, 3.0))
            offset = costs.copy()
            offset[x] += c
            for frac in (0.0, 0.3, 0.7):
                target = d_min + frac * (d_max - d_min)
                want = rd_at_distortion(Distribution(p), DistortionMatrix(costs), target).rate
                for q, d, t in ((p[rows], costs[rows], target),
                                (p, costs[:, cols], target),
                                (p, offset, target + p[x] * c)):
                    got = rd_at_distortion(Distribution(q), DistortionMatrix(d), t).rate
                    assert got == pytest.approx(want, abs=1e-12)
                    checked += 1
        assert checked >= 500

    def test_matches_closed_form_fuzz(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            p = float(rng.uniform(0.05, 0.95))
            pm = min(p, 1.0 - p)
            target = float(rng.uniform(0.001, pm - 1e-3))
            pt = rd_at_distortion(Distribution([p, 1.0 - p]), target=target)
            assert pt.rate == pytest.approx(binary_hamming_rd(p, target), abs=1e-4)


class TestCriticalSlope:
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.45, 0.7])
    def test_bernoulli_closed_form(self, p):
        # The rate of Bernoulli(p) reaches zero at slope log2(pm / (1 - pm)).
        pm = min(p, 1.0 - p)
        s_c, top = rate_distortion._critical_slope(np.array([p, 1.0 - p]), 1.0 - np.eye(2))
        assert s_c == pytest.approx(np.log2(pm / (1.0 - pm)), rel=1e-12)
        assert top == ([1, 0] if p < 0.5 else [0, 1])

    def test_point_mass_condition_fails_just_below(self):
        # At s_c the point mass meets the optimality conditions with equality
        # in one column, and just below s_c it fails them.
        rng = np.random.default_rng(4)
        for _ in range(30):
            src, d = random_cost_source(rng, int(rng.integers(2, 8)))
            p, costs = src.probs, d.costs
            s_c, top = rate_distortion._critical_slope(p, costs)
            e = costs - costs[:, [top[0]]]
            f = p @ np.exp2(s_c * e)
            assert f.max() == pytest.approx(1.0, abs=1e-12)
            assert f[top[1]] == pytest.approx(1.0, abs=1e-12)
            assert (p @ np.exp2(s_c * (1.0 + 1e-6) * e)).max() > 1.0

    def test_tie_and_no_root(self):
        # Two equally good constants: the curve reaches D_max only at s = 0.
        assert rate_distortion._critical_slope(np.full(3, 1 / 3), 1.0 - np.eye(3)) == (0.0, [0])
        # One constant is best for every source symbol: D_min = D_max.
        costs = np.array([[0.2, 0.5], [0.7, 0.9]])
        assert rate_distortion._critical_slope(np.array([0.5, 0.5]), costs) == (-np.inf, [0])


class TestDistortionSlope:
    @pytest.mark.parametrize("slope", [-6.0, -3.0, -1.5])
    def test_bernoulli_closed_form(self, slope):
        # Below the critical slope log2(0.3/0.7) both symbols are active and
        # D(s) = 1 / (1 + 2^-s) for any Bernoulli source.
        src = Distribution([0.3, 0.7])
        pt = blahut_arimoto(src, slope=slope)
        got = rate_distortion._distortion_slope(src.probs, 1.0 - np.eye(2), slope, pt.output_law)
        want = np.log(2.0) * 2.0 ** -slope / (1.0 + 2.0 ** -slope) ** 2
        assert got == pytest.approx(want, rel=1e-7)

    def test_matches_central_differences(self):
        # Warm solves at s -+ h, h = 1e-3, at slopes where no symbol's mass
        # sits between 1e-9 and 1e-3 on that interval, away from a change
        # of support, where D'(s) jumps.
        rng = np.random.default_rng(11)
        h = 1e-3
        compared = 0
        for _ in range(40):
            src, d = random_cost_source(rng, int(rng.integers(2, 7)))
            slope = -float(np.exp2(rng.uniform(-1.0, 4.0)))
            mid = blahut_arimoto(src, d, slope)
            left = blahut_arimoto(src, d, slope - h, start=mid.output_law)
            right = blahut_arimoto(src, d, slope + h, start=mid.output_law)
            laws = np.array([left.output_law, mid.output_law, right.output_law])
            if np.any((laws > 1e-9) & (laws < 1e-3)):
                continue
            excess = d.costs - d.costs.min(axis=1, keepdims=True)
            got = rate_distortion._distortion_slope(src.probs, excess, slope, mid.output_law)
            want = (right.distortion - left.distortion) / (2.0 * h)
            assert got == pytest.approx(want, rel=1e-4, abs=1e-9)
            compared += 1
        assert compared >= 20

    def test_an_overflowing_system_gives_nan(self):
        # Row 2's only mass sits on a symbol of mass 1e-200 at slope -2000,
        # so p / lam^2 overflows: nan, which the slope search does not step on.
        got = rate_distortion._distortion_slope(np.array([0.5, 0.5]), 1.0 - np.eye(2), -2000.0,
                                                np.array([1.0, 1e-200]))
        assert np.isnan(got)


class TestSlopeSteps:
    def test_no_first_slope_inside_the_bracket(self):
        # The first slope sits on the bracket's upper end, and the line
        # through the ends meets g = 0 at a u that underflows to 0.
        assert list(rate_distortion._slope_steps(0.0, 1.0, 1.0, -5e-324, 10.0, lambda: 0.0)) == []

    def test_ends_when_rounding_leaves_no_point_inside(self):
        # The bracket [5e-324, 1e-323] on u holds no double, yet it is wider
        # than _JUMP_WIDTH relative, since that width underflows to 0.
        search = rate_distortion._slope_steps(-1074.0, 1.0, 1e-323, -1.0, 1.0, lambda: 0.0)
        assert next(search) == -1074.0
        with pytest.raises(StopIteration):
            search.send((-0.5, 1.0))

    def test_uniform_law_slope_for_an_unreachable_aim(self):
        # The uniform law's excess distortion is at most 0.5 here: the
        # search closes on slope 0 and ends without meeting 0.9.
        s = rate_distortion._uniform_law_slope(np.array([0.5, 0.5]), 1.0 - np.eye(2), 1.0, 0.9)
        assert -1e-9 < s < 0.0


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

    @pytest.mark.parametrize("probs, costs", [
        ([0.3, 0.7], [[0.0, 1.0], [0.5, 0.0]]),
        ([0.15, 0.6, 0.25], [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.5, 0.0]]),
    ], ids=["binary", "ternary"])
    def test_stops_at_the_critical_slope(self, probs, costs):
        # Square costs that are not Hamming in form.  Slopes at or above s_c
        # give the point mass; none is solved, the last point is exactly
        # (D_max, 0), and every other point is the warm-started solve at its
        # slope.
        src, d = Distribution(probs), DistortionMatrix(costs)
        c = rd_curve(src, d, n_points=33)
        d_max = float((src.probs @ d.costs).min())
        assert (c.points[-1].distortion, c.points[-1].rate) == (d_max, 0.0)
        assert all(p.distortion < d_max and p.rate > 0.0 for p in c.points[:-1])
        s_c, _ = rate_distortion._critical_slope(src.probs, d.costs)
        slopes = -np.exp2(np.linspace(6.0, -6.0, 32))
        law = None
        sweep = []
        for s in slopes[slopes < s_c]:
            sweep.append(blahut_arimoto(src, d, float(s), start=law))
            law = sweep[-1].output_law
        assert len(c.points) > 10
        assert {p.slope for p in c.points[:-1]} <= {p.slope for p in sweep}
        assert all(p in sweep for p in c.points[:-1])

    @pytest.mark.parametrize("probs", [[0.3, 0.7], [0.15, 0.6, 0.25]], ids=["binary", "ternary"])
    def test_hamming_curve_takes_no_solve(self, monkeypatch, probs):
        # Every point below D_max is the closed-form one at a slope of the
        # sweep below s_c, and the last point is exactly (D_max, 0).
        solves = count_solves(monkeypatch)
        src = Distribution(probs)
        d = DistortionMatrix.hamming(len(probs))
        c = rd_curve(src, n_points=33)
        assert solves == []
        d_max = float((src.probs @ d.costs).min())
        assert (c.points[-1].distortion, c.points[-1].rate) == (d_max, 0.0)
        assert all(p.distortion < d_max and p.rate > 0.0 for p in c.points[:-1])
        assert all(p.iterations == 0 for p in c.points)
        s_c, _ = rate_distortion._critical_slope(src.probs, d.costs)
        slopes = -np.exp2(np.linspace(6.0, -6.0, 32))
        assert len(c.points) > 10
        assert {p.slope for p in c.points[:-1]} <= set(slopes[slopes < s_c])

    @pytest.mark.parametrize("c", [1.0, 1e-2, 1e-7])
    def test_relabeled_offset_and_scaled_hamming_curves_match_the_40_digit_water_filling(
            self, monkeypatch, c):
        # Each point's rate against R at its own slope, where no rounding of
        # the point's float distortion enters.  The worst case here reads
        # 8.9e-16 bits.
        solves = count_solves(monkeypatch)
        rng = np.random.default_rng(39)
        for i in range(30):
            k = int(rng.integers(2, 9))
            p = rng.dirichlet(np.full(k, 0.3 if i % 2 else 1.0))
            if i % 4 == 3:
                p[rng.random(k) < 0.3] = 0.0
            if np.count_nonzero(p) < 2:
                continue
            src = Distribution(p / p.sum())
            rows, cols = rng.permutation(k), rng.permutation(k)
            offsets = rng.uniform(0.0, 3.0, size=k) * c
            costs = (c * (1.0 - np.eye(k)))[rows][:, cols] + offsets[:, None]
            curve = rd_curve(src, DistortionMatrix(costs), 33)
            for pt in curve.points[:-1]:
                want = _decimal_hamming_rd_at_slope(src.probs, pt.slope, c)
                assert abs(pt.rate - want) <= 1e-14
        assert solves == []

    @pytest.mark.parametrize("costs", [None, [[0.5]]], ids=["hamming", "offset"])
    def test_one_symbol_source_takes_no_solve(self, monkeypatch, costs):
        # A 1x1 matrix has no cost off the zero, so no Hamming scale c.
        solves = count_solves(monkeypatch)
        d = None if costs is None else DistortionMatrix(costs)
        c = rd_curve(Distribution([1.0]), d, 9)
        dist = 0.0 if costs is None else 0.5
        assert [(p.distortion, p.rate) for p in c.points] == [(dist, 0.0)]
        assert solves == []
        assert rate_distortion._hamming_form(np.array([[0.5]]), np.zeros((1, 1))) is None

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            rd_curve(Distribution.uniform(2), n_points=1)

    @pytest.mark.parametrize("n_points", [True, 3.0], ids=["bool", "float"])
    def test_rejects_non_integer_point_count(self, n_points):
        with pytest.raises(TypeError, match="n_points must be an integer"):
            rd_curve(Distribution.uniform(2), None, n_points)

    def test_accepts_numpy_integer_point_count(self):
        c = rd_curve(Distribution.uniform(2), None, np.int64(3))
        assert c.points == rd_curve(Distribution.uniform(2), None, 3).points

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
        # One point is a curve (D_min = D_max); no point is not.
        assert len(RdCurve((RdPoint(0.1, 0.5, -1.0, 1),)).points) == 1
        with pytest.raises(ValueError):
            RdCurve(())

    @pytest.mark.parametrize("distortions", [(0.1, 0.1), (0.2, 0.1)])
    def test_rejects_distortions_that_do_not_increase(self, distortions):
        points = tuple(RdPoint(v, 0.5, -1.0, 1) for v in distortions)
        with pytest.raises(ValueError, match="strictly increasing"):
            RdCurve(points)

    @pytest.mark.parametrize("probs, costs, dist", [
        ([1.0], None, 0.0),
        ([0.5, 0.5], DistortionMatrix([[0.2], [0.7]]), 0.45),
    ], ids=["one-source-symbol", "one-reproduction"])
    def test_one_point_curve(self, probs, costs, dist):
        # D_min = D_max: every slope gives the same point, so the curve is
        # that point alone, at rate 0.
        c = rd_curve(Distribution(probs), costs, 9)
        assert [(p.distortion, p.rate) for p in c.points] == [(pytest.approx(dist), 0.0)]

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

    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_non_finite_target(self, target):
        # NaN once read as R(0) and inf as 0 bits, not as errors.
        with pytest.raises(ValueError, match="must be finite"):
            binary_hamming_rd(0.3, target)
