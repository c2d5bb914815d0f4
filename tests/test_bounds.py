import json
from pathlib import Path

import numpy as np
import pytest
from conftest import random_joint

from sdpibounds import bounds, cli
from sdpibounds import (
    BoundReport,
    CeoQuery,
    CommonRandomnessQuery,
    DimensionMismatchError,
    DistortionMatrix,
    JointDistribution,
    RateDistortionTuple,
    ceo_bound_check,
    coupled_rate_check,
    cr_ratio_bound,
    full_report,
    quantized_gaussian_joint,
    independent_coding_penalty,
    rho_star,
    sstar,
    sum_rate_bound,
)
from sdpibounds.bounds import _both_directions

DATA = Path(bounds.__file__).parent / "data"


def symmetric_joint(rng, n):
    a = rng.random((n, n))
    j = JointDistribution((a + a.T) / (a + a.T).sum())
    assert j.probs.tobytes() == j.probs.T.tobytes()
    return j


class TestTypes:
    def test_tuple_validation(self):
        RateDistortionTuple(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            RateDistortionTuple(-0.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            RateDistortionTuple(0.1, 0.0, np.inf, 0.0)

    def test_report_build_and_slack_boundary(self):
        r = BoundReport.build("x", 1.0, 1.0 + 0.9e-9, {})
        assert r.satisfied
        r = BoundReport.build("x", 1.0, 1.0 + 2e-9, {})
        assert not r.satisfied
        assert r.slack == pytest.approx(-2e-9, rel=1e-6)

    def test_report_to_dict_keys(self):
        d = BoundReport.build("n", 2.0, 1.0, {"a": 1}, note="hi").to_dict()
        assert set(d) == {"name", "lhs", "rhs", "slack", "satisfied", "inputs", "note"}

    def test_ceo_query_validation(self):
        with pytest.raises(ValueError):
            CeoQuery((), (), 0.5)
        with pytest.raises(ValueError):
            CeoQuery((1.0,), (0.5, 0.5), 0.5)
        with pytest.raises(ValueError):
            CeoQuery((1.0,), (1.5,), 0.5)
        with pytest.raises(ValueError):
            CeoQuery((-1.0,), (0.5,), 0.5)

    def test_cr_query_validation(self):
        with pytest.raises(ValueError):
            CommonRandomnessQuery(-1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            CommonRandomnessQuery(1.0, 1.0, 1.5)


class TestCoupledRateCheck:
    def test_satisfied_case(self):
        t = RateDistortionTuple(0.3, 0.4, 0.1, 0.1)
        rx, ry = coupled_rate_check(t, 0.64, 0.64, 0.531, 0.531)
        assert rx.name == "coupled-rate-x"
        assert rx.lhs == pytest.approx(0.3 + 0.64 * 0.4)
        assert rx.rhs == 0.531
        assert rx.satisfied
        assert ry.lhs == pytest.approx(0.4 + 0.64 * 0.3)
        assert ry.satisfied

    def test_violated_case(self):
        t = RateDistortionTuple(0.1, 0.1, 0.1, 0.1)
        rx, _ = coupled_rate_check(t, 0.0, 0.0, 0.531, 0.531)
        assert not rx.satisfied
        assert rx.slack == pytest.approx(0.1 - 0.531)

    def test_vacuous_note_at_zero_requirement(self):
        t = RateDistortionTuple(0.0, 0.0, 0.5, 0.5)
        rx, ry = coupled_rate_check(t, 0.5, 0.5, 0.0, 0.2)
        assert rx.note != "" and rx.satisfied
        assert ry.note == ""

    def test_rejects_bad_constants(self):
        t = RateDistortionTuple(0.1, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError):
            coupled_rate_check(t, 1.2, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            coupled_rate_check(t, 0.5, 0.5, -0.5, 0.5)

    def test_lowering_the_constant_only_lowers_lhs(self):
        # conservativeness: a smaller constant can only make checks harder
        t = RateDistortionTuple(0.4, 0.4, 0.1, 0.1)
        strong, _ = coupled_rate_check(t, 0.8, 0.8, 0.6, 0.6)
        weak, _ = coupled_rate_check(t, 0.2, 0.2, 0.6, 0.6)
        assert weak.lhs < strong.lhs
        assert weak.slack < strong.slack


class TestSumRateBound:
    def test_counterexample_value(self):
        assert sum_rate_bound(1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_uncorrelated_gives_full_sum(self):
        assert sum_rate_bound(0.0, 0.7, 0.9) == pytest.approx(1.6, abs=1e-15)

    def test_monotone_in_the_constant(self):
        vals = [sum_rate_bound(r, 1.0, 1.0) for r in np.linspace(0.0, 1.0, 11)]
        assert np.all(np.diff(vals) < 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sum_rate_bound(1.5, 1.0, 1.0)


class TestPenalty:
    def test_endpoints(self):
        assert independent_coding_penalty(0.0) == 0.0
        assert independent_coding_penalty(1.0) == pytest.approx(0.5)

    def test_quaternary_scale(self):
        assert independent_coding_penalty(0.0453) == pytest.approx(0.04333, abs=1e-4)

    def test_monotone(self):
        vals = [independent_coding_penalty(r) for r in np.linspace(0.0, 1.0, 21)]
        assert np.all(np.diff(vals) > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            independent_coding_penalty(-0.1)


class TestCeoBound:
    def test_satisfied(self):
        rep = ceo_bound_check(CeoQuery((1.0, 1.0), (0.5, 0.5), 0.9))
        assert rep.name == "ceo-sum"
        assert rep.lhs == pytest.approx(1.0)
        assert rep.satisfied

    def test_violated(self):
        rep = ceo_bound_check(CeoQuery((0.5, 0.5), (0.1, 0.2), 0.9))
        assert not rep.satisfied
        assert rep.slack == pytest.approx(0.15 - 0.9)

    def test_single_agent(self):
        rep = ceo_bound_check(CeoQuery((2.0,), (0.25,), 0.5))
        assert rep.lhs == pytest.approx(0.5)
        assert rep.satisfied


class TestCrRatioBound:
    def test_satisfied(self):
        rep = cr_ratio_bound(CommonRandomnessQuery(1.0, 1.5, 0.5))
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(1.5)
        assert rep.satisfied

    def test_violated(self):
        rep = cr_ratio_bound(CommonRandomnessQuery(1.0, 3.0, 0.5))
        assert not rep.satisfied

    def test_vacuous_at_unit_constant(self):
        rep = cr_ratio_bound(CommonRandomnessQuery(1.0, 100.0, 1.0))
        assert np.isinf(rep.lhs)
        assert rep.satisfied
        assert rep.note != ""

    def test_zero_rate_is_an_error(self):
        with pytest.raises(ValueError):
            cr_ratio_bound(CommonRandomnessQuery(0.0, 1.0, 0.5))


class TestFullReport:
    def test_independent_uniform_tight_at_entropy(self, independent_binary):
        ham = DistortionMatrix.hamming(2)
        t = RateDistortionTuple(1.0, 1.0, 0.0, 0.0)
        reports = full_report(independent_binary, ham, ham, t)
        assert [r.name for r in reports] == ["coupled-rate-x", "coupled-rate-y", "sum-rate"]
        for r in reports:
            assert r.satisfied
            assert r.slack == pytest.approx(0.0, abs=1e-6)

    def test_quaternary_sum_rate_discount(self, quaternary):
        ham = DistortionMatrix.hamming(4)
        good = RateDistortionTuple(2.0, 2.0, 0.0, 0.0)
        reports = full_report(quaternary, ham, ham, good)
        assert all(r.satisfied for r in reports)
        srb = next(r for r in reports if r.name == "sum-rate")
        # each side alone needs 2 bits; the coupling discounts the sum
        assert srb.rhs == pytest.approx(4.0 / 1.0453, abs=2e-3)

        low = RateDistortionTuple(1.9, 1.9, 0.0, 0.0)
        reports = full_report(quaternary, ham, ham, low)
        srb = next(r for r in reports if r.name == "sum-rate")
        assert not srb.satisfied

    def test_counterexample_factor_two(self, diagonal_binary):
        ham = DistortionMatrix.hamming(2)
        free = DistortionMatrix(np.zeros((2, 2)))
        t = RateDistortionTuple(0.5, 0.5, 0.0, 0.0)
        reports = full_report(diagonal_binary, ham, free, t)
        by_name = {r.name: r for r in reports}
        assert by_name["coupled-rate-x"].slack == pytest.approx(0.0, abs=1e-9)
        assert by_name["coupled-rate-y"].note != ""
        assert by_name["sum-rate"].rhs == pytest.approx(0.5, abs=1e-9)

    def test_a_symmetric_joint_gets_one_rate_on_both_sides(self):
        # The 9-level Gaussian equals its transpose, so P_X and P_Y are
        # equal bit for bit, and so are the two rate functions at equal
        # distortions and costs (they read 1.3912122618451128 and
        # 1.391212261845113 when the column sums took another order).
        ham = DistortionMatrix.hamming(9)
        reports = full_report(quantized_gaussian_joint(0.5, 9), ham, ham,
                              RateDistortionTuple(1.0, 1.0, 0.1, 0.1))
        by_name = {r.name: r for r in reports}
        rx = by_name["coupled-rate-x"].inputs["rate_function"]
        assert rx == by_name["coupled-rate-y"].inputs["rate_function"]
        assert rx == by_name["sum-rate"].inputs["rate_function_y"]

    def test_inputs_echo_constants(self, dsbs):
        ham = DistortionMatrix.hamming(2)
        t = RateDistortionTuple(1.0, 1.0, 0.1, 0.1)
        reports = full_report(dsbs, ham, ham, t)
        assert reports[0].inputs["rho_star"] == pytest.approx(0.64, abs=1e-6)

    def test_dimension_mismatch(self, dsbs):
        with pytest.raises(DimensionMismatchError):
            full_report(dsbs, DistortionMatrix.hamming(3), DistortionMatrix.hamming(2),
                        RateDistortionTuple(1.0, 1.0, 0.1, 0.1))
        with pytest.raises(DimensionMismatchError):
            full_report(dsbs, DistortionMatrix.hamming(2), DistortionMatrix.hamming(3),
                        RateDistortionTuple(1.0, 1.0, 0.1, 0.1))


class TestBothDirections:
    """bounds._both_directions is the one place both s* directions are solved;
    a joint equal to its transpose bit for bit, such as a quantized Gaussian,
    is solved once."""

    def test_sstar_calls(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(26)
        cases = [(path, 1) for path in sorted(DATA.glob("*.json"))]
        for j, expected in ((symmetric_joint(rng, 6), 1), (random_joint(rng, 3, 3), 2),
                            (quantized_gaussian_joint(0.5, 9), 1)):
            path = tmp_path / f"j{len(cases)}.json"
            path.write_text(json.dumps(j.to_dict()))
            cases.append((path, expected))
        calls = []
        monkeypatch.setattr(bounds, "sstar", lambda *args: calls.append(args) or sstar(*args))
        t = RateDistortionTuple(1.0, 1.0, 0.1, 0.1)
        for path, expected in cases:
            j = JointDistribution.from_dict(json.loads(path.read_text()))
            ham_x, ham_y = DistortionMatrix.hamming(j.x_size), DistortionMatrix.hamming(j.y_size)
            callers = {"full_report": lambda: full_report(j, ham_x, ham_y, t),
                       "rho_star": lambda: rho_star(j),
                       "sdpibounds sstar": lambda: cli.main(["sstar", str(path)])}
            for caller, run in callers.items():
                calls.clear()
                run()
                assert len(calls) == expected, (path.name, caller)

    def test_matches_sstar(self):
        rng = np.random.default_rng(2026)
        for n in range(2, 7):
            for j in (symmetric_joint(rng, n), random_joint(rng, n, int(rng.integers(2, 7)))):
                xy, yx, rho = _both_directions(j)
                assert xy.to_dict() == sstar(j, "x_to_y").to_dict()
                assert yx.to_dict() == sstar(j, "y_to_x").to_dict()
                assert rho == max(xy.value, yx.value)
