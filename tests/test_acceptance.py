"""Acceptance gate.

Nine end-to-end checks, one per headline behavior of the package.  Each test
prints a single PASS/FAIL line (bypassing capture, so the verdicts show up
in a plain pytest run) and then asserts, so a red line always comes with a
failing test.  Randomized checks use fixed seeds; the tolerances are part of
the contract and are not to be loosened to make a run green.
"""

import time

import numpy as np
import pytest

from conftest import random_joint
from sdpibounds import (
    Channel,
    Distribution,
    DistortionMatrix,
    JointDistribution,
    SdpiConfig,
    binary_hamming_rd,
    coupled_rate_check,
    figure_data,
    gaussian_rho_star,
    independent_coding_penalty,
    quantized_gaussian_joint,
    rd_at_distortion,
    rd_curve,
    rho_star,
    sstar,
    sum_rate_bound,
    tensor_product,
    verify_sdpi_inequality,
    RateDistortionTuple,
)

QUATERNARY = JointDistribution(np.where(np.eye(4, dtype=bool), 0.1, 0.05))
MULTI_ONLY = SdpiConfig(grid_max_alphabet=0)


@pytest.fixture
def verdict(capsys):
    def _verdict(num, label, ok, detail):
        tag = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{tag}] criterion {num} ({label}): {detail}")
        return ok

    return _verdict


def test_criterion_1_quaternary_constant(verdict):
    t0 = time.monotonic()
    value = rho_star(QUATERNARY)
    elapsed = time.monotonic() - t0
    ok = 0.040 <= value <= 0.050 and elapsed < 10.0
    assert verdict(1, "quaternary constant", ok,
                   f"rho*={value:.6f} in [0.040, 0.050], {elapsed:.2f}s < 10s")


def test_criterion_2_penalty(verdict):
    value = rho_star(QUATERNARY)
    penalty = independent_coding_penalty(value)
    ok = 0.038 <= penalty <= 0.048
    assert verdict(2, "independent coding penalty", ok,
                   f"penalty={penalty:.4%} in [3.8%, 4.8%]")


def test_criterion_3_gaussian_figures(verdict):
    t0 = time.monotonic()
    low = figure_data(0.2)
    dominated = all(max(r.simple, r.cooperative) <= r.exact + 1e-9 for r in low)
    high = [r for r in figure_data(0.8) if r.dx == r.dy]
    diff = np.array([r.cooperative - r.simple for r in high])
    crossover = diff.max() > 0.0 and diff.min() < 0.0
    elapsed = time.monotonic() - t0
    ok = dominated and crossover and elapsed < 1.0
    assert verdict(3, "gaussian figure data", ok,
                   f"rho=0.2 bound dominated everywhere: {dominated}; "
                   f"rho=0.8 crossover both ways: {crossover}; {elapsed:.2f}s < 1s")


def test_criterion_4_gaussian_identity_and_quantization(verdict):
    exact = (
        abs(gaussian_rho_star(0.2) - 0.04) <= 1e-15
        and abs(gaussian_rho_star(0.8) - 0.64) <= 1e-15
    )
    values = [
        sstar(quantized_gaussian_joint(0.5, lv), "x_to_y").value
        for lv in (9, 17, 33)
    ]
    refining = bool(np.all(np.diff(values) > 0.0))
    close = abs(values[-1] - 0.25) <= 0.05
    ok = exact and refining and close
    assert verdict(4, "gaussian identity and quantization", ok,
                   f"rho^2 identities exact: {exact}; quantized estimates "
                   f"{[round(v, 4) for v in values]} increasing: {refining}, "
                   f"final within 0.05 of 0.25: {close}")


def test_criterion_5_inequality_fuzz(verdict):
    rng = np.random.default_rng(20260816)
    violations = 0
    worst = -np.inf
    for _ in range(250):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        j = random_joint(rng, nx, ny)
        s = sstar(j, "x_to_y").value
        for _ in range(4):
            nu = int(rng.integers(2, 5))
            u = Channel(rng.dirichlet(np.ones(nu), size=nx))
            lhs, rhs, holds = verify_sdpi_inequality(j, u, s)
            worst = max(worst, lhs - rhs)
            if not holds:
                violations += 1
    ok = violations == 0
    assert verdict(5, "inequality fuzz", ok,
                   f"{violations} violations in 1000 chains, worst lhs-rhs {worst:.2e}")


def test_criterion_6_tensorization(verdict):
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(20):
        j = random_joint(rng, 2, 2)
        single = sstar(j, "x_to_y").value
        doubled = sstar(tensor_product(j, j), "x_to_y", MULTI_ONLY).value
        worst = max(worst, abs(single - doubled))
    ok = worst <= 0.02
    assert verdict(6, "tensorization", ok,
                   f"worst |s*(j) - s*(j tensor j)| = {worst:.2e} <= 0.02")


def test_criterion_7_blahut_arimoto_oracle(verdict):
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(50):
        p = float(rng.uniform(0.05, 0.95))
        d_cap = min(p, 1.0 - p) - 1e-3
        target = float(rng.uniform(0.001, d_cap))
        source = Distribution(np.array([1.0 - p, p]))
        got = rd_at_distortion(source, target=target).rate
        worst = max(worst, abs(got - binary_hamming_rd(p, target)))
    uniform4 = Distribution(np.full(4, 0.25))
    # 4-symbol uniform Hamming at D: log2(4) - h(D) - D log2(3)
    h01 = -(0.1 * np.log2(0.1) + 0.9 * np.log2(0.9))
    closed4 = 2.0 - h01 - 0.1 * np.log2(3.0)
    got4 = rd_at_distortion(uniform4, target=0.1).rate
    gap4 = abs(got4 - closed4)
    curves_ok = True
    for _ in range(5):
        probs = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
        rd_curve(Distribution(np.maximum(probs, 1e-3)))
    rd_curve(uniform4)  # constructor enforces monotone and convex within 1e-7
    ok = worst <= 1e-4 and gap4 <= 1e-4 and curves_ok
    assert verdict(7, "rate-distortion oracle", ok,
                   f"worst binary gap {worst:.2e} <= 1e-4; "
                   f"4-symbol gap {gap4:.2e} <= 1e-4; curves valid")


def test_criterion_8_counterexample_tightness(verdict):
    j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
    s_yx = sstar(j, "y_to_x").value
    s_xy = sstar(j, "x_to_y").value
    uniform = Distribution(np.array([0.5, 0.5]))
    hamming = DistortionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    free = DistortionMatrix(np.zeros((2, 2)))
    rx_req = rd_at_distortion(uniform, hamming, 0.0).rate
    ry_req = rd_at_distortion(uniform, free, 0.0).rate
    t = RateDistortionTuple(rx=0.5, ry=0.5, dx=0.0, dy=0.0)
    reports = coupled_rate_check(t, s_yx, s_xy, rx_req, ry_req)
    rx_report = next(r for r in reports if r.name == "coupled-rate-x")
    naive = sum_rate_bound(max(s_yx, s_xy), rx_req, ry_req)
    ok = (
        abs(s_yx - 1.0) <= 1e-6
        and rx_report.satisfied
        and abs(rx_report.slack) <= 1e-6
        and abs(naive - 0.5) <= 1e-9
    )
    assert verdict(8, "perfect correlation counterexample", ok,
                   f"s*(Y;X)={s_yx:.8f}; coupled-rate-x slack {rx_report.slack:.1e} "
                   f"at (0.5, 0.5); sum-rate bound {naive:.4f} vs true need 1.0")


def test_criterion_9_range_invariant(verdict):
    rng = np.random.default_rng(20260816)
    light = SdpiConfig(grid_max_alphabet=0, multistart_count=4, max_iterations=120)
    bad = 0
    margin = np.inf
    for _ in range(500):
        nx = int(rng.integers(2, 6))
        ny = int(rng.integers(2, 6))
        res = sstar(random_joint(rng, nx, ny), "x_to_y", light)
        margin = min(margin, res.value - res.rho_m_squared)
        if not (0.0 <= res.value <= 1.0 and res.value >= res.rho_m_squared - 1e-9):
            bad += 1
    ok = bad == 0
    assert verdict(9, "range invariant fuzz", ok,
                   f"{bad} out-of-range results in 500 draws, "
                   f"worst value-rho_m^2 margin {margin:.2e}")
