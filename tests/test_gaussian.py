import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sdpibounds import (
    FigureRow,
    JointDistribution,
    figure_data,
    gaussian_rho_star,
    marginals,
    maximal_correlation,
    quantized_gaussian_joint,
    rows_to_csv,
)
from sdpibounds import gaussian
from sdpibounds.gaussian import (
    GaussianParams,
    _normal_cdf,
    beta,
    contour_rx,
    cooperative_bound,
    default_figure_grid,
    exact_sum_rate,
    linearized_bounds,
    simple_sum_bound,
)


class TestParams:
    def test_validation(self):
        GaussianParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GaussianParams(1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            GaussianParams(0.5, 0.0, 0.5)
        with pytest.raises(ValueError):
            GaussianParams(0.5, 0.5, 1.5)

    def test_figure_row_validation(self):
        FigureRow(0.1, 0.1, 2.0, 1.5, 1.8, 1.8)
        with pytest.raises(ValueError):
            FigureRow(0.1, 0.1, 2.0, 1.5, 1.8, 1.5)  # not the max
        with pytest.raises(ValueError):
            FigureRow(0.1, 0.1, 1.0, 1.5, 1.8, 1.8)  # bound above exact

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_figure_row_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite entry"):
            FigureRow(0.1, 0.1, bad, 1.5, 1.8, 1.8)


class TestClosedForms:
    def test_beta_uncorrelated(self):
        assert beta(GaussianParams(0.0, 0.3, 0.7)) == 2.0

    def test_beta_known(self):
        assert beta(GaussianParams(0.8, 0.1, 0.1)) == pytest.approx(
            2.0943175335329007, rel=1e-12
        )

    def test_exact_sum_rate_known(self):
        assert exact_sum_rate(GaussianParams(0.8, 0.1, 0.1)) == pytest.approx(
            2.6182025984847814, rel=1e-12
        )

    def test_exact_uncorrelated_splits(self):
        p = GaussianParams(0.0, 0.2, 0.3)
        split = 0.5 * np.log2(1 / 0.2) + 0.5 * np.log2(1 / 0.3)
        assert exact_sum_rate(p) == pytest.approx(split, rel=1e-12)
        assert simple_sum_bound(p) == pytest.approx(split, rel=1e-12)
        assert cooperative_bound(p) == pytest.approx(split, rel=1e-12)

    def test_exact_zero_at_unit_distortion(self):
        assert exact_sum_rate(GaussianParams(0.5, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_cooperative_known(self):
        assert cooperative_bound(GaussianParams(0.8, 0.1, 0.1)) == pytest.approx(
            2.5849625007211556, rel=1e-12
        )

    def test_cooperative_clips_at_zero(self):
        assert cooperative_bound(GaussianParams(0.5, 1.0, 1.0)) == 0.0

    def test_simple_known(self):
        assert simple_sum_bound(GaussianParams(0.2, 0.1, 0.1)) == pytest.approx(
            3.1941616296993867, rel=1e-12
        )

    def test_linearized_bounds(self):
        bx, by = linearized_bounds(GaussianParams(0.4, 0.1, 0.25))
        assert bx == pytest.approx(0.5 * np.log2(10.0), rel=1e-12)
        assert by == pytest.approx(1.0, rel=1e-12)

    def test_contour_known(self):
        assert contour_rx(GaussianParams(0.2, 0.5, 0.5), 1.0) == pytest.approx(
            0.47802832620620145, rel=1e-12
        )

    def test_contour_clips_at_zero(self):
        assert contour_rx(GaussianParams(0.8, 1.0, 1.0), 5.0) == 0.0

    def test_contour_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            contour_rx(GaussianParams(0.2, 0.5, 0.5), -1.0)


class TestTangency:
    def test_linear_bound_supports_the_contour(self):
        # the linear constraint touches the exact contour at ry = 0 and
        # stays below it everywhere else
        p = GaussianParams(0.3, 0.2, 0.2)
        bx, _ = linearized_bounds(p)
        r2 = 0.3 ** 2
        ry = np.linspace(0.0, 6.0, 200)
        linear = bx - r2 * ry
        exact = np.array([contour_rx(p, float(r)) for r in ry])
        assert np.all(linear <= exact + 1e-12)
        assert linear[0] == pytest.approx(exact[0], abs=1e-12)


class TestRhoStar:
    def test_exact_squares(self):
        assert gaussian_rho_star(0.2) == pytest.approx(0.04, abs=1e-15)
        assert gaussian_rho_star(0.8) == pytest.approx(0.64, abs=1e-15)
        assert gaussian_rho_star(0.0) == 0.0
        assert gaussian_rho_star(-0.5) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_unit_correlation(self):
        with pytest.raises(ValueError):
            gaussian_rho_star(1.0)


class TestFigureData:
    def test_default_grid_shape(self):
        grid = default_figure_grid()
        assert len(grid) == 80
        assert all(0.0 < dx <= 1.0 and 0.0 < dy <= 1.0 for dx, dy in grid)

    def test_rows_are_dominated_by_exact(self):
        for rho in (0.2, 0.5, 0.8):
            for row in figure_data(rho):
                assert row.max_bound <= row.exact + 1e-9

    def test_crossover_at_high_correlation(self):
        rows = [r for r in figure_data(0.8) if r.dx == r.dy]
        diff = np.array([r.simple - r.cooperative for r in rows])
        assert diff.max() > 0.0 and diff.min() < 0.0

    def test_simple_wins_at_large_distortion(self):
        # cooperative collapses to zero near unit distortion, simple does not
        rows = [r for r in figure_data(0.2) if r.dx == r.dy and 0.6 < r.dx < 1.0]
        assert rows and all(r.simple > r.cooperative for r in rows)

    def test_custom_grid(self):
        rows = figure_data(0.5, [(0.1, 0.2)])
        assert len(rows) == 1
        assert rows[0].dx == 0.1 and rows[0].dy == 0.2

    def test_distortions_whose_product_underflows(self):
        # dx * dy rounds to 0, so the rates take logs of dx and dy apart.
        # beta is 2 to double precision, and the exact rate meets the
        # cooperative one.
        (row,) = figure_data(0.5, [(1e-200, 1e-200)])
        coop = 0.5 * np.log2(0.75) + 200.0 * np.log2(10.0)
        assert row.cooperative == pytest.approx(coop, rel=1e-12)
        assert row.exact == pytest.approx(coop, rel=1e-12)
        assert row.simple == pytest.approx(200.0 * np.log2(10.0) / 1.25, rel=1e-12)

    def test_subnormal_distortion(self):
        # 1/dx overflows at dx = 5e-324, so the linear bound takes -log2(dx).
        (row,) = figure_data(0.5, [(5e-324, 0.5)])
        assert row.simple == (0.5 * 1074.0 + 0.5) / 1.25
        assert np.all(np.isfinite(row.as_csv_row()))
        bx, by = linearized_bounds(GaussianParams(0.5, 1.0, 1.0))
        assert (bx, by) == (0.0, 0.0) and not (np.signbit(bx) or np.signbit(by))


class TestCsv:
    def test_header_and_format(self):
        buf = io.StringIO()
        rows_to_csv(figure_data(0.2)[:1], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "dx,dy,exact,simple,cooperative,max_bound"
        assert lines[1] == "0.001,0.001,9.93633747144,9.5824848891,9.93633744014,9.93633744014"

    def test_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        rows = figure_data(0.7)
        rows_to_csv(rows, a)
        rows_to_csv(rows, b)
        assert a.getvalue() == b.getvalue()

    def test_writes_to_path(self, tmp_path):
        target = tmp_path / "fig.csv"
        rows_to_csv(figure_data(0.3)[:3], target)
        assert target.read_text().startswith("dx,dy,")


class TestQuantizedJoint:
    def test_structure(self):
        j = quantized_gaussian_joint(0.5, 9)
        assert isinstance(j, JointDistribution)
        assert j.x_size == j.y_size == 9
        assert np.array_equal(j.probs, j.probs.T)
        # Both marginals are summed in one order, so they are equal bit for
        # bit, and within rounding of the correctly rounded sums.
        px, py = marginals(j)
        assert px.probs.tobytes() == py.probs.tobytes()
        exact = np.array([math.fsum(row) for row in j.probs])
        assert np.array_equal(exact, exact[::-1])
        np.testing.assert_allclose(px.probs, exact, rtol=0, atol=1e-15)

    def test_correlation_approaches_rho(self):
        vals = [maximal_correlation(quantized_gaussian_joint(0.5, lv)) for lv in (5, 9, 17)]
        assert np.all(np.diff(vals) > 0.0)
        assert vals[-1] == pytest.approx(0.5, abs=0.02)

    def test_uncorrelated_factorizes(self):
        j = quantized_gaussian_joint(0.0, 7)
        px, py = marginals(j)
        np.testing.assert_allclose(j.probs, np.outer(px.probs, py.probs), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantized_gaussian_joint(1.0, 9)
        with pytest.raises(ValueError):
            quantized_gaussian_joint(0.5, 1)

    @pytest.mark.parametrize("levels", [2.5, 9.0, True, "9"])
    def test_levels_must_be_an_integer(self, levels):
        with pytest.raises(TypeError, match="levels must be an integer"):
            quantized_gaussian_joint(0.5, levels)

    def test_accepts_numpy_integer_levels(self):
        j = quantized_gaussian_joint(0.5, np.int64(5))
        assert np.array_equal(j.probs, quantized_gaussian_joint(0.5, 5).probs)

    @staticmethod
    def per_level_reference(rho, levels):
        """The quantizer before it used the joint's symmetry: one quadrature
        per x-cell, linear nodes across the whole tail cell, and cdf
        differences that cancel to 0 in the tails."""
        from numpy.polynomial.legendre import leggauss

        centers = np.linspace(-4.0, 4.0, levels)
        mids = 0.5 * (centers[:-1] + centers[1:])
        edges = np.concatenate([[-12.0], mids, [12.0]])
        nodes, weights = leggauss(40)
        s = float(np.sqrt(1.0 - rho * rho))
        mass = np.empty((levels, levels))
        for i in range(levels):
            a, b = edges[i], edges[i + 1]
            t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            w = 0.5 * (b - a) * weights * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
            cdf = _normal_cdf((edges[:, None] - rho * t[None, :]) / s)
            mass[i] = ((cdf[1:] - cdf[:-1]) * w[None, :]).sum(axis=1)
        mass /= mass.sum()
        return JointDistribution(mass)

    @pytest.mark.parametrize("levels", [2, 3, 5, 9, 17, 21, 33, 65])
    def test_bitwise_symmetric(self, levels):
        # Exchangeable and centrally symmetric, bit for bit, so both s*
        # directions are one problem (bounds._both_directions).
        for rho in (-0.95, -0.5, 0.0, 0.05, 0.5, 0.95):
            p = quantized_gaussian_joint(rho, levels).probs
            assert np.array_equal(p.view(np.uint64), p.T.view(np.uint64)), rho
            assert np.array_equal(p.view(np.uint64), p[::-1, ::-1].view(np.uint64)), rho

    def test_matches_the_40_digit_reference(self):
        """Every cell against tests/data/gaussian_reference.json, exact
        rectangle masses to 40 digits; regenerate it (mpmath) with

            python tests/data/gaussian_reference.py
        """
        table = json.loads((Path(__file__).parent / "data" / "gaussian_reference.json").read_text())
        assert len(table["cases"]) == 16
        for case in table["cases"]:
            levels = case["levels"]
            ref = np.array([float(v) for v in case["probs"]]).reshape(levels, levels)
            got = quantized_gaussian_joint(case["rho"], levels).probs
            where = (case["rho"], levels)
            assert np.all(got > 0.0), where
            large = ref > 1e-30
            assert np.all(np.abs(got - ref)[large] <= 1e-12 * ref[large]), where
            # Cells down to 1e-127 keep their leading digits as well.
            assert np.all(np.abs(got - ref)[~large] <= 1e-10 * ref[~large]), where

    @pytest.mark.parametrize("levels", [2, 3, 9, 17, 33, 65])
    def test_agrees_with_the_per_level_quadrature(self, levels):
        # Where both are accurate: cells above 1e-4 at |rho| <= 0.5, away
        # from the tails' cancellation and the tail cells' steep ends.
        for rho in (-0.5, -0.05, 0.05, 0.5):
            got = quantized_gaussian_joint(rho, levels).probs
            old = self.per_level_reference(rho, levels).probs
            big = old > 1e-4
            np.testing.assert_allclose(got[big], old[big], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("levels", [2, 3, 9, 17, 33, 65])
    def test_erfc_count_follows_the_symmetry_orbits(self, monkeypatch, levels):
        # Row i of the fundamental domain needs the cdf at edges i .. L - i.
        counted = []
        monkeypatch.setattr(gaussian, "_normal_cdf", lambda x: counted.append(x.size) or _normal_cdf(x))
        quantized_gaussian_joint(0.5, levels)
        want = sum(levels + 1 - 2 * i for i in range((levels + 1) // 2)) * 40
        assert sum(counted) == want
        assert want == {2: 120, 3: 240, 9: 1200, 17: 3600, 33: 12240, 65: 44880}[levels]

    def test_peak_memory_stays_small(self):
        # One row of the fundamental domain at a time: a fully vectorized
        # quantizer raised the tracemalloc peak at 33 levels from 97 KB to
        # 2.4 MB.  Within 2x of the per-level loop's 96 KB.
        quantized_gaussian_joint(0.5, 33)
        tracemalloc.start()
        try:
            quantized_gaussian_joint(0.5, 33)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 96 * 1024


def test_normal_cdf_is_erfc_entry_by_entry():
    # Bit for bit 1/2 erfc(-x / sqrt 2) per entry, shape kept, tails too.
    x = np.concatenate([np.linspace(-40.0, 40.0, 161), [0.0, -0.0, 1e-300, -38.5]])
    x = np.random.default_rng(4).permutation(x).reshape(5, 33)
    want = np.array([[0.5 * math.erfc(-v / math.sqrt(2.0)) for v in row] for row in x.tolist()])
    got = _normal_cdf(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, float("nan"), float("inf")])
def test_every_entry_point_rejects_rho_alike(rho):
    calls = [
        lambda: GaussianParams(rho, 0.5, 0.5),
        lambda: gaussian_rho_star(rho),
        lambda: quantized_gaussian_joint(rho, 5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"need \|rho\| < 1"):
            call()
