import io

import numpy as np
import pytest

from sdpibounds import (
    FigureRow,
    GaussianParams,
    JointDistribution,
    beta,
    contour_rx,
    contour_ry,
    cooperative_bound,
    default_figure_grid,
    exact_sum_rate,
    figure_data,
    gaussian_rho_star,
    linearized_bounds,
    marginals,
    maximal_correlation,
    quantized_gaussian_joint,
    rows_to_csv,
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

    def test_contour_symmetry(self):
        p = GaussianParams(0.6, 0.3, 0.3)
        assert contour_rx(p, 0.7) == pytest.approx(contour_ry(p, 0.7), rel=1e-12)

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
        np.testing.assert_allclose(j.probs, j.probs.T, atol=1e-12)
        px, py = marginals(j)
        np.testing.assert_allclose(px.probs, px.probs[::-1], atol=1e-12)
        np.testing.assert_allclose(px.probs, py.probs, atol=1e-12)

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
