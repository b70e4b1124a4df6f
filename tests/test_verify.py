"""Tests for the finite-difference engine and residual reports."""

import json

import numpy as np
import pytest

from pseudoexp.verify import (
    Axis,
    ChannelSummary,
    Grid,
    ResidualReport,
    fd_mixed,
    fd_partial,
    sweep,
)

M = np.array([[1.0, 2.0 - 1j], [0.5j, -3.0]], dtype=complex)


class TestAxisGrid:
    def test_axis_points(self):
        ax = Axis("x", -1.0, 1.0, 5)
        np.testing.assert_allclose(ax.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_single_point_axis(self):
        ax = Axis("t", 0.25, 0.25, 1)
        np.testing.assert_allclose(ax.points(), [0.25])

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            Axis("x", 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            Axis("x", 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            Axis("x", 0.0, float("inf"), 3)

    def test_grid_points_order(self):
        g = Grid((Axis("a", 0.0, 1.0, 2), Axis("b", 0.0, 2.0, 3)))
        assert g.size == 6
        pts = g.points()
        # last axis fastest
        assert pts[0] == (0.0, 0.0)
        assert pts[1] == (0.0, 1.0)
        assert pts[2] == (0.0, 2.0)
        assert pts[3] == (1.0, 0.0)

    def test_grid_spec_roundtrip(self):
        g = Grid((Axis("x", -1.0, 1.0, 21),))
        assert g.spec() == [{"name": "x", "min": -1.0, "max": 1.0, "count": 21}]

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError):
            Grid((Axis("x", 0.0, 1.0, 2), Axis("x", 0.0, 1.0, 2)))


class TestFdPartial:
    def test_constant_function(self):
        f = lambda p: M
        for order in (1, 2):
            for acc in (2, 4):
                got = fd_partial(f, (0.3,), 0, order=order, h=1e-2, accuracy=acc)
                assert np.max(np.abs(got)) <= 1e-10

    def test_quadratic_second_derivative(self):
        # x^2 M at x=1: second derivative 2M, order-4 stencil, h=1e-2
        f = lambda p: p[0] ** 2 * M
        got = fd_partial(f, (1.0,), 0, order=2, h=1e-2, accuracy=4)
        assert np.max(np.abs(got - 2 * M)) <= 1e-8

    def test_polynomial_exactness(self):
        # order-4 first-derivative stencil is exact on degree-4 polynomials
        f = lambda p: p[0] ** 4 * M
        got = fd_partial(f, (0.7,), 0, order=1, h=1e-2, accuracy=4)
        want = 4 * 0.7**3 * M
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_order2_accuracy2_first_derivative(self):
        f = lambda p: p[0] ** 2 * M
        got = fd_partial(f, (1.5,), 0, order=1, h=1e-3, accuracy=2)
        assert np.max(np.abs(got - 3.0 * M)) <= 1e-9

    def test_convergence_slope_is_four(self):
        # error of the order-4 stencil on e^{3x} M scales like h^4
        x0 = 0.3
        exact = 3.0 * np.exp(3.0 * x0) * M
        hs = [1e-1, 1e-2, 1e-3]
        errs = []
        for h in hs:
            got = fd_partial(lambda p: np.exp(3.0 * p[0]) * M, (x0,), 0, order=1, h=h, accuracy=4)
            errs.append(np.max(np.abs(got - exact)))
        slope = np.polyfit(np.log10(hs), np.log10(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.3

    def test_variable_selection(self):
        f = lambda p: (p[0] + 10 * p[1]) * M
        got = fd_partial(f, (0.0, 0.0), 1, order=1, h=1e-3)
        assert np.max(np.abs(got - 10 * M)) <= 1e-9

    def test_masking_contagion(self):
        def f(p):
            if abs(p[0] - 0.01) < 1e-12:
                return None
            return p[0] * M

        # stencil at 0.0 with h=1e-2 touches 0.01 -> masked
        assert fd_partial(f, (0.0,), 0, order=1, h=1e-2, accuracy=2) is None
        # far away -> fine
        got = fd_partial(f, (0.5,), 0, order=1, h=1e-2, accuracy=2)
        assert np.max(np.abs(got - M)) <= 1e-10

    def test_bad_stencil_request(self):
        with pytest.raises(ValueError, match="stencil"):
            fd_partial(lambda p: M, (0.0,), 0, order=3)
        with pytest.raises(ValueError, match="positive"):
            fd_partial(lambda p: M, (0.0,), 0, h=0.0)


class TestFdMixed:
    def test_mixed_partial(self):
        f = lambda p: np.sin(p[0]) * np.cos(p[1]) * M
        got = fd_mixed(f, (0.4, 0.8), 0, 1, h=1e-3, accuracy=4)
        want = np.cos(0.4) * (-np.sin(0.8)) * M
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_equal_vars_delegate_to_second_order(self):
        f = lambda p: p[0] ** 2 * M
        got = fd_mixed(f, (0.0, 0.0), 0, 0, h=1e-2, accuracy=4)
        assert np.max(np.abs(got - 2 * M)) <= 1e-8

    def test_mixed_masking(self):
        def f(p):
            if p[0] > 0.0005 and p[1] > 0.0005:
                return None
            return M

        assert fd_mixed(f, (0.0, 0.0), 0, 1, h=1e-3) is None


def _grid1d(count=5):
    return Grid((Axis("x", 0.0, 1.0, count),))


class TestSweep:
    def test_zero_residual_passes(self):
        rep = sweep(_grid1d(), lambda p: ({"eq": 0.0}, 1.0), 1e-9)
        assert rep.passed
        assert rep.max_relative == 0.0
        assert rep.masked_count == 0
        assert rep.total_points == 5
        assert rep.channels[0].name == "eq"

    def test_constant_residual_fails(self):
        rep = sweep(_grid1d(), lambda p: ({"eq": 1e-3}, 0.0), 1e-6)
        assert not rep.passed
        assert rep.channels[0].max_relative == pytest.approx(1e-3)

    def test_scale_denominator(self):
        rep = sweep(_grid1d(), lambda p: ({"eq": 1.0}, 9.0), 0.2)
        # relative residual 1/(1+9) = 0.1 <= 0.2
        assert rep.field_scale == 9.0
        assert rep.channels[0].max_relative == pytest.approx(0.1)
        assert rep.passed

    def test_masked_points_counted_and_excluded(self):
        def ev(p):
            if p[0] == 0.0:
                return None
            return {"eq": 0.0}, 1.0

        rep = sweep(_grid1d(), ev, 1e-9)
        assert rep.masked_count == 1
        assert rep.masked_points() == [(0.0,)]
        assert rep.passed

    def test_fully_masked_grid_fails(self):
        rep = sweep(_grid1d(), lambda p: None, 1e-9)
        assert not rep.passed
        assert rep.masked_count == rep.total_points

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="points"):
            sweep(Grid(()), lambda p: ({"eq": 0.0}, 1.0), 1e-9)

    def test_per_channel_tolerances(self):
        rep = sweep(
            _grid1d(),
            lambda p: ({"tight": 1e-8, "loose": 1e-4}, 0.0),
            {"tight": 1e-6, "loose": 1e-3},
        )
        assert rep.passed
        rep2 = sweep(
            _grid1d(),
            lambda p: ({"tight": 1e-5, "loose": 1e-4}, 0.0),
            {"tight": 1e-6, "loose": 1e-3},
        )
        assert not rep2.passed
        by_name = {c.name: c for c in rep2.channels}
        assert not by_name["tight"].passed
        assert by_name["loose"].passed

    def test_missing_channel_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            sweep(_grid1d(), lambda p: ({"eq": 0.0}, 1.0), {"other": 1e-9})

    def test_mean_relative(self):
        vals = iter([1.0, 2.0, 3.0, 4.0, 5.0])

        def ev(p):
            return {"eq": next(vals)}, 0.0

        rep = sweep(_grid1d(), ev, 10.0)
        assert rep.channels[0].mean_relative == pytest.approx(3.0)
        assert rep.channels[0].max_absolute == 5.0

    def test_non_finite_residual_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sweep(_grid1d(), lambda p: ({"eq": float("nan")}, 1.0), 1e-9)

    def test_evaluates_each_point_once_in_grid_order(self):
        seen = []

        def ev(p):
            seen.append(p)
            return {"eq": 0.0}, 1.0

        g = Grid((Axis("x", 0.0, 1.0, 3), Axis("t", -1.0, 1.0, 4)))
        sweep(g, ev, 1e-9)
        assert seen == g.points()

    def test_report_json_serializable(self):
        rep = sweep(_grid1d(), lambda p: ({"eq": 1e-12}, 2.0), 1e-9, meta={"family": "demo"})
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["passed"] is True
        assert parsed["family"] == "demo"
        assert parsed["total_points"] == 5

