"""Tests for the finite-difference engine and residual reports."""

import json

import numpy as np
import pytest

from pseudoexp.verify import (
    Axis,
    Grid,
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

    def test_stacked_points_keep_grid_order(self):
        g = Grid((Axis("a", 0.0, 1.0, 2), Axis("b", 0.0, 2.0, 3), Axis("c", -1.0, 1.0, 4)))
        stacked = g.stacked()
        assert stacked.shape == (24, 3)
        assert [tuple(p) for p in stacked] == g.points()
        np.testing.assert_allclose(stacked[1], [0.0, 0.0, -1.0 / 3.0])

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError):
            Grid((Axis("x", 0.0, 1.0, 2), Axis("x", 0.0, 1.0, 2)))


def everywhere(points):
    return np.ones(len(points), dtype=bool)


def times_m(scalar):
    """Function of stacked points: scalar(points) * M at each point, with
    no point masked."""
    return lambda points: (scalar(points)[:, None, None] * M, everywhere(points))


def at(*points):
    return np.array(points, dtype=float)


class TestFdPartial:
    def test_constant_function(self):
        f = times_m(lambda p: np.ones(len(p)))
        for order in (1, 2):
            for acc in (2, 4):
                (got,), ok = fd_partial(f, at((0.3,)), 0, (order,), h=1e-2, accuracy=acc)
                assert ok.all()
                assert np.max(np.abs(got)) <= 1e-10

    def test_quadratic_second_derivative(self):
        # x^2 M at x=1: second derivative 2M, order-4 stencil, h=1e-2
        f = times_m(lambda p: p[:, 0] ** 2)
        (got,), _ = fd_partial(f, at((1.0,)), 0, (2,), h=1e-2, accuracy=4)
        assert np.max(np.abs(got - 2 * M)) <= 1e-8

    def test_polynomial_exactness(self):
        # order-4 first-derivative stencil is exact on degree-4 polynomials
        f = times_m(lambda p: p[:, 0] ** 4)
        (got,), _ = fd_partial(f, at((0.7,)), 0, (1,), h=1e-2, accuracy=4)
        want = 4 * 0.7**3 * M
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_order2_accuracy2_first_derivative(self):
        f = times_m(lambda p: p[:, 0] ** 2)
        (got,), _ = fd_partial(f, at((1.5,)), 0, (1,), h=1e-3, accuracy=2)
        assert np.max(np.abs(got - 3.0 * M)) <= 1e-9

    def test_convergence_slope_is_four(self):
        # error of the order-4 stencil on e^{3x} M scales like h^4
        x0 = 0.3
        exact = 3.0 * np.exp(3.0 * x0) * M
        hs = [1e-1, 1e-2, 1e-3]
        errs = []
        for h in hs:
            (got,), _ = fd_partial(times_m(lambda p: np.exp(3.0 * p[:, 0])), at((x0,)), 0, (1,), h=h, accuracy=4)
            errs.append(np.max(np.abs(got - exact)))
        slope = np.polyfit(np.log10(hs), np.log10(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.3

    def test_variable_selection(self):
        f = times_m(lambda p: p[:, 0] + 10 * p[:, 1])
        (got,), _ = fd_partial(f, at((0.0, 0.0)), 1, (1,), h=1e-3)
        assert np.max(np.abs(got - 10 * M)) <= 1e-9

    def test_masking_contagion(self):
        def f(points):
            return points[:, 0, None, None] * M, np.abs(points[:, 0] - 0.01) >= 1e-12

        # stencil at 0.0 with h=1e-2 touches 0.01 -> masked; far away -> fine
        (got,), ok = fd_partial(f, at((0.0,), (0.5,)), 0, (1,), h=1e-2, accuracy=2)
        assert not ok[0]
        assert ok[1]
        assert np.max(np.abs(got[1] - M)) <= 1e-10

    def test_one_call_per_variable(self):
        shifts = []

        def f(points):
            shifts.append(points.copy())
            return times_m(lambda p: p[:, 0])(points)

        base = at((0.1, 1.0), (0.2, 2.0), (0.3, 3.0))
        fd_partial(f, base, 0, (1, 2), h=1e-2, accuracy=4)
        assert len(shifts) == 1
        stacked = shifts[0].reshape(5, len(base), 2)
        for shifted, offset in zip(stacked, (-2, -1, 0, 1, 2)):
            assert np.array_equal(shifted[:, 0], base[:, 0] + offset * 1e-2)
            assert np.array_equal(shifted[:, 1], base[:, 1])

    def test_orders_from_one_call_match_single_orders(self):
        f = times_m(lambda p: np.sin(p[:, 0]) * np.exp(p[:, 1]))
        base = at((0.1, 1.0), (0.2, -0.5), (-0.7, 0.3))
        for acc in (2, 4):
            (d1, d2), ok = fd_partial(f, base, 0, (1, 2), h=1e-2, accuracy=acc)
            (one,), ok_one = fd_partial(f, base, 0, (1,), h=1e-2, accuracy=acc)
            (two,), ok_two = fd_partial(f, base, 0, (2,), h=1e-2, accuracy=acc)
            assert np.array_equal(d1, one) and np.array_equal(d2, two)
            assert np.array_equal(ok, ok_one & ok_two)

    def test_tuple_field_matches_each_element(self):
        first = times_m(lambda p: p[:, 0] ** 3)
        second = times_m(lambda p: np.cos(p[:, 0]))

        def both(points):
            (a, ok), (b, _) = first(points), second(points)
            return (a, b), ok

        base = at((0.4,), (-1.1,))
        (d1, d2), ok = fd_partial(both, base, 0, (1, 2), h=1e-2)
        assert ok.all()
        for k, f in enumerate((first, second)):
            (one, two), _ = fd_partial(f, base, 0, (1, 2), h=1e-2)
            assert np.array_equal(d1[k], one) and np.array_equal(d2[k], two)

    def test_bad_stencil_request(self):
        f = times_m(lambda p: np.ones(len(p)))
        with pytest.raises(ValueError, match="stencil"):
            fd_partial(f, at((0.0,)), 0, (3,))
        with pytest.raises(ValueError, match="positive"):
            fd_partial(f, at((0.0,)), 0, (1,), h=0.0)


def _grid1d(count=5):
    return Grid((Axis("x", 0.0, 1.0, count),))


def const(residuals, scale, ok=True):
    """Evaluator with the same residuals, scale and mask at every point."""

    def evaluate(points):
        n = len(points)
        values = {name: np.full(n, value) for name, value in residuals.items()}
        return (values, np.full(n, scale)), np.full(n, ok)

    return evaluate


class TestSweep:
    def test_zero_residual_passes(self):
        rep = sweep(_grid1d(), const({"eq": 0.0}, 1.0), 1e-9)
        assert rep.passed
        assert rep.max_relative == 0.0
        assert rep.masked_count == 0
        assert rep.total_points == 5
        assert rep.channels[0].name == "eq"

    def test_constant_residual_fails(self):
        rep = sweep(_grid1d(), const({"eq": 1e-3}, 0.0), 1e-6)
        assert not rep.passed
        assert rep.channels[0].max_relative == pytest.approx(1e-3)

    def test_scale_denominator(self):
        rep = sweep(_grid1d(), const({"eq": 1.0}, 9.0), 0.2)
        # relative residual 1/(1+9) = 0.1 <= 0.2
        assert rep.field_scale == 9.0
        assert rep.channels[0].max_relative == pytest.approx(0.1)
        assert rep.passed

    def test_masked_points_counted_and_excluded(self):
        def ev(points):
            n = len(points)
            return ({"eq": np.zeros(n)}, np.ones(n)), points[:, 0] != 0.0

        rep = sweep(_grid1d(), ev, 1e-9)
        assert rep.masked_count == 1
        assert rep.masked_points() == [(0.0,)]
        assert rep.passed
        # the report keeps the sweep's columns in grid order
        np.testing.assert_array_equal(rep.points, _grid1d().stacked())
        assert rep.ok.tolist() == [False, True, True, True, True]

    def test_fully_masked_grid_fails(self):
        rep = sweep(_grid1d(), const({}, 0.0, ok=False), 1e-9)
        assert not rep.passed
        assert rep.masked_count == rep.total_points

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="points"):
            sweep(Grid(()), const({"eq": 0.0}, 1.0), 1e-9)

    def test_per_channel_tolerances(self):
        rep = sweep(
            _grid1d(),
            const({"tight": 1e-8, "loose": 1e-4}, 0.0),
            {"tight": 1e-6, "loose": 1e-3},
        )
        assert rep.passed
        rep2 = sweep(
            _grid1d(),
            const({"tight": 1e-5, "loose": 1e-4}, 0.0),
            {"tight": 1e-6, "loose": 1e-3},
        )
        assert not rep2.passed
        by_name = {c.name: c for c in rep2.channels}
        assert not by_name["tight"].passed
        assert by_name["loose"].passed

    def test_missing_channel_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            sweep(_grid1d(), const({"eq": 0.0}, 1.0), {"other": 1e-9})

    def test_mean_relative(self):
        def ev(points):
            return ({"eq": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}, 0.0), everywhere(points)

        rep = sweep(_grid1d(), ev, 10.0)
        assert rep.channels[0].mean_relative == pytest.approx(3.0)
        assert rep.channels[0].max_absolute == 5.0
        assert rep.residuals["eq"].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert rep.scales.tolist() == [0.0] * 5

    def test_non_finite_residual_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sweep(_grid1d(), const({"eq": float("nan")}, 1.0), 1e-9)

    def test_non_finite_residual_at_unmasked_point_rejected(self):
        # A masked (singular) point may carry any value; an overflow at a
        # point that is not masked is an error, not a mask.
        def ev(points):
            eq = np.zeros(len(points))
            eq[0] = np.nan
            eq[3] = np.inf
            return ({"eq": eq}, 1.0), points[:, 0] != 0.0

        with pytest.raises(ValueError, match=r"finite residual in channel 'eq' at \(0\.75,\)"):
            sweep(_grid1d(), ev, 1e-9)

        def masked_nan(points):
            eq = np.zeros(len(points))
            eq[0] = np.nan
            return ({"eq": eq}, 1.0), points[:, 0] != 0.0

        rep = sweep(_grid1d(), masked_nan, 1e-9)
        assert rep.passed and rep.masked_points() == [(0.0,)]

    def test_evaluates_each_point_once_in_grid_order(self):
        seen = []

        def ev(points):
            seen.append(points.copy())
            return const({"eq": 0.0}, 1.0)(points)

        g = Grid((Axis("x", 0.0, 1.0, 3), Axis("t", -1.0, 1.0, 4)))
        sweep(g, ev, 1e-9)
        assert len(seen) == 1
        assert [tuple(p) for p in seen[0]] == g.points()

    def test_report_json_serializable(self):
        rep = sweep(_grid1d(), const({"eq": 1e-12}, 2.0), 1e-9, meta={"family": "demo"})
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["passed"] is True
        assert parsed["family"] == "demo"
        assert parsed["total_points"] == 5
