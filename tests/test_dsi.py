"""Davey-Stewartson I construction tests.

The nilpotent 2x2 instance has fully hand-checked closed forms: with unit
heads, C_k = I and S0 = I,

    S = [[1 - 2y, 0], [0, 1]],  a = 1/(1 - 2y),
    u = 2a,  q1 = -2a^2,  q2 = 2a^2,

constant in x and t, singular exactly on y = 1/2.
"""

import numpy as np
import pytest

from pseudoexp import dsi, linalg, verify
from pseudoexp.errors import ConstructionError


@pytest.fixture(scope="module")
def rational():
    return dsi.build_rational_dsi()


@pytest.fixture(scope="module")
def exponential():
    # m1 = m2 = 1, scalar nodes with positive real parts.
    return dsi.build_dsi(
        np.array([[0.6]]),
        np.array([[0.5 + 0.2j]]),
        np.array([[1.0]]),
        np.array([[0.9]]),
        np.array([[0.4]]),
        np.array([[0.3 - 0.1j]]),
    )


class TestBuild:
    def test_nilpotent_r_is_min_norm(self, rational):
        expected = np.array([[0.0, -0.5], [-0.5, 0.0]])
        assert np.allclose(rational.r1, expected, atol=1e-13)
        assert np.allclose(rational.r2, expected, atol=1e-13)

    def test_scalar_r_closed_form(self, exponential):
        # A R + R A* = -|chat|^2 gives R = -|chat|^2 / (2 Re A)
        assert abs(exponential.r1[0, 0] - (-0.16 / 1.2)) < 1e-14
        assert abs(exponential.r2[0, 0] - (-0.1 / 1.0)) < 1e-14

    def test_identity_validated_against_user_r(self, exponential):
        with pytest.raises(ConstructionError, match="identity fails"):
            dsi.build_dsi(
                exponential.a1,
                exponential.a2,
                exponential.c1,
                exponential.c2,
                exponential.chat1,
                exponential.chat2,
                r1=exponential.r1 + 0.01,
            )

    def test_unsolvable_identity_reported(self):
        # Purely imaginary scalar: A R + R A* = 0 cannot equal -|chat|^2.
        with pytest.raises(ConstructionError, match="unsolvable"):
            dsi.build_dsi(
                np.array([[1j]]),
                np.array([[0.5]]),
                None,
                None,
                np.array([[1.0]]),
                np.array([[1.0]]),
            )

    def test_shape_checks(self):
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ConstructionError, match="dimension"):
            dsi.build_dsi(nil, nil, None, None, np.ones((3, 1)), np.ones((2, 1)))
        with pytest.raises(ConstructionError, match="row count"):
            dsi.build_dsi(
                nil, nil, np.eye(2), np.eye(3, 2), np.ones((2, 1)), np.ones((2, 1))
            )

    def test_j_mat(self, rational):
        assert np.array_equal(rational.j_mat, np.diag([1.0 + 0j, -1.0]))


class TestRationalInstance:
    def test_s_matrix_closed_form(self, rational):
        for x, t, y in [(0.0, 0.0, -0.5), (0.3, -0.7, 0.2), (1.5, 2.0, -1.0)]:
            s = rational.family.s((x, t, y))
            expected = np.array([[1.0 - 2.0 * y, 0.0], [0.0, 1.0]])
            assert np.allclose(s, expected, atol=1e-14)

    def test_fields_closed_form(self, rational):
        for x, t, y in [(0.0, 0.0, -0.5), (0.4, 1.1, 0.75), (-2.0, 0.3, 1.25)]:
            a = 1.0 / (1.0 - 2.0 * y)
            u, q1, q2 = dsi.fields_uq(rational, (x, t, y))
            assert abs(u[0, 0] - 2.0 * a) < 1e-13 * (1 + abs(a))
            assert abs(q1[0, 0] + 2.0 * a * a) < 1e-13 * (1 + a * a)
            assert abs(q2[0, 0] - 2.0 * a * a) < 1e-13 * (1 + a * a)

    def test_fields_independent_of_x_and_t(self, rational):
        base = dsi.fields_uq(rational, (0.0, 0.0, -0.2))
        moved = dsi.fields_uq(rational, (0.9, -1.3, -0.2))
        for b, m in zip(base, moved):
            assert np.allclose(b, m, atol=1e-13)

    def test_singular_line_masked(self, rational):
        assert dsi.fields_uq(rational, (0.0, 0.0, 0.5)) is None
        assert dsi.fields_uq(rational, (2.0, -1.0, 0.5)) is None
        assert dsi.fields_uq(rational, (0.0, 0.0, 0.4)) is not None

    def test_sweep_masks_singular_row(self, rational):
        grid = verify.Grid(
            (
                verify.Axis("x", -0.5, 0.5, 2),
                verify.Axis("t", -0.5, 0.5, 2),
                verify.Axis("y", 0.0, 1.0, 3),
            )
        )
        report = dsi.verify_scenario(rational, grid=grid)
        # y = 0.5 is the middle axis value: 2*2 points masked.
        assert report.masked_count == 4
        assert report.passed

    def test_premises_exact(self, rational):
        res, scale = dsi.premise_residuals(rational, (0.3, -0.4, 0.1))
        assert res["premise_x"] <= 1e-13 * scale
        assert res["premise_t"] <= 1e-13 * scale


class TestFields:
    def test_u_shape(self):
        rng = np.random.default_rng(5)
        a1 = np.diag([0.5, 0.7]).astype(complex)
        a2 = np.array([[0.6]], dtype=complex)
        chat1 = 0.2 * rng.normal(size=(2, 2))  # m1 = 2
        chat2 = 0.2 * rng.normal(size=(1, 1))  # m2 = 1
        c1 = np.eye(2, dtype=complex)
        c2 = np.array([[1.0], [0.5]], dtype=complex)
        sc = dsi.build_dsi(a1, a2, c1, c2, chat1, chat2)
        u, q1, q2 = dsi.fields_uq(sc, (0.1, 0.2, 0.3))
        assert u.shape == (1, 2)
        assert q1.shape == (2, 2)
        assert q2.shape == (1, 1)

    def test_q1_q2_hermitian_bitwise(self, exponential):
        rng = np.random.default_rng(7)
        for _ in range(6):
            pt = tuple(rng.uniform(-0.8, 0.8, 3))
            _, q1, q2 = dsi.fields_uq(exponential, pt)
            assert np.array_equal(q1, q1.conj().T)
            assert np.array_equal(q2, q2.conj().T)

    def test_zero_chat1_kills_u_and_q1(self):
        sc = dsi.build_dsi(
            np.array([[0.6]]),
            np.array([[0.5]]),
            None,
            None,
            np.array([[0.0]]),
            np.array([[0.4]]),
        )
        for pt in [(0.0, 0.0, 0.0), (0.5, -0.3, 0.2)]:
            u, q1, q2 = dsi.fields_uq(sc, pt)
            assert np.array_equal(u, np.zeros((1, 1)))
            assert np.array_equal(q1, np.zeros((1, 1)))

        # q2 then depends on x - y only: FD residual of (q2)_x + (q2)_y.
        def q2_fn(points):
            (_, _, q2), ok = dsi.fields_uq(sc, points)
            return q2, ok

        pts = np.array([(0.2, 0.1, -0.3)])
        (q2x,), ok_x = verify.fd_partial(q2_fn, pts, 0, (1,))
        (q2y,), ok_y = verify.fd_partial(q2_fn, pts, 2, (1,))
        assert ok_x.all() and ok_y.all()
        scale = linalg.fro(q2_fn(pts)[0])
        assert (linalg.fro(q2x + q2y) <= 1e-8 * (1.0 + scale)).all()

    def test_zero_chat2_kills_u_and_q2(self):
        sc = dsi.build_dsi(
            np.array([[0.6]]),
            np.array([[0.5]]),
            None,
            None,
            np.array([[0.4]]),
            np.array([[0.0]]),
        )
        u, q1, q2 = dsi.fields_uq(sc, (0.3, -0.2, 0.7))
        assert np.array_equal(u, np.zeros((1, 1)))
        assert np.array_equal(q2, np.zeros((1, 1)))

    def test_scalar_composition_at_origin(self, exponential):
        sc = exponential
        s0 = sc.family.s((0.0, 0.0, 0.0))
        expected = (
            2.0
            * np.conj(sc.c2[0, 0] * sc.chat2[0, 0])
            * (sc.c1[0, 0] * sc.chat1[0, 0])
            / s0[0, 0]
        )
        u, _, _ = dsi.fields_uq(sc, (0.0, 0.0, 0.0))
        assert abs(u[0, 0] - expected) < 1e-13 * (1 + abs(expected))


class TestResiduals:
    def test_exponential_scenario_sweeps_clean(self, exponential):
        report = dsi.verify_scenario(exponential, grid=dsi.default_grid(count=3))
        assert report.passed, report.channels
        assert report.masked_count == 0

    def test_random_scenarios_pass(self):
        rng = np.random.default_rng(11)
        for _ in range(2):
            sc = dsi.random_scenario(rng)
            report = dsi.verify_scenario(sc, grid=dsi.default_grid(count=3))
            assert report.passed, [
                (c.name, c.max_relative) for c in report.channels
            ]
            assert report.masked_count == 0

    def test_premises_exact_random(self):
        rng = np.random.default_rng(13)
        sc = dsi.random_scenario(rng)
        for _ in range(5):
            pt = tuple(rng.uniform(-0.7, 0.7, 3))
            res, scale = dsi.premise_residuals(sc, pt)
            assert res["premise_x"] <= 1e-12 * scale
            assert res["premise_t"] <= 1e-12 * scale

    def test_rational_evolution_fd(self, rational):
        # Evolution and couplings for the rational fields, a stack of one point.
        evaluate = dsi.evaluator(rational)
        (channels, scale), ok = evaluate(np.array([(0.1, 0.2, -0.3)]))
        assert ok[0]
        for name in ("evolution_fd", "coupling1_fd", "coupling2_fd"):
            assert channels[name][0] <= 1e-6 * (1.0 + scale[0]), (name, channels[name])

    def test_default_grid_properties(self):
        grid = dsi.default_grid()
        assert [ax.name for ax in grid.axes] == ["x", "t", "y"]
        assert grid.size == 125


class TestRandomScenario:
    def test_s_positive_on_grid(self):
        rng = np.random.default_rng(17)
        sc = dsi.random_scenario(rng)
        for pt in dsi.default_grid(count=3, half_width=0.8).points():
            eig = np.linalg.eigvalsh(sc.family.s(pt))
            assert eig.min() > 0.0
