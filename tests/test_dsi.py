"""Davey-Stewartson I construction tests.

The nilpotent 2x2 instance has fully hand-checked closed forms: with unit
heads, C_k = I and S0 = I,

    S = [[1 - 2y, 0], [0, 1]],  a = 1/(1 - 2y),
    u = 2a,  q1 = -2a^2,  q2 = 2a^2,

constant in x and t, singular exactly on y = 1/2.
"""

import dataclasses

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

    def test_one_block_diagonal_node_matches_the_two_node_forms(self, rational, exponential):
        # The two nodes are one node with R = diag(R1, -R2); its S and Pi are
        # the two-node forms S0 + C1 E1 R1 E1* C1* - C2 E2 R2 E2* C2* and
        # [C1 E1 chat1, C2 E2 chat2], each E_k the exponential of node k's
        # own exponent.
        adj = linalg.adjoint
        points = np.array([(0.2, -0.3, 0.4), (-0.5, 0.1, 0.6), (1.1, 0.7, -0.8)])
        for sc in (rational, exponential):
            k = sc.r1.shape[0]
            r = np.zeros((k + sc.r2.shape[0],) * 2, dtype=complex)
            r[:k, :k], r[k:, k:] = sc.r1, -sc.r2
            assert np.array_equal(sc.family.block.r, r)
            view = sc.family.at(points)
            for (x, t, y), s, pi in zip(points, view.s(), view.pi()):
                e1 = linalg.mat_exp((x + y) * sc.a1 - 1j * t * sc.a1 @ sc.a1)
                e2 = linalg.mat_exp((x - y) * sc.a2 + 1j * t * sc.a2 @ sc.a2)
                f1, f2 = sc.c1 @ e1, sc.c2 @ e2
                s_want = sc.s0 + f1 @ sc.r1 @ adj(f1) - f2 @ sc.r2 @ adj(f2)
                pi_want = np.hstack([f1 @ sc.chat1, f2 @ sc.chat2])
                assert linalg.fro(s - s_want) <= 1e-13 * linalg.fro(s_want)
                assert linalg.fro(pi - pi_want) <= 1e-13 * linalg.fro(pi_want)

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
        point = np.array([(0.3, -0.4, 0.1)])
        (channels, _), ok = dsi.evaluator(rational)(point)
        scale = 1.0 + linalg.fro(rational.family.at(point).pi())
        assert ok.all()
        assert (channels["premise_x"] <= 1e-13 * scale).all()
        assert (channels["premise_t"] <= 1e-13 * scale).all()


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
            return {"q2": q2}, ok

        pts = np.array([(0.2, 0.1, -0.3)])
        centre, _ = q2_fn(pts)
        (q2x, q2y), ok = verify.fd_partial(q2_fn, pts, [("q2", 0, 1), ("q2", 2, 1)], centre.__getitem__)
        assert ok.all()
        scale = linalg.fro(centre["q2"])
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
        points = np.array([rng.uniform(-0.7, 0.7, 3) for _ in range(5)])
        (channels, _), ok = dsi.evaluator(sc)(points)
        scale = 1.0 + linalg.fro(sc.family.at(points).pi())
        assert ok.all()
        assert (channels["premise_x"] <= 1e-12 * scale).all()
        assert (channels["premise_t"] <= 1e-12 * scale).all()

    def test_rational_evolution_fd(self, rational):
        # Evolution and couplings for the rational fields, a stack of one point.
        evaluate = dsi.evaluator(rational)
        (channels, scale), ok = evaluate(np.array([(0.1, 0.2, -0.3)]))
        assert ok[0]
        for name in ("evolution_fd", "coupling1_fd", "coupling2_fd"):
            assert channels[name][0] <= 1e-6 * (1.0 + scale[0]), (name, channels[name])

    def test_analytic_channels_catch_a_scaled_q1_the_fd_channels_pass(self):
        # q1 off by a relative 1e-6, in its value and derivatives alike:
        # the analytic channels see it against 1e-9, while the FD channels,
        # at their 1e-5 stencil tolerance, cannot.
        def scaled(sc, points):
            fields, ok = dsi.SPEC.sources(sc, points)
            q1 = fields["q1"]
            return {**fields, "q1": lambda deriv: (1.0 + 1e-6) * q1(deriv)}, ok

        spec = dataclasses.replace(dsi.SPEC, sources=scaled)
        sc = dsi.random_scenario(np.random.default_rng(0))
        assert dsi.verify_scenario(sc).passed
        channels = {c.name: c for c in spec.verify_function()(sc).channels}
        for name in ("evolution_analytic", "coupling1_analytic"):
            assert not channels[name].passed, name
            assert channels[name].max_relative > 2e-9, name
        for name in ("evolution_fd", "coupling1_fd", "coupling2_fd"):
            assert channels[name].passed, name

    def test_product_rule_is_first_order(self, exponential):
        fields, ok = dsi.SPEC.sources(exponential, np.array([(0.1, 0.2, -0.3)]))
        assert ok.all()
        with pytest.raises(ValueError, match="product rule"):
            fields["usu"]((0, 0))

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
