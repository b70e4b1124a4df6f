"""Tests for the two-variable Dirac-type construction."""

import numpy as np
import pytest

from pseudoexp import linalg
from pseudoexp.dirac import (
    SIGMA2,
    build_dirac,
    build_two_channel,
    default_grid,
    evaluator,
    potential,
    random_scenario,
    verify_scenario,
    wave,
)
from pseudoexp.errors import ConstructionError
from pseudoexp.verify import Axis, Grid


@pytest.fixture
def frozen():
    """Two channels of size one, d = (1, 2), g1 = [1, 1], C = I, S0 = I.

    S(t, y) = diag(1 - e^{2(t+y)}, 1 + e^{4(t-y)}/2) degenerates exactly on
    the line t + y = 0.
    """
    return build_two_channel(np.array([[1.0, 1.0]]), 1, [1.0, 2.0])


class TestTwoChannelBuilder:
    def test_frozen_r(self, frozen):
        want = np.diag([-1.0, 0.5]).astype(complex)
        assert linalg.fro(frozen.node.r_mat - want) <= 1e-12

    def test_frozen_chat(self, frozen):
        want = np.array([[1.0, 1j], [1.0, -1j]], dtype=complex)
        assert linalg.fro(frozen.node.chat - want) <= 1e-12

    def test_identity_right_hand_sides(self, frozen):
        rhs_1 = frozen.node.identity_rhs(0)
        rhs_2 = frozen.node.identity_rhs(1)
        assert linalg.fro(rhs_1 - np.diag([-2.0, 2.0])) <= 1e-12
        assert linalg.fro(rhs_2 - np.diag([-2.0, -2.0])) <= 1e-12

    def test_node_validates(self, frozen):
        assert frozen.node.validate().passed

    def test_bare_operator_annihilates_transposed_solution(self, frozen):
        # d/dt Pi* + sigma2 d/dy Pi* = 0 by the kernel constraints
        fam = frozen.family
        for pt in [(0.3, 0.4), (-0.7, 0.2), (1.0, -0.5)]:
            res = linalg.adjoint(fam.pi(pt, (0,))) + SIGMA2 @ linalg.adjoint(fam.pi(pt, (1,)))
            scale = 1.0 + linalg.fro(fam.pi(pt))
            assert linalg.fro(res) <= 1e-12 * scale

    def test_explicit_s(self, frozen):
        for t, y in [(0.2, 0.3), (-0.5, 0.1)]:
            s = frozen.family.s((t, y))
            want = np.diag(
                [1.0 - np.exp(2 * (t + y)), 1.0 + 0.5 * np.exp(4 * (t - y))]
            ).astype(complex)
            assert linalg.fro(s - want) <= 1e-12 * (1.0 + linalg.fro(want))

    def test_degenerate_channel_spectrum_rejected(self):
        # a purely imaginary diagonal entry makes the channel equation
        # inconsistent (zero times r must equal a nonzero right side)
        with pytest.raises(ConstructionError, match="unsolvable"):
            build_two_channel(np.array([[1.0, 1.0]]), 1, [1j, 2.0])

    def test_bad_split_rejected(self):
        with pytest.raises(ConstructionError, match="channel"):
            build_two_channel(np.array([[1.0, 1.0]]), 2, [1.0, 2.0])

    def test_row_shape_enforced(self):
        with pytest.raises(ConstructionError, match="row"):
            build_two_channel(np.eye(2, dtype=complex), 1, [1.0, 2.0])


class TestBuildDirac:
    def test_kernel_constraint_violation_rejected(self):
        # arbitrary chat columns do not satisfy the kernel constraints
        a1 = np.diag([1.0, 2.0]).astype(complex)
        a2 = np.diag([1.0, -2.0]).astype(complex)
        chat = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ConstructionError, match="kernel"):
            build_dirac(a1, a2, chat)

    def test_user_supplied_r_validated(self, frozen):
        node = frozen.node
        bad_r = node.r_mat + np.diag([0.1, 0.0])
        with pytest.raises(ConstructionError):
            build_dirac(node.a_mats[0], node.a_mats[1], node.chat, r=bad_r)

    def test_chat_width_enforced(self):
        a = np.eye(2, dtype=complex)
        with pytest.raises(ConstructionError, match="two columns"):
            build_dirac(a, a, np.ones((2, 3), dtype=complex))


class TestFields:
    def test_potential_is_hermitian(self, frozen):
        v = potential(frozen, (0.4, 0.1))
        assert v is not None
        assert np.array_equal(v, linalg.adjoint(v))

    def test_singular_line_masked(self, frozen):
        assert potential(frozen, (0.0, 0.0)) is None
        assert wave(frozen, (0.5, -0.5)) is None
        assert potential(frozen, (0.5, -0.4)) is not None

    def test_zero_g1_gives_zero_potential(self):
        sc = build_two_channel(np.zeros((1, 2)), 1, [1.0, 2.0])
        for pt in [(0.0, 0.0), (0.3, -0.2)]:
            v = potential(sc, pt)
            assert np.array_equal(v, np.zeros((2, 2), dtype=complex))

    def test_wave_shape(self, frozen):
        w = wave(frozen, (0.2, 0.3))
        assert w.shape == (2, 2)


class TestResiduals:
    def test_frozen_scenario_sweep(self, frozen):
        grid = Grid((Axis("t", -1.0, 1.0, 21), Axis("y", -1.0, 1.0, 21)))
        rep = verify_scenario(frozen, grid=grid)
        assert rep.masked_count == 21  # the whole line t + y = 0
        assert rep.passed, rep.to_dict()
        assert rep.channels[0].max_relative <= 1e-9

    def test_analytic_residual_small_off_line(self, frozen):
        ev = evaluator(frozen, with_fd=False)
        channels, scale = ev((0.35, 0.15))
        assert channels["wave_analytic"] <= 1e-9 * (1.0 + scale)

    def test_fd_residual_tracks_analytic(self, frozen):
        ev = evaluator(frozen, with_fd=True)
        channels, scale = ev((0.35, 0.15))
        assert channels["wave_fd"] <= 1e-6 * (1.0 + scale)

    def test_potential_continuous_off_singular_line(self, frozen):
        # No jumps: refining the sampling step 10x shrinks the largest
        # successive difference of V by roughly the same factor.
        def max_step(h):
            ys = 0.3 + h * np.arange(50)
            vals = [potential(frozen, (0.4, y)) for y in ys]
            assert all(v is not None for v in vals)
            return max(
                linalg.fro(b - a) for a, b in zip(vals, vals[1:])
            )

        coarse = max_step(2e-3)
        fine = max_step(2e-4)
        assert fine <= 0.2 * coarse + 1e-12

    def test_random_scenarios_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            sc = random_scenario(rng)
            rep = verify_scenario(sc, grid=default_grid(count=5))
            assert rep.masked_count == 0
            assert rep.passed, rep.to_dict()


class TestRandomScenario:
    def test_r_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sc = random_scenario(rng)
            eigs = np.linalg.eigvalsh((sc.node.r_mat + linalg.adjoint(sc.node.r_mat)) / 2)
            assert eigs.min() >= -1e-12

    def test_s_positive_on_grid(self):
        rng = np.random.default_rng(13)
        sc = random_scenario(rng)
        for pt in default_grid(count=5).points():
            s = sc.family.s(pt)
            assert np.linalg.eigvalsh(s).min() > 0.0
