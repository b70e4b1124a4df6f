"""Tests for the Loewner-system construction."""

import numpy as np
import pytest

from pseudoexp import linalg, verify
from pseudoexp.errors import ConstructionError
from pseudoexp.loewner import (
    build_loewner,
    default_grid,
    eval_loewner,
    evaluator,
    random_scenario,
    selector_matrix,
    spectrum_deviation,
    verify_scenario,
)


@pytest.fixture
def scalar_scenario():
    # m = 1, widths 1: everything scalar, L is the constant d1
    return build_loewner(
        [0.7],
        np.array([[0.3 + 0.2j]]),
        np.array([[-0.5]]),
        np.array([[1.0]]),
        np.array([[2.0]]),
        np.array([[1.5]]),
        np.array([[0.5]]),
    )


@pytest.fixture
def generic_scenario():
    return random_scenario(np.random.default_rng(100))


class TestSelectorMatrix:
    def test_block_structure(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        sel = selector_matrix(c)
        want = np.array(
            [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 4.0]], dtype=complex
        )
        assert np.array_equal(sel, want)

    def test_row_k_in_block_k(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        sel = selector_matrix(c)
        assert sel.shape == (3, 6)
        for k in range(3):
            np.testing.assert_array_equal(sel[k, 2 * k : 2 * k + 2], c[k])
            outside = np.delete(sel[k], slice(2 * k, 2 * k + 2))
            assert np.all(outside == 0)


class TestBuild:
    def test_kron_exponent_commutes_exactly(self, generic_scenario):
        breve, tilde = generic_scenario.lambda1.recipe.generators
        assert linalg.fro(breve @ tilde - tilde @ breve) <= 1e-13 * (
            1.0 + linalg.fro(breve) * linalg.fro(tilde)
        )

    def test_repeated_d_rejected(self):
        one = np.array([[1.0]], dtype=complex)
        with pytest.raises(ConstructionError, match="repeated"):
            build_loewner([0.5, 0.5], one, one, np.ones((2, 1)), np.ones((2, 1)),
                          np.ones((2, 2)), np.ones((2, 2)))

    def test_repeated_d_allowed_with_flag(self):
        one = np.array([[1.0]], dtype=complex)
        sc = build_loewner([0.5, 0.5], one, one, np.ones((2, 1)), np.ones((2, 1)),
                           np.ones((2, 2)), np.ones((2, 2)), allow_repeated=True)
        assert sc.m == 2

    def test_chat1_must_make_lambda1_square(self):
        one = np.array([[1.0]], dtype=complex)
        with pytest.raises(ConstructionError, match="square"):
            build_loewner([0.5], one, one, np.ones((1, 1)), np.ones((1, 1)),
                          np.ones((1, 2)), np.ones((1, 1)))

    def test_c_shape_enforced(self):
        one = np.array([[1.0]], dtype=complex)
        with pytest.raises(ConstructionError, match="c must be"):
            build_loewner([0.5], one, one, np.ones((2, 1)), np.ones((1, 1)),
                          np.ones((1, 1)), np.ones((1, 1)))


class TestEval:
    def test_scalar_coefficient_is_d1(self, scalar_scenario):
        for pt in [(0.0, 0.0), (0.4, -0.6), (1.0, 1.0)]:
            psi, ell = eval_loewner(scalar_scenario, pt)
            assert ell.shape == (1, 1)
            assert ell[0, 0] == pytest.approx(0.7, abs=1e-13)
            assert psi.shape == (1, 1)

    def test_origin_value(self, generic_scenario):
        sc = generic_scenario
        lam1_0 = sc.lambda1.c @ sc.lambda1.chat
        lam2_0 = sc.lambda2.c @ sc.lambda2.chat
        want = np.linalg.solve(lam1_0, lam2_0)
        psi, _ = eval_loewner(sc, (0.0, 0.0))
        assert linalg.fro(psi - want) <= 1e-10 * (1.0 + linalg.fro(want))

    def test_spectrum_matches_d(self, generic_scenario):
        rng = np.random.default_rng(50)
        for _ in range(10):
            pt = tuple(rng.uniform(-0.8, 0.8, 2))
            dev = spectrum_deviation(generic_scenario, pt)
            if dev is None:
                continue
            assert dev <= 1e-8

    def test_singular_lambda1_masked(self):
        # m=1, width 2, nilpotent A: Lambda_1 = -1/2 + x + y vanishes on a line
        nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        sc = build_loewner(
            [1.0],
            nil,
            np.array([[0.2]]),
            np.array([[1.0, 0.0]]),
            np.array([[1.0]]),
            np.array([[-0.5], [1.0]]),
            np.array([[1.0]]),
        )
        assert eval_loewner(sc, (0.25, 0.25)) is None
        assert eval_loewner(sc, (0.5, 0.5)) is not None


class TestResiduals:
    def test_scalar_residual_roundoff(self, scalar_scenario):
        ev = evaluator(scalar_scenario, with_fd=False)
        (channels, scale), ok = ev(np.array([(0.3, -0.4)]))
        assert ok[0]
        assert channels["system_analytic"][0] <= 1e-12 * (1.0 + scale[0])

    def test_premise_identity_roundoff(self, generic_scenario):
        ev = evaluator(generic_scenario, with_fd=False)
        rng = np.random.default_rng(51)
        for _ in range(5):
            pt = tuple(rng.uniform(-0.8, 0.8, 2))
            (channels, scale), ok = ev(np.array([pt]))
            if not ok[0]:
                continue
            assert channels["premise_1"][0] <= 1e-11 * (1.0 + scale[0])
            assert channels["premise_2"][0] <= 1e-11 * (1.0 + scale[0])

    def test_random_scenarios_sweep(self):
        rng = np.random.default_rng(60)
        for _ in range(3):
            sc = random_scenario(rng)
            rep = verify_scenario(sc, grid=default_grid(count=5))
            assert rep.passed, rep.to_dict()
            assert rep.masked_count == 0

    def test_fd_channel(self, generic_scenario):
        ev = evaluator(generic_scenario, with_fd=True)
        (channels, scale), ok = ev(np.array([(0.21, -0.35)]))
        assert ok[0]
        assert channels["system_fd"][0] <= 1e-6 * (1.0 + scale[0])

    def test_fd_stencils_solve_only_for_psi(self, generic_scenario, monkeypatch):
        solve, calls = linalg.solve_pivoted, []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(linalg, "solve_pivoted", counting)
        pts = np.array([(0.21, -0.35), (0.1, 0.3), (-0.4, 0.05)])
        _, ok = evaluator(generic_scenario, with_fd=False)(pts)
        assert ok.all()
        # Psi and L share one batched solve, Psi_x and Psi_y another
        assert len(calls) == 2
        assert all(len(s) == len(pts) for s, _ in calls)
        calls.clear()
        (channels, _), ok = evaluator(generic_scenario, with_fd=True)(pts)
        assert ok.all()
        # plus one batched Psi solve per axis, on the four stencil offsets
        # of accuracy 4 stacked together
        assert len(calls) == 4
        assert [len(s) for s, _ in calls[2:]] == [4 * len(pts)] * 2
        monkeypatch.setattr(linalg, "solve_pivoted", solve)

        def psi(points):
            (psi, _), ok = eval_loewner(generic_scenario, points)
            return psi, ok

        (_, ell), _ = eval_loewner(generic_scenario, pts)
        (psi_x,), _ = verify.fd_partial(psi, pts, 0, (1,))
        (psi_y,), _ = verify.fd_partial(psi, pts, 1, (1,))
        fd = psi_x - ell @ psi_y
        assert np.array_equal(channels["system_fd"], linalg.fro(fd))


class TestRandomScenario:
    def test_well_conditioned_on_grid(self):
        sc = random_scenario(np.random.default_rng(70))
        lam1 = sc.lambda1.value(default_grid(count=5).stacked())
        for smin in np.linalg.svd(lam1, compute_uv=False)[:, -1]:
            assert smin >= 0.25

    def test_custom_shapes(self):
        sc = random_scenario(np.random.default_rng(71), m=3, width1=1, width2=2, n=2)
        assert sc.m == 3
        assert sc.n == 2
        psi, ell = eval_loewner(sc, (0.1, 0.1))
        assert psi.shape == (3, 2)
        assert ell.shape == (3, 3)

    def test_screened_on_the_verified_grid(self):
        # Draws from these seeds passed a screen on a coarser 5 x 5 grid but
        # fell below the singular-value floor between its points, and failed
        # the FD channel on the default grid.
        for s in (32, 48, 144, 179, 211, 223, 236):
            sc = random_scenario(np.random.default_rng(np.random.SeedSequence([s, 1])))
            lam1 = sc.lambda1.value(default_grid().stacked())
            smin = np.linalg.svd(lam1, compute_uv=False)[:, -1].min()
            assert smin >= 0.25, s
            assert verify_scenario(sc).passed, s
