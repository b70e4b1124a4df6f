"""Tests for the Schrodinger construction and its closed-form instances."""

import numpy as np
import pytest

from pseudoexp import linalg
from pseudoexp.errors import ConstructionError
from pseudoexp.schrodinger import (
    build_nonsingular_example,
    build_rational_example,
    build_schrodinger,
    build_singular_line_example,
    check_positivity,
    default_grid,
    evaluator,
    potential,
    random_scenario,
    verify_scenario,
    wave,
)
from pseudoexp.verify import Axis, Grid


def random_points(rng, count, half_width=1.0):
    return [tuple(rng.uniform(-half_width, half_width, 2)) for _ in range(count)]


class TestSingularLine:
    def test_frozen_potential_value(self):
        sc, _ = build_singular_line_example()
        q = potential(sc, (0.0, 0.0))
        assert q.shape == (1, 1)
        assert q[0, 0] == pytest.approx(32.0 / 9.0, rel=1e-12)
        assert q[0, 0].imag == 0.0

    def test_closed_form_match(self):
        rng = np.random.default_rng(21)
        sc, cf = build_singular_line_example(beta=0.7, r11=-0.4, im_r12=0.3, b=0.2 + 0.1j, d=1.5)
        checked = 0
        for pt in random_points(rng, 40):
            want_q = cf.potential(pt)
            want_w = cf.wave(pt)
            if want_q is None:
                continue
            got_q = potential(sc, pt)
            got_w = wave(sc, pt)
            scale = 1.0 + max(linalg.fro(want_q), linalg.fro(want_w))
            assert linalg.fro(got_q - want_q) <= 1e-9 * scale
            assert linalg.fro(got_w - want_w) <= 1e-9 * scale
            checked += 1
        assert checked >= 30

    def test_masked_on_line(self):
        sc, cf = build_singular_line_example()
        # det S = 3/4 + x + 2t vanishes at x = -3/4, t = 0
        bad = (-0.75, 0.0)
        assert potential(sc, bad) is None
        assert wave(sc, bad) is None
        assert cf.potential(bad) is None
        good = (0.25, 0.0)
        assert potential(sc, good) is not None

    def test_hypotheses_fail_on_imaginary_spectrum(self):
        sc, _ = build_singular_line_example()
        rng = np.random.default_rng(3)
        rep = check_positivity(sc, random_points(rng, 30))
        assert rep.spectrum_margin <= 1e-8
        assert not rep.hypotheses_met
        assert rep.min_s_eigenvalue < 0.0  # S is indefinite somewhere

    def test_beta_zero_rejected(self):
        with pytest.raises(ConstructionError, match="beta"):
            build_singular_line_example(beta=0.0)


class TestRational:
    def test_closed_form_match(self):
        rng = np.random.default_rng(22)
        for mu0 in (1.0, 0.6 + 0.4j, 1.3 - 0.2j):
            sc, cf = build_rational_example(mu0)
            for pt in random_points(rng, 25):
                want_q = cf.potential(pt)
                want_w = cf.wave(pt)
                got_q = potential(sc, pt)
                got_w = wave(sc, pt)
                scale = 1.0 + max(linalg.fro(want_q), linalg.fro(want_w))
                assert linalg.fro(got_q - want_q) <= 1e-9 * scale
                assert linalg.fro(got_w - want_w) <= 1e-9 * scale

    def test_nowhere_singular(self):
        sc, _ = build_rational_example(1.0)
        for pt in default_grid(count=7, half_width=1.5).points():
            assert sc.family.q(pt) is not None

    def test_positivity_hypotheses_met(self):
        sc, _ = build_rational_example(1.0)
        rng = np.random.default_rng(5)
        rep = check_positivity(sc, random_points(rng, 50))
        assert rep.hypotheses_met
        assert rep.positive
        assert rep.r_min_eigenvalue > 0.0

    def test_negative_real_part_rejected(self):
        with pytest.raises(ConstructionError, match="positive real part"):
            build_rational_example(-1.0)


class TestNonsingular:
    def test_closed_form_match(self):
        rng = np.random.default_rng(23)
        for mu0, d in ((1.0, 1.0), (0.8 + 0.3j, 0.5), (1.2, 2.0)):
            sc, cf = build_nonsingular_example(mu0, d)
            for pt in random_points(rng, 25):
                want_q = cf.potential(pt)
                want_w = cf.wave(pt)
                got_q = potential(sc, pt)
                got_w = wave(sc, pt)
                scale = 1.0 + max(linalg.fro(want_q), linalg.fro(want_w))
                assert linalg.fro(got_q - want_q) <= 1e-9 * scale
                assert linalg.fro(got_w - want_w) <= 1e-9 * scale

    def test_frozen_wave_at_origin(self):
        sc, _ = build_nonsingular_example(1.0, 1.0)
        w = wave(sc, (0.0, 0.0))
        assert w.shape == (1, 2)
        np.testing.assert_allclose(w, [[0.8, 0.8]], atol=1e-12)

    def test_positive_everywhere_sampled(self):
        sc, _ = build_nonsingular_example(1.0, 1.0)
        rng = np.random.default_rng(9)
        rep = check_positivity(sc, random_points(rng, 60, half_width=1.5))
        assert rep.positive
        assert rep.min_s_eigenvalue > 0.0

    def test_nonpositive_d_rejected(self):
        with pytest.raises(ConstructionError, match="d must be positive"):
            build_nonsingular_example(1.0, 0.0)


class TestResiduals:
    def test_singular_line_sweep(self):
        sc, _ = build_singular_line_example()
        grid = Grid((Axis("x", -1.0, 1.0, 9), Axis("t", -1.0, 1.0, 9)))
        rep = verify_scenario(sc, grid=grid)
        # grid step 0.25: x + 2t = -3/4 hits exactly four grid points
        assert rep.masked_count == 4
        assert rep.passed, rep.to_dict()

    def test_random_scenarios_pass(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            sc = random_scenario(rng)
            rep = verify_scenario(sc, grid=default_grid(count=5))
            assert rep.masked_count == 0
            assert rep.passed, rep.to_dict()

    def test_fd_channel_small(self):
        sc, _ = build_nonsingular_example(1.0, 1.0)
        ev = evaluator(sc)
        (channels, scale), ok = ev(np.array([(0.3, -0.2)]))
        assert ok[0]
        assert channels["wave_analytic"][0] <= 1e-9 * (1.0 + scale[0])
        assert channels["wave_fd"][0] <= 1e-6 * (1.0 + scale[0])


class TestPositivityChecker:
    def test_full_range_failure_detected(self):
        # A = I never spans from a single column
        a = np.eye(2, dtype=complex)
        chat = np.array([[1.0], [0.0]], dtype=complex)
        sc = build_schrodinger(a, chat)
        rng = np.random.default_rng(17)
        rep = check_positivity(sc, random_points(rng, 10))
        assert rep.spectrum_margin > 0
        assert not rep.full_range
        assert not rep.hypotheses_met

    def test_rank_deficient_c_detected(self):
        # C = [[1, 1], [1, 1]] has rank 1; every other hypothesis holds
        a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        chat = np.array([[0.0], [1.0]], dtype=complex)
        c = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        sc = build_schrodinger(a, chat, c=c)
        rng = np.random.default_rng(19)
        rep = check_positivity(sc, random_points(rng, 10))
        assert rep.spectrum_margin > 0
        assert rep.full_range
        assert rep.s0_psd
        assert not rep.rank_c_full
        assert not rep.hypotheses_met

    def test_random_scenarios_positive(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            sc = random_scenario(rng)
            rep = check_positivity(sc, random_points(rng, 40))
            assert rep.hypotheses_met
            assert rep.positive, rep


class TestUserSuppliedR:
    def test_inconsistent_r_rejected(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        chat = np.array([[0.0], [1.0]], dtype=complex)
        bad_r = np.array([[0.3, -0.25], [-0.25, 0.5]], dtype=complex)
        with pytest.raises(ConstructionError):
            build_schrodinger(a, chat, r=bad_r)

    def test_consistent_r_accepted(self):
        sc, _ = build_singular_line_example(r11=2.0, im_r12=-0.4)
        assert sc.node.validate().passed
