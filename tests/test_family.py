"""Tests for the C exp(M) chat evaluation engine."""

import numpy as np
import pytest

from pseudoexp import linalg
from pseudoexp.family import (
    ExponentRecipe,
    PiBlock,
    PseudoExpFamily,
    SRule,
    STerm,
)

I1 = np.eye(1, dtype=complex)


def schrodinger_recipe(a):
    """Exponent x*A - i*t*A^2 in variables (x, t)."""
    a = np.asarray(a, dtype=complex)
    return ExponentRecipe([a, -1j * (a @ a)])


def schrodinger_family(a, c, chat, s0, r):
    recipe = schrodinger_recipe(a)
    blocks = [PiBlock(c, recipe, chat)]
    terms = [STerm(1.0, np.asarray(c, dtype=complex), recipe, r)]
    width = np.asarray(chat).shape[1]
    eye = np.eye(width, dtype=complex)
    rules = {
        0: [SRule(1.0, (), eye, ())],
        1: [SRule(-1j, (0,), eye, ()), SRule(1j, (), eye, (0,))],
    }
    return PseudoExpFamily(("x", "t"), blocks, terms, s0, rules)


@pytest.fixture
def rational_family():
    # One Jordan block with real eigenvalue 1, second column of the identity
    # as chat; the frozen R below satisfies A R + R A* = chat chat*.
    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    c = np.array([[1.0, 1.0]], dtype=complex)
    chat = np.array([[0.0], [1.0]], dtype=complex)
    r = np.array([[0.25, -0.25], [-0.25, 0.5]], dtype=complex)
    s0 = np.zeros((1, 1), dtype=complex)
    return schrodinger_family(a, c, chat, s0, r)


@pytest.fixture
def singular_line_family():
    # Jordan block with eigenvalue i; S is affine in x + 2t and degenerates
    # exactly on the line x + 2t = -3/4.
    a = np.array([[1j, 1.0], [0.0, 1j]], dtype=complex)
    c = np.eye(2, dtype=complex)
    chat = np.array([[1.0], [0.0]], dtype=complex)
    r = np.array([[1.0, 0.5], [0.5, 0.0]], dtype=complex)
    s0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    return schrodinger_family(a, c, chat, s0, r)


class TestExponentRecipe:
    def test_exponent_is_sum_of_generators(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        gens = [a, a @ a, -2j * a]
        rec = ExponentRecipe(gens)
        assert rec.nvars == 3 and rec.dim == 3
        pt = (0.7, -0.3, 1.25)
        want = sum(x * g for x, g in zip(pt, gens))
        np.testing.assert_allclose(rec.exponent(pt), want, rtol=1e-14, atol=1e-14)

    def test_pi_second_derivative_is_generator_product(self):
        a = np.array([[1j, 1.0], [0.0, 1j]], dtype=complex)
        rec = schrodinger_recipe(a)
        gx, gt = rec.generators
        c = np.array([[1.0, 2.0]], dtype=complex)
        chat = np.array([[0.5], [1.0]], dtype=complex)
        blk = PiBlock(c, rec, chat)
        pt = (0.3, -0.6)
        e = rec.exp_value(pt)
        for deriv, factor in (((0, 0), gx @ gx), ((0, 1), gx @ gt), ((1, 1), gt @ gt)):
            np.testing.assert_allclose(blk.value(pt, deriv), c @ factor @ e @ chat, rtol=1e-14)
        np.testing.assert_allclose(blk.value(pt, (1,)), c @ gt @ e @ chat, rtol=1e-14)

    def test_rejects_noncommuting(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="commute"):
            ExponentRecipe([a, b])

    def test_rejects_misshaped_generators(self):
        with pytest.raises(ValueError, match="square"):
            ExponentRecipe([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])
        with pytest.raises(ValueError, match="square"):
            ExponentRecipe([np.ones((2, 3), dtype=complex)])
        with pytest.raises(ValueError, match="generator"):
            ExponentRecipe([])

    def test_exp_value_matches_mat_exp(self):
        # exp(M) is the product of one exponential per variable, which
        # matches the exponential of the sum to roundoff.
        a = np.array([[1j, 1.0], [0.0, 1j]], dtype=complex)
        rec = schrodinger_recipe(a)
        pt = (0.4, 0.9)
        expect = linalg.mat_exp(rec.exponent(pt))
        assert linalg.fro(rec.exp_value(pt) - expect) <= 1e-13 * linalg.fro(expect)
        # a stack of points gives each point's value, bitwise
        stack = np.array([(0.4, 0.9), (-0.3, 0.9), (0.4, 0.2)])
        assert np.array_equal(rec.exp_value(stack)[0], rec.exp_value(pt))

    def test_one_exponential_per_coordinate_value(self, monkeypatch):
        rec = schrodinger_recipe(np.array([[1j, 1.0], [0.0, 1j]], dtype=complex))
        mat_exp, calls = linalg.mat_exp, []

        def counting(m):
            calls.append(m)
            return mat_exp(m)

        monkeypatch.setattr(linalg, "mat_exp", counting)
        grid = np.array([(x, t) for x in (0.1, 0.2, 0.3) for t in (-0.5, 0.5)])
        assert rec.exp_value(grid).shape == (6, 2, 2)
        assert len(calls) == 3 + 2


class TestPiBlock:
    def test_frozen_value_at_origin(self, rational_family):
        pi = rational_family.pi((0.0, 0.0))
        assert pi.shape == (1, 1)
        assert pi[0, 0] == pytest.approx(1.0)

    def test_explicit_polynomial_form(self, rational_family):
        # For this data Pi = e^{x - it} (1 + x - 2it).
        for x, t in [(0.3, -0.2), (-1.1, 0.7), (2.0, 1.0)]:
            want = np.exp(x - 1j * t) * (1.0 + x - 2j * t)
            got = rational_family.pi((x, t))[0, 0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_first_derivative_against_fd(self, rational_family):
        pt = (0.37, -0.21)
        h = 1e-6
        for var, step in ((0, (h, 0.0)), (1, (0.0, h))):
            up = rational_family.pi((pt[0] + step[0], pt[1] + step[1]))
            dn = rational_family.pi((pt[0] - step[0], pt[1] - step[1]))
            fd = (up - dn) / (2 * h)
            an = rational_family.pi(pt, (var,))
            assert linalg.fro(an - fd) <= 1e-7 * (1.0 + linalg.fro(an))

    def test_second_derivative_against_fd(self, rational_family):
        pt = (0.1, 0.2)
        h = 1e-4
        an = rational_family.pi(pt, (0, 0))
        up = rational_family.pi((pt[0] + h, pt[1]))
        mid = rational_family.pi(pt)
        dn = rational_family.pi((pt[0] - h, pt[1]))
        fd = (up - 2 * mid + dn) / h**2
        assert linalg.fro(an - fd) <= 1e-6 * (1.0 + linalg.fro(an))

    def test_mixed_partials_bitwise_equal(self, rational_family):
        pt = (0.5, -0.4)
        assert np.array_equal(
            rational_family.pi(pt, (0, 1)), rational_family.pi(pt, (1, 0))
        )

    def test_shape_validation(self):
        rec = schrodinger_recipe(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            PiBlock(np.eye(3, dtype=complex), rec, np.ones((2, 1), dtype=complex))

    def test_order_cap(self, rational_family):
        with pytest.raises(ValueError, match="order"):
            rational_family.pi((0.0, 0.0), (0, 0, 1))


class TestSTerm:
    def test_frozen_s_at_origin(self, rational_family):
        s = rational_family.s((0.0, 0.0))
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(0.25)

    def test_rejects_non_hermitian_r(self):
        rec = schrodinger_recipe(np.eye(2, dtype=complex))
        r = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            STerm(1.0, np.eye(2, dtype=complex), rec, r)

    def test_rejects_bad_sign(self):
        rec = schrodinger_recipe(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="sign"):
            STerm(2.0, np.eye(2, dtype=complex), rec, np.eye(2, dtype=complex))

    def test_negative_sign_flips_contribution(self):
        a = np.array([[1.0]], dtype=complex)
        rec = ExponentRecipe([a])
        c = np.eye(1, dtype=complex)
        r = np.eye(1, dtype=complex)
        plus = STerm(1.0, c, rec, r)
        minus = STerm(-1.0, c, rec, r)
        pt = (0.3,)
        assert np.array_equal(plus.value(pt), -minus.value(pt))

    def test_core_derivative_against_fd(self, singular_line_family):
        term = singular_line_family.s_terms[0]
        pt = (0.2, -0.1)
        h = 1e-6
        fd = (term.core((pt[0], pt[1] + h)) - term.core((pt[0], pt[1] - h))) / (2 * h)
        an = term.core(pt, (1,))
        assert linalg.fro(an - fd) <= 1e-7 * (1.0 + linalg.fro(an))


class TestSEvaluation:
    def test_explicit_affine_form(self, singular_line_family):
        # S = [[1 + x + 2t, 1/2], [1/2, 1]] for this data.
        for x, t in [(0.0, 0.0), (0.4, -0.3), (-1.0, 0.6)]:
            want = np.array([[1.0 + x + 2 * t, 0.5], [0.5, 1.0]], dtype=complex)
            got = singular_line_family.s((x, t))
            assert linalg.fro(got - want) <= 1e-12

    def test_s_is_bitwise_hermitian(self, singular_line_family, rational_family):
        for fam in (singular_line_family, rational_family):
            s = fam.s((0.31, -0.77))
            assert np.array_equal(s, linalg.adjoint(s))

    @pytest.mark.parametrize("deriv", [(0,), (1,), (0, 0), (0, 1), (1, 1)])
    def test_rules_match_brute_force(self, rational_family, singular_line_family, deriv):
        rng = np.random.default_rng(404)
        for fam in (rational_family, singular_line_family):
            for _ in range(5):
                pt = tuple(rng.uniform(-1.0, 1.0, size=2))
                via_rules = fam.s(pt, deriv)
                direct = fam.s_direct(pt, deriv)
                scale = 1.0 + linalg.fro(direct)
                assert linalg.fro(via_rules - direct) <= 1e-12 * scale

    def test_s_derivative_against_fd(self, singular_line_family):
        pt = (0.15, 0.25)
        h = 1e-6
        fd = (
            singular_line_family.s((pt[0] + h, pt[1]))
            - singular_line_family.s((pt[0] - h, pt[1]))
        ) / (2 * h)
        an = singular_line_family.s(pt, (0,))
        assert linalg.fro(an - fd) <= 1e-7 * (1.0 + linalg.fro(an))

    def test_missing_rule_rejected(self, rational_family):
        with pytest.raises(ValueError, match="rule"):
            PseudoExpFamily(
                ("x", "t"),
                rational_family.pi_blocks,
                rational_family.s_terms,
                rational_family.s0,
                {0: rational_family.s_rules[0]},
            )

    def test_generator_count_must_match_variables(self, rational_family):
        one = np.eye(1, dtype=complex)
        rec = ExponentRecipe([one])
        rules = {0: [SRule(1.0, (), one, ())], 1: [SRule(1.0, (), one, ())]}
        with pytest.raises(ValueError, match="1 generators for 2 variables"):
            PseudoExpFamily(("x", "t"), [PiBlock(one, rec, one)], [], one, rules)
        with pytest.raises(ValueError, match="2 generators for 1 variables"):
            PseudoExpFamily(
                ("x",),
                [PiBlock(one, rec, one)],
                [STerm(1.0, one, ExponentRecipe([one, one]), one)],
                one,
                {0: rules[0]},
            )

    def test_non_hermitian_s0_rejected(self, rational_family):
        with pytest.raises(ValueError, match="Hermitian"):
            PseudoExpFamily(
                ("x", "t"),
                rational_family.pi_blocks,
                rational_family.s_terms,
                np.array([[1j]]),
                rational_family.s_rules,
            )


class TestQuantities:
    def test_frozen_q_at_origin(self, rational_family):
        q = rational_family.q((0.0, 0.0))
        assert q.shape == (1, 1)
        assert q[0, 0] == pytest.approx(4.0)

    def test_frozen_w_at_origin(self, rational_family):
        w = rational_family.w((0.0, 0.0))
        assert w[0, 0] == pytest.approx(4.0)

    def test_frozen_potential_value(self, singular_line_family):
        # -2 dQ/dx at the origin equals -32/9 / -2 ... i.e. the potential
        # 2 d^2 / (3/4 + x + 2t)^2 evaluates to 32/9 there.
        qx = singular_line_family.q_deriv((0.0, 0.0), (0,))
        pot = -2.0 * qx[0, 0]
        assert pot == pytest.approx(32.0 / 9.0, rel=1e-12)

    def test_singular_points_masked(self, singular_line_family):
        bad = (-0.75, 0.0)
        assert singular_line_family.q(bad) is None
        assert singular_line_family.w(bad) is None
        assert singular_line_family.q_deriv(bad, (0,)) is None
        assert singular_line_family.w_deriv(bad, (0, 1)) is None
        good = (-0.75 + 0.5, 0.0)
        assert singular_line_family.q(good) is not None

    def test_q_is_bitwise_hermitian(self, singular_line_family):
        pt = (0.21, 0.13)
        for deriv in [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]:
            q = singular_line_family.q_deriv(pt, deriv)
            assert np.array_equal(q, linalg.adjoint(q))

    def test_q_deriv_against_fd(self, singular_line_family):
        pt = (0.12, -0.08)
        h = 1e-5

        def q_at(x, t):
            return singular_line_family.q((x, t))

        fd_x = (q_at(pt[0] + h, pt[1]) - q_at(pt[0] - h, pt[1])) / (2 * h)
        an_x = singular_line_family.q_deriv(pt, (0,))
        assert linalg.fro(an_x - fd_x) <= 1e-7 * (1.0 + linalg.fro(an_x))

        h2 = 1e-4
        fd_xx = (q_at(pt[0] + h2, pt[1]) - 2 * q_at(*pt) + q_at(pt[0] - h2, pt[1])) / h2**2
        an_xx = singular_line_family.q_deriv(pt, (0, 0))
        assert linalg.fro(an_xx - fd_xx) <= 1e-5 * (1.0 + linalg.fro(an_xx))

        fd_xt = (
            q_at(pt[0] + h2, pt[1] + h2)
            - q_at(pt[0] + h2, pt[1] - h2)
            - q_at(pt[0] - h2, pt[1] + h2)
            + q_at(pt[0] - h2, pt[1] - h2)
        ) / (4 * h2**2)
        an_xt = singular_line_family.q_deriv(pt, (0, 1))
        assert linalg.fro(an_xt - fd_xt) <= 1e-5 * (1.0 + linalg.fro(an_xt))

    def test_w_deriv_against_fd(self, rational_family):
        pt = (0.33, 0.18)
        h = 1e-5
        fd_t = (rational_family.w((pt[0], pt[1] + h)) - rational_family.w((pt[0], pt[1] - h))) / (2 * h)
        an_t = rational_family.w_deriv(pt, (1,))
        assert linalg.fro(an_t - fd_t) <= 1e-7 * (1.0 + linalg.fro(an_t))

        h2 = 1e-4
        fd_xx = (
            rational_family.w((pt[0] + h2, pt[1]))
            - 2 * rational_family.w(pt)
            + rational_family.w((pt[0] - h2, pt[1]))
        ) / h2**2
        an_xx = rational_family.w_deriv(pt, (0, 0))
        assert linalg.fro(an_xx - fd_xx) <= 1e-5 * (1.0 + linalg.fro(an_xx))

    def test_mixed_q_deriv_bitwise_equal(self, singular_line_family):
        pt = (0.4, 0.1)
        assert np.array_equal(
            singular_line_family.q_deriv(pt, (0, 1)),
            singular_line_family.q_deriv(pt, (1, 0)),
        )

    def test_zero_chat_gives_zero_q(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        fam = schrodinger_family(
            a,
            np.array([[1.0, 1.0]]),
            np.zeros((2, 1), dtype=complex),
            np.eye(1, dtype=complex),
            np.zeros((2, 2), dtype=complex),
        )
        q = fam.q((0.6, -0.2))
        assert np.array_equal(q, np.zeros((1, 1), dtype=complex))


class TestMultiBlock:
    def test_two_blocks_concatenate(self):
        a1 = np.array([[0.5]], dtype=complex)
        a2 = np.array([[-0.25]], dtype=complex)
        rec1 = ExponentRecipe([a1])
        rec2 = ExponentRecipe([a2])
        c = np.eye(1, dtype=complex)
        blocks = [PiBlock(c, rec1, c), PiBlock(c, rec2, c)]
        terms = [STerm(1.0, c, rec1, np.eye(1, dtype=complex))]
        eye2 = np.eye(2, dtype=complex)
        fam = PseudoExpFamily(
            ("x",),
            blocks,
            terms,
            np.eye(1, dtype=complex),
            {0: [SRule(1.0, (), eye2, ())]},
        )
        pt = (0.8,)
        pi = fam.pi(pt)
        assert pi.shape == (1, 2)
        assert pi[0, 0] == pytest.approx(np.exp(0.4))
        assert pi[0, 1] == pytest.approx(np.exp(-0.2))
        assert fam.width == 2

    def test_mismatched_block_rows_rejected(self):
        a = np.array([[0.5]], dtype=complex)
        rec = ExponentRecipe([a])
        one = np.eye(1, dtype=complex)
        two_rows = np.ones((2, 1), dtype=complex)
        with pytest.raises(ValueError, match="row count"):
            PseudoExpFamily(
                ("x",),
                [PiBlock(one, rec, one), PiBlock(two_rows, rec, one)],
                [STerm(1.0, one, rec, one)],
                one,
                {0: [SRule(1.0, (), one, ())]},
            )
