"""Tests for the C exp(M) chat evaluation engine."""

import dataclasses

import mpmath
import numpy as np
import pytest

from pseudoexp import dirac, dsi, linalg, schrodinger
from pseudoexp.family import (
    ExponentRecipe,
    PiBlock,
    PseudoExpFamily,
)

I1 = np.eye(1, dtype=complex)


def at(fam, point):
    """The family's view of a stack of one point."""
    return fam.at(np.array([point], dtype=float))


def schrodinger_recipe(a):
    """Exponent x*A - i*t*A^2 in variables (x, t)."""
    a = np.asarray(a, dtype=complex)
    return ExponentRecipe([a, -1j * (a @ a)])


def schrodinger_family(a, c, chat, s0, r):
    recipe = schrodinger_recipe(a)
    return PseudoExpFamily(("x", "t"), PiBlock(c, recipe, chat, r), s0)


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
        # exp(M) at a point is the exponential of M = sum_v vars[v] G_v.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        gens = [a, a @ a, -2j * a]
        rec = ExponentRecipe(gens)
        assert rec.nvars == 3 and rec.dim == 3
        pt = (0.7, -0.3, 1.25)
        want = linalg.mat_exp(sum(x * g for x, g in zip(pt, gens)))
        got = rec.exp_value(np.array([pt]))[0]
        assert linalg.fro(got - want) <= 1e-13 * linalg.fro(want)

    def test_pi_second_derivative_is_generator_product(self):
        a = np.array([[1j, 1.0], [0.0, 1j]], dtype=complex)
        rec = schrodinger_recipe(a)
        gx, gt = rec.generators
        c = np.array([[1.0, 2.0]], dtype=complex)
        chat = np.array([[0.5], [1.0]], dtype=complex)
        blk = PiBlock(c, rec, chat)
        pt = np.array([(0.3, -0.6)])
        e = rec.exp_value(pt)[0]
        for deriv, factor in (((0, 0), gx @ gx), ((0, 1), gx @ gt), ((1, 1), gt @ gt)):
            np.testing.assert_allclose(blk.value(pt)(deriv)[0], c @ factor @ e @ chat, rtol=1e-14)
        np.testing.assert_allclose(blk.value(pt)((1,))[0], c @ gt @ e @ chat, rtol=1e-14)

    def test_rejects_noncommuting(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="commute"):
            ExponentRecipe([a, b])

    def test_commutator_check_survives_huge_generators(self):
        # The products of these generators overflow unscaled: a commuting
        # pair still passes, a non-commuting one still fails, and neither
        # warns.
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        ExponentRecipe([1e200 * jordan, -1e300j * (jordan @ jordan)])
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="commute"):
            ExponentRecipe([1e200 * a, 1e300 * a.T])

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
        expect = linalg.mat_exp(sum(x * g for x, g in zip(pt, rec.generators)))
        assert linalg.fro(rec.exp_value(np.array([pt]))[0] - expect) <= 1e-13 * linalg.fro(expect)
        # a stack of points gives each point's value, bitwise
        stack = np.array([(0.4, 0.9), (-0.3, 0.9), (0.4, 0.2)])
        assert np.array_equal(rec.exp_value(stack)[0], rec.exp_value(stack[:1])[0])

    def test_one_exponential_per_generator(self, monkeypatch):
        # The Taylor terms of each generator are formed at construction, so
        # exp_value makes no mat_exp call, at construction or after.
        mat_exp, calls = linalg.mat_exp, []

        def counting(m):
            calls.append(m)
            return mat_exp(m)

        monkeypatch.setattr(linalg, "mat_exp", counting)
        rec = schrodinger_recipe(np.array([[1j, 1.0], [0.0, 1j]], dtype=complex))
        grid = np.array([(x, t) for x in (0.1, 0.2, 0.3) for t in (-0.5, 0.5)])
        got = rec.exp_value(grid)
        assert got.shape == (6, 2, 2)
        assert rec.exp_value(np.zeros((0, 2))).shape == (0, 2, 2)
        assert calls == []
        for point, e in zip(grid, got):
            want = mat_exp(sum(x * g for x, g in zip(point, rec.generators)))
            assert linalg.fro(e - want) <= 1e-13 * linalg.fro(want)

    def test_non_finite_exponent_rejected(self):
        # |x| ||G||_1 past the double range has no squaring count
        rec = ExponentRecipe([np.array([[2.0, 1.0], [0.0, 2.0]])])
        for x in (1e308, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                rec.exp_value(np.array([[0.5], [x]]))

    def test_exp_value_matches_mpmath(self):
        # 40-digit expm of x G as the reference, for dimensions 1 to 4, with
        # ||x G||_1 up to 75, which takes 8 squarings.
        rng = np.random.default_rng(41)
        values = np.array([-7.5, -2.0, -0.3, 0.0, 0.05, 1.0, 4.25, 7.5])
        for dim in range(1, 5):
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = h + linalg.adjoint(h)
            rotation = -1j * h / np.abs(h).sum(axis=0).max() * 10.0
            drift = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for g in (rotation, 0.5 * drift):
                rec = ExponentRecipe([g])
                norm = np.abs(g).sum(axis=0).max()
                if g is rotation:
                    assert np.ceil(np.log2(7.5 * norm / 0.5)) >= 8
                got = rec.exp_value(values[:, None])
                for x, e in zip(values, got):
                    want = mp_expm(x, g)
                    assert linalg.fro(e - want) <= 1e-13 * linalg.fro(want), (dim, x)

    def test_nilpotent_generators_match_mpmath(self):
        # DS I's rational instance: diag(N, N), the zero generator and
        # diag(N, -N), each with its exact finite sum.
        rec = dsi.build_rational_dsi().family.block.recipe
        values = np.array([-7.5, -0.75, 0.0, 0.3, 6.0])
        for v, g in enumerate(rec.generators):
            points = np.zeros((len(values), 3))
            points[:, v] = values
            for x, e in zip(values, rec.exp_value(points)):
                want = mp_expm(x, g)
                assert linalg.fro(e - want) <= 1e-13 * linalg.fro(want), (v, x)
                assert np.array_equal(e, np.eye(4) + x * g)

    def test_zero_gives_the_identity_exactly(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for rec in (ExponentRecipe([a, a @ a, 40.0 * a]), dsi.build_rational_dsi().family.block.recipe):
            # zeros of either sign, in a stack that also holds a nonzero value
            points = np.array([(0.0, 0.0, 0.0), (0.0, 0.5, 0.0), (-0.0, 0.0, -0.0)])
            got = rec.exp_value(points)
            assert np.array_equal(got[[0, 2]], np.broadcast_to(np.eye(rec.dim), (2, rec.dim, rec.dim)))


def mp_expm(x: float, g: np.ndarray) -> np.ndarray:
    """exp(x G) to 40 digits, rounded to complex128."""
    with mpmath.workdps(40):
        m = mpmath.matrix([[x * mpmath.mpc(z.real, z.imag) for z in row] for row in g])
        e = mpmath.expm(m)
        return np.array([[complex(e[i, j]) for j in range(e.cols)] for i in range(e.rows)])


class TestPiBlock:
    def test_frozen_value_at_origin(self, rational_family):
        pi = at(rational_family, (0.0, 0.0)).pi()[0]
        assert pi.shape == (1, 1)
        assert pi[0, 0] == pytest.approx(1.0)

    def test_explicit_polynomial_form(self, rational_family):
        # For this data Pi = e^{x - it} (1 + x - 2it).
        for x, t in [(0.3, -0.2), (-1.1, 0.7), (2.0, 1.0)]:
            want = np.exp(x - 1j * t) * (1.0 + x - 2j * t)
            got = at(rational_family, (x, t)).pi()[0, 0, 0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_first_derivative_against_fd(self, rational_family):
        pt = (0.37, -0.21)
        h = 1e-6
        for var, step in ((0, (h, 0.0)), (1, (0.0, h))):
            up = at(rational_family, (pt[0] + step[0], pt[1] + step[1])).pi()[0]
            dn = at(rational_family, (pt[0] - step[0], pt[1] - step[1])).pi()[0]
            fd = (up - dn) / (2 * h)
            an = at(rational_family, pt).pi((var,))[0]
            assert linalg.fro(an - fd) <= 1e-7 * (1.0 + linalg.fro(an))

    def test_second_derivative_against_fd(self, rational_family):
        pt = (0.1, 0.2)
        h = 1e-4
        an = at(rational_family, pt).pi((0, 0))[0]
        up = at(rational_family, (pt[0] + h, pt[1])).pi()[0]
        mid = at(rational_family, pt).pi()[0]
        dn = at(rational_family, (pt[0] - h, pt[1])).pi()[0]
        fd = (up - 2 * mid + dn) / h**2
        assert linalg.fro(an - fd) <= 1e-6 * (1.0 + linalg.fro(an))

    def test_mixed_partials_bitwise_equal(self, rational_family):
        pt = (0.5, -0.4)
        assert np.array_equal(
            at(rational_family, pt).pi((0, 1)), at(rational_family, pt).pi((1, 0))
        )

    def test_shape_validation(self):
        rec = schrodinger_recipe(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            PiBlock(np.eye(3, dtype=complex), rec, np.ones((2, 1), dtype=complex))

    def test_order_cap(self, rational_family):
        with pytest.raises(ValueError, match="order"):
            at(rational_family, (0.0, 0.0)).pi((0, 0, 1))


class TestSTerm:
    """The S term a block carries: C exp(M) R exp(M)* C*."""

    def test_frozen_s_at_origin(self, rational_family):
        s = rational_family.s((0.0, 0.0))
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(0.25)

    def test_rejects_non_hermitian_r(self):
        rec = schrodinger_recipe(np.eye(2, dtype=complex))
        r = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        chat = np.ones((2, 1), dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            PiBlock(np.eye(2, dtype=complex), rec, chat, r)

    def test_rejects_r_of_another_dimension(self):
        rec = schrodinger_recipe(np.eye(2, dtype=complex))
        chat = np.ones((2, 1), dtype=complex)
        # the shape is checked first: a 2 x 3 R has no Hermitian part to test
        for r in (np.eye(3, dtype=complex), np.ones((2, 3), dtype=complex)):
            with pytest.raises(ValueError, match="R must conform with the recipe dimension"):
                PiBlock(np.eye(2, dtype=complex), rec, chat, r)

    def test_negative_sign_flips_contribution(self):
        # A negated R gives the bitwise negated term, at every order.
        a = np.array([[1.0, 0.5], [0.0, -0.3]], dtype=complex)
        rec = ExponentRecipe([a, a @ a])
        c = np.array([[1.0, 2.0]], dtype=complex)
        r = np.array([[1.0, 0.2j], [-0.2j, 0.5]], dtype=complex)
        plus = PiBlock(c, rec, c.T, r)
        minus = PiBlock(c, rec, c.T, -r)
        ce = plus.ce(np.array([(0.3, -0.2), (-0.1, 0.4)]))
        for deriv in ((), (0,), (0, 1)):
            assert np.array_equal(plus.term(ce, deriv), -minus.term(ce, deriv))

    def test_core_derivative_against_fd(self, singular_line_family):
        # With C = I the term is the core exp(M) R exp(M)* itself.
        blk = singular_line_family.block
        assert np.array_equal(blk.c, np.eye(2))
        pt = (0.2, -0.1)
        h = 1e-6

        def core(point, deriv=()):
            return blk.term(blk.c @ blk.recipe.exp_value(np.array([point])), deriv)[0]

        fd = (core((pt[0], pt[1] + h)) - core((pt[0], pt[1] - h))) / (2 * h)
        an = core(pt, (1,))
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
        # The node identity's rules S_x = Pi Pi*, S_t = -i (Pi_x Pi* - Pi Pi_x*)
        # and their second orders by the product rule, over the view's Pi,
        # against S differentiated exactly.
        rng = np.random.default_rng(404)
        for fam in (rational_family, singular_line_family):
            for _ in range(5):
                pt = tuple(rng.uniform(-1.0, 1.0, size=2))
                pi = at(fam, pt).pi

                def pp(left, right):
                    return (pi(left) @ linalg.adjoint(pi(right)))[0]

                via_rules = {
                    (0,): pp((), ()),
                    (1,): -1j * (pp((0,), ()) - pp((), (0,))),
                    (0, 0): pp((0,), ()) + pp((), (0,)),
                    (0, 1): pp((1,), ()) + pp((), (1,)),
                    (1, 1): -1j * (pp((0, 1), ()) + pp((0,), (1,)) - pp((1,), (0,)) - pp((), (0, 1))),
                }[deriv]
                direct = fam.s(pt, deriv)
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

    def test_generator_count_must_match_variables(self, rational_family):
        one = np.eye(1, dtype=complex)
        rec = ExponentRecipe([one])
        with pytest.raises(ValueError, match="1 generators for 2 variables"):
            PseudoExpFamily(("x", "t"), PiBlock(one, rec, one, one), one)
        with pytest.raises(ValueError, match="2 generators for 1 variables"):
            PseudoExpFamily(("x",), PiBlock(one, ExponentRecipe([one, one]), one, one), one)

    def test_block_without_r_rejected(self, rational_family):
        blk = rational_family.block
        with pytest.raises(ValueError, match="needs its R"):
            PseudoExpFamily(("x", "t"), PiBlock(blk.c, blk.recipe, blk.chat), rational_family.s0)

    def test_non_hermitian_s0_rejected(self, rational_family):
        with pytest.raises(ValueError, match="Hermitian"):
            PseudoExpFamily(("x", "t"), rational_family.block, np.array([[1j]]))


class TestQuantities:
    def test_frozen_q_at_origin(self, rational_family):
        q = at(rational_family, (0.0, 0.0)).q()[0]
        assert q.shape == (1, 1)
        assert q[0, 0] == pytest.approx(4.0)

    def test_frozen_w_at_origin(self, rational_family):
        w = at(rational_family, (0.0, 0.0)).w()[0]
        assert w[0, 0] == pytest.approx(4.0)

    def test_frozen_potential_value(self, singular_line_family):
        # -2 dQ/dx at the origin equals -32/9 / -2 ... i.e. the potential
        # 2 d^2 / (3/4 + x + 2t)^2 evaluates to 32/9 there.
        qx = at(singular_line_family, (0.0, 0.0)).q((0,))[0]
        pot = -2.0 * qx[0, 0]
        assert pot == pytest.approx(32.0 / 9.0, rel=1e-12)

    def test_singular_points_masked(self, singular_line_family):
        bad = (-0.75, 0.0)
        view = at(singular_line_family, bad)
        assert not view.ok[0]
        # Masked values are zero, whichever quantity is asked for.
        for value in (view.q(), view.w(), view.q((0,)), view.w((0, 1))):
            assert not value[0].any()
        good = (-0.75 + 0.5, 0.0)
        assert at(singular_line_family, good).ok[0]

    def test_q_is_bitwise_hermitian(self, singular_line_family):
        pt = (0.21, 0.13)
        for deriv in [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]:
            q = at(singular_line_family, pt).q(deriv)[0]
            assert np.array_equal(q, linalg.adjoint(q))

    def test_q_deriv_against_fd(self, singular_line_family):
        pt = (0.12, -0.08)
        h = 1e-5

        def q_at(x, t):
            return at(singular_line_family, (x, t)).q()[0]

        fd_x = (q_at(pt[0] + h, pt[1]) - q_at(pt[0] - h, pt[1])) / (2 * h)
        an_x = at(singular_line_family, pt).q((0,))[0]
        assert linalg.fro(an_x - fd_x) <= 1e-7 * (1.0 + linalg.fro(an_x))

        h2 = 1e-4
        fd_xx = (q_at(pt[0] + h2, pt[1]) - 2 * q_at(*pt) + q_at(pt[0] - h2, pt[1])) / h2**2
        an_xx = at(singular_line_family, pt).q((0, 0))[0]
        assert linalg.fro(an_xx - fd_xx) <= 1e-5 * (1.0 + linalg.fro(an_xx))

        fd_xt = (
            q_at(pt[0] + h2, pt[1] + h2)
            - q_at(pt[0] + h2, pt[1] - h2)
            - q_at(pt[0] - h2, pt[1] + h2)
            + q_at(pt[0] - h2, pt[1] - h2)
        ) / (4 * h2**2)
        an_xt = at(singular_line_family, pt).q((0, 1))[0]
        assert linalg.fro(an_xt - fd_xt) <= 1e-5 * (1.0 + linalg.fro(an_xt))

    def test_w_deriv_against_fd(self, rational_family):
        pt = (0.33, 0.18)
        h = 1e-5

        def w_at(x, t):
            return at(rational_family, (x, t)).w()[0]

        fd_t = (w_at(pt[0], pt[1] + h) - w_at(pt[0], pt[1] - h)) / (2 * h)
        an_t = at(rational_family, pt).w((1,))[0]
        assert linalg.fro(an_t - fd_t) <= 1e-7 * (1.0 + linalg.fro(an_t))

        h2 = 1e-4
        fd_xx = (w_at(pt[0] + h2, pt[1]) - 2 * w_at(*pt) + w_at(pt[0] - h2, pt[1])) / h2**2
        an_xx = at(rational_family, pt).w((0, 0))[0]
        assert linalg.fro(an_xx - fd_xx) <= 1e-5 * (1.0 + linalg.fro(an_xx))

    def test_mixed_q_deriv_bitwise_equal(self, singular_line_family):
        pt = (0.4, 0.1)
        assert np.array_equal(
            at(singular_line_family, pt).q((0, 1)),
            at(singular_line_family, pt).q((1, 0)),
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
        q = at(fam, (0.6, -0.2)).q()[0]
        assert np.array_equal(q, np.zeros((1, 1), dtype=complex))


class TestMultiBlock:
    def test_two_blocks_concatenate(self):
        # Two nodes as one block-diagonal node: Pi is their concatenation.
        gen = np.diag([0.5, -0.25]).astype(complex)
        c = np.ones((1, 2), dtype=complex)
        eye2 = np.eye(2, dtype=complex)
        fam = PseudoExpFamily(
            ("x",),
            PiBlock(c, ExponentRecipe([gen]), eye2, eye2),
            np.eye(1, dtype=complex),
        )
        pt = (0.8,)
        pi = at(fam, pt).pi()[0]
        assert pi.shape == (1, 2)
        assert pi[0, 0] == pytest.approx(np.exp(0.4))
        assert pi[0, 1] == pytest.approx(np.exp(-0.2))
        assert fam.width == 2


class TestAnalyticChannelsSeeTheIdentity:
    """The analytic channels differentiate S exactly and assume no node
    identity, so a block whose chat or R breaks its identity, slipped past
    the build's check, fails them."""

    @pytest.mark.parametrize(
        "module, field",
        [(schrodinger, "chat"), (schrodinger, "r"), (dirac, "chat"), (dirac, "r"), (dsi, "chat"), (dsi, "r")],
        ids=lambda v: getattr(v, "__name__", v).rsplit(".", 1)[-1],
    )
    def test_analytic_channels_fail_off_the_identity(self, module, field):
        sc = module.random_scenario(np.random.default_rng(1))
        fam = sc.family
        block = dataclasses.replace(fam.block, **{field: getattr(fam.block, field) * (1 + 1e-6)})
        broken = dataclasses.replace(sc, family=PseudoExpFamily(fam.var_names, block, fam.s0))
        channels = module.verify_scenario(broken).channels
        analytic = [c for c in channels if c.name.endswith("_analytic")]
        assert analytic
        for c in analytic:
            assert not c.passed and c.max_relative > 1e2 * c.tolerance, (c.name, c.max_relative)
