import warnings

import numpy as np
import pytest

from pseudoexp import linalg
from pseudoexp.errors import NoSolutionError


def random_complex(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(linalg.mat_exp(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        d = np.diag([1.0 + 0j, -2.0 + 0.5j])
        expected = np.diag(np.exp(np.diag(d)))
        np.testing.assert_allclose(linalg.mat_exp(d), expected, rtol=0, atol=1e-14 * np.e**1)

    def test_jordan_cell_closed_form(self):
        # exp([[mu,1],[0,mu]]) = e^mu * [[1,1],[0,1]]
        mu = 1j
        m = np.array([[mu, 1.0], [0.0, mu]])
        expected = np.exp(mu) * np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(linalg.mat_exp(m), expected, rtol=0, atol=1e-14)

    def test_nilpotent_exact_finite_sum(self):
        rng = np.random.default_rng(7)
        m = np.triu(random_complex(rng, 3, 3), k=1)
        # independent finite sum: I + M + M^2/2
        expected = np.eye(3) + m + m @ m / 2.0
        assert np.array_equal(linalg.mat_exp(m), expected)

    def test_nilpotent_not_triangular(self):
        m = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
        assert not m.any() is False  # sanity: nonzero
        assert np.array_equal(m @ m, np.zeros((2, 2)))
        assert np.array_equal(linalg.mat_exp(m), np.eye(2) + m)

    def test_nilpotent_path_agrees_with_general_path(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = np.triu(random_complex(rng, 4, 4), k=1)
            via_fast = linalg.mat_exp(m)
            # the degree-16 Taylor polynomial at m / 4, by Horner, squared twice
            via_scaling = np.eye(4)
            for k in range(16, 0, -1):
                via_scaling = np.eye(4) + (m / 4.0) @ via_scaling / k
            via_scaling = via_scaling @ via_scaling
            via_scaling = via_scaling @ via_scaling
            scale = linalg.fro(via_fast)
            assert linalg.fro(via_fast - via_scaling) <= 1e-14 * max(scale, 1.0)

    def test_commuting_exponents_multiply(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = random_complex(rng, 3, 3, scale=0.4)
            c1, c2, c3, c4 = random_complex(rng, 4)
            m1 = c1 * a + c2 * a @ a
            m2 = c3 * a + c4 * a @ a
            lhs = linalg.mat_exp(m1 + m2)
            rhs = linalg.mat_exp(m1) @ linalg.mat_exp(m2)
            scale = max(1.0, linalg.fro(lhs), linalg.fro(rhs))
            assert linalg.fro(lhs - rhs) <= 1e-9 * scale

    def test_inverse_is_exp_of_negation(self):
        rng = np.random.default_rng(5)
        m = random_complex(rng, 4, 4, scale=0.7)
        prod = linalg.mat_exp(m) @ linalg.mat_exp(-m)
        assert linalg.fro(prod - np.eye(4)) <= 1e-10

    def test_rejects_non_square(self):
        for shape in ((2, 3), (4, 2, 3), (3,)):
            with pytest.raises(ValueError, match="square"):
                linalg.mat_exp(np.zeros(shape))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.mat_exp(np.array([[np.inf, 0], [0, 0]]))
        m = np.zeros((2, 2), dtype=complex)
        m[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.mat_exp(m)

    def test_nilpotents_sum_each_to_its_own_index(self):
        rng = np.random.default_rng(37)
        # strictly upper triangular 4x4 from the k-th superdiagonal on, for
        # k = 1, 2 and 4 (zero): indices 4, 2 and 1; a 3x3 in a corner: 3
        corner = np.triu(random_complex(rng, 4, 4), k=1)
        corner[:, 3] = 0.0
        for m in [np.triu(random_complex(rng, 4, 4), k=k) for k in (1, 2, 4)] + [corner]:
            expected, power, factorial = np.eye(4), np.eye(4), 1.0
            for j in range(1, 4):
                power = power @ m
                factorial *= j
                expected = expected + power / factorial
            assert np.array_equal(linalg.mat_exp(m), expected)

    def test_dsi_nilpotent_generator(self):
        # DS I's nilpotent generator at x = -0.7: exactly I - 0.7 N
        n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert np.array_equal(linalg.mat_exp(-0.7 * n), np.eye(2) - 0.7 * n)

    def test_empty_inputs(self):
        got = linalg.mat_exp(np.zeros((0, 0)))
        assert got.shape == (0, 0) and got.dtype == complex
        for shape in ((0, 3, 3), (4, 0, 0)):
            with pytest.raises(ValueError, match="square"):
                linalg.mat_exp(np.zeros(shape))


# Every (n, d, m) with each side from 1 to 4, plus a 6 x 6 x 6 product, and
# the stack sizes of the engine: none, one, a few, and the FD stacks.
MUL_SHAPES = [(n, d, m) for n in range(1, 5) for d in range(1, 5) for m in range(1, 5)] + [(6, 6, 6)]
MUL_COUNTS = (0, 1, 2, 13, 169, 1352)


class TestMul:
    @staticmethod
    def operands(rng, n, d, m, count):
        """stack @ stack, stack @ matrix and matrix @ stack."""
        a, b = random_complex(rng, count, n, d), random_complex(rng, count, d, m)
        return [(a, b), (a, random_complex(rng, d, m)), (random_complex(rng, n, d), b)]

    @staticmethod
    def own(a, b, k):
        """Matrix k's operands: a single matrix stays as it is."""
        return (a[k] if a.ndim == 3 else a), (b[k] if b.ndim == 3 else b)

    @pytest.mark.parametrize("n, d, m", MUL_SHAPES, ids=lambda v: str(v))
    def test_agrees_with_matmul(self, n, d, m):
        rng = np.random.default_rng(n * 100 + d * 10 + m)
        for count in MUL_COUNTS:
            for a, b in self.operands(rng, n, d, m, count):
                got, want = linalg.mul(a, b), a @ b
                assert got.shape == want.shape == (count, n, m)
                bound = 1e-15 * linalg.fro(a) * linalg.fro(b)
                assert np.all(linalg.fro(got - want) <= bound)

    @pytest.mark.parametrize("n, d, m", MUL_SHAPES, ids=lambda v: str(v))
    def test_each_matrix_of_a_stack_is_its_own_call(self, n, d, m):
        rng = np.random.default_rng(n * 100 + d * 10 + m + 1)
        for count in MUL_COUNTS:
            # every matrix of the small stacks, a spread of the large ones
            picks = range(count) if count <= 13 else np.linspace(0, count - 1, 13).astype(int)
            for a, b in self.operands(rng, n, d, m, count):
                got = linalg.mul(a, b)
                for k in picks:
                    assert got[k].tobytes() == linalg.mul(*self.own(a, b, k)).tobytes()

    @pytest.mark.parametrize(
        "n, d, m", [s for s in MUL_SHAPES if min(s[0], s[2]) < 2 or s[0] * s[1] * s[2] > 64], ids=lambda v: str(v)
    )
    def test_fall_through_shapes_are_matmul(self, n, d, m):
        rng = np.random.default_rng(n * 100 + d * 10 + m + 2)
        for count in MUL_COUNTS:
            for a, b in self.operands(rng, n, d, m, count):
                assert linalg.mul(a, b).tobytes() == (a @ b).tobytes()


# The stack sizes of TestMul, and one past the size at which OpenBLAS may
# split a product across threads (65536 * 4 multiply-adds).
ROWS_COUNTS = MUL_COUNTS + (20000,)


class TestRows:
    @pytest.mark.parametrize("n, d, m", MUL_SHAPES, ids=lambda v: str(v))
    def test_agrees_with_matmul(self, n, d, m):
        rng = np.random.default_rng(n * 100 + d * 10 + m + 3)
        for count in ROWS_COUNTS:
            a, b = random_complex(rng, count, n, d), random_complex(rng, d, m)
            got, want = linalg.rows(a, b), a @ b
            assert got.shape == want.shape == (count, n, m)
            bound = 1e-15 * linalg.fro(a) * linalg.fro(b)
            assert np.all(linalg.fro(got - want) <= bound)

    @pytest.mark.parametrize("n, d, m", MUL_SHAPES, ids=lambda v: str(v))
    def test_each_matrix_of_a_stack_is_a_stack_of_one(self, n, d, m):
        rng = np.random.default_rng(n * 100 + d * 10 + m + 4)
        for count in ROWS_COUNTS:
            picks = range(count) if count <= 13 else np.linspace(0, count - 1, 13).astype(int)
            a, b = random_complex(rng, count, n, d), random_complex(rng, d, m)
            got = linalg.rows(a, b)
            for k in picks:
                assert got[k].tobytes() == linalg.rows(a[k : k + 1], b)[0].tobytes()


class TestSolveSylvester:
    def test_identity_coefficients(self):
        q = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        x = linalg.solve_sylvester(np.eye(2), np.eye(2), q)
        np.testing.assert_allclose(x, q / 2.0, atol=1e-14)

    def test_jordan_lyapunov_frozen_value(self):
        # A X + X A* = diag(0, 1) with A = [[1,1],[0,1]] has the unique
        # Hermitian solution [[1/4,-1/4],[-1/4,1/2]].
        a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        x = linalg.solve_sylvester(a, linalg.adjoint(a), q)
        expected = np.array([[0.25, -0.25], [-0.25, 0.5]])
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12)
        # and it really solves the equation
        np.testing.assert_allclose(a @ x + x @ a.conj().T, q, atol=1e-13)

    def test_singular_consistent_min_norm(self):
        # A = [[i,1],[0,i]], B = A*: the map has a kernel but
        # Q = [[1,0],[0,0]] is in range; min-norm solution is Hermitian
        # with zero diagonal and off-diagonal 1/2.
        a = np.array([[1j, 1.0], [0.0, 1j]])
        q = np.diag([1.0, 0.0]).astype(complex)
        x = linalg.solve_sylvester(a, linalg.adjoint(a), q)
        np.testing.assert_allclose(x, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-10)
        np.testing.assert_allclose(a @ x + x @ a.conj().T, q, atol=1e-10)

    def test_inconsistent_raises_with_residual(self):
        a = np.array([[1j]])
        b = np.array([[-1j]])
        q = np.array([[1.0 + 0j]])
        with pytest.raises(NoSolutionError) as exc:
            linalg.solve_sylvester(a, b, q)
        # the best least-squares fit leaves the whole right side
        assert exc.value.residual == pytest.approx(1.0, abs=1e-10)

    def test_hermitian_symmetrization(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 3, 3) + 2.0 * np.eye(3)
        g = random_complex(rng, 3, 2)
        q = g @ g.conj().T
        x = linalg.solve_sylvester(a, linalg.adjoint(a), q)
        assert np.array_equal(x, x.conj().T)

    def test_residual_bound_on_random_well_posed_instances(self):
        # spectra of A and -B kept >= 0.5 apart by construction
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            a = random_complex(rng, n, n, scale=0.5) + 1.25 * np.eye(n)
            b = random_complex(rng, m, m, scale=0.5) + 1.25 * np.eye(m)
            q = random_complex(rng, n, m)
            x = linalg.solve_sylvester(a, b, q)
            assert linalg.fro(a @ x + x @ b - q) <= 1e-10 * (1.0 + linalg.fro(q))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.solve_sylvester(np.eye(2), np.eye(2), np.zeros((3, 2)))


class TestSolvePivoted:
    # Each system is solved as a stack of one: S (1, n, n), RHS (1, n, k).

    def test_identity(self):
        rhs = np.array([[1.0], [2.0]], dtype=complex)
        x, ok = linalg.solve_pivoted(np.eye(2)[None], rhs[None])
        assert ok[0]
        np.testing.assert_allclose(x[0], rhs)

    def test_scalar(self):
        x, ok = linalg.solve_pivoted(np.array([[[0.25]]]), np.array([[[1.0]]]))
        assert ok[0]
        np.testing.assert_allclose(x[0], [[4.0]])

    def test_zero_matrix_flags_singular(self):
        _, ok = linalg.solve_pivoted(np.zeros((1, 2, 2)), np.eye(2)[None])
        assert not ok[0]

    def test_exactly_singular_flags(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        _, ok = linalg.solve_pivoted(s[None], np.eye(2)[None])
        assert not ok[0]

    def test_needs_pivoting(self):
        # zero leading pivot, still well conditioned
        s = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rhs = np.array([[2.0], [3.0]], dtype=complex)
        x, ok = linalg.solve_pivoted(s[None], rhs[None])
        assert ok[0]
        np.testing.assert_allclose(x[0], [[3.0], [2.0]])

    def test_random_hermitian_accuracy(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            g = random_complex(rng, 4, 4)
            s = g @ g.conj().T + np.eye(4)
            rhs = random_complex(rng, 4, 2)
            x, ok = linalg.solve_pivoted(s[None], rhs[None])
            assert ok[0]
            assert linalg.fro(s @ x[0] - rhs) <= 1e-10 * (1.0 + linalg.fro(rhs))

    def test_single_system_rejected(self):
        with pytest.raises(ValueError, match=r"\(N, n, n\)"):
            linalg.solve_pivoted(np.eye(2), np.ones((2, 1)))


class TestFactorPivoted:
    def test_agrees_with_numpy_on_well_conditioned_stacks(self):
        rng = np.random.default_rng(78)
        for n in range(1, 6):
            s = random_complex(rng, 40, n, n, scale=0.3) + np.eye(n)
            rhs = random_complex(rng, 40, n, 3)
            solve, ok = linalg.factor_pivoted(s)
            assert ok.all()
            got, want = solve(rhs), np.linalg.solve(s, rhs)
            assert np.all(linalg.fro(got - want) <= 1e-13 * linalg.fro(want))
            # the factor is reused, and no RHS is written to
            again = rhs.copy()
            assert np.array_equal(solve(again), got) and np.array_equal(again, rhs)

    def test_singular_and_row_swapping_systems(self):
        s = np.array(
            [
                [[0.0, 0.0], [0.0, 0.0]],  # zero: no norm to compare with
                [[1.0, 1.0], [1.0, 1.0]],  # exactly singular
                [[1.0, 1.0], [1.0, 1.0 + 1e-13]],  # pivot below 1e-12 ||S||_F
                [[0.0, 1.0], [1.0, 0.0]],  # zero leading pivot: rows swap
                [[1e-3, 1.0], [1.0, 1.0]],  # small leading pivot: rows swap
            ],
            dtype=complex,
        )
        rhs = np.array([[[2.0, 1j], [3.0, -1.0]]] * len(s))
        solve, ok = linalg.factor_pivoted(s)
        assert ok.tolist() == [False, False, False, True, True]
        x = solve(rhs)
        assert not x[~ok].any()
        np.testing.assert_allclose(x[3], [[3.0, -1.0], [2.0, 1j]])
        np.testing.assert_allclose(s[4] @ x[4], rhs[4], rtol=0, atol=1e-14)
        want, want_ok = linalg.solve_pivoted(s, rhs)
        assert np.array_equal(ok, want_ok) and x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_columns_side_by_side_are_each_column_alone(self, n):
        # Bitwise where each back-substitution tail has one entry at most,
        # as for Loewner's 2 x 2 Lambda_1. From n = 3 on, numpy sends the
        # tail of one column to BLAS dot and of several to gemv, whose last
        # bits may differ.
        rng = np.random.default_rng(79 + n)
        for count in (1, 5, 64):
            s = random_complex(rng, count, n, n)
            rhs = random_complex(rng, count, n, 5)
            solve, _ = linalg.factor_pivoted(s)
            x = solve(rhs)
            for j in range(rhs.shape[-1]):
                assert x[..., j : j + 1].tobytes() == solve(rhs[..., j : j + 1]).tobytes()

    def test_columns_side_by_side_agree_with_each_column_alone(self):
        rng = np.random.default_rng(82)
        for n in range(3, 7):
            s = random_complex(rng, 20, n, n, scale=0.3) + np.eye(n)
            rhs = random_complex(rng, 20, n, 5)
            solve, _ = linalg.factor_pivoted(s)
            x = solve(rhs)
            for j in range(rhs.shape[-1]):
                alone = solve(rhs[..., j : j + 1])
                assert np.all(linalg.fro(x[..., j : j + 1] - alone) <= 1e-14 * linalg.fro(alone))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_each_system_of_a_stack_is_a_stack_of_one(self, n):
        rng = np.random.default_rng(83 + n)
        for count in (2, 7, 150):
            s = random_complex(rng, count, n, n)
            # a repeated row puts a singular system inside the stack
            s[count // 2, n - 1] = s[count // 2, 0]
            rhs = random_complex(rng, count, n, 3)
            solve, ok = linalg.factor_pivoted(s)
            assert n == 1 or not ok[count // 2]
            x = solve(rhs)
            for k in range(count):
                one, one_ok = linalg.factor_pivoted(s[k : k + 1])
                assert one_ok[0] == ok[k]
                assert x[k].tobytes() == one(rhs[k : k + 1])[0].tobytes()

    def test_rejects_bad_right_hand_sides(self):
        solve, _ = linalg.factor_pivoted(np.eye(2)[None].repeat(3, axis=0))
        for rhs in (np.ones((3, 3, 1)), np.ones((2, 2, 1)), np.ones((3, 2))):
            with pytest.raises(ValueError, match="RHS must be"):
                solve(rhs)
        for bad in (np.nan, np.inf):
            rhs = np.ones((3, 2, 2), dtype=complex)
            rhs[1, 0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                solve(rhs)

    def test_rejects_bad_systems(self):
        with pytest.raises(ValueError, match=r"\(N, n, n\)"):
            linalg.factor_pivoted(np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            linalg.factor_pivoted(np.full((1, 2, 2), np.inf))


class TestRank:
    def test_full_range_jordan_good_column(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert linalg.full_range_rank(a, np.array([[0.0], [1.0]])) == 2

    def test_full_range_jordan_bad_column(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert linalg.full_range_rank(a, np.array([[1.0], [0.0]])) == 1

    def test_zero_chat(self):
        assert linalg.full_range_rank(np.eye(2), np.zeros((2, 1))) == 0

    def test_numerical_rank_examples(self):
        assert linalg.numerical_rank(np.eye(3)) == 3
        assert linalg.numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
        # numpy's default threshold (about 1e-15 relative here) counts the
        # 5e-15 singular value and returns 2; RANK_RTOL does not.
        nearly = np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]])
        assert linalg.numerical_rank(nearly) == 1
        assert np.linalg.matrix_rank(nearly) == 2

    def test_rank_matches_svd_on_random_products(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            r = int(rng.integers(1, 4))
            left = random_complex(rng, 4, r)
            right = random_complex(rng, r, 5)
            m = left @ right
            assert linalg.numerical_rank(m) == np.linalg.matrix_rank(m)


class TestHelpers:
    def test_adjoint_involution(self):
        rng = np.random.default_rng(1)
        m = random_complex(rng, 3, 2)
        assert np.array_equal(linalg.adjoint(linalg.adjoint(m)), m)

    def test_fro_of_huge_finite_entries(self):
        # Squares of entries above about 1.3e154 overflow; the norm does not.
        huge = np.array([[1e200, 2e200], [3.0, -4e199j]])
        want = 1e200 * np.sqrt(5.16)
        assert linalg.fro(huge) == pytest.approx(want, rel=1e-15)
        rng = np.random.default_rng(2)
        ordinary = random_complex(rng, 2, 2, 2)
        stack = np.stack([ordinary[0], huge, 0 * huge, ordinary[1], -2 * huge])
        got = linalg.fro(stack)
        # every norm that does not overflow is numpy's, bitwise
        assert np.array_equal(got[[0, 2, 3]], np.linalg.norm(stack[[0, 2, 3]], axis=(-2, -1)))
        np.testing.assert_allclose(got[[1, 4]], [want, 2 * want], rtol=1e-15)
        # past the double range the norm reads inf, still without a warning
        assert linalg.fro(np.full((2, 2), 1e308)) == np.inf

    def test_fro_is_the_guarded_formula_bitwise(self):
        def guarded(m):
            # the norm with every call under the overflow guard
            with np.errstate(over="ignore"):
                norms = np.asarray(np.linalg.norm(m, axis=(-2, -1)))
                if np.isinf(norms).any():
                    huge = np.isinf(norms) & np.isfinite(m).all(axis=(-2, -1))
                    big = np.abs(m[huge]).max(axis=(-2, -1))
                    norms[huge] = big * np.linalg.norm(m[huge] / big[:, None, None], axis=(-2, -1))
            return float(norms) if norms.ndim == 0 else norms

        rng = np.random.default_rng(3)
        stack = random_complex(rng, 4, 3, 3)
        stack[1] *= 1e200
        stack[2] *= 2.0**499
        stack[3, 0, 0] = 2.0**500
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.fro(stack).tobytes() == guarded(stack).tobytes()
            for m in stack:
                got = linalg.fro(m)
                assert type(got) is float and got == guarded(m)

    def test_commutator_residual_of_real_and_complex_copies(self):
        rng = np.random.default_rng(4)
        pairs = [
            (np.eye(2), np.eye(2)),
            (np.array([[2.0]]), np.array([[-3.0]])),
            (rng.standard_normal((3, 3)), rng.standard_normal((3, 3))),
            (1e200 * rng.standard_normal((2, 2)), 1e200 * rng.standard_normal((2, 2))),
        ]
        for a, b in pairs:
            want = linalg.commutator_residual(a.astype(complex), b.astype(complex))
            assert linalg.commutator_residual(a, b) == want
        assert linalg.commutator_residual(*pairs[0]) == 0.0
        assert linalg.commutator_residual(*pairs[2]) > 0.0
