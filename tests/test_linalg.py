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
            via_scaling = linalg._taylor_exp(m / 4.0, 16)
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
        with pytest.raises(ValueError):
            linalg.mat_exp(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.mat_exp(np.array([[np.inf, 0], [0, 0]]))


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
    def test_identity(self):
        rhs = np.array([[1.0], [2.0]], dtype=complex)
        np.testing.assert_allclose(linalg.solve_pivoted(np.eye(2), rhs), rhs)

    def test_scalar(self):
        x = linalg.solve_pivoted(np.array([[0.25]]), np.array([[1.0]]))
        np.testing.assert_allclose(x, [[4.0]])

    def test_zero_matrix_flags_singular(self):
        assert linalg.solve_pivoted(np.zeros((2, 2)), np.eye(2)) is None

    def test_exactly_singular_flags(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        assert linalg.solve_pivoted(s, np.eye(2)) is None

    def test_needs_pivoting(self):
        # zero leading pivot, still well conditioned
        s = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rhs = np.array([[2.0], [3.0]], dtype=complex)
        np.testing.assert_allclose(linalg.solve_pivoted(s, rhs), [[3.0], [2.0]])

    def test_random_hermitian_accuracy(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            g = random_complex(rng, 4, 4)
            s = g @ g.conj().T + np.eye(4)
            rhs = random_complex(rng, 4, 2)
            x = linalg.solve_pivoted(s, rhs)
            assert x is not None
            assert linalg.fro(s @ x - rhs) <= 1e-10 * (1.0 + linalg.fro(rhs))


class TestEigenvalues:
    def test_diagonal(self):
        info = linalg.eigenvalues(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(info.values, [1.0, 2.0], atol=1e-14)
        assert info.method == "qr"
        assert info.residual_bound <= 1e-12

    def test_jordan_cell(self):
        mu = 0.5 + 0.25j
        m = np.array([[mu, 1.0], [0.0, mu]])
        info = linalg.eigenvalues(m)
        assert np.max(np.abs(info.values - mu)) <= 1e-7  # defective: sqrt(eps) accuracy

    def test_trace_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = random_complex(rng, 5, 5)
            info = linalg.eigenvalues(a)
            assert abs(info.values.sum() - np.trace(a)) <= 1e-9 * max(1.0, linalg.fro(a))

    def test_roots_kill_determinant(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, 4, 4)
        info = linalg.eigenvalues(a)
        for lam in info.values:
            assert abs(np.linalg.det(a - lam * np.eye(4))) <= 1e-8 * max(1.0, linalg.fro(a) ** 4)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.eye(33))


class TestRank:
    def test_full_range_jordan_good_column(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert linalg.full_range_rank(a, np.array([[0.0], [1.0]])) == 2

    def test_full_range_jordan_bad_column(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert linalg.full_range_rank(a, np.array([[1.0], [0.0]])) == 1

    def test_zero_chat(self):
        assert linalg.full_range_rank(np.eye(2), np.zeros((2, 1))) == 0

    def test_pivoted_rank_examples(self):
        assert linalg.pivoted_rank(np.eye(3)) == 3
        assert linalg.pivoted_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
        assert linalg.pivoted_rank(np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]])) == 1

    def test_rank_matches_svd_on_random_products(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            r = int(rng.integers(1, 4))
            left = random_complex(rng, 4, r)
            right = random_complex(rng, r, 5)
            m = left @ right
            assert linalg.pivoted_rank(m) == np.linalg.matrix_rank(m)


class TestHelpers:
    def test_adjoint_involution(self):
        rng = np.random.default_rng(1)
        m = random_complex(rng, 3, 2)
        assert np.array_equal(linalg.adjoint(linalg.adjoint(m)), m)
