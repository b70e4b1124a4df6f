"""N-wave system construction tests.

For l = 1 everything is diagonal and explicit: with Pi = diag(e^{theta_k} c_k),
theta_k = (x d_k + t dt_k + y) a, C = I and S0 = I,

    S_kk = 1 + r_k e^{2 Re theta_k},  r_k = -b_k |c_k|^2 / (2 Re a),
    xi_kk = b_k |c_k|^2 e^{2 Re theta_k} / S_kk,

so a block with b_k = +1 and |c_k|^2 = 2 Re a is singular exactly on the
plane x d_k + t dt_k + y = 0.
"""

import numpy as np
import pytest

from pseudoexp import gnoe, linalg, verify
from pseudoexp.errors import ConstructionError
from pseudoexp.snode import solve_for_R


@pytest.fixture(scope="module")
def scalar_case():
    # l=1, m=2; block 1 R is positive (b=-1), block 0 negative.
    return gnoe.build_gnoe(
        np.array([[0.5]]),
        np.array([[1.0, 0.5]]),
        None,
        (1.0, 2.0),
        (2.0, 1.0),
        (1.0, -1.0),
    )


@pytest.fixture(scope="module")
def two_by_two():
    # l=2, m=2, mixed signature, conditioned to stay nonsingular. C must
    # couple the two Kronecker blocks: a block-preserving C leaves xi
    # diagonal and the whole system trivially zero.
    a = np.array([[0.5, 0.2 + 0.1j], [0.0, 0.7 - 0.2j]])
    chat = np.array([[0.2, -0.1 + 0.1j], [0.1j, 0.15]])
    c = np.eye(4, dtype=complex)
    c[0, 2] = 0.2 + 0.1j
    c[1, 3] = 0.2
    c[2, 1] = 0.1 - 0.1j
    c[3, 0] = 0.2
    return gnoe.build_gnoe(a, chat, c, (0.8, 1.1), (1.2, 0.6), (1.0, -1.0))


class TestSynthesis:
    def test_chat_block_structure(self):
        chat = np.arange(6).reshape(2, 3).astype(complex)
        big = gnoe.synthesize_chat(chat)
        assert big.shape == (6, 3)
        for k in range(3):
            col = np.zeros(6, dtype=complex)
            col[2 * k : 2 * k + 2] = chat[:, k]
            assert np.array_equal(big[:, k], col)

    def test_scalar_r_closed_form(self, scalar_case):
        # R_kk = -b_k |c_k|^2 / (2 Re a)
        assert abs(scalar_case.r[0, 0] - (-1.0)) < 1e-14
        assert abs(scalar_case.r[1, 1] - 0.25) < 1e-14
        assert scalar_case.r[0, 1] == 0.0

    def test_diagonal_block_r_matches_solver(self):
        a_diag = [0.5 + 0.3j, 0.8 - 0.1j]
        col = [1.0 - 0.5j, 0.25j]
        for b_k in (1.0, -1.0):
            closed = gnoe.diagonal_block_r(a_diag, col, b_k)
            colv = np.asarray(col, dtype=complex).reshape(-1, 1)
            solved = solve_for_R(np.diag(a_diag), -b_k * (colv @ colv.conj().T))
            assert np.allclose(closed, solved, atol=1e-13)

    def test_diagonal_block_r_rejects_imaginary_axis(self):
        with pytest.raises(ConstructionError, match="vanishes"):
            gnoe.diagonal_block_r([1j, 2j], [1.0, 1.0], 1.0)


class TestBuild:
    def test_assembled_identities(self, two_by_two):
        sc = two_by_two
        report = sc.node.validate()
        assert report.passed, report.messages
        big_chat = gnoe.synthesize_chat(sc.chat)
        for a_big, weight in (
            (np.kron(sc.d_mat, sc.a), sc.b_mat @ sc.d_mat),
            (np.kron(sc.dtilde_mat, sc.a), sc.b_mat @ sc.dtilde_mat),
            (np.kron(np.eye(2), sc.a), sc.b_mat),
        ):
            lhs = a_big @ sc.r + sc.r @ linalg.adjoint(a_big)
            rhs = -big_chat @ weight @ linalg.adjoint(big_chat)
            assert linalg.fro(lhs - rhs) <= 1e-12 * (1.0 + linalg.fro(rhs))

    def test_block_error_names_index(self):
        # Imaginary-axis A: block 0 has zero rhs (consistent), block 1 not.
        with pytest.raises(ConstructionError, match="block 1"):
            gnoe.build_gnoe(
                np.array([[1j]]),
                np.array([[0.0, 1.0]]),
                None,
                (1.0, 1.0),
                (1.0, 1.0),
                (1.0, 1.0),
            )

    def test_input_validation(self):
        a = np.array([[0.5]])
        chat = np.array([[1.0, 0.5]])
        with pytest.raises(ConstructionError, match="row"):
            gnoe.build_gnoe(a, np.ones((2, 2)), None, (1, 1), (1, 1), (1, 1))
        with pytest.raises(ConstructionError, match="entry per column"):
            gnoe.build_gnoe(a, chat, None, (1.0,), (1, 1), (1, 1))
        with pytest.raises(ConstructionError, match="positive"):
            gnoe.build_gnoe(a, chat, None, (1.0, -1.0), (1, 1), (1, 1))
        with pytest.raises(ConstructionError, match="\\+1 or -1"):
            gnoe.build_gnoe(a, chat, None, (1, 1), (1, 1), (1.0, 0.5))
        with pytest.raises(ConstructionError, match="columns"):
            gnoe.build_gnoe(a, chat, np.eye(3), (1, 1), (1, 1), (1, 1))

    def test_zero_chat_gives_zero_field(self):
        sc = gnoe.build_gnoe(
            np.array([[0.5]]),
            np.zeros((1, 2)),
            None,
            (1.0, 2.0),
            (2.0, 1.0),
            (1.0, -1.0),
        )
        assert np.array_equal(sc.r, np.zeros((2, 2)))
        f = gnoe.xi(sc, (0.3, -0.2, 0.5))
        assert np.array_equal(f, np.zeros((2, 2)))


class TestField:
    def test_scalar_closed_form(self, scalar_case):
        sc = scalar_case
        x, t, y = 0.1, 0.1, 0.1
        f = gnoe.xi(sc, (x, t, y))
        for k, (c_k, b_k) in enumerate(((1.0, 1.0), (0.5, -1.0))):
            theta = (x * sc.d_diag[k] + t * sc.dtilde_diag[k] + y) * 0.5
            r_k = -b_k * c_k**2 / 1.0
            w = c_k**2 * np.exp(2 * theta)
            expected = b_k * w / (1.0 + r_k * np.exp(2 * theta))
            assert abs(f[k, k] - expected) < 1e-12 * (1 + abs(expected))
        assert abs(f[0, 1]) == 0.0 and abs(f[1, 0]) == 0.0

    def test_singular_plane_masked(self, scalar_case):
        # Block 0: r_0 = -1, so S_00 = 1 - e^{2 theta_0} = 0 at the origin.
        assert gnoe.xi(scalar_case, (0.0, 0.0, 0.0)) is None
        assert gnoe.xi(scalar_case, (0.1, 0.0, -0.1)) is None
        assert gnoe.xi(scalar_case, (0.1, 0.1, 0.1)) is not None

    def test_reduction_bitwise(self, two_by_two):
        rng = np.random.default_rng(3)
        b = two_by_two.b_mat
        for _ in range(8):
            pt = tuple(rng.uniform(-0.5, 0.5, 3))
            f = gnoe.xi(two_by_two, pt)
            assert np.array_equal(linalg.adjoint(f), b @ f @ b)

    def test_b_identity_gives_hermitian(self):
        sc = gnoe.build_gnoe(
            np.array([[0.5, 0.1], [0.0, 0.6]]),
            np.array([[0.2, 0.1], [0.1, -0.2]]),
            None,
            (1.0, 1.5),
            (1.5, 1.0),
            (1.0, 1.0),
        )
        f = gnoe.xi(sc, (0.2, -0.1, 0.3))
        assert np.array_equal(f, linalg.adjoint(f))

    def test_shape(self, two_by_two):
        f = gnoe.xi(two_by_two, (0.1, 0.2, 0.3))
        assert f.shape == (2, 2)

    def test_mixing_c_gives_off_diagonal_field(self, two_by_two):
        # Guards the sweep below against vacuity: with block-preserving C
        # the field is diagonal and the system residual is identically zero.
        f = gnoe.xi(two_by_two, (0.1, 0.2, 0.3))
        assert abs(f[0, 1]) > 1e-4 and abs(f[1, 0]) > 1e-4


class TestResiduals:
    def test_premises_exact(self, two_by_two):
        rng = np.random.default_rng(5)
        points = np.array([rng.uniform(-0.6, 0.6, 3) for _ in range(5)])
        (channels, _), ok = gnoe.evaluator(two_by_two)(points)
        scale = 1.0 + linalg.fro(two_by_two.family.at(points).pi())
        assert ok.all()
        assert (channels["premise_x"] <= 1e-12 * scale).all()
        assert (channels["premise_t"] <= 1e-12 * scale).all()

    def test_analytic_system_exact(self, two_by_two):
        rng = np.random.default_rng(7)
        points = rng.uniform(-0.6, 0.6, (10, 3))
        (channels, scale), ok = gnoe.evaluator(two_by_two)(points)
        assert ok.all()
        assert (channels["system_analytic"] <= 1e-10 * (1.0 + scale)).all()

    def test_nine_cubed_analytic_sweep(self, two_by_two):
        report = gnoe.verify_scenario(two_by_two, grid=gnoe.default_grid(count=9))
        assert report.passed, [(c.name, c.max_relative) for c in report.channels]
        assert report.masked_count == 0

    def test_fd_cross_check(self, two_by_two):
        report = gnoe.verify_scenario(two_by_two, grid=gnoe.default_grid(count=3))
        assert report.passed
        names = {c.name for c in report.channels}
        assert "system_fd" in names and "system_analytic" in names

    def test_masked_sweep_counts(self, scalar_case):
        grid = verify.Grid(
            (
                verify.Axis("x", -0.2, 0.2, 3),
                verify.Axis("t", 0.0, 0.0, 1),
                verify.Axis("y", -0.2, 0.2, 3),
            )
        )
        # t = 0: block 0 singular where x + y = 0 (3 grid points), and FD
        # stencils never land back on the plane for the other points.
        report = gnoe.verify_scenario(scalar_case, grid=grid)
        assert report.masked_count == 3

    def test_default_grid(self):
        grid = gnoe.default_grid()
        assert [ax.name for ax in grid.axes] == ["x", "t", "y"]
        assert grid.size == 125


class TestRandomScenario:
    def test_draws_verify(self):
        rng = np.random.default_rng(11)
        for _ in range(2):
            sc = gnoe.random_scenario(rng)
            report = gnoe.verify_scenario(sc, grid=gnoe.default_grid(count=3))
            assert report.passed, [(c.name, c.max_relative) for c in report.channels]
            assert report.masked_count == 0

    def test_s_positive_on_grid(self):
        rng = np.random.default_rng(13)
        sc = gnoe.random_scenario(rng)
        for pt in gnoe.default_grid(count=3).points():
            assert np.linalg.eigvalsh(sc.family.s(pt)).min() > 0.0
