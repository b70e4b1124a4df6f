import numpy as np
import pytest

from pseudoexp import linalg, snode
from pseudoexp.errors import ConstructionError, NoSolutionError

SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])


def test_solve_for_R_scalar():
    r = snode.solve_for_R(np.array([[1.0]]), np.array([[-2.0]]))
    np.testing.assert_allclose(r, [[-1.0]])


def test_solve_for_R_jordan_frozen():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    r = snode.solve_for_R(a, np.diag([0.0, 1.0]))
    np.testing.assert_allclose(r, [[0.25, -0.25], [-0.25, 0.5]], atol=1e-12)


def test_solve_for_R_rejects_non_hermitian_rhs():
    with pytest.raises(ValueError):
        snode.solve_for_R(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_solve_for_R_inconsistent():
    # purely imaginary eigenvalue, rhs with nonzero trace component in the gap
    with pytest.raises(NoSolutionError):
        snode.solve_for_R(np.array([[1j]]), np.array([[1.0]]))


def test_solve_for_R_scaling_covariance():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
    g = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    rhs = g @ g.conj().T
    r1 = snode.solve_for_R(a, rhs)
    r2 = snode.solve_for_R(a, 4.0 * rhs)
    np.testing.assert_allclose(r2, 4.0 * r1, atol=1e-12 * (1 + linalg.fro(r1)))


def two_channel_node():
    # two diagonal channels, one-column splitting g1 = [1, 1]
    d = np.diag([1.0, 2.0]).astype(complex)
    j = np.diag([1.0, -1.0])
    a1, a2 = d, d @ j
    chat = np.array([[1.0, 1j], [1.0, -1j]])
    r = np.diag([-1.0, 0.5]).astype(complex)
    return snode.SMultinode(
        a_mats=[a1, a2],
        nu_mats=[SIGMA2, -np.eye(2)],
        r_mat=r,
        chat=chat,
        signs=[1.0, 1.0],
    )


def test_two_channel_node_identities_hold():
    node = two_channel_node()
    report = node.validate()
    assert report.passed, report.messages
    # frozen right-hand sides
    np.testing.assert_allclose(node.identity_rhs(0), np.diag([-2.0, 2.0]), atol=1e-14)
    np.testing.assert_allclose(node.identity_rhs(1), np.diag([-2.0, -2.0]), atol=1e-14)


def test_validation_catches_perturbed_R():
    node = two_channel_node()
    delta = 1e-3 * np.eye(2)
    bad = snode.SMultinode(
        a_mats=node.a_mats,
        nu_mats=node.nu_mats,
        r_mat=node.r_mat + delta,
        chat=node.chat,
        signs=node.signs,
    )
    report = bad.validate()
    assert not report.passed
    # linear response: residual of identity k is ||A_k delta + delta A_k*||
    a1 = node.a_mats[0]
    expected = linalg.fro(a1 @ delta + delta @ a1.conj().T)
    assert report.identity_residuals[0] == pytest.approx(expected, rel=1e-9)
    assert expected <= 2e-3 * linalg.fro(a1) + 1e-12


def test_validation_catches_non_commuting():
    a1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    a2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    node = snode.SMultinode(
        a_mats=[a1, a2],
        nu_mats=[np.zeros((1, 1)), np.zeros((1, 1))],
        r_mat=np.zeros((2, 2)),
        chat=np.zeros((2, 1)),
        signs=[1.0, 1.0],
    )
    report = node.validate()
    assert not report.passed
    assert any("commute" in m for m in report.messages)


def test_non_hermitian_nu_rejected():
    with pytest.raises(ValueError):
        snode.SMultinode(
            a_mats=[np.eye(2)],
            nu_mats=[np.array([[0.0, 1.0], [0.0, 0.0]])],
            r_mat=np.zeros((2, 2)),
            chat=np.zeros((2, 2)),
            signs=[1.0],
        )


def test_require_valid_raises():
    node = two_channel_node()
    bad = snode.SMultinode(
        a_mats=node.a_mats,
        nu_mats=node.nu_mats,
        r_mat=node.r_mat + 0.01 * np.eye(2),
        chat=node.chat,
        signs=node.signs,
    )
    with pytest.raises(ConstructionError):
        bad.require_valid()


def test_random_solve_then_validate_roundtrip():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        chat = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        nu = np.diag(rng.choice([1.0, -1.0], size=2))
        sign = float(rng.choice([1.0, -1.0]))
        r = snode.solve_for_R(a, sign * chat @ nu @ chat.conj().T)
        node = snode.SMultinode([a], [nu], r, chat, [sign])
        assert node.validate().passed
