"""Matrix N-wave type system in three variables (x, t, y).

For positive real diagonal D, Dtilde (m x m) and a signature B = diag(+-1),
the field xi(x, t, y) (m x m) obeys

    [D, xi_t] - [Dtilde, xi_x] = [[D, xi], [Dtilde, xi]] + D xi_y Dtilde
                                                        - Dtilde xi_y D

together with the reduction xi* = B xi B. Data: one l x l matrix A, a
coefficient matrix chat (l x m), C (n x ml) and S0. The lifted generator is

    Pi = C exp(x D(x)A + t Dt(x)A + y I(x)A) Chat,
    Chat = sum_k (e_k e_k*) (x) (chat e_k)     (column k lives in block k)

with block-diagonal R from A R_kk + R_kk A* = -b_k (chat e_k)(chat e_k)*.
The assembled data forms a three-identity node with weights (BD, B Dtilde, B)
and Pi satisfies Pi_x = Pi_y D, Pi_t = Pi_y Dtilde. Then xi = Pi* S^-1 Pi B
and the system holds with first derivatives only, so the analytic residual
needs no second-order terms. The reduction holds bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg, verify
from .errors import ConstructionError, NoSolutionError
from .family import ExponentRecipe, PiBlock, PseudoExpFamily, SRule, STerm, pointwise
from .snode import SMultinode, solve_for_R
from .spec import RANDOM, Builder, FamilySpec, all_fields, parse_matrix, parse_real_vector

__all__ = [
    "GnoeScenario",
    "build_gnoe",
    "synthesize_chat",
    "diagonal_block_r",
    "xi",
    "system_residual",
    "premise_residuals",
    "evaluator",
    "SPEC",
    "default_grid",
    "verify_scenario",
    "random_scenario",
]

VAR_NAMES = ("x", "t", "y")
X, T, Y = 0, 1, 2


@dataclass(frozen=True)
class GnoeScenario:
    a: np.ndarray
    chat: np.ndarray
    c: np.ndarray
    d_diag: np.ndarray
    dtilde_diag: np.ndarray
    b_diag: np.ndarray
    r: np.ndarray
    s0: np.ndarray
    node: SMultinode
    family: PseudoExpFamily

    @property
    def l_dim(self) -> int:
        return self.a.shape[0]

    @property
    def m_dim(self) -> int:
        return self.chat.shape[1]

    @property
    def d_mat(self) -> np.ndarray:
        return np.diag(self.d_diag).astype(complex)

    @property
    def dtilde_mat(self) -> np.ndarray:
        return np.diag(self.dtilde_diag).astype(complex)

    @property
    def b_mat(self) -> np.ndarray:
        return np.diag(self.b_diag).astype(complex)


def synthesize_chat(chat: np.ndarray) -> np.ndarray:
    """Lift chat (l x m) to the block-diagonal Chat (ml x m)."""
    l_dim, m_dim = chat.shape
    out = np.zeros((m_dim * l_dim, m_dim), dtype=complex)
    for k in range(m_dim):
        out[k * l_dim : (k + 1) * l_dim, k] = chat[:, k]
    return out


def diagonal_block_r(a_diag: Sequence[complex], column: Sequence[complex], b_k: float) -> np.ndarray:
    """Closed-form block for diagonal A: entries -b_k c_i conj(c_j)/(a_i + conj(a_j))."""
    a_diag = np.asarray(a_diag, dtype=complex)
    col = np.asarray(column, dtype=complex)
    denom = a_diag[:, None] + np.conj(a_diag)[None, :]
    if np.min(np.abs(denom)) < 1e-14:
        raise ConstructionError("a_i + conj(a_j) vanishes; no closed-form block")
    return -float(b_k) * (col[:, None] * np.conj(col)[None, :]) / denom


def build_gnoe(
    a: np.ndarray,
    chat: np.ndarray,
    c: Optional[np.ndarray],
    d: Sequence[float],
    dtilde: Sequence[float],
    b: Sequence[float],
    s0: Optional[np.ndarray] = None,
) -> GnoeScenario:
    a = linalg.as_matrix(a, "A")
    chat = linalg.as_matrix(chat, "chat")
    if chat.shape[0] != a.shape[0]:
        raise ConstructionError("chat must have one row per row of A")
    l_dim = a.shape[0]
    m_dim = chat.shape[1]
    d_diag = np.asarray(d, dtype=float)
    dtilde_diag = np.asarray(dtilde, dtype=float)
    b_diag = np.asarray(b, dtype=float)
    for name, arr in (("d", d_diag), ("dtilde", dtilde_diag), ("b", b_diag)):
        if arr.shape != (m_dim,):
            raise ConstructionError(f"{name} must have one entry per column of chat")
    if np.any(d_diag <= 0) or np.any(dtilde_diag <= 0):
        raise ConstructionError("d and dtilde entries must be positive")
    if not np.all(np.isin(b_diag, (1.0, -1.0))):
        raise ConstructionError("b entries must be +1 or -1")

    big_n = m_dim * l_dim
    c = np.eye(big_n, dtype=complex) if c is None else linalg.as_matrix(c, "C")
    if c.shape[1] != big_n:
        raise ConstructionError("C must have m*l columns")
    s0 = np.eye(c.shape[0], dtype=complex) if s0 is None else linalg.as_matrix(s0, "S0")

    # Per-block Lyapunov solves; failures are reported by block index.
    r = np.zeros((big_n, big_n), dtype=complex)
    for k in range(m_dim):
        col = chat[:, k : k + 1]
        try:
            blk = solve_for_R(a, -float(b_diag[k]) * (col @ col.conj().T))
        except NoSolutionError as exc:
            raise ConstructionError(f"block {k} identity is unsolvable: {exc}") from exc
        r[k * l_dim : (k + 1) * l_dim, k * l_dim : (k + 1) * l_dim] = blk

    chat_big = synthesize_chat(chat)
    d_mat = np.diag(d_diag).astype(complex)
    dtilde_mat = np.diag(dtilde_diag).astype(complex)
    b_mat = np.diag(b_diag).astype(complex)
    a1 = np.kron(d_mat, a)
    a2 = np.kron(dtilde_mat, a)
    a3 = np.kron(np.eye(m_dim), a)
    node = SMultinode(
        [a1, a2, a3],
        [b_mat @ d_mat, b_mat @ dtilde_mat, b_mat],
        r,
        chat_big,
        [-1.0, -1.0, -1.0],
    )
    node.require_valid()

    recipe = ExponentRecipe([a1, a2, a3])
    family = PseudoExpFamily(
        VAR_NAMES,
        [PiBlock(c, recipe, chat_big)],
        [STerm(1.0, c, recipe, r)],
        s0,
        {
            X: [SRule(-1.0, (), b_mat @ d_mat, ())],
            T: [SRule(-1.0, (), b_mat @ dtilde_mat, ())],
            Y: [SRule(-1.0, (), b_mat, ())],
        },
    )
    return GnoeScenario(a, chat, c, d_diag, dtilde_diag, b_diag, r, s0, node, family)


@pointwise(masked=True)
def xi(sc: GnoeScenario, points: np.ndarray):
    """xi = Q B at stacked points, with the mask of points where S is not
    singular."""
    q, ok = sc.family.q(points)
    return q @ sc.b_mat, ok


def _xi_and_first_derivs(sc: GnoeScenario, points: np.ndarray):
    """(xi, xi_x, xi_t, xi_y) and the mask, from one assembly of S and one
    solve."""
    quantities, ok = sc.family.q_deriv(points, [(), (X,), (T,), (Y,)])
    return tuple(q @ sc.b_mat for q in quantities), ok


def _system_form(
    d: np.ndarray,
    dt: np.ndarray,
    f: np.ndarray,
    f_x: np.ndarray,
    f_t: np.ndarray,
    f_y: np.ndarray,
) -> np.ndarray:
    lhs = (d @ f_t - f_t @ d) - (dt @ f_x - f_x @ dt)
    com_d = d @ f - f @ d
    com_dt = dt @ f - f @ dt
    rhs = (com_d @ com_dt - com_dt @ com_d) + d @ f_y @ dt - dt @ f_y @ d
    return lhs - rhs


@pointwise(masked=True)
def system_residual(sc: GnoeScenario, points: np.ndarray):
    """(absolute residual, local scale) of the analytic first-derivative
    form at stacked points, with the mask."""
    (f, f_x, f_t, f_y), ok = _xi_and_first_derivs(sc, points)
    res = _system_form(sc.d_mat, sc.dtilde_mat, f, f_x, f_t, f_y)
    scale = np.maximum.reduce([linalg.fro(f), linalg.fro(f_x), linalg.fro(f_t), linalg.fro(f_y)])
    return (linalg.fro(res), scale), ok


@pointwise(masked=False)
def premise_residuals(sc: GnoeScenario, points: np.ndarray):
    """Analytic residuals of Pi_x = Pi_y D and Pi_t = Pi_y Dtilde, and the
    scale 1 + ||Pi||, at stacked points."""
    pi, pi_x, pi_t, pi_y = sc.family.pi(points, [(), (X,), (T,), (Y,)])
    return (
        {
            "premise_x": linalg.fro(pi_x - pi_y @ sc.d_mat),
            "premise_t": linalg.fro(pi_t - pi_y @ sc.dtilde_mat),
        },
        1.0 + linalg.fro(pi),
    )


def evaluator(
    sc: GnoeScenario,
    h: float = verify.DEFAULT_H,
    accuracy: int = verify.DEFAULT_ACCURACY,
    with_fd: bool = True,
):
    def xi_fn(p):
        return xi(sc, p)

    def evaluate(points):
        (f, f_x, f_t, f_y), ok = _xi_and_first_derivs(sc, points)
        scale = np.maximum.reduce([linalg.fro(f), linalg.fro(f_x), linalg.fro(f_t), linalg.fro(f_y)])
        channels, _ = premise_residuals(sc, points)
        channels["system_analytic"] = linalg.fro(
            _system_form(sc.d_mat, sc.dtilde_mat, f, f_x, f_t, f_y)
        )
        channels["reduction"] = linalg.fro(
            linalg.adjoint(f) - sc.b_mat @ f @ sc.b_mat
        )
        if with_fd:
            (g_x,), ok_x = verify.fd_partial(xi_fn, points, X, (1,), h=h, accuracy=accuracy)
            (g_t,), ok_t = verify.fd_partial(xi_fn, points, T, (1,), h=h, accuracy=accuracy)
            (g_y,), ok_y = verify.fd_partial(xi_fn, points, Y, (1,), h=h, accuracy=accuracy)
            ok = ok & ok_x & ok_t & ok_y
            channels["system_fd"] = linalg.fro(
                _system_form(sc.d_mat, sc.dtilde_mat, f, g_x, g_t, g_y)
            )
        return (channels, scale), ok

    return evaluate


def random_scenario(
    rng: np.random.Generator, max_l: int = 2, max_m: int = 3
) -> GnoeScenario:
    """Random draw kept nonsingular: small chat and moderate spectra bound
    C E R E* C* well below S0 = I on the default grid.
    """
    for _ in range(60):
        l_dim = int(rng.integers(1, max_l + 1))
        m_dim = int(rng.integers(2, max_m + 1))
        a = 0.2 * np.triu(rng.normal(size=(l_dim, l_dim)) + 1j * rng.normal(size=(l_dim, l_dim)), 1)
        a = a + np.diag(rng.uniform(0.25, 0.5, l_dim) + 1j * rng.uniform(-0.3, 0.3, l_dim))
        chat = 0.15 * (rng.normal(size=(l_dim, m_dim)) + 1j * rng.normal(size=(l_dim, m_dim)))
        d = rng.uniform(0.5, 1.2, m_dim)
        dtilde = rng.uniform(0.5, 1.2, m_dim)
        b = rng.choice([-1.0, 1.0], m_dim)
        big_n = m_dim * l_dim
        c = np.eye(big_n, dtype=complex) + 0.05 * (
            rng.normal(size=(big_n, big_n)) + 1j * rng.normal(size=(big_n, big_n))
        )
        sc = build_gnoe(a, chat, c, d, dtilde, b)
        min_eig = np.linalg.eigvalsh(sc.family.s(default_grid(count=3).stacked())).min()
        if min_eig > 0.2:
            return sc
    raise ConstructionError("failed to draw a nonsingular scenario")


SPEC = FamilySpec(
    name="gnoe",
    var_names=VAR_NAMES,
    grid=(5, 0.5),
    tolerances={
        "system_analytic": 1e-9,
        "system_fd": 1e-6,
        "premise_x": 1e-12,
        "premise_t": 1e-12,
        "reduction": 1e-12,
    },
    fd_channel="system_fd",
    evaluator=evaluator,
    fields=("xi",),
    field_values=all_fields(xi),
    builders={
        "general": Builder(
            "build_gnoe",
            required={
                "a": parse_matrix,
                "chat": parse_matrix,
                **{k: parse_real_vector for k in ("d", "dtilde", "b")},
            },
            optional={"c": parse_matrix, "s0": parse_matrix},
            # build_gnoe takes C positionally; None means identity.
            defaults={"c": None},
        ),
        "random": RANDOM,
    },
)
default_grid = SPEC.grid_function()
verify_scenario = SPEC.verify_function()
