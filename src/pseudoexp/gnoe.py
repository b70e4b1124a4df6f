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

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import ConstructionError, NoSolutionError
from .family import ExponentRecipe, PiBlock, PseudoExpFamily
from .snode import SMultinode, solve_for_R
from .spec import RANDOM, Builder, FamilySpec, parse_matrix, parse_real_vector

__all__ = [
    "GnoeScenario",
    "build_gnoe",
    "synthesize_chat",
    "diagonal_block_r",
    "xi",
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
    family = PseudoExpFamily(VAR_NAMES, PiBlock(c, recipe, chat_big, r), s0)
    return GnoeScenario(a, chat, c, d_diag, dtilde_diag, b_diag, r, s0, node, family)


def _sources(sc: GnoeScenario, points: np.ndarray):
    """xi and Pi with their derivatives, from one view of the family at
    stacked points, with the mask of points where S is not singular."""
    view = sc.family.at(points)
    return {"xi": functools.cache(lambda deriv: view.q(deriv) @ sc.b_mat), "Pi": view.pi}, view.ok


def _equations(sc: GnoeScenario, d):
    dm, dt, f = sc.d_mat, sc.dtilde_mat, d("xi")
    f_t, f_x, f_y = d("xi", T), d("xi", X), d("xi", Y)
    lhs = (dm @ f_t - f_t @ dm) - (dt @ f_x - f_x @ dt)
    com_d = dm @ f - f @ dm
    com_dt = dt @ f - f @ dt
    rhs = (com_d @ com_dt - com_dt @ com_d) + dm @ f_y @ dt - dt @ f_y @ dm
    return {"system": lhs - rhs}


def _premises(sc: GnoeScenario, pi):
    return (
        {
            "premise_x": linalg.fro(pi((X,)) - pi((Y,)) @ sc.d_mat),
            "premise_t": linalg.fro(pi((T,)) - pi((Y,)) @ sc.dtilde_mat),
        },
        1.0 + linalg.fro(pi(())),
    )


def _checks(sc: GnoeScenario, f):
    xi, b = f["xi"], sc.b_mat
    channels, _ = _premises(sc, f["Pi"])
    channels["reduction"] = linalg.fro(linalg.adjoint(xi(())) - b @ xi(()) @ b)
    return channels, np.maximum.reduce([linalg.fro(xi(d)) for d in [(), (X,), (T,), (Y,)]])


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
    sources=_sources,
    equations=_equations,
    checks=_checks,
    fields=("xi",),
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
xi = SPEC.field_function("xi")
default_grid = SPEC.grid_function()
evaluator = SPEC.evaluator
verify_scenario = SPEC.verify_function()
