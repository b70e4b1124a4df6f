"""Matrix Davey-Stewartson I solutions in three variables (x, t, y).

Two independent nodes supply the factor blocks

    Phi_1 = C1 exp((x+y) A1 - i t A1^2) chat1      (n x m1)
    Phi_2 = C2 exp((x-y) A2 + i t A2^2) chat2      (n x m2)

with Hermitian R_k solving A_k R_k + R_k A_k* = -chat_k chat_k*, and

    S = S0 + C1 E1 R1 E1* C1* - C2 E2 R2 E2* C2*.

Pi = [Phi_1 Phi_2] satisfies Pi_x = Pi_y j and Pi_t = -i Pi_yy j with
j = diag(I_{m1}, -I_{m2}), and the derivative rules

    S_y = -Pi Pi*,  S_x = -Pi j Pi*,  S_t = i (Pi_y j Pi* - Pi j Pi_y*)

hold. With Q = Pi* S^-1 Pi the fields

    u  = 2 Q[m1:, :m1]                   (m2 x m1)
    q1 = u* u / 2 - 2 (dQ/dy)[:m1, :m1]  (Hermitian)
    q2 = -u u* / 2 + 2 (dQ/dy)[m1:, m1:] (Hermitian)

solve  i u_t - (u_xx + u_yy)/2 = u q1 - q2 u  together with the two
first-order coupling equations for q1 and q2. The PDE residuals are
checked by finite differences only; the premise systems for Pi are checked
analytically. Nilpotent A_k give fields rational in (x, t, y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, verify
from .errors import ConstructionError, NoSolutionError
from .family import ExponentRecipe, PiBlock, PseudoExpFamily, SRule, STerm, pointwise
from .snode import SMultinode, solve_for_R
from .spec import RANDOM, Builder, FamilySpec, parse_complex, parse_matrix

__all__ = [
    "DsiScenario",
    "build_dsi",
    "build_rational_dsi",
    "fields_uq",
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
class DsiScenario:
    a1: np.ndarray
    a2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    chat1: np.ndarray
    chat2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    s0: np.ndarray
    family: PseudoExpFamily

    @property
    def m1(self) -> int:
        return self.chat1.shape[1]

    @property
    def m2(self) -> int:
        return self.chat2.shape[1]

    @property
    def j_mat(self) -> np.ndarray:
        return np.diag(
            np.concatenate([np.ones(self.m1), -np.ones(self.m2)])
        ).astype(complex)


def build_dsi(
    a1: np.ndarray,
    a2: np.ndarray,
    c1: Optional[np.ndarray],
    c2: Optional[np.ndarray],
    chat1: np.ndarray,
    chat2: np.ndarray,
    s0: Optional[np.ndarray] = None,
    r1: Optional[np.ndarray] = None,
    r2: Optional[np.ndarray] = None,
) -> DsiScenario:
    a1 = linalg.as_matrix(a1, "A1")
    a2 = linalg.as_matrix(a2, "A2")
    chat1 = linalg.as_matrix(chat1, "chat1")
    chat2 = linalg.as_matrix(chat2, "chat2")
    if chat1.shape[0] != a1.shape[0] or chat2.shape[0] != a2.shape[0]:
        raise ConstructionError("chat_k must match the corresponding A_k dimension")
    c1 = np.eye(a1.shape[0], dtype=complex) if c1 is None else linalg.as_matrix(c1, "C1")
    c2 = np.eye(a2.shape[0], dtype=complex) if c2 is None else linalg.as_matrix(c2, "C2")
    if c1.shape[0] != c2.shape[0]:
        raise ConstructionError("C1 and C2 must have the same row count")
    n_rows = c1.shape[0]
    s0 = np.eye(n_rows, dtype=complex) if s0 is None else linalg.as_matrix(s0, "S0")

    try:
        if r1 is None:
            r1 = solve_for_R(a1, -chat1 @ linalg.adjoint(chat1))
        if r2 is None:
            r2 = solve_for_R(a2, -chat2 @ linalg.adjoint(chat2))
    except NoSolutionError as exc:
        raise ConstructionError(f"node identity is unsolvable: {exc}") from exc
    r1 = np.asarray(r1, dtype=complex)
    r2 = np.asarray(r2, dtype=complex)
    for k, (a, r, ch) in enumerate(((a1, r1, chat1), (a2, r2, chat2)), start=1):
        report = SMultinode((a,), (np.eye(ch.shape[1], dtype=complex),), r, ch, (-1,)).validate()
        if not report.passed:
            raise ConstructionError(f"node {k} identity fails: " + "; ".join(report.messages))

    # Generators per (x, t, y) of the exponents (x+y) A1 - i t A1^2 and (x-y) A2 + i t A2^2
    recipe1 = ExponentRecipe([a1, -1j * (a1 @ a1), a1])
    recipe2 = ExponentRecipe([a2, 1j * (a2 @ a2), -a2])
    m1 = chat1.shape[1]
    m2 = chat2.shape[1]
    j = np.diag(np.concatenate([np.ones(m1), -np.ones(m2)])).astype(complex)
    eye = np.eye(m1 + m2, dtype=complex)
    family = PseudoExpFamily(
        VAR_NAMES,
        [PiBlock(c1, recipe1, chat1), PiBlock(c2, recipe2, chat2)],
        [STerm(1.0, c1, recipe1, r1), STerm(-1.0, c2, recipe2, r2)],
        s0,
        {
            X: [SRule(-1.0, (), j, ())],
            T: [SRule(1j, (Y,), j, ()), SRule(-1j, (), j, (Y,))],
            Y: [SRule(-1.0, (), eye, ())],
        },
    )
    return DsiScenario(a1, a2, c1, c2, chat1, chat2, r1, r2, s0, family)


def build_rational_dsi(
    chat1_head: complex = 1.0,
    chat2_head: complex = 1.0,
    c1: Optional[np.ndarray] = None,
    c2: Optional[np.ndarray] = None,
    s0: Optional[np.ndarray] = None,
) -> DsiScenario:
    """Nilpotent 2x2 instance with rational fields.

    A_k = [[0,1],[0,0]] forces chat_k = [head; 0]; the minimum-norm R_k is
    [[0, -|head|^2/2], [-|head|^2/2, 0]]. The exponentials collapse to
    I + (x +- y) A_k, so u, q1, q2 are rational in (x, y) and constant in t.
    """
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    chat1 = np.array([[chat1_head], [0.0]], dtype=complex)
    chat2 = np.array([[chat2_head], [0.0]], dtype=complex)
    return build_dsi(nil, nil, c1, c2, chat1, chat2, s0=s0)


@pointwise(masked=True)
def fields_uq(sc: DsiScenario, points: np.ndarray):
    """(u, q1, q2) at stacked points, with the mask of points where S is
    not singular."""
    (q, qy), ok = sc.family.q_deriv(points, [(), (Y,)])
    m1 = sc.m1
    u = 2.0 * q[:, m1:, :m1]
    q1 = 0.5 * (linalg.adjoint(u) @ u) - 2.0 * qy[:, :m1, :m1]
    q2 = -0.5 * (u @ linalg.adjoint(u)) + 2.0 * qy[:, m1:, m1:]
    return (u, q1, q2), ok


@pointwise(masked=False)
def premise_residuals(sc: DsiScenario, points: np.ndarray):
    """Analytic residuals of Pi_x = Pi_y j and Pi_t = -i Pi_yy j, and the
    scale 1 + ||Pi||, at stacked points."""
    j = sc.j_mat
    pi, pi_x, pi_t, pi_y, pi_yy = sc.family.pi(points, [(), (X,), (T,), (Y,), (Y, Y)])
    return (
        {
            "premise_x": linalg.fro(pi_x - pi_y @ j),
            "premise_t": linalg.fro(pi_t + 1j * pi_yy @ j),
        },
        1.0 + linalg.fro(pi),
    )


def evaluator(
    sc: DsiScenario,
    h: float = verify.DEFAULT_H,
    accuracy: int = verify.DEFAULT_ACCURACY,
):
    """The sweep's residual function of stacked points. Channels, all at
    every point: the analytic premises and the FD residuals of the
    evolution equation and the two first-order coupling equations.

    The FD channels difference one tuple field (u, q1, q2, u* u, u u*):
    one call along x for orders 1 and 2, one along y for orders 1 and 2,
    and one along t for order 1.
    """

    def fd_fields(p):
        (u, q1, q2), ok = fields_uq(sc, p)
        return (u, q1, q2, linalg.adjoint(u) @ u, u @ linalg.adjoint(u)), ok

    def evaluate(points):
        (u, q1, q2), ok = fields_uq(sc, points)
        channels, scale = premise_residuals(sc, points)
        scale = np.maximum.reduce([scale - 1.0, linalg.fro(u), linalg.fro(q1), linalg.fro(q2)])
        (d_x, d_xx), ok_x = verify.fd_partial(fd_fields, points, X, (1, 2), h=h, accuracy=accuracy)
        (d_y, d_yy), ok_y = verify.fd_partial(fd_fields, points, Y, (1, 2), h=h, accuracy=accuracy)
        (d_t,), ok_t = verify.fd_partial(fd_fields, points, T, (1,), h=h, accuracy=accuracy)
        ok = ok & ok_x & ok_y & ok_t
        _, q1_x, q2_x, usu_x, uus_x = d_x
        _, q1_y, q2_y, usu_y, uus_y = d_y
        evolution = 1j * d_t[0] - 0.5 * (d_xx[0] + d_yy[0]) - (u @ q1 - q2 @ u)
        coupling1 = q1_x - q1_y - 0.5 * (usu_y + usu_x)
        coupling2 = q2_x + q2_y - 0.5 * (uus_y - uus_x)
        channels["evolution_fd"] = linalg.fro(evolution)
        channels["coupling1_fd"] = linalg.fro(coupling1)
        channels["coupling2_fd"] = linalg.fro(coupling2)
        return (channels, scale), ok

    return evaluate


def random_scenario(rng: np.random.Generator, max_dim: int = 2) -> DsiScenario:
    """Random exponential scenario kept safely nonsingular: small chat_k and
    moderate spectra bound the two E R E* terms well below S0 = I.
    """
    for _ in range(60):
        dims = (int(rng.integers(1, max_dim + 1)), int(rng.integers(1, max_dim + 1)))
        mats = []
        for n_dim in dims:
            a = 0.3 * np.triu(rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim)), 1)
            a = a + np.diag(rng.uniform(0.3, 0.8, n_dim) + 1j * rng.uniform(-0.4, 0.4, n_dim))
            mats.append(a)
        a1, a2 = mats
        n_rows = max(dims)
        c1 = 0.8 * _padded_unitaryish(rng, n_rows, dims[0])
        c2 = 0.8 * _padded_unitaryish(rng, n_rows, dims[1])
        m1 = int(rng.integers(1, 3))
        m2 = int(rng.integers(1, 3))
        chat1 = 0.25 * (rng.normal(size=(dims[0], m1)) + 1j * rng.normal(size=(dims[0], m1)))
        chat2 = 0.25 * (rng.normal(size=(dims[1], m2)) + 1j * rng.normal(size=(dims[1], m2)))
        sc = build_dsi(a1, a2, c1, c2, chat1, chat2, s0=np.eye(n_rows, dtype=complex))
        min_eig = np.linalg.eigvalsh(sc.family.s(default_grid(count=3, half_width=0.8).stacked())).min()
        if min_eig > 0.2:
            return sc
    raise ConstructionError("failed to draw a nonsingular scenario")


def _padded_unitaryish(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    qmat, _ = np.linalg.qr(m)
    return qmat[:, :cols]


SPEC = FamilySpec(
    name="dsi",
    var_names=VAR_NAMES,
    grid=(5, 0.6),
    tolerances={
        "premise_x": 1e-12,
        "premise_t": 1e-12,
        "evolution_fd": 1e-5,
        "coupling1_fd": 1e-5,
        "coupling2_fd": 1e-5,
    },
    evaluator=evaluator,
    fields=("u", "q1", "q2"),
    field_values=fields_uq,
    builders={
        "general": Builder(
            "build_dsi",
            required={k: parse_matrix for k in ("a1", "a2", "chat1", "chat2")},
            optional={k: parse_matrix for k in ("c1", "c2", "s0")},
            # build_dsi takes C1 and C2 positionally; None means identity.
            defaults={"c1": None, "c2": None},
        ),
        "rational": Builder(
            "build_rational_dsi",
            optional={
                "chat1_head": parse_complex,
                "chat2_head": parse_complex,
                **{k: parse_matrix for k in ("c1", "c2", "s0")},
            },
        ),
        "random": RANDOM,
    },
)
default_grid = SPEC.grid_function()
verify_scenario = SPEC.verify_function()
