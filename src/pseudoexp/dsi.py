"""Matrix Davey-Stewartson I solutions in three variables (x, t, y).

Two independent nodes supply the factor blocks

    Phi_1 = C1 exp((x+y) A1 - i t A1^2) chat1      (n x m1)
    Phi_2 = C2 exp((x-y) A2 + i t A2^2) chat2      (n x m2)

with Hermitian R_k solving A_k R_k + R_k A_k* = -chat_k chat_k*, and

    S = S0 + C1 E1 R1 E1* C1* - C2 E2 R2 E2* C2*.

The two nodes are assembled as one block-diagonal node, with C = [C1 C2],
chat = diag(chat1, chat2), R = diag(R1, -R2) and the generators diag(A1, A2),
diag(-i A1^2, i A2^2), diag(A1, -A2) of (x, t, y), so Pi = [Phi_1 Phi_2].

Pi = [Phi_1 Phi_2] satisfies Pi_x = Pi_y j and Pi_t = -i Pi_yy j with
j = diag(I_{m1}, -I_{m2}), and by the node identities

    S_y = -Pi Pi*,  S_x = -Pi j Pi*,  S_t = i (Pi_y j Pi* - Pi j Pi_y*)

hold. With Q = Pi* S^-1 Pi the fields

    u  = 2 Q[m1:, :m1]                   (m2 x m1)
    q1 = u* u / 2 - 2 (dQ/dy)[:m1, :m1]  (Hermitian)
    q2 = -u u* / 2 + 2 (dQ/dy)[m1:, m1:] (Hermitian)

solve  i u_t - (u_xx + u_yy)/2 = u q1 - q2 u  together with the two
first-order coupling equations for q1 and q2, checked on analytic
derivatives and on FD stencils; the premises for Pi are checked
analytically. Nilpotent A_k give fields rational in (x, t, y).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import ConstructionError, NoSolutionError
from .family import ExponentRecipe, PiBlock, PseudoExpFamily
from .snode import SMultinode, solve_for_R
from .spec import RANDOM, Builder, FamilySpec, parse_complex, parse_matrix

__all__ = [
    "DsiScenario",
    "build_dsi",
    "build_rational_dsi",
    "fields_uq",
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
    recipe = ExponentRecipe([_diag(a1, a2), _diag(-1j * (a1 @ a1), 1j * (a2 @ a2)), _diag(a1, -a2)])
    block = PiBlock(np.hstack([c1, c2]), recipe, _diag(chat1, chat2), _diag(r1, -r2))
    family = PseudoExpFamily(VAR_NAMES, block, s0)
    return DsiScenario(a1, a2, c1, c2, chat1, chat2, r1, r2, s0, family)


def _diag(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    out = np.zeros((m1.shape[0] + m2.shape[0], m1.shape[1] + m2.shape[1]), dtype=complex)
    out[: m1.shape[0], : m1.shape[1]], out[m1.shape[0] :, m1.shape[1] :] = m1, m2
    return out


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


def _product(left, right, deriv: tuple[int, ...]) -> np.ndarray:
    """d^deriv of left @ right, from the factors' sources, to first order."""
    if not deriv:
        return left(()) @ right(())
    if len(deriv) > 1:
        raise ValueError(f"no product rule for the derivative {deriv}")
    return left(deriv) @ right(()) + left(()) @ right(deriv)


def _sources(sc: DsiScenario, points: np.ndarray):
    """u, q1, q2, u* u, u u* and Pi at stacked points, from one view, with
    the mask."""
    view, m1 = sc.family.at(points), sc.m1
    q = functools.cache(view.q)

    @functools.cache
    def u(deriv):
        return 2.0 * q(deriv)[:, m1:, :m1]

    def u_adj(deriv):
        return linalg.adjoint(u(deriv))

    usu = functools.cache(lambda deriv: _product(u_adj, u, deriv))
    uus = functools.cache(lambda deriv: _product(u, u_adj, deriv))
    return {
        "u": u,
        "q1": functools.cache(lambda deriv: 0.5 * usu(deriv) - 2.0 * q((Y, *deriv))[:, :m1, :m1]),
        "q2": functools.cache(lambda deriv: -0.5 * uus(deriv) + 2.0 * q((Y, *deriv))[:, m1:, m1:]),
        "usu": usu,
        "uus": uus,
        "Pi": view.pi,
    }, view.ok


def _premises(sc: DsiScenario, pi):
    j = sc.j_mat
    return (
        {
            "premise_x": linalg.fro(pi((X,)) - pi((Y,)) @ j),
            "premise_t": linalg.fro(pi((T,)) + 1j * pi((Y, Y)) @ j),
        },
        1.0 + linalg.fro(pi(())),
    )


def _checks(sc: DsiScenario, f):
    channels, scale = _premises(sc, f["Pi"])
    fields = (linalg.fro(f[name](())) for name in ("u", "q1", "q2"))
    return channels, np.maximum.reduce([scale - 1.0, *fields])


def _equations(sc: DsiScenario, d):
    u, q1, q2 = d("u"), d("q1"), d("q2")
    return {
        "evolution": 1j * d("u", T) - 0.5 * (d("u", X, X) + d("u", Y, Y)) - (u @ q1 - q2 @ u),
        "coupling1": d("q1", X) - d("q1", Y) - 0.5 * (d("usu", Y) + d("usu", X)),
        "coupling2": d("q2", X) + d("q2", Y) - 0.5 * (d("uus", Y) - d("uus", X)),
    }


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
        "evolution_analytic": 1e-9,
        "coupling1_analytic": 1e-9,
        "coupling2_analytic": 1e-9,
        "evolution_fd": 1e-5,
        "coupling1_fd": 1e-5,
        "coupling2_fd": 1e-5,
    },
    sources=_sources,
    equations=_equations,
    checks=_checks,
    fields=("u", "q1", "q2"),
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
fields_uq = SPEC.field_function("u", "q1", "q2")
default_grid = SPEC.grid_function()
evaluator = SPEC.evaluator
verify_scenario = SPEC.verify_function()
