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
from typing import Optional, Sequence

import numpy as np

from . import linalg, verify
from .errors import ConstructionError, NoSolutionError
from .family import ExponentRecipe, PiBlock, PseudoExpFamily, SRule, STerm
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


def fields_uq(
    sc: DsiScenario, point: Sequence[float]
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(u, q1, q2) at the point, or None where S is singular."""
    q = sc.family.q(point)
    if q is None:
        return None
    qy = sc.family.q_deriv(point, (Y,))
    if qy is None:
        return None
    m1 = sc.m1
    u = 2.0 * q[m1:, :m1]
    q1 = 0.5 * (linalg.adjoint(u) @ u) - 2.0 * qy[:m1, :m1]
    q2 = -0.5 * (u @ linalg.adjoint(u)) + 2.0 * qy[m1:, m1:]
    return u, q1, q2


def premise_residuals(sc: DsiScenario, point: Sequence[float]) -> tuple[dict, float]:
    """Analytic residuals of Pi_x = Pi_y j and Pi_t = -i Pi_yy j."""
    fam = sc.family
    j = sc.j_mat
    pi_x = fam.pi(point, (X,))
    pi_t = fam.pi(point, (T,))
    pi_y = fam.pi(point, (Y,))
    pi_yy = fam.pi(point, (Y, Y))
    scale = 1.0 + linalg.fro(fam.pi(point))
    return (
        {
            "premise_x": linalg.fro(pi_x - pi_y @ j),
            "premise_t": linalg.fro(pi_t + 1j * pi_yy @ j),
        },
        scale,
    )


def evaluator(
    sc: DsiScenario,
    h: float = verify.DEFAULT_H,
    accuracy: int = verify.DEFAULT_ACCURACY,
    with_fd: bool = True,
):
    """Channels: analytic premises; FD residuals of the evolution equation
    and the two first-order coupling equations.
    """

    def evaluate(point):
        # The stencil offsets along x are shared by five channel functions;
        # cache the fields per offset so each point is assembled once.
        cache: dict = {}

        def fields_at(p):
            key = tuple(float(v) for v in p)
            if key not in cache:
                cache[key] = fields_uq(sc, key)
            return cache[key]

        def of_fields(fn):
            def value(p):
                f = fields_at(p)
                return None if f is None else fn(*f)

            return value

        u_fn = of_fields(lambda u, q1, q2: u)
        q1_fn = of_fields(lambda u, q1, q2: q1)
        q2_fn = of_fields(lambda u, q1, q2: q2)
        uu_star = of_fields(lambda u, q1, q2: u @ linalg.adjoint(u))
        u_star_u = of_fields(lambda u, q1, q2: linalg.adjoint(u) @ u)

        f = fields_at(point)
        if f is None:
            return None
        u, q1, q2 = f
        channels, scale = premise_residuals(sc, point)
        scale = max(scale - 1.0, linalg.fro(u), linalg.fro(q1), linalg.fro(q2))
        if with_fd:
            u_t = verify.fd_partial(u_fn, point, T, order=1, h=h, accuracy=accuracy)
            u_xx = verify.fd_partial(u_fn, point, X, order=2, h=h, accuracy=accuracy)
            u_yy = verify.fd_partial(u_fn, point, Y, order=2, h=h, accuracy=accuracy)
            q1_x = verify.fd_partial(q1_fn, point, X, order=1, h=h, accuracy=accuracy)
            q1_y = verify.fd_partial(q1_fn, point, Y, order=1, h=h, accuracy=accuracy)
            q2_x = verify.fd_partial(q2_fn, point, X, order=1, h=h, accuracy=accuracy)
            q2_y = verify.fd_partial(q2_fn, point, Y, order=1, h=h, accuracy=accuracy)
            usu_x = verify.fd_partial(u_star_u, point, X, order=1, h=h, accuracy=accuracy)
            usu_y = verify.fd_partial(u_star_u, point, Y, order=1, h=h, accuracy=accuracy)
            uus_x = verify.fd_partial(uu_star, point, X, order=1, h=h, accuracy=accuracy)
            uus_y = verify.fd_partial(uu_star, point, Y, order=1, h=h, accuracy=accuracy)
            parts = (u_t, u_xx, u_yy, q1_x, q1_y, q2_x, q2_y, usu_x, usu_y, uus_x, uus_y)
            if any(p is None for p in parts):
                return None
            evolution = 1j * u_t - 0.5 * (u_xx + u_yy) - (u @ q1 - q2 @ u)
            coupling1 = q1_x - q1_y - 0.5 * (usu_y + usu_x)
            coupling2 = q2_x + q2_y - 0.5 * (uus_y - uus_x)
            channels["evolution_fd"] = linalg.fro(evolution)
            channels["coupling1_fd"] = linalg.fro(coupling1)
            channels["coupling2_fd"] = linalg.fro(coupling2)
        return channels, scale

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
        min_eig = min(
            float(np.linalg.eigvalsh(sc.family.s(pt)).min())
            for pt in default_grid(count=3, half_width=0.8).points()
        )
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
    fd_channel="evolution_fd",
    evaluator=evaluator,
    fields=("u", "q1", "q2"),
    point_fields=fields_uq,
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
