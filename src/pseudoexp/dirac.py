"""Dirac-type system in two variables.

Constructs 2x2 potentials V and row solutions Psi of

    d/dt Psi + sigma2 d/dy Psi = i V Psi,      sigma2 = [[0, -i], [i, 0]],

from matrix data (A1, A2, chat, C, S0) with commuting A1, A2. The columns
of chat are the adjoints of two row vectors g1, g2 that must satisfy

    g1 A1* - i g2 A2* = 0,     g2 A1* + i g1 A2* = 0,

which makes Pi* = chat* exp(...)* C* a kernel element of the bare operator
(d/dt + sigma2 d/dy). The node identities

    A1 R + R A1* = chat sigma2 chat*,    A2 R + R A2* = -chat chat*

turn dS/dt and dS/dy into products of Pi with itself, and the dressed wave
function Psi = Pi* S^-1 then solves the full system with

    V = i (Q sigma2 - sigma2 Q),    Q = Pi* S^-1 Pi.

The two-channel builder below packages the special case A1 = diag(D1, D2),
A2 = A1 * diag(I, -I), g2 = -i g1 diag(I, -I), where the identities decouple
into one Lyapunov equation per channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg, verify
from .errors import ConstructionError, NoSolutionError
from .family import ExponentRecipe, PiBlock, PseudoExpFamily, SRule, STerm, pointwise
from .snode import SMultinode, solve_for_R
from .spec import RANDOM, Builder, FamilySpec, all_fields, parse_int, parse_matrix, parse_vector

__all__ = [
    "SIGMA2",
    "DiracScenario",
    "build_dirac",
    "build_two_channel",
    "potential",
    "wave",
    "evaluator",
    "SPEC",
    "default_grid",
    "verify_scenario",
    "random_scenario",
]

SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)

CONSTRAINT_RTOL = 1e-10
VAR_NAMES = ("t", "y")


@dataclass(frozen=True)
class DiracScenario:
    node: SMultinode
    c: np.ndarray
    s0: np.ndarray
    family: PseudoExpFamily

    @property
    def dim(self) -> int:
        return self.node.dim


def _check_kernel_constraints(a1: np.ndarray, a2: np.ndarray, chat: np.ndarray) -> None:
    g1 = linalg.adjoint(chat[:, 0:1])
    g2 = linalg.adjoint(chat[:, 1:2])
    scale = 1.0 + linalg.fro(chat) * max(linalg.fro(a1), linalg.fro(a2))
    r1 = linalg.fro(g1 @ linalg.adjoint(a1) - 1j * g2 @ linalg.adjoint(a2))
    r2 = linalg.fro(g2 @ linalg.adjoint(a1) + 1j * g1 @ linalg.adjoint(a2))
    if r1 > CONSTRAINT_RTOL * scale or r2 > CONSTRAINT_RTOL * scale:
        raise ConstructionError(
            "chat columns do not satisfy the kernel constraints "
            f"(residuals {r1:.3e}, {r2:.3e})"
        )


def build_dirac(
    a1: np.ndarray,
    a2: np.ndarray,
    chat: np.ndarray,
    c: Optional[np.ndarray] = None,
    s0: Optional[np.ndarray] = None,
    r: Optional[np.ndarray] = None,
) -> DiracScenario:
    """Assemble a scenario from raw node data.

    When r is omitted it is solved from the first identity and the second
    identity is then required to hold for the same R.
    """
    a1 = linalg.as_matrix(a1, "A1")
    a2 = linalg.as_matrix(a2, "A2")
    chat = linalg.as_matrix(chat, "chat")
    n_dim = a1.shape[0]
    if chat.shape != (n_dim, 2):
        raise ConstructionError("chat must have two columns matching the A dimension")
    _check_kernel_constraints(a1, a2, chat)
    if c is None:
        c = np.eye(n_dim, dtype=complex)
    c = linalg.as_matrix(c, "C")
    if s0 is None:
        s0 = np.eye(c.shape[0], dtype=complex)
    s0 = linalg.as_matrix(s0, "S0")
    if r is None:
        try:
            r = solve_for_R(a1, chat @ SIGMA2 @ linalg.adjoint(chat))
        except NoSolutionError as exc:
            raise ConstructionError(f"first node identity is unsolvable: {exc}") from exc
    node = SMultinode(
        a_mats=(a1, a2),
        nu_mats=(SIGMA2, -np.eye(2, dtype=complex)),
        r_mat=np.asarray(r, dtype=complex),
        chat=chat,
        signs=(1, 1),
    )
    node.require_valid()

    recipe = ExponentRecipe([a1, a2])
    eye2 = np.eye(2, dtype=complex)
    family = PseudoExpFamily(
        VAR_NAMES,
        [PiBlock(c, recipe, chat)],
        [STerm(1.0, c, recipe, node.r_mat)],
        s0,
        {
            0: [SRule(1.0, (), SIGMA2, ())],
            1: [SRule(-1.0, (), eye2, ())],
        },
    )
    return DiracScenario(node=node, c=c, s0=s0, family=family)


def build_two_channel(
    g1: np.ndarray,
    n1: int,
    d: Sequence[complex],
    c: Optional[np.ndarray] = None,
    s0: Optional[np.ndarray] = None,
) -> DiracScenario:
    """Two-channel scenario: diagonal A1 = diag(d), A2 = A1 j, g2 = -i g1 j,
    with j = diag(I_{n1}, -I_{n2}). The identities decouple per channel:

        D1 R11 + R11 D1* = -2 a* a,    D2 R22 + R22 D2* = 2 b* b,

    where g1 = [a b] splits after n1 entries; the cross block of R is zero.
    """
    g1 = linalg.as_matrix(g1, "g1")
    if g1.shape[0] != 1:
        raise ConstructionError("g1 must be a single row")
    d = np.asarray(list(d), dtype=complex)
    n_dim = d.shape[0]
    if g1.shape[1] != n_dim:
        raise ConstructionError("g1 width must match the number of diagonal entries")
    if not 0 < n1 < n_dim:
        raise ConstructionError("channel split must leave both channels nonempty")
    j = np.diag(np.concatenate([np.ones(n1), -np.ones(n_dim - n1)])).astype(complex)
    a1 = np.diag(d)
    a2 = a1 @ j
    g2 = -1j * g1 @ j
    chat = np.hstack([linalg.adjoint(g1), linalg.adjoint(g2)])

    a_row = g1[:, :n1]
    b_row = g1[:, n1:]
    try:
        r11 = solve_for_R(a1[:n1, :n1], -2.0 * linalg.adjoint(a_row) @ a_row)
        r22 = solve_for_R(a1[n1:, n1:], 2.0 * linalg.adjoint(b_row) @ b_row)
    except NoSolutionError as exc:
        raise ConstructionError(f"channel Lyapunov equation is unsolvable: {exc}") from exc
    r = np.zeros((n_dim, n_dim), dtype=complex)
    r[:n1, :n1] = r11
    r[n1:, n1:] = r22
    return build_dirac(a1, a2, chat, c=c, s0=s0, r=r)


@pointwise(masked=True)
def potential(sc: DiracScenario, points: np.ndarray):
    """V = i(Q sigma2 - sigma2 Q), Hermitian, at stacked points, with the
    mask of points where S is not singular."""
    q, ok = sc.family.q(points)
    v = 1j * (q @ SIGMA2 - SIGMA2 @ q)
    return (v + linalg.adjoint(v)) / 2.0, ok


@pointwise(masked=True)
def wave(sc: DiracScenario, points: np.ndarray):
    """Psi = Pi* S^-1 at stacked points, with the mask."""
    return sc.family.w(points)


def evaluator(
    sc: DiracScenario,
    h: float = verify.DEFAULT_H,
    accuracy: int = verify.DEFAULT_ACCURACY,
):
    """The sweep's residual function of stacked points: the wave equation
    with analytic derivatives (``wave_analytic``) and with FD stencils on
    Psi (``wave_fd``), both at every point."""

    fam = sc.family

    def evaluate(points):
        (w, wt, wy), ok = fam.w_deriv(points, [(), (0,), (1,)])
        v, ok_v = potential(sc, points)
        channels = {"wave_analytic": linalg.fro(wt + SIGMA2 @ wy - 1j * v @ w)}
        ok = ok & ok_v
        (wt_fd,), ok_t = verify.fd_partial(fam.w, points, 0, (1,), h=h, accuracy=accuracy)
        (wy_fd,), ok_y = verify.fd_partial(fam.w, points, 1, (1,), h=h, accuracy=accuracy)
        ok = ok & ok_t & ok_y
        channels["wave_fd"] = linalg.fro(wt_fd + SIGMA2 @ wy_fd - 1j * v @ w)
        return (channels, np.maximum(linalg.fro(w), linalg.fro(v))), ok

    return evaluate


def random_scenario(rng: np.random.Generator, max_channel: int = 2) -> DiracScenario:
    """Random two-channel data conditioned so S stays positive definite:
    channel-1 spectra in the left half plane and channel-2 spectra in the
    right half plane make both Lyapunov solutions positive semidefinite.
    """
    n1 = int(rng.integers(1, max_channel + 1))
    n2 = int(rng.integers(1, max_channel + 1))
    d1 = -rng.uniform(0.2, 0.8, n1) + 1j * rng.uniform(-0.5, 0.5, n1)
    d2 = rng.uniform(0.2, 0.8, n2) + 1j * rng.uniform(-0.5, 0.5, n2)
    d = np.concatenate([d1, d2])
    n_dim = n1 + n2
    g1 = (rng.normal(size=(1, n_dim)) + 1j * rng.normal(size=(1, n_dim))) * 0.5
    c = np.eye(n_dim, dtype=complex) + 0.1 * (
        rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
    )
    return build_two_channel(g1, n1, d, c=c, s0=np.eye(n_dim, dtype=complex))


SPEC = FamilySpec(
    name="dirac",
    var_names=VAR_NAMES,
    grid=(9, 0.8),
    tolerances={"wave_analytic": 1e-9, "wave_fd": 1e-6},
    evaluator=evaluator,
    fields=("potential", "wave"),
    field_values=all_fields(potential, wave),
    builders={
        "general": Builder(
            "build_dirac",
            required={"a1": parse_matrix, "a2": parse_matrix, "chat": parse_matrix},
            optional={"c": parse_matrix, "s0": parse_matrix},
        ),
        "two_channel": Builder(
            "build_two_channel",
            required={"g1": parse_matrix, "n1": parse_int, "d": parse_vector},
            optional={"c": parse_matrix, "s0": parse_matrix},
        ),
        "random": RANDOM,
    },
)
default_grid = SPEC.grid_function()
verify_scenario = SPEC.verify_function()
