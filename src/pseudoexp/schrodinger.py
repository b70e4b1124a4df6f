"""Schrodinger equation with matrix pseudo-exponential-type potentials.

From node data (A, chat, C, S0) with A R + R A* = chat chat*, the machinery
builds Pi = C exp(xA - itA^2) chat and S = S0 + C E R E* C*, and produces

    potential   q = -2 d/dx (Pi* S^-1 Pi)        (Hermitian p x p)
    wave        W = Pi* S^-1                     (p x n rows)

with  i dW/dt + d^2W/dx^2 - q W = 0  at every point where S is invertible.

Three closed-form instances are provided for cross-checking: a potential
that is singular along a line in the (x, t) plane, a rational potential
built from a real-eigenvalue Jordan block, and an everywhere-nonsingular
rational potential with nontrivial S0. A positivity checker certifies the
sufficient conditions under which S stays positive definite for all (x, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg, verify
from .errors import ConstructionError, NoSolutionError
from .family import ExponentRecipe, PiBlock, PseudoExpFamily, SRule, STerm, pointwise
from .snode import SMultinode, solve_for_R
from .spec import RANDOM, Builder, FamilySpec, all_fields, parse_complex, parse_matrix, parse_real

__all__ = [
    "SchrodingerScenario",
    "ClosedForm",
    "PositivityReport",
    "build_schrodinger",
    "build_singular_line_example",
    "build_rational_example",
    "build_nonsingular_example",
    "potential",
    "wave",
    "evaluator",
    "SPEC",
    "default_grid",
    "verify_scenario",
    "check_positivity",
    "random_scenario",
]

VAR_NAMES = ("x", "t")
SPECTRUM_MARGIN = 1e-8


@dataclass(frozen=True)
class SchrodingerScenario:
    node: SMultinode
    c: np.ndarray
    s0: np.ndarray
    family: PseudoExpFamily

    @property
    def dim(self) -> int:
        return self.node.dim


@dataclass(frozen=True)
class ClosedForm:
    """Independent explicit formulas for cross-checking a scenario."""

    name: str
    potential: Callable[[Sequence[float]], Optional[np.ndarray]]
    wave: Callable[[Sequence[float]], Optional[np.ndarray]]


def build_schrodinger(
    a: np.ndarray,
    chat: np.ndarray,
    c: Optional[np.ndarray] = None,
    s0: Optional[np.ndarray] = None,
    r: Optional[np.ndarray] = None,
) -> SchrodingerScenario:
    a = linalg.as_matrix(a, "A")
    chat = linalg.as_matrix(chat, "chat")
    n_dim = a.shape[0]
    if a.shape[0] != a.shape[1] or chat.shape[0] != n_dim:
        raise ConstructionError("A must be square and chat must match its dimension")
    width = chat.shape[1]
    if c is None:
        c = np.eye(n_dim, dtype=complex)
    c = linalg.as_matrix(c, "C")
    if s0 is None:
        s0 = np.eye(c.shape[0], dtype=complex)
    s0 = linalg.as_matrix(s0, "S0")
    if r is None:
        try:
            r = solve_for_R(a, chat @ linalg.adjoint(chat))
        except NoSolutionError as exc:
            raise ConstructionError(f"node identity is unsolvable: {exc}") from exc
    node = SMultinode(
        a_mats=(a,),
        nu_mats=(np.eye(width, dtype=complex),),
        r_mat=np.asarray(r, dtype=complex),
        chat=chat,
        signs=(1,),
    )
    node.require_valid()

    recipe = ExponentRecipe([a, -1j * (a @ a)])
    eye = np.eye(width, dtype=complex)
    family = PseudoExpFamily(
        VAR_NAMES,
        [PiBlock(c, recipe, chat)],
        [STerm(1.0, c, recipe, node.r_mat)],
        s0,
        {
            0: [SRule(1.0, (), eye, ())],
            1: [SRule(-1j, (0,), eye, ()), SRule(1j, (), eye, (0,))],
        },
    )
    return SchrodingerScenario(node=node, c=c, s0=s0, family=family)


@pointwise(masked=True)
def potential(sc: SchrodingerScenario, points: np.ndarray):
    """q = -2 dQ/dx, Hermitian, at stacked points, with the mask of points
    where S is not singular."""
    qx, ok = sc.family.q_deriv(points, (0,))
    return -2.0 * qx, ok


@pointwise(masked=True)
def wave(sc: SchrodingerScenario, points: np.ndarray):
    """W = Pi* S^-1 at stacked points, with the mask."""
    return sc.family.w(points)


def evaluator(
    sc: SchrodingerScenario,
    h: float = verify.DEFAULT_H,
    accuracy: int = verify.DEFAULT_ACCURACY,
):
    """The sweep's residual function of stacked points: i W_t + W_xx - q W
    with analytic derivatives (``wave_analytic``) and via FD
    (``wave_fd``), both at every point.

    The FD channel recomputes every derivative in the equation, including
    the x-derivative inside the potential, by stencils on the raw fields.
    """

    fam = sc.family

    def w_and_q(p):
        (w, ok_w), (q, ok_q) = fam.w(p), fam.q(p)
        return (w, q), ok_w & ok_q

    def evaluate(points):
        (w, wt, wxx), ok = fam.w_deriv(points, [(), (1,), (0, 0)])
        qt, ok_q = potential(sc, points)
        res = 1j * wt + wxx - qt @ w
        scale = np.maximum(linalg.fro(w), linalg.fro(qt))
        channels = {"wave_analytic": linalg.fro(res)}
        ok = ok & ok_q
        (wt_fd,), ok_t = verify.fd_partial(fam.w, points, 1, (1,), h=h, accuracy=accuracy)
        ((_, qx_fd), (wxx_fd, _)), ok_x = verify.fd_partial(
            w_and_q, points, 0, (1, 2), h=h, accuracy=accuracy
        )
        ok = ok & ok_t & ok_x
        channels["wave_fd"] = linalg.fro(1j * wt_fd + wxx_fd - (-2.0 * qx_fd) @ w)
        return (channels, scale), ok

    return evaluate


# -- explicit instances ------------------------------------------------------


def _jordan(mu0: complex) -> np.ndarray:
    return np.array([[mu0, 1.0], [0.0, mu0]], dtype=complex)


def build_singular_line_example(
    beta: float = 1.0,
    r11: float = 1.0,
    im_r12: float = 0.0,
    b: complex = 0.0,
    d: float = 1.0,
) -> tuple[SchrodingerScenario, ClosedForm]:
    """Jordan block with purely imaginary eigenvalue i*beta.

    The identity pins Re R12 = 1/2 and R22 = 0; r11, Im R12, and the S0
    entries b, d stay free. With p = x + 2 beta t and the constant
    c = d r11 - |R12 + b|^2, the determinant of S is c + d p, so the
    potential q = 2 d^2 / (c + d p)^2 blows up along the line c + d p = 0.
    """
    beta = float(beta)
    if beta == 0.0:
        raise ConstructionError("beta must be nonzero")
    d = float(d)
    mu0 = 1j * beta
    a = _jordan(mu0)
    chat = np.array([[1.0], [0.0]], dtype=complex)
    r12 = 0.5 + 1j * float(im_r12)
    r = np.array([[float(r11), r12], [np.conj(r12), 0.0]], dtype=complex)
    s0 = np.array([[0.0, b], [np.conj(b), d]], dtype=complex)
    sc = build_schrodinger(a, chat, s0=s0, r=r)

    c_const = d * float(r11) - abs(r12 + b) ** 2

    def p_tilde(point):
        x, t = point
        return x + 2.0 * beta * t

    def det_s(point):
        return c_const + d * p_tilde(point)

    def cf_potential(point):
        den = det_s(point)
        if abs(den) <= 1e-12 * (1.0 + abs(c_const) + abs(d * p_tilde(point))):
            return None
        return np.array([[2.0 * d**2 / den**2]], dtype=complex)

    def cf_wave(point):
        den = det_s(point)
        if abs(den) <= 1e-12 * (1.0 + abs(c_const) + abs(d * p_tilde(point))):
            return None
        x, t = point
        phase = np.exp(-1j * beta * x - 1j * beta**2 * t)
        return (phase / den) * np.array([[d, -(r12 + b)]], dtype=complex)

    return sc, ClosedForm("singular-line", cf_potential, cf_wave)


def build_rational_example(mu0: complex = 1.0) -> tuple[SchrodingerScenario, ClosedForm]:
    """Jordan block with eigenvalue mu0, Re mu0 > 0, C = [1 1], S0 = 0.

    Everything is a rational function of p = x - 2 i mu0 t times a plain
    exponential; with kappa = 2 Re mu0 the scalar S factors as
    kappa^-1 |e^{mu0 (x - i mu0 t)}|^2 (|1 + p - 1/kappa|^2 + 1/kappa^2),
    which never vanishes.
    """
    mu0 = complex(mu0)
    kappa = 2.0 * mu0.real
    if kappa <= 0:
        raise ConstructionError("mu0 must have positive real part")
    a = _jordan(mu0)
    chat = np.array([[0.0], [1.0]], dtype=complex)
    c = np.array([[1.0, 1.0]], dtype=complex)
    s0 = np.zeros((1, 1), dtype=complex)
    sc = build_schrodinger(a, chat, c=c, s0=s0)

    def parts(point):
        x, t = point
        p_exp = x - 1j * mu0 * t
        z = 1.0 + x - 2j * mu0 * t
        g = abs(z - 1.0 / kappa) ** 2 + 1.0 / kappa**2
        return p_exp, z, g

    def cf_potential(point):
        _, z, g = parts(point)
        num = z**2 + np.conj(z) ** 2 - (2.0 / kappa) * (z + np.conj(z))
        return np.array([[2.0 * num / g**2]], dtype=complex)

    def cf_wave(point):
        p_exp, z, g = parts(point)
        return np.array([[kappa * np.exp(-mu0 * p_exp) * np.conj(z) / g]], dtype=complex)

    return sc, ClosedForm("rational", cf_potential, cf_wave)


def build_nonsingular_example(
    mu0: complex = 1.0, d: float = 1.0
) -> tuple[SchrodingerScenario, ClosedForm]:
    """Same Jordan block as the rational instance but C = I and
    S0 = diag(0, d) with d > 0; S stays positive definite everywhere and
    the potential is a nonsingular rational-times-exponential expression.
    """
    mu0 = complex(mu0)
    kappa = 2.0 * mu0.real
    if kappa <= 0:
        raise ConstructionError("mu0 must have positive real part")
    d = float(d)
    if d <= 0:
        raise ConstructionError("d must be positive")
    a = _jordan(mu0)
    chat = np.array([[0.0], [1.0]], dtype=complex)
    s0 = np.diag([0.0, d]).astype(complex)
    sc = build_schrodinger(a, chat, s0=s0)

    def parts(point):
        x, t = point
        p_exp = x - 1j * mu0 * t
        pt = x - 2j * mu0 * t
        weight = d * np.exp(-2.0 * (mu0 * p_exp).real)  # d |e^{mu0 P}|^-2
        z1 = 2.0 / kappa**3 + weight * abs(pt) ** 2
        z2 = 1.0 / kappa**4 + (weight / kappa) * (
            abs(pt) ** 2 - (pt + np.conj(pt)).real / kappa + 2.0 / kappa**2
        )
        return p_exp, pt, weight, z1, z2

    def cf_potential(point):
        _, pt, weight, z1, z2 = parts(point)
        two_re = (pt + np.conj(pt)).real
        z1x = -kappa * (z1 - 2.0 / kappa**3) + weight * two_re
        z2x = -kappa * (z2 - 1.0 / kappa**4) + (weight / kappa) * (two_re - 2.0 / kappa)
        return np.array([[-2.0 * (z1x * z2 - z1 * z2x) / z2**2]], dtype=complex)

    def cf_wave(point):
        p_exp, pt, weight, _, z2 = parts(point)
        row = np.array(
            [[1.0 / kappa**2 + weight * np.conj(pt), 2.0 / kappa**3 - pt / kappa**2]],
            dtype=complex,
        )
        return (np.exp(-mu0 * p_exp) / z2) * row

    return sc, ClosedForm("nonsingular", cf_potential, cf_wave)


# -- positivity --------------------------------------------------------------


@dataclass(frozen=True)
class PositivityReport:
    spectrum_margin: float
    full_range: bool
    rank_c_full: bool
    s0_psd: bool
    r_min_eigenvalue: float
    min_s_eigenvalue: float
    points_checked: int

    @property
    def hypotheses_met(self) -> bool:
        return (
            self.spectrum_margin > SPECTRUM_MARGIN
            and self.full_range
            and self.rank_c_full
            and self.s0_psd
        )

    @property
    def positive(self) -> bool:
        return self.hypotheses_met and self.min_s_eigenvalue > 0.0


def check_positivity(
    sc: SchrodingerScenario, points: Sequence[Sequence[float]]
) -> PositivityReport:
    """Check the sufficient conditions for S(x, t) > 0 and sample S.

    Conditions: every eigenvalue of A has positive real part, (A, chat)
    spans the full space, C has full row rank, and S0 is positive
    semidefinite. Under them the identity solution R is positive definite
    and S = S0 + C E R E* C* stays positive definite at every point.
    """
    a = sc.node.a_mats[0]
    margin = np.linalg.eigvals(a).real.min()
    full = linalg.full_range_rank(a, sc.node.chat) == sc.node.dim
    rank_c = linalg.numerical_rank(sc.c) == sc.c.shape[0]
    s0_eigs = np.linalg.eigvalsh((sc.s0 + linalg.adjoint(sc.s0)) / 2)
    s0_ok = bool(s0_eigs.min() >= -1e-12 * (1.0 + linalg.fro(sc.s0)))
    r_eigs = np.linalg.eigvalsh((sc.node.r_mat + linalg.adjoint(sc.node.r_mat)) / 2)

    stacked = np.asarray(points, dtype=float).reshape(-1, len(VAR_NAMES))
    count = len(stacked)
    min_eig = np.linalg.eigvalsh(sc.family.s(stacked)).min() if count else np.nan
    return PositivityReport(
        spectrum_margin=float(margin),
        full_range=bool(full),
        rank_c_full=bool(rank_c),
        s0_psd=s0_ok,
        r_min_eigenvalue=float(r_eigs.min()),
        min_s_eigenvalue=float(min_eig),
        points_checked=count,
    )


def random_scenario(rng: np.random.Generator, max_dim: int = 3) -> SchrodingerScenario:
    """Random data satisfying the positivity hypotheses, so S is positive
    definite at every (x, t) and residual sweeps never hit a masked point.
    """
    n_dim = int(rng.integers(1, max_dim + 1))
    for _ in range(100):
        a = np.triu(rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))) * 0.4
        a[np.diag_indices(n_dim)] = rng.uniform(0.3, 1.0, n_dim) + 1j * rng.uniform(
            -0.5, 0.5, n_dim
        )
        chat = (rng.normal(size=(n_dim, 1)) + 1j * rng.normal(size=(n_dim, 1))) * 0.7
        if linalg.full_range_rank(a, chat) != n_dim:
            continue
        c = np.eye(n_dim, dtype=complex) + 0.1 * (
            rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        )
        if linalg.numerical_rank(c) != n_dim:
            continue
        g = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        s0 = np.eye(n_dim, dtype=complex) + 0.1 * (g @ linalg.adjoint(g))
        s0 = (s0 + linalg.adjoint(s0)) / 2
        return build_schrodinger(a, chat, c=c, s0=s0)
    raise ConstructionError("failed to draw an admissible scenario")


SPEC = FamilySpec(
    name="schrodinger",
    var_names=VAR_NAMES,
    grid=(9, 0.8),
    tolerances={"wave_analytic": 1e-9, "wave_fd": 1e-6},
    evaluator=evaluator,
    fields=("potential", "wave"),
    field_values=all_fields(potential, wave),
    builders={
        "general": Builder(
            "build_schrodinger",
            required={"a": parse_matrix, "chat": parse_matrix},
            optional={"c": parse_matrix, "s0": parse_matrix},
        ),
        "singular_line": Builder(
            "build_singular_line_example",
            optional={
                **{k: parse_real for k in ("beta", "r11", "im_r12", "d")},
                "b": parse_complex,
            },
        ),
        "rational": Builder("build_rational_example", optional={"mu0": parse_complex}),
        "nonsingular": Builder(
            "build_nonsingular_example", optional={"mu0": parse_complex, "d": parse_real}
        ),
        "random": RANDOM,
    },
)
default_grid = SPEC.grid_function()
verify_scenario = SPEC.verify_function()
