"""Loewner system in two variables: Psi_x = L(x, y) Psi_y.

Both coefficient and solution come from a pair of factor matrices

    Lambda_i(x, y) = script_C_i exp(x (D kron A_i) + y (I kron A_i)) chat_i,

where D is a real diagonal m x m matrix and script_C_i is the row-selector
sum_k (e_k e_k*) kron (e_k* c_i): its row k carries row k of c_i placed in
the k-th column block. That structure gives the premise identity

    d/dx Lambda_i = D d/dy Lambda_i     (exactly, per construction),

and wherever Lambda_1 is invertible,

    Psi = Lambda_1^-1 Lambda_2,    L = Lambda_1^-1 D Lambda_1

solve the system; L is similar to D, so its spectrum is the diagonal of D
at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg, verify
from .errors import ConstructionError
from .family import ExponentRecipe, PiBlock, pointwise
from .spec import RANDOM, Builder, FamilySpec, parse_bool, parse_matrix, parse_real_vector

__all__ = [
    "LoewnerScenario",
    "build_loewner",
    "selector_matrix",
    "eval_loewner",
    "spectrum_deviation",
    "evaluator",
    "SPEC",
    "default_grid",
    "verify_scenario",
    "random_scenario",
]

VAR_NAMES = ("x", "y")
DISTINCT_TOL = 1e-8


@dataclass(frozen=True)
class LoewnerScenario:
    d_diag: np.ndarray
    lambda1: PiBlock
    lambda2: PiBlock

    @property
    def m(self) -> int:
        return self.d_diag.shape[0]

    @property
    def n(self) -> int:
        return self.lambda2.chat.shape[1]

    @property
    def d_mat(self) -> np.ndarray:
        return np.diag(self.d_diag).astype(complex)


def selector_matrix(c: np.ndarray) -> np.ndarray:
    """sum_k (e_k e_k*) kron (e_k* c): row k of c in column block k of row k."""
    c = linalg.as_matrix(c, "c")
    m, width = c.shape
    out = np.zeros((m, m * width), dtype=complex)
    for k in range(m):
        out[k, k * width : (k + 1) * width] = c[k, :]
    return out


def _factor_block(d_diag: np.ndarray, a: np.ndarray, c: np.ndarray, chat: np.ndarray) -> PiBlock:
    m = d_diag.shape[0]
    a = linalg.as_matrix(a, "A")
    width = a.shape[0]
    c = linalg.as_matrix(c, "c")
    if c.shape != (m, width):
        raise ConstructionError("c must be m x (A dimension)")
    chat = linalg.as_matrix(chat, "chat")
    if chat.shape[0] != m * width:
        raise ConstructionError("chat row count must equal m times the A dimension")
    d_mat = np.diag(d_diag).astype(complex)
    recipe = ExponentRecipe([np.kron(d_mat, a), np.kron(np.eye(m, dtype=complex), a)])
    return PiBlock(selector_matrix(c), recipe, chat)


def build_loewner(
    d: Sequence[float],
    a1: np.ndarray,
    a2: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    chat1: np.ndarray,
    chat2: np.ndarray,
    allow_repeated: bool = False,
) -> LoewnerScenario:
    d_diag = np.asarray(list(d), dtype=float)
    if d_diag.ndim != 1 or d_diag.size == 0:
        raise ConstructionError("D must be a nonempty list of real diagonal entries")
    if not allow_repeated:
        m = d_diag.size
        for i in range(m):
            for j in range(i + 1, m):
                if abs(d_diag[i] - d_diag[j]) <= DISTINCT_TOL:
                    raise ConstructionError(
                        "repeated diagonal entries in D (pass allow_repeated=True to permit)"
                    )
    lam1 = _factor_block(d_diag, a1, c1, chat1)
    if lam1.chat.shape[1] != d_diag.size:
        raise ConstructionError("chat1 must have m columns so Lambda_1 is square")
    lam2 = _factor_block(d_diag, a2, c2, chat2)
    return LoewnerScenario(d_diag=d_diag, lambda1=lam1, lambda2=lam2)


def _solve_shared(lam1: np.ndarray, *rhs: np.ndarray):
    """Lambda_1^-1 B for each right-hand side B, from one elimination of
    their columns side by side, with the mask."""
    x, ok = linalg.solve_pivoted(lam1, np.concatenate(rhs, axis=-1))
    return np.split(x, np.cumsum([b.shape[-1] for b in rhs[:-1]]), axis=-1), ok


@pointwise(masked=True)
def eval_loewner(sc: LoewnerScenario, points: np.ndarray):
    """(Psi, L) at stacked points, with the mask of points where Lambda_1
    is not singular."""
    lam1 = sc.lambda1.value(points)
    (psi, ell), ok = _solve_shared(lam1, sc.lambda2.value(points), sc.d_mat @ lam1)
    return (psi, ell), ok


@pointwise(masked=True)
def spectrum_deviation(sc: LoewnerScenario, points: np.ndarray):
    """Max distance between the spectrum of L and the diagonal of D, at
    stacked points, with the mask."""
    (_, ell), ok = eval_loewner(sc, points)
    # np.sort orders complex values by real part, then imaginary part.
    got = np.sort(np.linalg.eigvals(ell), axis=-1)
    want = np.sort(sc.d_diag).astype(complex)
    return np.max(np.abs(got - want), axis=-1), ok


def _analytic_residuals(sc: LoewnerScenario, points: np.ndarray):
    """Analytic channels, local scale and L at stacked points, with the mask."""
    lam1, lam1_x, lam1_y = sc.lambda1.value(points, [(), (0,), (1,)])
    lam2, lam2_x, lam2_y = sc.lambda2.value(points, [(), (0,), (1,)])
    d_mat = sc.d_mat
    (psi, ell), ok = _solve_shared(lam1, lam2, d_mat @ lam1)
    (psi_x, psi_y), _ = _solve_shared(lam1, lam2_x - lam1_x @ psi, lam2_y - lam1_y @ psi)
    res = psi_x - ell @ psi_y
    scale = np.maximum(linalg.fro(psi), linalg.fro(ell))
    channels = {
        "system_analytic": linalg.fro(res),
        "premise_1": linalg.fro(lam1_x - d_mat @ lam1_y),
        "premise_2": linalg.fro(lam2_x - d_mat @ lam2_y),
    }
    return (channels, scale, ell), ok


def evaluator(
    sc: LoewnerScenario,
    h: float = verify.DEFAULT_H,
    accuracy: int = verify.DEFAULT_ACCURACY,
    with_fd: bool = True,
):
    def psi_fn(p):
        return linalg.solve_pivoted(sc.lambda1.value(p), sc.lambda2.value(p))

    def evaluate(points):
        (channels, scale, ell), ok = _analytic_residuals(sc, points)
        if with_fd:
            (psi_x,), ok_x = verify.fd_partial(psi_fn, points, 0, (1,), h=h, accuracy=accuracy)
            (psi_y,), ok_y = verify.fd_partial(psi_fn, points, 1, (1,), h=h, accuracy=accuracy)
            ok = ok & ok_x & ok_y
            channels["system_fd"] = linalg.fro(psi_x - ell @ psi_y)
        return (channels, scale), ok

    return evaluate


def random_scenario(
    rng: np.random.Generator,
    m: int = 2,
    width1: int = 2,
    width2: int = 2,
    n: Optional[int] = None,
) -> LoewnerScenario:
    """Random scenario with Lambda_1 kept uniformly well conditioned on the
    default grid (rejection sampling on its smallest singular value).
    """
    n = m if n is None else n
    grid = default_grid().stacked()
    for _ in range(60):
        d = np.sort(rng.uniform(-1.2, 1.2, m))
        if m > 1 and np.min(np.diff(d)) < 0.3:
            continue
        a1 = 0.4 * (rng.normal(size=(width1, width1)) + 1j * rng.normal(size=(width1, width1)))
        a2 = 0.4 * (rng.normal(size=(width2, width2)) + 1j * rng.normal(size=(width2, width2)))
        c1 = rng.normal(size=(m, width1)) + 1j * rng.normal(size=(m, width1))
        c2 = rng.normal(size=(m, width2)) + 1j * rng.normal(size=(m, width2))
        chat1 = rng.normal(size=(m * width1, m)) + 1j * rng.normal(size=(m * width1, m))
        chat2 = rng.normal(size=(m * width2, n)) + 1j * rng.normal(size=(m * width2, n))
        sc = build_loewner(d, a1, a2, c1, c2, chat1, chat2)
        smin = np.linalg.svd(sc.lambda1.value(grid), compute_uv=False)[:, -1].min()
        if smin >= 0.25:
            return sc
    raise ConstructionError("failed to draw a well-conditioned scenario")


SPEC = FamilySpec(
    name="loewner",
    var_names=VAR_NAMES,
    grid=(9, 0.8),
    tolerances={
        "system_analytic": 1e-9,
        "premise_1": 1e-11,
        "premise_2": 1e-11,
        "system_fd": 1e-6,
    },
    fd_channel="system_fd",
    evaluator=evaluator,
    fields=("solution", "coefficient"),
    field_values=eval_loewner,
    builders={
        "general": Builder(
            "build_loewner",
            required={
                "d": parse_real_vector,
                **{k: parse_matrix for k in ("a1", "a2", "c1", "c2", "chat1", "chat2")},
            },
            optional={"allow_repeated": parse_bool},
        ),
        "random": RANDOM,
    },
)
default_grid = SPEC.grid_function()
verify_scenario = SPEC.verify_function()
