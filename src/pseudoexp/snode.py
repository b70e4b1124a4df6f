"""Constant matrix data tied together by Lyapunov-type identities.

A node bundles commuting square matrices A_1..A_r, Hermitian weights
nu_1..nu_r, a Hermitian R and a tall matrix chat subject to

    A_k R + R A_k* = sign_k * chat nu_k chat*       (k = 1..r).

Every explicit solution family downstream is built from one of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConstructionError

__all__ = ["SMultinode", "ValidationReport", "solve_for_R"]

# Identity and commutator residuals are accepted below this, relative to scale.
IDENTITY_RTOL = 1e-10
HERMITIAN_RTOL = 1e-12


def solve_for_R(a, rhs) -> np.ndarray:
    """Hermitian R with A R + R A* = rhs.

    Unique when sigma(A) and sigma(-A*) are disjoint; otherwise the
    minimum-norm Hermitian solution of a consistent singular system.

    Raises
    ------
    NoSolutionError
        If the system is inconsistent (carries the least-squares residual).
    ValueError
        If rhs is not Hermitian.
    """
    a = linalg.as_matrix(a, "A")
    rhs = linalg.as_matrix(rhs, "rhs")
    if linalg.fro(rhs - linalg.adjoint(rhs)) > HERMITIAN_RTOL * (1.0 + linalg.fro(rhs)):
        raise ValueError("rhs must be Hermitian")
    rhs = (rhs + linalg.adjoint(rhs)) / 2.0
    return linalg.solve_sylvester(a, linalg.adjoint(a), rhs)


@dataclass
class ValidationReport:
    """Residuals of the node identities and structural checks."""

    identity_residuals: list[float]
    identity_scales: list[float]
    commutator_residuals: list[float]
    r_hermiticity: float
    passed: bool
    messages: list[str] = field(default_factory=list)


@dataclass
class SMultinode:
    """Node data {A_1..A_r; nu_1..nu_r; R; chat} with per-identity signs."""

    a_mats: list[np.ndarray]
    nu_mats: list[np.ndarray]
    r_mat: np.ndarray
    chat: np.ndarray
    signs: list[float]

    def __post_init__(self):
        self.a_mats = [linalg.as_matrix(a, "A_k") for a in self.a_mats]
        self.nu_mats = [linalg.as_matrix(nu, "nu_k") for nu in self.nu_mats]
        self.r_mat = linalg.as_matrix(self.r_mat, "R")
        self.chat = linalg.as_matrix(self.chat, "chat")
        if not (len(self.a_mats) == len(self.nu_mats) == len(self.signs)):
            raise ValueError("a_mats, nu_mats and signs must have equal length")
        n = self.dim
        for a in self.a_mats:
            if a.shape != (n, n):
                raise ValueError("all A_k must be square of one dimension")
        if self.r_mat.shape != (n, n):
            raise ValueError("R must match the A_k dimension")
        if self.chat.shape[0] != n:
            raise ValueError("chat must have as many rows as A_k")
        p = self.chat.shape[1]
        for nu in self.nu_mats:
            if nu.shape != (p, p):
                raise ValueError("each nu_k must be square with the chat width")
            if not np.array_equal(nu, linalg.adjoint(nu)):
                raise ValueError("each nu_k must be Hermitian exactly")
        for s in self.signs:
            if s not in (1, -1, 1.0, -1.0):
                raise ValueError("signs must be +1 or -1")

    @property
    def dim(self) -> int:
        return self.a_mats[0].shape[0]

    @property
    def order(self) -> int:
        return len(self.a_mats)

    def identity_rhs(self, k: int) -> np.ndarray:
        return self.signs[k] * (self.chat @ self.nu_mats[k] @ linalg.adjoint(self.chat))

    def validate(self) -> ValidationReport:
        """Check every identity, pairwise commutation and Hermiticity."""
        messages: list[str] = []
        id_res, id_scale = [], []
        for k, a in enumerate(self.a_mats):
            rhs = self.identity_rhs(k)
            lhs = a @ self.r_mat + self.r_mat @ linalg.adjoint(a)
            scale = 1.0 + linalg.fro(a) * linalg.fro(self.r_mat) + linalg.fro(rhs)
            res = linalg.fro(lhs - rhs)
            id_res.append(res)
            id_scale.append(scale)
            if res > IDENTITY_RTOL * scale:
                messages.append(f"identity {k} residual {res:.3e} exceeds {IDENTITY_RTOL:.0e}*scale")

        comm_res = []
        for i in range(self.order):
            for j in range(i + 1, self.order):
                ai, aj = self.a_mats[i], self.a_mats[j]
                res = linalg.fro(ai @ aj - aj @ ai)
                comm_res.append(res)
                if res > IDENTITY_RTOL * max(1.0, linalg.fro(ai) * linalg.fro(aj)):
                    messages.append(f"A_{i} and A_{j} do not commute (residual {res:.3e})")

        r_herm = linalg.fro(self.r_mat - linalg.adjoint(self.r_mat))
        if r_herm > HERMITIAN_RTOL * (1.0 + linalg.fro(self.r_mat)):
            messages.append(f"R is not Hermitian (defect {r_herm:.3e})")

        return ValidationReport(
            identity_residuals=id_res,
            identity_scales=id_scale,
            commutator_residuals=comm_res,
            r_hermiticity=r_herm,
            passed=not messages,
            messages=messages,
        )

    def require_valid(self) -> None:
        report = self.validate()
        if not report.passed:
            raise ConstructionError("node identities fail validation: " + "; ".join(report.messages))
