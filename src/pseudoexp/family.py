"""Evaluation engine for matrix functions of the form C exp(M(vars)) chat.

A solution family is described by

* Pi(vars): horizontal concatenation of blocks C_i exp(M_i(vars)) chat_i,
  where M_i(vars) = sum_j phi_j(vars) A_j over pairwise-commuting A_j and
  polynomial coefficients phi_j of total degree <= 2,
* S(vars) = S0 + sum_terms sign * C exp(M) R exp(M)* C*,
* per-variable derivative rules expressing dS as finite sums
  c * (d^alpha Pi) nu (d^beta Pi)*, which hold because of the node
  identities and are cross-checked against brute-force differentiation.

Everything derived from S^-1 (the quadratic form Q = Pi* S^-1 Pi and the
row function W = Pi* S^-1) returns None at points where S is numerically
singular; grid evaluators mask such points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import linalg

__all__ = [
    "Polynomial",
    "ExponentRecipe",
    "PiBlock",
    "STerm",
    "SRule",
    "PseudoExpFamily",
]

MAX_POLY_DEGREE = 2
MAX_DERIV_ORDER = 2
COMMUTATOR_RTOL = 1e-10


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial in ``nvars`` real variables with complex coefficients.

    Coefficients are keyed by exponent tuples, e.g. with variables (x, t)
    the polynomial x - 2it is {(1, 0): 1, (0, 1): -2j}.
    """

    nvars: int
    coeffs: Mapping[tuple[int, ...], complex]

    def __post_init__(self):
        for expo in self.coeffs:
            if len(expo) != self.nvars:
                raise ValueError("exponent tuple length must equal nvars")
            if any(e < 0 for e in expo):
                raise ValueError("exponents must be nonnegative")

    def __call__(self, point: Sequence[float]) -> complex:
        total = 0j
        for expo, c in self.coeffs.items():
            term = complex(c)
            for v, e in zip(point, expo):
                for _ in range(e):
                    term *= v
            total += term
        return total

    def diff(self, var: int) -> "Polynomial":
        out: dict[tuple[int, ...], complex] = {}
        for expo, c in self.coeffs.items():
            e = expo[var]
            if e == 0:
                continue
            new = list(expo)
            new[var] = e - 1
            key = tuple(new)
            out[key] = out.get(key, 0j) + c * e
        return Polynomial(self.nvars, out)

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    @staticmethod
    def variable(var: int, nvars: int, coeff: complex = 1.0) -> "Polynomial":
        expo = tuple(1 if i == var else 0 for i in range(nvars))
        return Polynomial(nvars, {expo: complex(coeff)})


class ExponentRecipe:
    """Exponent M(vars) = sum_j phi_j(vars) A_j with commuting A_j.

    Commutativity makes d/dv exp(M) = (sum_j dphi_j/dv A_j) exp(M); the
    degree cap keeps second derivatives of the phi_j constant.
    """

    def __init__(self, terms: Sequence[tuple[Polynomial, np.ndarray]]):
        if not terms:
            raise ValueError("recipe needs at least one term")
        checked = []
        nvars = terms[0][0].nvars
        dim = None
        for poly, mat in terms:
            mat = linalg.as_matrix(mat, "recipe matrix")
            if poly.nvars != nvars:
                raise ValueError("all coefficient polynomials must share the variables")
            if poly.degree() > MAX_POLY_DEGREE:
                raise ValueError(f"coefficient degree exceeds {MAX_POLY_DEGREE}")
            if mat.shape[0] != mat.shape[1]:
                raise ValueError("recipe matrices must be square")
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                raise ValueError("recipe matrices must share one dimension")
            checked.append((poly, mat))
        for i in range(len(checked)):
            for j in range(i + 1, len(checked)):
                ai, aj = checked[i][1], checked[j][1]
                res = linalg.fro(ai @ aj - aj @ ai)
                if res > COMMUTATOR_RTOL * max(1.0, linalg.fro(ai) * linalg.fro(aj)):
                    raise ValueError(f"recipe matrices {i} and {j} do not commute (residual {res:.3e})")
        self.terms = tuple(checked)
        self.nvars = nvars
        self.dim = int(dim)
        self._exp_cache: dict[tuple[float, ...], np.ndarray] = {}

    def exponent(self, point: Sequence[float]) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for poly, mat in self.terms:
            m = m + poly(point) * mat
        return m

    def exp_value(self, point: Sequence[float]) -> np.ndarray:
        """exp(M(point)), memoized per point (grid sweeps revisit points)."""
        key = tuple(float(v) for v in point)
        hit = self._exp_cache.get(key)
        if hit is None:
            if len(self._exp_cache) >= 8192:
                self._exp_cache.clear()
            hit = linalg.mat_exp(self.exponent(point))
            self._exp_cache[key] = hit
        return hit

    def direction(self, point: Sequence[float], var: int) -> np.ndarray:
        """d/d var of the exponent, a matrix function affine in the variables."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for poly, mat in self.terms:
            c = poly.diff(var)(point)
            if c != 0:
                m = m + c * mat
        return m

    def curvature(self, v: int, w: int) -> np.ndarray:
        """Constant second derivative d^2 exponent / (d v d w)."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for poly, mat in self.terms:
            c = poly.diff(v).diff(w)(np.zeros(self.nvars))
            if c != 0:
                m = m + c * mat
        return m


def _canonical(deriv: Sequence[int]) -> tuple[int, ...]:
    if len(deriv) > MAX_DERIV_ORDER:
        raise ValueError(f"derivative order {len(deriv)} exceeds {MAX_DERIV_ORDER}")
    return tuple(sorted(deriv))


@dataclass(frozen=True)
class PiBlock:
    """One factor block C exp(M(vars)) chat."""

    c: np.ndarray
    recipe: ExponentRecipe
    chat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", linalg.as_matrix(self.c, "C"))
        object.__setattr__(self, "chat", linalg.as_matrix(self.chat, "chat"))
        if self.c.shape[1] != self.recipe.dim or self.chat.shape[0] != self.recipe.dim:
            raise ValueError("C and chat must conform with the recipe dimension")

    def value(self, point: Sequence[float], deriv: Sequence[int] = ()) -> np.ndarray:
        deriv = _canonical(deriv)
        e = self.recipe.exp_value(point)
        if not deriv:
            f = e
        elif len(deriv) == 1:
            f = self.recipe.direction(point, deriv[0]) @ e
        else:
            v, w = deriv
            dv = self.recipe.direction(point, v)
            dw = self.recipe.direction(point, w)
            f = (self.recipe.curvature(v, w) + dv @ dw) @ e
        return self.c @ f @ self.chat


@dataclass(frozen=True)
class STerm:
    """One summand sign * C exp(M) R exp(M)* C* of S."""

    sign: float
    c: np.ndarray
    recipe: ExponentRecipe
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", linalg.as_matrix(self.c, "C"))
        object.__setattr__(self, "r", linalg.as_matrix(self.r, "R"))
        if float(self.sign) not in (1.0, -1.0):
            raise ValueError("term sign must be +1 or -1")
        if linalg.fro(self.r - linalg.adjoint(self.r)) > 1e-12 * (1.0 + linalg.fro(self.r)):
            raise ValueError("R must be Hermitian")
        if self.c.shape[1] != self.recipe.dim or self.r.shape != (self.recipe.dim, self.recipe.dim):
            raise ValueError("C and R must conform with the recipe dimension")

    def core(self, point: Sequence[float], deriv: Sequence[int] = ()) -> np.ndarray:
        """d^deriv of exp(M) R exp(M)* by the product rule."""
        deriv = _canonical(deriv)
        e = self.recipe.exp_value(point)
        g0 = e @ self.r @ linalg.adjoint(e)
        if not deriv:
            return g0
        if len(deriv) == 1:
            dv = self.recipe.direction(point, deriv[0])
            return dv @ g0 + g0 @ linalg.adjoint(dv)
        v, w = deriv
        dv = self.recipe.direction(point, v)
        dw = self.recipe.direction(point, w)
        h = self.recipe.curvature(v, w)
        left = h + dv @ dw
        return (
            left @ g0
            + dv @ g0 @ linalg.adjoint(dw)
            + dw @ g0 @ linalg.adjoint(dv)
            + g0 @ linalg.adjoint(left)
        )

    def value(self, point: Sequence[float], deriv: Sequence[int] = ()) -> np.ndarray:
        return self.sign * (self.c @ self.core(point, deriv) @ linalg.adjoint(self.c))


@dataclass(frozen=True)
class SRule:
    """One summand coeff * (d^left Pi) middle (d^right Pi)* of a dS/dv rule."""

    coeff: complex
    left: tuple[int, ...]
    middle: np.ndarray
    right: tuple[int, ...]


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + linalg.adjoint(m)) / 2.0


class PseudoExpFamily:
    """Pi/S evaluator with analytic derivatives to second order."""

    def __init__(
        self,
        var_names: Sequence[str],
        pi_blocks: Sequence[PiBlock],
        s_terms: Sequence[STerm],
        s0: np.ndarray,
        s_rules: Mapping[int, Sequence[SRule]],
    ):
        self.var_names = tuple(var_names)
        self.nvars = len(self.var_names)
        self.pi_blocks = list(pi_blocks)
        self.s_terms = list(s_terms)
        self.s0 = linalg.as_matrix(s0, "S0")
        if linalg.fro(self.s0 - linalg.adjoint(self.s0)) > 1e-12 * (1.0 + linalg.fro(self.s0)):
            raise ValueError("S0 must be Hermitian")
        self.s_rules = {v: list(rules) for v, rules in s_rules.items()}
        if not self.pi_blocks:
            raise ValueError("at least one Pi block is required")
        rows = {blk.c.shape[0] for blk in self.pi_blocks}
        if len(rows) != 1:
            raise ValueError("all Pi blocks must produce the same row count")
        self.n = rows.pop()
        if self.s0.shape != (self.n, self.n):
            raise ValueError("S0 must be square with the Pi row count")
        self.width = sum(blk.chat.shape[1] for blk in self.pi_blocks)
        for v in range(self.nvars):
            if v not in self.s_rules:
                raise ValueError(f"missing derivative rule for variable {self.var_names[v]}")

    # -- Pi ---------------------------------------------------------------

    def pi(self, point: Sequence[float], deriv: Sequence[int] = ()) -> np.ndarray:
        return np.hstack([blk.value(point, deriv) for blk in self.pi_blocks])

    # -- S ----------------------------------------------------------------

    def s(self, point: Sequence[float], deriv: Sequence[int] = ()) -> np.ndarray:
        """S or one of its derivatives via the identity-based rules."""
        deriv = _canonical(deriv)
        if not deriv:
            s = self.s0.copy()
            for term in self.s_terms:
                s = s + term.value(point)
            return _hermitize(s)
        v, rest = deriv[0], deriv[1:]
        out = np.zeros((self.n, self.n), dtype=complex)
        for rule in self.s_rules[v]:
            if not rest:
                out = out + rule.coeff * (
                    self.pi(point, rule.left) @ rule.middle @ linalg.adjoint(self.pi(point, rule.right))
                )
            else:
                w = rest[0]
                out = out + rule.coeff * (
                    self.pi(point, rule.left + (w,))
                    @ rule.middle
                    @ linalg.adjoint(self.pi(point, rule.right))
                )
                out = out + rule.coeff * (
                    self.pi(point, rule.left)
                    @ rule.middle
                    @ linalg.adjoint(self.pi(point, rule.right + (w,)))
                )
        return out

    def s_direct(self, point: Sequence[float], deriv: Sequence[int] = ()) -> np.ndarray:
        """Same quantity by brute-force differentiation of the S terms."""
        deriv = _canonical(deriv)
        if not deriv:
            return self.s(point)
        out = np.zeros((self.n, self.n), dtype=complex)
        for term in self.s_terms:
            out = out + term.value(point, deriv)
        return out

    # -- quantities through S^-1 -------------------------------------------

    def _solve(self, point: Sequence[float], rhs: np.ndarray) -> Optional[np.ndarray]:
        return linalg.solve_pivoted(self.s(point), rhs)

    def q(self, point: Sequence[float]) -> Optional[np.ndarray]:
        """Q = Pi* S^-1 Pi (Hermitian), or None where S is singular."""
        pi = self.pi(point)
        y = self._solve(point, pi)
        if y is None:
            return None
        return _hermitize(linalg.adjoint(pi) @ y)

    def w(self, point: Sequence[float]) -> Optional[np.ndarray]:
        """W = Pi* S^-1, or None where S is singular."""
        y = self._solve(point, self.pi(point))
        if y is None:
            return None
        return linalg.adjoint(y)

    def _y_derivs(self, point: Sequence[float], deriv: tuple[int, ...]):
        """Y = S^-1 Pi and its requested derivatives, or None if masked.

        Returns a dict keyed by canonical multi-index, closed under
        sub-indices of ``deriv``.
        """
        s = self.s(point)
        pi0 = self.pi(point)
        y0 = linalg.solve_pivoted(s, pi0)
        if y0 is None:
            return None
        values: dict[tuple[int, ...], np.ndarray] = {(): y0}

        def y_first(v: int) -> Optional[np.ndarray]:
            key = (v,)
            if key not in values:
                u = self.pi(point, key) - self.s(point, key) @ y0
                yv = linalg.solve_pivoted(s, u)
                if yv is None:
                    return None
                values[key] = yv
            return values[key]

        if len(deriv) == 1:
            if y_first(deriv[0]) is None:
                return None
        elif len(deriv) == 2:
            v, w = deriv
            yv = y_first(v)
            yw = y_first(w)
            if yv is None or yw is None:
                return None
            u = (
                self.pi(point, deriv)
                - self.s(point, deriv) @ y0
                - self.s(point, (v,)) @ yw
                - self.s(point, (w,)) @ yv
            )
            yvw = linalg.solve_pivoted(s, u)
            if yvw is None:
                return None
            values[deriv] = yvw
        return values

    def w_deriv(self, point: Sequence[float], deriv: Sequence[int]) -> Optional[np.ndarray]:
        """d^deriv W, using that W = (S^-1 Pi)* for Hermitian S."""
        deriv = _canonical(deriv)
        values = self._y_derivs(point, deriv)
        if values is None:
            return None
        return linalg.adjoint(values[deriv])

    def q_deriv(self, point: Sequence[float], deriv: Sequence[int]) -> Optional[np.ndarray]:
        """d^deriv Q via d(S^-1) = -S^-1 (dS) S^-1; Hermitian, None if masked."""
        deriv = _canonical(deriv)
        if not deriv:
            return self.q(point)
        values = self._y_derivs(point, deriv)
        if values is None:
            return None
        y0 = values[()]
        if len(deriv) == 1:
            (v,) = deriv
            pv = self.pi(point, deriv)
            qv = linalg.adjoint(pv) @ y0 + linalg.adjoint(y0) @ pv - linalg.adjoint(y0) @ self.s(point, deriv) @ y0
            return _hermitize(qv)
        v, w = deriv
        pv, pw, pvw = self.pi(point, (v,)), self.pi(point, (w,)), self.pi(point, deriv)
        yv, yw = values[(v,)], values[(w,)]
        sv, sw, svw = self.s(point, (v,)), self.s(point, (w,)), self.s(point, deriv)
        qvw = (
            linalg.adjoint(pvw) @ y0
            + linalg.adjoint(pv) @ yw
            + linalg.adjoint(yw) @ pv
            + linalg.adjoint(y0) @ pvw
            - linalg.adjoint(yw) @ sv @ y0
            - linalg.adjoint(y0) @ svw @ y0
            - linalg.adjoint(y0) @ sv @ yw
        )
        return _hermitize(qvw)
