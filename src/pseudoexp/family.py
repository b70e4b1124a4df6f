"""Evaluation engine for matrix functions of the form C exp(M(vars)) chat.

A solution family is described by

* Pi(vars): horizontal concatenation of blocks C_i exp(M_i(vars)) chat_i,
  where M_i(vars) = sum_v vars[v] G_v is linear in the variables, with one
  constant generator G_v per variable and pairwise-commuting generators
  (Schrodinger's x A - i t A^2 has G_x = A, G_t = -i A^2),
* S(vars) = S0 + sum_terms sign * C exp(M) R exp(M)* C*,
* per-variable derivative rules expressing dS as finite sums
  c * (d^alpha Pi) nu (d^beta Pi)*, which hold because of the node
  identities and are cross-checked against brute-force differentiation.

Commuting generators make d/dv exp(M) = G_v exp(M) and
d^2/(dv dw) exp(M) = G_v G_w exp(M). Everything derived from S^-1 (the
quadratic form Q = Pi* S^-1 Pi and the row function W = Pi* S^-1) returns
None at points where S is numerically singular; grid evaluators mask such
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import linalg

__all__ = [
    "ExponentRecipe",
    "PiBlock",
    "STerm",
    "SRule",
    "PseudoExpFamily",
]

MAX_DERIV_ORDER = 2
COMMUTATOR_RTOL = 1e-10


class ExponentRecipe:
    """Exponent M(vars) = sum_v vars[v] G_v with commuting constant G_v."""

    def __init__(self, generators: Sequence[np.ndarray]):
        if not generators:
            raise ValueError("recipe needs at least one generator")
        gens = tuple(linalg.as_matrix(g, "recipe generator") for g in generators)
        dim = gens[0].shape[0]
        for g in gens:
            if g.shape != (dim, dim):
                raise ValueError("recipe generators must be square of one dimension")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                gi, gj = gens[i], gens[j]
                res = linalg.fro(gi @ gj - gj @ gi)
                if res > COMMUTATOR_RTOL * max(1.0, linalg.fro(gi) * linalg.fro(gj)):
                    raise ValueError(f"generators {i} and {j} do not commute (residual {res:.3e})")
        self.generators = gens
        self.nvars = len(gens)
        self.dim = int(dim)
        self._exp_cache: dict[tuple[float, ...], np.ndarray] = {}

    def exponent(self, point: Sequence[float]) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for v, g in zip(point, self.generators):
            m = m + v * g
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

    def factor(self, deriv: tuple[int, ...]) -> np.ndarray:
        """Constant G_v or G_v G_w with d^deriv exp(M) = factor @ exp(M)."""
        if len(deriv) == 1:
            return self.generators[deriv[0]]
        v, w = deriv
        return self.generators[v] @ self.generators[w]


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
        f = self.recipe.exp_value(point)
        if deriv:
            f = self.recipe.factor(deriv) @ f
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
        left = self.recipe.factor(deriv)
        if len(deriv) == 1:
            return left @ g0 + g0 @ linalg.adjoint(left)
        dv, dw = (self.recipe.generators[i] for i in deriv)
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
        for part in self.pi_blocks + self.s_terms:
            if part.recipe.nvars != self.nvars:
                raise ValueError(
                    f"recipe has {part.recipe.nvars} generators for {self.nvars} variables"
                )
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
