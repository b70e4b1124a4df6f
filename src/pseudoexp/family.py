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

Commuting generators make exp(M) = prod_v exp(vars[v] G_v) (Moler and Van
Loan, SIAM Review 45(1), 2003), d/dv exp(M) = G_v exp(M) and
d^2/(dv dw) exp(M) = G_v G_w exp(M). A stack of points therefore needs one
exp(x G_v) per distinct value x of each coordinate, not one exponential
per point.

Points come stacked: an (N, nvars) array, last index the variable. Every
quantity comes back stacked along a leading axis of length N (Pi as
(N, n, width), S as (N, n, n)). What is derived from S^-1 (the quadratic
form Q = Pi* S^-1 Pi, the row function W = Pi* S^-1 and their derivatives)
comes paired with a boolean mask ``ok`` of shape (N,): False where S is
numerically singular, and the values there are zero. Grid evaluators mask
such points. The methods of ``PseudoExpFamily`` and the families' public
field functions also take one point (a flat sequence of nvars
coordinates): they run on a stack of one and return that point's value,
or None where S is singular (``pointwise``). Everything else takes stacks
only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import linalg

__all__ = [
    "ExponentRecipe",
    "PiBlock",
    "STerm",
    "SRule",
    "PseudoExpFamily",
    "pointwise",
]

MAX_DERIV_ORDER = 2
COMMUTATOR_RTOL = 1e-10


def pointwise(masked: bool) -> Callable:
    """Let a public function of stacked points also take a single point.

    The decorated function takes an (N, nvars) array as its second
    positional argument (after the scenario or ``self``) and returns arrays
    with a leading axis of length N (possibly in tuples or dicts), paired
    with an (N,) mask when ``masked``. Given one point instead, it runs on a
    stack of one and returns that point's entries, or None where the mask
    is False.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(owner, points, *args, **kwargs):
            points = np.asarray(points, dtype=float)
            if points.ndim == 2:
                return fn(owner, points, *args, **kwargs)
            if points.ndim != 1:
                raise ValueError(f"expected one point or an (N, nvars) stack, got shape {points.shape}")
            out = fn(owner, points[None], *args, **kwargs)
            if masked:
                out, ok = out
                if not ok[0]:
                    return None
            return _first(out)

        return wrapper

    return decorate


def _first(value):
    if isinstance(value, tuple):
        return tuple(_first(v) for v in value)
    if isinstance(value, dict):
        return {k: _first(v) for k, v in value.items()}
    return value[0]


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

    def exponent(self, point: Sequence[float]) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for v, g in zip(point, self.generators):
            m = m + v * g
        return m

    def exp_value(self, points: np.ndarray) -> np.ndarray:
        """exp(M) at stacked points as the product of exp(x G_v) over the
        variables, with one ``mat_exp`` per distinct coordinate value."""
        out = None
        for v, g in enumerate(self.generators):
            values, inverse = np.unique(points[:, v], return_inverse=True)
            factors = np.array([linalg.mat_exp(x * g) for x in values]).reshape(-1, self.dim, self.dim)
            out = factors[inverse] if out is None else out @ factors[inverse]
        return out

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


def _each(derivs, fn: Callable):
    """``fn`` of one multi-index (a tuple of variable indices), or the tuple
    of ``fn`` over a list of multi-indices."""
    if all(isinstance(d, (int, np.integer)) for d in derivs):
        return fn(_canonical(derivs))
    return tuple(fn(_canonical(d)) for d in derivs)


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

    def value(self, points: np.ndarray, derivs=()):
        """The block or its derivatives at stacked points, for one
        multi-index or a list of them."""
        e = self.recipe.exp_value(points)
        return _each(derivs, lambda deriv: self.at(e, deriv))

    def at(self, e: np.ndarray, deriv: tuple[int, ...]) -> np.ndarray:
        """d^deriv of the block, given exp(M) at stacked points."""
        f = self.recipe.factor(deriv) @ e if deriv else e
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

    def _core(self, e: np.ndarray, deriv: tuple[int, ...]) -> np.ndarray:
        # The product rule, given exp(M) at stacked points.
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

    def value(self, points: np.ndarray, deriv: Sequence[int] = ()) -> np.ndarray:
        return self.at(self.recipe.exp_value(points), _canonical(deriv))

    def at(self, e: np.ndarray, deriv: tuple[int, ...]) -> np.ndarray:
        """d^deriv of the term, given exp(M) at stacked points."""
        return self.sign * (self.c @ self._core(e, deriv) @ linalg.adjoint(self.c))


@dataclass(frozen=True)
class SRule:
    """One summand coeff * (d^left Pi) middle (d^right Pi)* of a dS/dv rule."""

    coeff: complex
    left: tuple[int, ...]
    middle: np.ndarray
    right: tuple[int, ...]


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + linalg.adjoint(m)) / 2.0


class _AtPoints:
    """A family at one stack of points. Each exp(M) is computed once per
    recipe, and Pi, S and Y = S^-1 Pi once per multi-index; every Y solve
    narrows ``ok``."""

    def __init__(self, family: "PseudoExpFamily", points: np.ndarray):
        self.family = family
        self.points = points
        self.ok = np.ones(len(points), dtype=bool)
        self._exp: dict = {}
        self._pi: dict = {}
        self._s: dict = {}
        self._y: dict = {}

    def exp(self, recipe: ExponentRecipe) -> np.ndarray:
        if recipe not in self._exp:
            self._exp[recipe] = recipe.exp_value(self.points)
        return self._exp[recipe]

    def pi(self, deriv: tuple[int, ...]) -> np.ndarray:
        deriv = _canonical(deriv)
        if deriv not in self._pi:
            blocks = self.family.pi_blocks
            self._pi[deriv] = np.concatenate([b.at(self.exp(b.recipe), deriv) for b in blocks], axis=-1)
        return self._pi[deriv]

    def s(self, deriv: tuple[int, ...]) -> np.ndarray:
        """S or one of its derivatives via the identity-based rules."""
        if deriv in self._s:
            return self._s[deriv]
        fam, adj = self.family, linalg.adjoint
        if not deriv:
            s = np.broadcast_to(fam.s0, (len(self.points), fam.n, fam.n))
            for term in fam.s_terms:
                s = s + term.at(self.exp(term.recipe), ())
            out = _hermitize(s)
        else:
            v, rest = deriv[0], deriv[1:]
            out = np.zeros((len(self.points), fam.n, fam.n), dtype=complex)
            for rule in fam.s_rules[v]:
                if not rest:
                    out = out + rule.coeff * (self.pi(rule.left) @ rule.middle @ adj(self.pi(rule.right)))
                else:
                    w = rest[0]
                    out = out + rule.coeff * (
                        self.pi(rule.left + (w,)) @ rule.middle @ adj(self.pi(rule.right))
                    )
                    out = out + rule.coeff * (
                        self.pi(rule.left) @ rule.middle @ adj(self.pi(rule.right + (w,)))
                    )
        self._s[deriv] = out
        return out

    def y(self, deriv: tuple[int, ...]) -> np.ndarray:
        """d^deriv Y, by one solve against S for each multi-index."""
        if deriv not in self._y:
            if not deriv:
                u = self.pi(())
            elif len(deriv) == 1:
                u = self.pi(deriv) - self.s(deriv) @ self.y(())
            else:
                v, w = deriv
                u = (
                    self.pi(deriv)
                    - self.s(deriv) @ self.y(())
                    - self.s((v,)) @ self.y((w,))
                    - self.s((w,)) @ self.y((v,))
                )
            y, ok = linalg.solve_pivoted(self.s(()), u)
            self.ok &= ok
            self._y[deriv] = y
        return self._y[deriv]

    def w(self, deriv: tuple[int, ...]) -> np.ndarray:
        """d^deriv W, using that W = (S^-1 Pi)* for Hermitian S."""
        return linalg.adjoint(self.y(deriv))

    def q(self, deriv: tuple[int, ...]) -> np.ndarray:
        """d^deriv Q via d(S^-1) = -S^-1 (dS) S^-1; Hermitian."""
        adj = linalg.adjoint
        y0 = self.y(())
        if not deriv:
            return _hermitize(adj(self.pi(())) @ y0)
        if len(deriv) == 1:
            pv = self.pi(deriv)
            return _hermitize(adj(pv) @ y0 + adj(y0) @ pv - adj(y0) @ self.s(deriv) @ y0)
        v, w = deriv
        pv, pvw = self.pi((v,)), self.pi(deriv)
        yw = self.y((w,))
        sv, svw = self.s((v,)), self.s(deriv)
        return _hermitize(
            adj(pvw) @ y0
            + adj(pv) @ yw
            + adj(yw) @ pv
            + adj(y0) @ pvw
            - adj(yw) @ sv @ y0
            - adj(y0) @ svw @ y0
            - adj(y0) @ sv @ yw
        )


class PseudoExpFamily:
    """Pi/S evaluator with analytic derivatives to second order.

    ``derivs`` arguments take one multi-index, such as ``(0,)`` or
    ``(0, 1)``, or a list of them; a list returns a tuple with one stacked
    array per multi-index, all from one assembly of S, with each derivative
    of Y = S^-1 Pi they need solved once.
    """

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

    @pointwise(masked=False)
    def pi(self, points: np.ndarray, derivs=()):
        """Pi or its derivatives, (N, n, width) each."""
        return _each(derivs, _AtPoints(self, points).pi)

    @pointwise(masked=False)
    def s(self, points: np.ndarray, deriv: Sequence[int] = ()) -> np.ndarray:
        """S or one of its derivatives via the identity-based rules, (N, n, n)."""
        return _AtPoints(self, points).s(_canonical(deriv))

    @pointwise(masked=False)
    def s_direct(self, points: np.ndarray, deriv: Sequence[int] = ()) -> np.ndarray:
        """Same quantity by brute-force differentiation of the S terms."""
        deriv = _canonical(deriv)
        if not deriv:
            return self.s(points)
        out = np.zeros((len(points), self.n, self.n), dtype=complex)
        for term in self.s_terms:
            out = out + term.value(points, deriv)
        return out

    # -- quantities through S^-1, each with its mask -------------------------

    @pointwise(masked=True)
    def q(self, points: np.ndarray):
        """Q = Pi* S^-1 Pi (Hermitian) and the mask."""
        at = _AtPoints(self, points)
        q = at.q(())
        return q, at.ok

    @pointwise(masked=True)
    def w(self, points: np.ndarray):
        """W = Pi* S^-1 and the mask."""
        at = _AtPoints(self, points)
        w = at.w(())
        return w, at.ok

    @pointwise(masked=True)
    def q_deriv(self, points: np.ndarray, derivs):
        """Derivatives of Q (Hermitian) and the mask."""
        at = _AtPoints(self, points)
        values = _each(derivs, at.q)
        return values, at.ok

    @pointwise(masked=True)
    def w_deriv(self, points: np.ndarray, derivs):
        """Derivatives of W and the mask."""
        at = _AtPoints(self, points)
        values = _each(derivs, at.w)
        return values, at.ok
