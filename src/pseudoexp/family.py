"""Evaluation engine for matrix functions of the form C exp(M(vars)) chat.

A solution family is one node, described by

* Pi(vars) = C exp(M(vars)) chat, where M(vars) = sum_v vars[v] G_v with
  one constant generator G_v per variable, commuting pairwise
  (Schrodinger's x A - i t A^2 has G_x = A, G_t = -i A^2),
* S(vars) = S0 + C exp(M) R exp(M)* C*, one ``PiBlock`` carrying C, the
  recipe of M, chat and R. A direct sum of nodes is one node: two nodes of
  opposite sign give C = [C1 C2], G_v = diag(G1_v, G2_v),
  chat = diag(chat1, chat2) and R = diag(R1, -R2).

Commuting generators make exp(M) = prod_v exp(vars[v] G_v) (Moler and Van
Loan, SIAM Review 45(1), 2003) and commute with exp(M), so d^alpha Pi =
C exp(M) G^alpha chat and each derivative of S is (C exp(M)) K (C exp(M))*
for a constant K (``PiBlock.term``). That holds for any R, so nothing here
assumes the node identities, which turn dS into products of Pi such as
S_x = Pi Pi*; ``snode`` checks them when a scenario is built. A stack of
points needs one exp(x G_v) per distinct value x of each coordinate, not one
exponential per point. The recipe forms each generator's Taylor terms once,
so exp(x G_v) is a polynomial in the scalar x followed by squarings
(``ExponentRecipe.exp_value``), and C goes into the first variable's
factors, once per distinct value, so the product over the variables runs on
(N, n, dim) stacks of C exp(M). Products of two stacks go through
``linalg.mul``, and C exp(M) times a constant through ``linalg.rows``, one
BLAS product over all the stack's rows; either way a point of a stack comes
out bitwise equal to a stack of that point alone.

Points come stacked: an (N, nvars) array, last index the variable.
``PseudoExpFamily.at(points)`` opens the view of one stack; Pi, S, the row
function W = Pi* S^-1, the quadratic form Q = Pi* S^-1 Pi and their
derivatives all come from a view, stacked along a leading axis of length N,
and share its C exp(M) and its S, eliminated once (``linalg.factor_pivoted``):
each derivative of Y = S^-1 Pi is one substitution against that factor, of
the right-hand side the product rule leaves. The view's (N,) mask ``ok`` is
the factor's, False where S is numerically singular; what is derived from
S^-1 is zero there, and grid evaluators mask such points. ``PseudoExpFamily.s``
and the families' public field functions, all made by
``FamilySpec.field_function``, also take one point (a flat sequence of nvars
coordinates): they run on a stack of one and return that point's value, or
None where S is singular (``pointwise``). Everything else takes stacks only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg

__all__ = [
    "ExponentRecipe",
    "PiBlock",
    "PseudoExpFamily",
    "pointwise",
]

MAX_DERIV_ORDER = 2
COMMUTATOR_RTOL = 1e-10
# Degree of the Taylor polynomial of exp, at radius 1/2 as in linalg.mat_exp.
_TAYLOR_DEGREE = 16


def pointwise(masked: bool) -> Callable:
    """Let a public function of stacked points also take a single point.

    The decorated function takes an (N, nvars) array as its second
    positional argument (after the scenario or ``self``) and returns an
    array with a leading axis of length N, or a tuple of them, paired with
    an (N,) mask when ``masked``. Given one point instead, it runs on a
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
            return tuple(v[0] for v in out) if isinstance(out, tuple) else out[0]

        return wrapper

    return decorate


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
        # A residual that is not finite fails.
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                res = linalg.commutator_residual(gens[i], gens[j])
                if not res <= COMMUTATOR_RTOL:
                    raise ValueError(f"generators {i} and {j} do not commute (relative residual {res:.3e})")
        self.generators = gens
        self.nvars = len(gens)
        self.dim = int(dim)
        self._taylor = _taylor_terms(np.array(gens))

    def exp_value(self, points: np.ndarray, left: Optional[np.ndarray] = None) -> np.ndarray:
        """exp(M) at stacked points as the product of exp(x G_v) over the
        variables, each evaluated once per distinct value x of its coordinate;
        given a constant (n, dim) ``left``, left exp(M), with ``left`` taken
        into the first variable's factors before they are spread over the
        points, so the product over the variables runs on (N, n, dim).

        exp(x G) is ``linalg.mat_exp``'s rule without its matrix products: x G
        takes s squarings with ||x G / 2^s||_1 <= 1/2, so exp(x G / 2^s) is
        the Taylor polynomial in y = x 2^e / 2^s of G / 2^e, whose terms the
        recipe holds, evaluated by Horner with real scalars only; a nilpotent
        G takes its exact finite sum and no squaring. The squarings, the
        product by ``left`` and the product over the variables use
        ``linalg.mul``, so each point comes out bitwise equal to its own call.
        An overflow is left for the caller to report, without a warning."""
        out = None
        with np.errstate(over="ignore", invalid="ignore"):
            for v, (norm, e, terms, nilpotent) in enumerate(self._taylor):
                values, inverse = np.unique(points[:, v], return_inverse=True)
                size = np.abs(values) * norm
                if not np.isfinite(size).all():
                    raise ValueError(f"exponent x G_{v} contains non-finite entries")
                squarings = np.zeros(len(values), dtype=int)
                if not nilpotent:
                    with np.errstate(divide="ignore"):
                        squarings = np.maximum(0, np.ceil(np.log2(size / 0.5))).astype(int)
                y = np.ldexp(values, e - squarings)[:, None, None]
                acc = np.broadcast_to(terms[-1], y.shape[:1] + terms.shape[1:])
                for t in terms[-2::-1]:
                    acc = t + y * acc
                factors = np.ascontiguousarray(acc).view(complex)
                for j in range(squarings.max(initial=0)):
                    sq = np.flatnonzero(squarings > j)
                    factors[sq] = linalg.mul(factors[sq], factors[sq])
                if out is None:
                    out = (factors if left is None else linalg.mul(left, factors))[inverse]
                else:
                    out = linalg.mul(out, factors[inverse])
        return out

    def factor(self, deriv: tuple[int, ...]) -> np.ndarray:
        """The constant product of G_v over a nonempty multi-index, in its
        order, with d^deriv exp(M) = factor @ exp(M)."""
        return functools.reduce(np.matmul, (self.generators[v] for v in deriv))


def _taylor_terms(gens: np.ndarray) -> list:
    """Per generator G of a (V, dim, dim) stack: (||G||_1, e, terms,
    nilpotent), with e >= 0 the least such that 2^e > ||G||_1 and the terms
    (G / 2^e)^j / j! as real views, (J, dim, 2 dim): for j <= 16, or for
    j < k where G^k = 0 exactly for some k <= dim (nilpotent G). Scaling by
    2^e is exact, and the powers come from a handful of stacked products."""
    dim = gens.shape[-1]
    norms = np.abs(gens).sum(axis=-2).max(axis=-1)
    e = np.maximum(0, np.frexp(norms)[1])
    scaled = gens * np.ldexp(1.0, -e)[:, None, None]
    powers = scaled[:, None]
    while powers.shape[1] < max(_TAYLOR_DEGREE, dim):
        powers = np.concatenate([powers, powers @ powers[:, -1:]], axis=1)
    # Index of nilpotency: the first power that is exactly zero, else 0.
    zero = ~powers[:, :dim].any(axis=(-2, -1))
    index = np.where(zero.any(axis=1), zero.argmax(axis=1) + 1, 0)
    factorials = np.cumprod(np.arange(1.0, _TAYLOR_DEGREE + 1))[:, None, None]
    eye = np.eye(dim, dtype=complex)[None]
    out = []
    for v in range(len(gens)):
        count = index[v] or _TAYLOR_DEGREE + 1
        terms = np.concatenate([eye, powers[v, : count - 1] / factorials[: count - 1]])
        out.append((float(norms[v]), int(e[v]), terms.view(float), bool(index[v])))
    return out


def _canonical(deriv: Sequence[int]) -> tuple[int, ...]:
    if len(deriv) > MAX_DERIV_ORDER:
        raise ValueError(f"derivative order {len(deriv)} exceeds {MAX_DERIV_ORDER}")
    return tuple(sorted(deriv))


def _splits(deriv: tuple[int, ...]):
    """The product rule's splits (a, b) of a sorted multi-index, one per
    subset of its entries (a repeated variable gives a split twice): d^deriv
    (f g) is the sum of d^a f d^b g, in order from (deriv, ()) to ((), deriv)."""
    for keep in itertools.product((True, False), repeat=len(deriv)):
        yield tuple(v for v, k in zip(deriv, keep) if k), tuple(v for v, k in zip(deriv, keep) if not k)


@dataclass(frozen=True)
class PiBlock:
    """The node's factor C exp(M) chat of Pi and, given R, its summand
    C exp(M) R exp(M)* C* of S, both read from ce = C exp(M), (N, n, dim)."""

    c: np.ndarray
    recipe: ExponentRecipe
    chat: np.ndarray
    r: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "c", linalg.as_matrix(self.c, "C"))
        object.__setattr__(self, "chat", linalg.as_matrix(self.chat, "chat"))
        if self.c.shape[1] != self.recipe.dim or self.chat.shape[0] != self.recipe.dim:
            raise ValueError("C and chat must conform with the recipe dimension")
        if self.r is None:
            return
        object.__setattr__(self, "r", linalg.as_matrix(self.r, "R"))
        if self.r.shape != (self.recipe.dim, self.recipe.dim):
            raise ValueError("R must conform with the recipe dimension")
        if linalg.fro(self.r - linalg.adjoint(self.r)) > 1e-12 * (1.0 + linalg.fro(self.r)):
            raise ValueError("R must be Hermitian")

    def ce(self, points: np.ndarray) -> np.ndarray:
        """C exp(M) at stacked points."""
        return self.recipe.exp_value(points, self.c)

    def value(self, points: np.ndarray) -> Callable[[Sequence[int]], np.ndarray]:
        """The function of a multi-index giving that derivative of the block
        at stacked points; C exp(M) is formed once, each derivative once."""
        ce = self.ce(points)
        return functools.cache(lambda deriv: self.at(ce, _canonical(deriv)))

    def at(self, ce: np.ndarray, deriv: tuple[int, ...]) -> np.ndarray:
        """d^deriv of the block, given C exp(M) at stacked points."""
        return linalg.rows(ce, self.recipe.factor(deriv) @ self.chat if deriv else self.chat)

    def term(self, ce: np.ndarray, deriv: tuple[int, ...] = ()) -> np.ndarray:
        """d^deriv of the block's S summand, given C exp(M) at stacked
        points: the product rule acts on the constant K between them, the
        sum of G^a R (G^b)* over the splits (a, b) of deriv."""
        adj, factor, ks = linalg.adjoint, self.recipe.factor, []
        for a, b in _splits(deriv):
            k = factor(a) @ self.r if a else self.r
            ks.append(k @ adj(factor(b)) if b else k)
        return linalg.mul(linalg.rows(ce, sum(ks[1:], ks[0])), adj(ce))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + linalg.adjoint(m)) / 2.0


class _AtPoints:
    """The view of a family at one stack of points: C exp(M) once, and Pi,
    S and Y = S^-1 Pi once per multi-index, given in any order. S is
    factored once, when ``ok`` or a Y is first read, and every Y is a
    substitution against that factor."""

    def __init__(self, family: "PseudoExpFamily", points: np.ndarray):
        self.family = family
        self.points = points
        self.ce = family.block.ce(points)
        self._pi, self._s, self._y = {}, {}, {}

    @functools.cached_property
    def _factor(self):
        return linalg.factor_pivoted(self.s(()))

    @property
    def ok(self) -> np.ndarray:
        """(N,) mask, False where S is numerically singular."""
        return self._factor[1]

    def pi(self, deriv: Sequence[int] = ()) -> np.ndarray:
        """d^deriv Pi, (N, n, width)."""
        deriv = _canonical(deriv)
        if deriv not in self._pi:
            self._pi[deriv] = self.family.block.at(self.ce, deriv)
        return self._pi[deriv]

    def s(self, deriv: Sequence[int] = ()) -> np.ndarray:
        """d^deriv S, (N, n, n), from the block's S summand. An S that is not
        finite raises ValueError naming its first such point."""
        deriv = _canonical(deriv)
        if deriv not in self._s:
            fam = self.family
            with np.errstate(over="ignore", invalid="ignore"):
                out = fam.block.term(self.ce, deriv) if deriv else _hermitize(fam.s0 + fam.block.term(self.ce))
            if not deriv:
                bad = np.flatnonzero(~np.isfinite(out).all(axis=(-2, -1)))
                if len(bad):
                    where = ", ".join(f"{v} = {float(x)}" for v, x in zip(fam.var_names, self.points[bad[0]]))
                    raise ValueError(f"S overflows at {where}")
            self._s[deriv] = out
        return self._s[deriv]

    def y(self, deriv: tuple[int, ...]) -> np.ndarray:
        """d^deriv Y for a sorted multi-index: the product rule on S Y = Pi
        leaves S d^deriv Y = d^deriv Pi - sum of d^a S d^b Y over the
        splits (a, b) with a nonempty, one substitution."""
        if deriv not in self._y:
            u = self.pi(deriv)
            for a, b in _splits(deriv):
                if a:
                    u = u - linalg.mul(self.s(a), self.y(b))
            self._y[deriv] = self._factor[0](u)
        return self._y[deriv]

    def w(self, deriv: Sequence[int] = ()) -> np.ndarray:
        """d^deriv W, using that W = (S^-1 Pi)* for Hermitian S."""
        return linalg.adjoint(self.y(_canonical(deriv)))

    def q(self, deriv: Sequence[int] = ()) -> np.ndarray:
        """d^deriv Q via d(S^-1) = -S^-1 (dS) S^-1; Hermitian."""
        deriv = _canonical(deriv)
        adj, mul = linalg.adjoint, linalg.mul
        y0 = self.y(())
        if not deriv:
            return _hermitize(mul(adj(self.pi(())), y0))
        if len(deriv) == 1:
            pv = self.pi(deriv)
            return _hermitize(mul(adj(pv), y0) + mul(adj(y0), pv) - mul(mul(adj(y0), self.s(deriv)), y0))
        v, w = deriv
        pv, pvw = self.pi((v,)), self.pi(deriv)
        yw = self.y((w,))
        sv, svw = self.s((v,)), self.s(deriv)
        return _hermitize(
            mul(adj(pvw), y0)
            + mul(adj(pv), yw)
            + mul(adj(yw), pv)
            + mul(adj(y0), pvw)
            - mul(mul(adj(yw), sv), y0)
            - mul(mul(adj(y0), svw), y0)
            - mul(mul(adj(y0), sv), yw)
        )


class PseudoExpFamily:
    """Pi/S evaluator with exact derivatives to second order, for any R: no
    node identity is assumed, so a block that breaks one fails the analytic
    checks of the fields.

    ``at(points)`` opens the view of one stack of points, the only way to
    Pi, S, W, Q and their derivatives; ``s`` also takes one point, for
    screens and checks.
    """

    def __init__(self, var_names: Sequence[str], block: PiBlock, s0: np.ndarray):
        self.var_names = tuple(var_names)
        self.nvars = len(self.var_names)
        self.block = block
        if block.r is None:
            raise ValueError("the block needs its R: the node gives Pi and the S summand")
        self.n, self.width = block.c.shape[0], block.chat.shape[1]
        self.s0 = linalg.as_matrix(s0, "S0")
        if self.s0.shape != (self.n, self.n):
            raise ValueError("S0 must be square with the Pi row count")
        if linalg.fro(self.s0 - linalg.adjoint(self.s0)) > 1e-12 * (1.0 + linalg.fro(self.s0)):
            raise ValueError("S0 must be Hermitian")
        if block.recipe.nvars != self.nvars:
            raise ValueError(f"recipe has {block.recipe.nvars} generators for {self.nvars} variables")

    def at(self, points: np.ndarray) -> _AtPoints:
        """The view of the family at an (N, nvars) stack of points."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise ValueError(f"expected an (N, {self.nvars}) stack of points, got shape {points.shape}")
        return _AtPoints(self, points)

    @pointwise(masked=False)
    def s(self, points: np.ndarray, deriv: Sequence[int] = ()) -> np.ndarray:
        """S or one of its derivatives, (N, n, n), differentiated exactly
        (``PiBlock.term``)."""
        return self.at(points).s(deriv)
