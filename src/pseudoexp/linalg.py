"""Dense complex linear algebra kernel.

Everything downstream works with plain ``numpy.ndarray`` matrices of dtype
complex128, or stacks of them along a leading axis (``adjoint``, ``fro``,
``mul`` and ``rows`` act on the last two axes; ``factor_pivoted`` and
``solve_pivoted`` take stacks only). Desk scale only: matrix dimensions are
small (a few dozen at most), so the solvers favour transparency over
asymptotics. ``factor_pivoted`` eliminates a stack of systems once, for any
number of right-hand sides. ``mul`` is the product of the engine's stacks
of 2x2 to 4x4 matrices, where numpy's stacked matmul pays one BLAS call per
matrix; ``rows`` is a stack times one constant matrix, one BLAS product
over all the stack's rows. From either, each matrix of a stack comes out
bitwise equal to a stack of that matrix alone. ``mat_exp``, the
exponential of one matrix, is the tests' reference.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolutionError

__all__ = [
    "as_matrix",
    "adjoint",
    "fro",
    "mul",
    "rows",
    "commutator_residual",
    "mat_exp",
    "solve_sylvester",
    "factor_pivoted",
    "solve_pivoted",
    "numerical_rank",
    "full_range_rank",
]

# Residual bound for solve_sylvester, relative to 1 + ||Q||_F.
SYLVESTER_TOL = 1e-10
# A pivot below PIVOT_RTOL * ||S||_F marks the system singular.
PIVOT_RTOL = 1e-12
# Rank threshold, relative to the largest singular value.
RANK_RTOL = 1e-10


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(m.conj(), -1, -2)


def fro(m: np.ndarray):
    """Frobenius norm over the last two axes: a float for one matrix, an
    array of norms for a stack. A norm reads inf only past the double range
    or on entries that are not finite. Below 2^500 no square of an entry
    can overflow, so only larger or non-finite entries take the guard."""
    if np.abs(m).max(initial=0.0) < 2.0**500:
        norms = np.linalg.norm(m, axis=(-2, -1))
    else:
        with np.errstate(over="ignore"):
            norms = np.asarray(np.linalg.norm(m, axis=(-2, -1)))
            if np.isinf(norms).any():
                huge = np.isinf(norms) & np.isfinite(m).all(axis=(-2, -1))
                big = np.abs(m[huge]).max(axis=(-2, -1))
                norms[huge] = big * np.linalg.norm(m[huge] / big[:, None, None], axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices; either operand may be one matrix.

    numpy's stacked matmul makes one BLAS call per complex matrix, which
    dominates for the 2x2 to 4x4 products of the engine. Here the product is
    the sum over the inner index j, in order, of the broadcast products
    a[..., :, j] b[..., j, :], so each entry of a stack comes out bitwise
    equal to that matrix's own call. A result with one row or one column
    falls through to ``@`` (numpy vectorises those itself, and the broadcast
    would run along the stack, where fused multiply-adds could make a
    point's last bit depend on the stack), as do products with more than 64
    multiplications per matrix, where per-matrix BLAS is faster.
    """
    n, d = a.shape[-2:]
    m = b.shape[-1]
    if min(n, m) < 2 or not 0 < n * d * m <= 64:
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, d):
        out = out + a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a stack a of (n, d) matrices and one (d, m) matrix b.

    The stack's rows go through one BLAS product, (a.reshape(-1, d) @ b),
    where ``mul`` would make d broadcast passes: the engine's products of
    C exp(M) by a constant. Each output row is computed in the same order
    whatever the rows around it, so each matrix of a stack comes out bitwise
    equal to a stack of that one matrix, also with the product split across
    BLAS threads. One-row matrices (n = 1) fall through to ``mul``: numpy
    turns a product with a single row into a matrix-vector call, whose last
    bit can differ from that row of the stacked product.
    """
    n, d = a.shape[-2:]
    if n < 2:
        return mul(a, b)
    return (a.reshape(-1, d) @ b).reshape(a.shape[:-1] + b.shape[-1:])


def commutator_residual(a: np.ndarray, b: np.ndarray) -> float:
    """||a b - b a||_F relative to max(1, ||a||_F ||b||_F), for square a and
    b of one dimension, without overflow where both norms are finite: a and
    b are scaled by exact powers of two to norms in [1/2, 1) first, and the
    bound alike (capped below overflow, so a tiny pair reads at most
    2^-999)."""
    (a, ea), (b, eb) = _unit(a), _unit(b)
    res = fro(a @ b - b @ a)
    return res / max(np.ldexp(1.0, min(-ea - eb, 1000)), fro(a) * fro(b))


def _unit(m: np.ndarray) -> tuple[np.ndarray, int]:
    """m / 2^e, exactly, with 2^e the power of two such that its norm is in
    [1/2, 1), and e."""
    e = int(np.frexp(fro(m))[1])
    return np.ldexp(np.ascontiguousarray(m, dtype=complex).view(float), -e).view(complex), e


def mat_exp(m) -> np.ndarray:
    """exp(m) of one square matrix. A matrix with m**k == 0 exactly for some
    k <= n takes the exact finite Taylor sum to that k. Any other takes
    scaling and squaring (Moler and Van Loan, SIAM Review 45(1), 2003): the
    degree-16 Taylor polynomial, by Horner, at ||m/2^s||_1 <= 1/2, where its
    truncation error is below double roundoff, then s squarings."""
    m = np.asarray(m, dtype=complex, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"mat_exp needs one square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("mat_exp argument contains non-finite entries")
    n = len(m)
    eye = np.eye(n, dtype=complex)
    # The empty matrix counts as nilpotent of index 1.
    power = m
    for k in range(1, max(n, 1) + 1):
        if not power.any():
            e, p, factorial = eye, eye, 1.0
            for j in range(1, k):
                p = p @ m
                factorial *= j
                e = e + p / factorial
            return e
        power = power @ m

    squarings = max(0, int(np.ceil(np.log2(np.abs(m).sum(axis=0).max() / 0.5))))
    a, e = m / 2.0**squarings, eye
    for k in range(16, 0, -1):
        e = eye + (a @ e) / k
    # An overflow is left for the caller to report, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            e = e @ e
    return e


def solve_sylvester(a, b, q) -> np.ndarray:
    """Solve A X + X B = Q by Kronecker vectorization.

    The linear system (I (x) A + B^T (x) I) vec X = vec Q (column-major vec)
    is solved directly when well posed and by least squares otherwise, which
    yields the minimum-norm solution of singular-but-consistent systems.
    When B = A* and Q = Q* the result is symmetrized, X <- (X + X*)/2.

    Parameters
    ----------
    a, b, q : array_like
        Shapes (N, N), (M, M), (N, M). X is accepted only if
        ||A X + X B - Q||_F <= SYLVESTER_TOL * (1 + ||Q||_F).

    Returns
    -------
    numpy.ndarray
        Solution X of shape (N, M).

    Raises
    ------
    NoSolutionError
        If no X meets the residual bound (inconsistent singular system);
        the exception carries the least-squares residual.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    q = as_matrix(q, "Q")
    n, nc = a.shape
    m, mc = b.shape
    if n != nc or m != mc:
        raise ValueError("A and B must be square")
    if q.shape != (n, m):
        raise ValueError(f"Q must have shape {(n, m)}, got {q.shape}")

    hermitian_case = (
        n == m and np.array_equal(b, a.conj().T) and fro(q - adjoint(q)) <= 1e-12 * (1.0 + fro(q))
    )

    k = np.kron(np.eye(m, dtype=complex), a) + np.kron(b.T, np.eye(n, dtype=complex))
    rhs = q.reshape(-1, order="F")
    bound = SYLVESTER_TOL * (1.0 + fro(q))

    def finish(x_flat: np.ndarray) -> np.ndarray | None:
        x = x_flat.reshape((n, m), order="F")
        if hermitian_case:
            x = (x + adjoint(x)) / 2.0
        if fro(a @ x + x @ b - q) <= bound:
            return x
        return None

    try:
        x = finish(np.linalg.solve(k, rhs))
        if x is not None:
            return x
    except np.linalg.LinAlgError:
        pass

    x_flat, *_ = np.linalg.lstsq(k, rhs, rcond=None)
    x = finish(x_flat)
    if x is not None:
        return x
    residual = fro(a @ x_flat.reshape((n, m), order="F") + x_flat.reshape((n, m), order="F") @ b - q)
    raise NoSolutionError(
        f"sylvester system has no solution within tolerance (residual {residual:.3e})",
        residual,
    )


def factor_pivoted(s):
    """Gaussian elimination with partial pivoting of a stack of systems, S
    of shape (N, n, n), once for any number of right-hand sides.

    Returns (solve, ok). Each of the n column steps acts on all N systems
    and keeps its pivot rows and multipliers; ok[i] is False where system i
    met a pivot below ``PIVOT_RTOL * ||S_i||_F`` (the singular flag), and
    callers mask such points. ``solve(rhs)``, RHS (N, n, k), replays the
    swaps and updates on RHS and back-substitutes: X with S X = RHS, zero
    where ok is False. A system of a stack comes out bitwise equal to a
    stack of it alone, and a column of X to that column alone where n <= 2
    (numpy sends a back-substitution product of one column and of several
    to different BLAS routines).
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError(f"S must be an (N, n, n) stack of square systems, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("S must be finite")

    count, n = s.shape[:2]
    snorm = fro(s)
    threshold = PIVOT_RTOL * snorm
    ok = snorm > 0.0
    systems = np.arange(count)
    u = s.copy()
    steps = []
    for col in range(n):
        piv = col + np.argmax(np.abs(u[:, col:, col]), axis=1)
        ok &= np.abs(u[systems, piv, col]) >= threshold
        swap = np.flatnonzero(piv != col)
        if len(swap):
            u[swap, col], u[swap, piv[swap]] = u[swap, piv[swap]], u[swap, col]
        # Flagged systems divide by 1 instead of their tiny pivot.
        pivot = np.where(ok, u[:, col, col], 1.0)
        factors = u[:, col + 1 :, col, None] / pivot[:, None, None]
        u[:, col + 1 :, col:] -= factors * u[:, None, col, col:]
        steps.append((swap, piv[swap], factors))
    diag = np.where(ok[:, None], np.diagonal(u, axis1=1, axis2=2), 1.0)
    singular = ~ok

    def solve(rhs):
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.ndim != 3 or rhs.shape[:2] != (count, n):
            raise ValueError(f"RHS must be an ({count}, {n}, k) stack, got shape {rhs.shape}")
        if not np.isfinite(rhs).all():
            raise ValueError("RHS must be finite")
        y = rhs.copy()
        for col, (swap, rows, factors) in enumerate(steps):
            if len(swap):
                y[swap, col], y[swap, rows] = y[swap, rows], y[swap, col]
            y[:, col + 1 :] -= factors * y[:, None, col]
        x = np.zeros_like(y)
        for row in range(n - 1, -1, -1):
            tail = np.matmul(u[:, row : row + 1, row + 1 :], x[:, row + 1 :])[:, 0]
            x[:, row] = (y[:, row] - tail) / diag[:, row, None]
        x[singular] = 0.0
        return x

    return solve, ok


def solve_pivoted(s, rhs):
    """Solve S X = RHS for stacks, (N, n, n) and (N, n, k): (X, ok) from one
    ``factor_pivoted``."""
    solve, ok = factor_pivoted(s)
    return solve(rhs), ok


def numerical_rank(m) -> int:
    """Number of singular values above ``RANK_RTOL`` times the largest."""
    m = as_matrix(m, "matrix")
    if m.size == 0:
        return 0
    return int(np.linalg.matrix_rank(m, tol=RANK_RTOL * np.linalg.norm(m, 2)))


def full_range_rank(a, chat) -> int:
    """Rank of the block matrix [chat, A chat, ..., A^(N-1) chat].

    Equals N exactly when the pair (A, chat) is full range (controllable).
    """
    a = as_matrix(a, "A")
    chat = as_matrix(chat, "chat")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("A must be square")
    if chat.shape[0] != n:
        raise ValueError("chat must have as many rows as A")
    blocks = []
    p = chat
    for _ in range(n):
        blocks.append(p)
        p = a @ p
    return numerical_rank(np.hstack(blocks))
