"""Dense complex linear algebra kernel.

Everything downstream works with plain ``numpy.ndarray`` matrices of dtype
complex128, or stacks of them along a leading axis (``adjoint`` and ``fro``
act on the last two axes; ``solve_pivoted`` takes stacks only). Desk scale
only: matrix dimensions are small (a few dozen at most), so the solvers
favour transparency over asymptotics.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolutionError

__all__ = [
    "as_matrix",
    "adjoint",
    "fro",
    "mat_exp",
    "solve_sylvester",
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
    array of norms for a stack."""
    norms = np.linalg.norm(m, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def _taylor_exp(m: np.ndarray, terms: int) -> np.ndarray:
    # Horner form of sum_{k<=terms} m^k / k!
    eye = np.eye(m.shape[0], dtype=complex)
    acc = eye
    for k in range(terms, 0, -1):
        acc = eye + (m @ acc) / k
    return acc


def _nilpotent_index(m: np.ndarray) -> int | None:
    # Smallest k <= dim with m^k exactly zero, else None.
    n = m.shape[0]
    p = m
    for k in range(1, n + 1):
        if not p.any():
            return k
        p = p @ m
    return None


def mat_exp(m) -> np.ndarray:
    """Matrix exponential exp(m).

    Nilpotent inputs (m**k == 0 exactly for some k <= dim) take an exact
    finite Taylor sum.  Otherwise scaling-and-squaring with a degree-16
    Taylor polynomial at ||m/2^s||_1 <= 1/2; the truncation error is below
    double roundoff at that radius.

    Parameters
    ----------
    m : array_like
        Square complex matrix.

    Returns
    -------
    numpy.ndarray
    """
    m = as_matrix(m, "mat_exp argument")
    n, nc = m.shape
    if n != nc:
        raise ValueError(f"mat_exp needs a square matrix, got {m.shape}")
    if n == 0:
        return np.zeros((0, 0), dtype=complex)

    k = _nilpotent_index(m)
    if k is not None:
        out = np.eye(n, dtype=complex)
        p = np.eye(n, dtype=complex)
        factorial = 1.0
        for j in range(1, k):
            p = p @ m
            factorial *= j
            out = out + p / factorial
        return out

    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))))
    e = _taylor_exp(m / (2.0**squarings), 16)
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


def solve_pivoted(s, rhs):
    """Solve S X = RHS by Gaussian elimination with partial pivoting.

    Takes a stack of systems, S of shape (N, n, n) and RHS (N, n, k), and
    returns (X, ok). The elimination runs over the n columns, each step
    acting on all N systems; ok[i] is False where system i met a pivot of
    magnitude below ``PIVOT_RTOL * ||S_i||_F`` (the singular flag), and
    X[i] is zero there. Callers mask such points rather than handle an
    exception; one system is a stack of one.
    """
    s = np.asarray(s, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError(f"S must be an (N, n, n) stack of square systems, got shape {s.shape}")
    if rhs.ndim != 3 or rhs.shape[:2] != s.shape[:2]:
        raise ValueError(f"RHS must have {s.shape[1]} rows per system, got shape {rhs.shape}")
    if not (np.isfinite(s).all() and np.isfinite(rhs).all()):
        raise ValueError("S and RHS must be finite")

    count, n = s.shape[:2]
    snorm = fro(s)
    threshold = PIVOT_RTOL * snorm
    ok = snorm > 0.0
    systems = np.arange(count)
    u = s.copy()
    y = rhs.copy()
    for col in range(n):
        piv = col + np.argmax(np.abs(u[:, col:, col]), axis=1)
        ok &= np.abs(u[systems, piv, col]) >= threshold
        swap = np.flatnonzero(piv != col)
        if len(swap):
            for m in (u, y):
                top = m[swap, col].copy()
                m[swap, col] = m[swap, piv[swap]]
                m[swap, piv[swap]] = top
        # Flagged systems divide by 1 instead of their tiny pivot.
        pivot = np.where(ok, u[:, col, col], 1.0)
        factors = u[:, col + 1 :, col] / pivot[:, None]
        u[:, col + 1 :, col:] -= factors[:, :, None] * u[:, None, col, col:]
        y[:, col + 1 :] -= factors[:, :, None] * y[:, None, col]

    diag = np.where(ok[:, None], np.diagonal(u, axis1=1, axis2=2), 1.0)
    x = np.zeros_like(y)
    for row in range(n - 1, -1, -1):
        tail = np.matmul(u[:, row : row + 1, row + 1 :], x[:, row + 1 :])[:, 0]
        x[:, row] = (y[:, row] - tail) / diag[:, row, None]
    x[~ok] = 0.0
    return x, ok


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
