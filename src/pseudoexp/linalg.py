"""Dense complex linear algebra kernel.

Everything downstream works with plain ``numpy.ndarray`` matrices of dtype
complex128, or stacks of them along a leading axis (``adjoint``, ``fro``
and ``solve_pivoted`` act on the last two axes). Desk scale only: matrix
dimensions are small (a few dozen at most), so the solvers favour
transparency over asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoSolutionError

__all__ = [
    "as_matrix",
    "adjoint",
    "fro",
    "mat_exp",
    "solve_sylvester",
    "solve_pivoted",
    "eigenvalues",
    "SpectrumInfo",
    "pivoted_rank",
    "full_range_rank",
]

# Residual bound for solve_sylvester, relative to 1 + ||Q||_F.
SYLVESTER_TOL = 1e-10
# A pivot below PIVOT_RTOL * ||S||_F marks the system singular.
PIVOT_RTOL = 1e-12
# Column-pivoting rank threshold, relative to the largest column norm.
RANK_RTOL = 1e-10

_EIG_MAX_DIM = 32


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


def solve_sylvester(a, b, q, tol: float = SYLVESTER_TOL) -> np.ndarray:
    """Solve A X + X B = Q by Kronecker vectorization.

    The linear system (I (x) A + B^T (x) I) vec X = vec Q (column-major vec)
    is solved directly when well posed and by least squares otherwise, which
    yields the minimum-norm solution of singular-but-consistent systems.
    When B = A* and Q = Q* the result is symmetrized, X <- (X + X*)/2.

    Parameters
    ----------
    a, b, q : array_like
        Shapes (N, N), (M, M), (N, M).
    tol : float
        Accept X only if ||A X + X B - Q||_F <= tol * (1 + ||Q||_F).

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
    bound = tol * (1.0 + fro(q))

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


def solve_pivoted(s, rhs, pivot_rtol: float = PIVOT_RTOL):
    """Solve S X = RHS by Gaussian elimination with partial pivoting.

    A stack of systems, S of shape (N, n, n) and RHS (N, n, k), returns
    (X, ok). The elimination runs over the n columns, each step acting on
    all N systems; ok[i] is False where system i met a pivot of magnitude
    below ``pivot_rtol * ||S_i||_F`` (the singular flag), and X[i] is zero
    there. One system, S of shape (n, n), returns X, or None where it is
    singular; callers mask such points rather than handle an exception.
    """
    s = np.asarray(s, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    single = s.ndim == 2
    if single:
        s, rhs = s[None], rhs[None]
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError("S must be square")
    if rhs.ndim != 3 or rhs.shape[:2] != s.shape[:2]:
        raise ValueError(f"RHS must have {s.shape[1]} rows per system, got shape {rhs.shape}")
    if not (np.isfinite(s).all() and np.isfinite(rhs).all()):
        raise ValueError("S and RHS must be finite")

    count, n = s.shape[:2]
    snorm = fro(s)
    threshold = pivot_rtol * snorm
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
    if single:
        return x[0] if ok[0] else None
    return x, ok


@dataclass(frozen=True)
class SpectrumInfo:
    """Eigenvalues with a computable quality certificate.

    ``residual_bound`` is the largest ||(A - lambda I) v|| over the witness
    directions v used to certify each eigenvalue.
    """

    values: np.ndarray
    method: str
    residual_bound: float


def _sorted_values(w: np.ndarray) -> np.ndarray:
    order = np.lexsort((w.imag, w.real))
    return w[order]


def eigenvalues(a) -> SpectrumInfo:
    """Eigenvalues of a square matrix (dimension <= 32), with certificate.

    Shifted QR (LAPACK ``eig``). Spectra are for hypothesis checks only, so
    moderate accuracy on defective matrices is acceptable and reflected in
    the residual bound.
    """
    a = as_matrix(a, "A")
    n, nc = a.shape
    if n != nc:
        raise ValueError("eigenvalues needs a square matrix")
    if n > _EIG_MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the supported maximum {_EIG_MAX_DIM}")
    if n == 0:
        return SpectrumInfo(np.zeros(0, dtype=complex), "qr", 0.0)

    w, v = np.linalg.eig(a)
    residual = 0.0
    for i in range(n):
        vec = v[:, i]
        nrm = np.linalg.norm(vec)
        if nrm > 0:
            residual = max(residual, float(np.linalg.norm(a @ vec - w[i] * vec) / nrm))
    return SpectrumInfo(_sorted_values(w), "qr", residual)


def pivoted_rank(m, rel_tol: float = RANK_RTOL) -> int:
    """Numerical rank via column-pivoted Gram-Schmidt.

    Columns whose remaining norm stays above ``rel_tol`` times the largest
    initial column norm count toward the rank.
    """
    m = as_matrix(m, "matrix")
    if m.size == 0:
        return 0
    cols = m.copy()
    norms = np.linalg.norm(cols, axis=0)
    threshold = rel_tol * float(norms.max())
    rank = 0
    alive = np.ones(cols.shape[1], dtype=bool)
    for _ in range(min(cols.shape)):
        norms = np.linalg.norm(cols, axis=0)
        norms[~alive] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= threshold:
            break
        rank += 1
        q = cols[:, j] / norms[j]
        alive[j] = False
        coeffs = q.conj() @ cols
        coeffs[~alive] = 0.0
        cols -= np.outer(q, coeffs)
    return rank


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
    return pivoted_rank(np.hstack(blocks))
