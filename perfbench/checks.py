"""Correctness checks that do not go through the package's Pi/S pipeline.

Every check returns a list of problems; an empty list means it passed. The
checks take plain numbers and arrays, so the benchmark's tests can feed them
deliberately perturbed fields and masks.

Independent references used here:

* the closed-form potential and wave of the three ``schrodinger`` examples,
  written out again from their formulas;
* an exact rational oracle for the nilpotent DS I instance, built with sympy
  and evaluated in ``fractions.Fraction`` arithmetic at the exact binary
  values of the grid coordinates;
* matrix identities recomputed with plain numpy.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import numpy as np

# Relative tolerances: closed forms and oracles agree with the pipeline to
# roundoff away from poles; structural identities hold to roundoff.
CLOSED_FORM_RTOL = 1e-9
IDENTITY_RTOL = 1e-10
SYMMETRY_RTOL = 1e-12
ON_SET_ATOL = 1e-12


# -- dumps -------------------------------------------------------------------


def read_dump(data: bytes, fmt: str) -> list[tuple[tuple[float, ...], bool, dict]]:
    """Rows of a ``pseudoexp run`` field dump as (point, singular, fields).

    ``fields`` maps each field name to its complex matrix; it is empty on
    singular rows.
    """
    text = data.decode()
    rows = []
    if fmt == "json":
        payload = json.loads(text)
        for rec in payload["points"]:
            fields = {
                name: np.array([[complex(re, im) for re, im in row] for row in mat])
                for name, mat in rec.get("values", {}).items()
            }
            rows.append((tuple(rec["point"]), bool(rec["singular"]), fields))
        return rows
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    nvars = next(i for i, col in enumerate(header) if "[" in col)
    layout: dict[str, dict[tuple[int, int], tuple[int, int]]] = {}
    for col, name in enumerate(header[nvars:-1], start=nvars):
        field, rest = name.split("[", 1)
        i, rest = rest.split("][", 1)
        j, part = rest.split("].", 1)
        cell = layout.setdefault(field, {}).setdefault((int(i), int(j)), [0, 0])
        cell[0 if part == "re" else 1] = col
    for rec in reader:
        point = tuple(float(v) for v in rec[:nvars])
        singular = rec[-1] == "1"
        fields = {}
        if not singular:
            for field, cells in layout.items():
                rows_n = 1 + max(i for i, _ in cells)
                cols_n = 1 + max(j for _, j in cells)
                mat = np.zeros((rows_n, cols_n), dtype=complex)
                for (i, j), (re_col, im_col) in cells.items():
                    mat[i, j] = complex(float(rec[re_col]), float(rec[im_col]))
                fields[field] = mat
        rows.append((point, singular, fields))
    return rows


def check_identical(first: bytes, again: bytes, label: str) -> list[str]:
    """Reruns must reproduce every byte."""
    return [] if first == again else [f"{label}: output differs from the first pass"]


def check_mask(rows, on_set, label: str) -> list[str]:
    """Singular rows are exactly the points on the known singular set."""
    problems = []
    for point, singular, _ in rows:
        if singular != bool(on_set(point)):
            what = "masked off" if singular else "not masked on"
            problems.append(f"{label}: row {point} {what} the singular set")
    return problems


def check_report(report: dict, rows, label: str) -> list[str]:
    """A passing report that covers every row and masks every singular one."""
    problems = []
    if not report.get("passed"):
        problems.append(f"{label}: report did not pass")
    if report.get("total_points") != len(rows):
        problems.append(f"{label}: report covers {report.get('total_points')} of {len(rows)} points")
    masked = {tuple(p) for p in report.get("mask", [])}
    missing = [p for p, singular, _ in rows if singular and p not in masked]
    if missing:
        problems.append(f"{label}: singular rows missing from the report mask: {missing[:3]}")
    return problems


# -- closed forms for the schrodinger examples ---------------------------------


def singular_line_closed_form(beta=1.0, r11=1.0, im_r12=0.0, b=0j, d=1.0):
    """q = 2 d^2 / det^2 and W = phase / det * [d, -(R12 + b)], where
    det = c + d (x + 2 beta t) and c = d r11 - |R12 + b|^2, R12 = 1/2 + i im_r12.
    The pole is the line det = 0; both return None there.
    """
    r12 = 0.5 + 1j * im_r12
    c = d * r11 - abs(r12 + b) ** 2

    def det(point):
        x, t = point
        return c + d * (x + 2.0 * beta * t)

    def potential(point):
        den = det(point)
        if den == 0.0:
            return None
        return np.array([[2.0 * d**2 / den**2]], dtype=complex)

    def wave(point):
        den = det(point)
        if den == 0.0:
            return None
        x, t = point
        phase = np.exp(-1j * beta * x - 1j * beta**2 * t)
        return phase / den * np.array([[d, -(r12 + b)]], dtype=complex)

    return potential, wave


def rational_closed_form(mu0=1.0 + 0j):
    """Scalar rational potential of the Jordan-block example, kappa = 2 Re mu0:
    z = 1 + x - 2i mu0 t, g = |z - 1/kappa|^2 + 1/kappa^2,
    q = 2 (z^2 + conj(z)^2 - 2 (z + conj(z)) / kappa) / g^2,
    W = kappa exp(-mu0 (x - i mu0 t)) conj(z) / g.
    """
    mu0 = complex(mu0)
    kappa = 2.0 * mu0.real

    def parts(point):
        x, t = point
        z = 1.0 + x - 2j * mu0 * t
        g = abs(z - 1.0 / kappa) ** 2 + 1.0 / kappa**2
        return x - 1j * mu0 * t, z, g

    def potential(point):
        _, z, g = parts(point)
        zc = np.conj(z)
        return np.array([[2.0 * (z * z + zc * zc - 2.0 * (z + zc) / kappa) / g**2]], dtype=complex)

    def wave(point):
        p, z, g = parts(point)
        return np.array([[kappa * np.exp(-mu0 * p) * np.conj(z) / g]], dtype=complex)

    return potential, wave


def nonsingular_closed_form(mu0=1.0 + 0j, d=1.0):
    """Jordan-block example with C = I and S0 = diag(0, d): with
    P = x - i mu0 t, pt = x - 2i mu0 t and w = d |exp(mu0 P)|^-2,
    z1 = 2/kappa^3 + w |pt|^2,
    z2 = 1/kappa^4 + (w/kappa) (|pt|^2 - 2 Re(pt)/kappa + 2/kappa^2),
    q = -2 (z1_x z2 - z1 z2_x) / z2^2 and
    W = exp(-mu0 P) / z2 * [1/kappa^2 + w conj(pt), 2/kappa^3 - pt/kappa^2].
    """
    mu0 = complex(mu0)
    kappa = 2.0 * mu0.real

    def parts(point):
        x, t = point
        p = x - 1j * mu0 * t
        pt = x - 2j * mu0 * t
        w = d * np.exp(-2.0 * (mu0 * p).real)
        z1 = 2.0 / kappa**3 + w * abs(pt) ** 2
        z2 = 1.0 / kappa**4 + (w / kappa) * (abs(pt) ** 2 - 2.0 * pt.real / kappa + 2.0 / kappa**2)
        return p, pt, w, z1, z2

    def potential(point):
        _, pt, w, z1, z2 = parts(point)
        # d/dx of w is -kappa w; d/dx |pt|^2 is 2 Re pt.
        z1x = -kappa * (z1 - 2.0 / kappa**3) + w * 2.0 * pt.real
        z2x = -kappa * (z2 - 1.0 / kappa**4) + (w / kappa) * (2.0 * pt.real - 2.0 / kappa)
        return np.array([[-2.0 * (z1x * z2 - z1 * z2x) / z2**2]], dtype=complex)

    def wave(point):
        p, pt, w, _, z2 = parts(point)
        row = np.array([[1.0 / kappa**2 + w * np.conj(pt), 2.0 / kappa**3 - pt / kappa**2]])
        return np.exp(-mu0 * p) / z2 * row

    return potential, wave


def check_closed_form(rows, references: dict, label: str) -> list[str]:
    """Every non-singular row matches the closed forms field by field."""
    problems = []
    for point, singular, fields in rows:
        if singular:
            continue
        for name, ref in references.items():
            want = ref(point)
            got = fields[name]
            if want is None:
                problems.append(f"{label}: {name} at {point} has no closed-form value")
                continue
            err = np.linalg.norm(got - want)
            if not err <= CLOSED_FORM_RTOL * (1.0 + np.linalg.norm(want)):
                problems.append(f"{label}: {name} at {point} off by {err:.3e}")
    return problems


# -- exact oracle for the nilpotent DS I instance ------------------------------


class RationalDsiOracle:
    """u, q1, q2 and det S of ``dsi.build_rational_dsi()`` in exact arithmetic.

    With N = [[0, 1], [0, 0]], C_k = S0 = I and heads 1, the exponentials are
    E_k = I + (x +- y) N exactly, R_k = [[0, -1/2], [-1/2, 0]], and
    S = I + E1 R E1^T - E2 R E2^T. Everything is rational in (x, y) with
    rational coefficients, so each field is stored as a numerator and a
    denominator polynomial and evaluated with Fractions.
    """

    def __init__(self):
        import sympy as sp

        x, y = sp.symbols("x y", real=True)
        nil = sp.Matrix([[0, 1], [0, 0]])
        e1 = sp.eye(2) + (x + y) * nil
        e2 = sp.eye(2) + (x - y) * nil
        r = sp.Matrix([[0, sp.Rational(-1, 2)], [sp.Rational(-1, 2), 0]])
        head = sp.Matrix([[1], [0]])
        s = sp.eye(2) + e1 * r * e1.T - e2 * r * e2.T
        pi = (e1 * head).row_join(e2 * head)
        q = (pi.T * s.inv() * pi).applyfunc(sp.cancel)
        u = 2 * q[1, 0]
        exprs = {
            "u": u,
            "q1": sp.Rational(1, 2) * u**2 - 2 * sp.diff(q[0, 0], y),
            "q2": -sp.Rational(1, 2) * u**2 + 2 * sp.diff(q[1, 1], y),
            "det": s.det(),
        }
        self._terms = {}
        for name, expr in exprs.items():
            num, den = sp.fraction(sp.cancel(sp.together(expr)))
            self._terms[name] = tuple(
                [(i, j, Fraction(int(c.p), int(c.q))) for (i, j), c in sp.Poly(part, x, y).terms()]
                for part in (num, den)
            )

    @staticmethod
    def _poly(terms, x: Fraction, y: Fraction) -> Fraction:
        return sum((c * x**i * y**j for i, j, c in terms), Fraction(0))

    def value(self, name: str, point) -> Fraction | None:
        """Exact value at the point's (x, y), or None where it has a pole."""
        x, _, y = (Fraction(v) for v in point)
        num, den = self._terms[name]
        den_v = self._poly(den, x, y)
        if den_v == 0:
            return None
        return self._poly(num, x, y) / den_v


def check_dsi_oracle(rows, oracle: RationalDsiOracle, label: str) -> list[str]:
    """Fields match the exact oracle; rows are singular exactly where det S = 0."""
    problems = []
    for point, singular, fields in rows:
        det = oracle.value("det", point)
        if singular != (det == 0):
            problems.append(f"{label}: row {point} singular={singular} but det S = {det}")
            continue
        if singular:
            continue
        # S^-1 costs digits in proportion to 1/|det S|.
        tol = CLOSED_FORM_RTOL / min(1.0, abs(float(det)))
        for name in ("u", "q1", "q2"):
            want = float(oracle.value(name, point))
            got = fields[name]
            if got.shape != (1, 1) or not abs(got[0, 0] - want) <= tol * (1.0 + abs(want)):
                problems.append(f"{label}: {name} at {point} is {got.ravel()}, oracle {want!r}")
    return problems


# -- structural identities ---------------------------------------------------


def check_hermitian(matrices, label: str) -> list[str]:
    """Each matrix equals its conjugate transpose to roundoff."""
    problems = []
    for k, m in enumerate(matrices):
        m = np.asarray(m)
        defect = np.linalg.norm(m - m.conj().T)
        if not defect <= SYMMETRY_RTOL * (1.0 + np.linalg.norm(m)):
            problems.append(f"{label}: matrix {k} is not Hermitian (defect {defect:.3e})")
    return problems


def check_signature(matrices, b_diag, label: str) -> list[str]:
    """The gnoe reduction xi* = B xi B with B = diag(b)."""
    b = np.diag(np.asarray(b_diag, dtype=float))
    problems = []
    for k, xi in enumerate(matrices):
        defect = np.linalg.norm(xi.conj().T - b @ xi @ b)
        if not defect <= SYMMETRY_RTOL * (1.0 + np.linalg.norm(xi)):
            problems.append(f"{label}: xi {k} breaks xi* = B xi B (defect {defect:.3e})")
    return problems


def check_node_identity(a, r, chat, nu, sign, label: str) -> list[str]:
    """A R + R A* = sign chat nu chat*, recomputed with numpy."""
    a, r, chat, nu = (np.asarray(m, dtype=complex) for m in (a, r, chat, nu))
    rhs = sign * (chat @ nu @ chat.conj().T)
    res = np.linalg.norm(a @ r + r @ a.conj().T - rhs)
    scale = 1.0 + np.linalg.norm(a) * np.linalg.norm(r) + np.linalg.norm(rhs)
    if not res <= IDENTITY_RTOL * scale:
        return [f"{label}: node identity residual {res:.3e} (scale {scale:.3e})"]
    return []


def check_positive(matrices, label: str) -> list[str]:
    """Each Hermitian S is positive definite by numpy eigvalsh."""
    problems = []
    for k, s in enumerate(matrices):
        low = float(np.linalg.eigvalsh(np.asarray(s)).min())
        if not low > 0.0:
            problems.append(f"{label}: S {k} has eigenvalue {low:.3e}")
    return problems


def check_spectrum(matrices, d_diag, label: str) -> list[str]:
    """The Loewner coefficient L is similar to D, so its eigenvalues are D's."""
    want = np.sort(np.asarray(d_diag, dtype=float))
    problems = []
    for k, ell in enumerate(matrices):
        got = np.linalg.eigvals(ell)
        got = got[np.argsort(got.real)]
        err = float(np.max(np.abs(got - want)))
        if not err <= 1e-8 * (1.0 + float(np.max(np.abs(want)))):
            problems.append(f"{label}: spectrum of L {k} is off D by {err:.3e}")
    return problems
