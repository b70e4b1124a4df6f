"""Acceptance suite: one test per criterion.

Each test name carries its criterion number, so `pytest -v` shows one
pass/fail line per criterion; every test also prints an explicit
`criterion N: PASS/FAIL` line (visible with -s or on failure).

Tolerances are pinned here and must not be loosened: a red criterion means
the construction, not the test, needs fixing.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from pseudoexp import cli, dirac, dsi, gnoe, linalg, loewner, schrodinger
from pseudoexp.snode import solve_for_R

SEED = 20250822


def _certify(n: int, summary: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"criterion {n}: FAIL  {summary}")
        raise
    print(f"criterion {n}: PASS  {summary}")


# Shared across criteria 3 and 4: the same randomized scenarios must pass
# both the analytic and the finite-difference channels.
@pytest.fixture(scope="module")
def family_reports():
    rng = np.random.default_rng(SEED)
    out = {}
    for name, mod in (
        ("dirac", dirac),
        ("loewner", loewner),
        ("schrodinger", schrodinger),
        ("gnoe", gnoe),
    ):
        reports = []
        for _ in range(20):
            sc = mod.random_scenario(rng)
            reports.append(mod.verify_scenario(sc))
        out[name] = reports
    return out


_ANALYTIC_CHANNELS = {
    "dirac": ("wave_analytic",),
    "loewner": ("system_analytic", "premise_1", "premise_2"),
    "schrodinger": ("wave_analytic",),
    "gnoe": ("system_analytic", "premise_x", "premise_t"),
}
_FD_CHANNELS = {
    "dirac": ("wave_fd",),
    "loewner": ("system_fd",),
    "schrodinger": ("wave_fd",),
    "gnoe": ("system_fd",),
}


def test_criterion_1_lyapunov_closed_form():
    def check():
        r = solve_for_R(
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            np.array([[0.0, 0.0], [0.0, 1.0]]),
        )
        expected = np.array([[0.25, -0.25], [-0.25, 0.5]])
        assert np.abs(r - expected).max() <= 1e-12

    _certify(1, "Lyapunov solver reproduces the closed-form R", check)


def test_criterion_2_closed_form_equivalence():
    def check():
        rng = np.random.default_rng(SEED + 2)

        def draw_singular_line():
            return schrodinger.build_singular_line_example(
                beta=float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])),
                r11=float(rng.uniform(-1.0, 1.0)),
                im_r12=float(rng.uniform(-0.5, 0.5)),
                b=complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                d=float(rng.uniform(0.5, 1.5)),
            )

        def draw_rational():
            return schrodinger.build_rational_example(
                mu0=complex(rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0))
            )

        def draw_nonsingular():
            return schrodinger.build_nonsingular_example(
                mu0=complex(rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0)),
                d=float(rng.uniform(0.3, 2.0)),
            )

        for draw in (draw_singular_line, draw_rational, draw_nonsingular):
            for _ in range(100):
                sc, closed = draw()
                # The same draws as 100 scalar (x, t) pairs, as one stack.
                points = rng.uniform(-1, 1, size=(100, 2))
                pipe_q, ok_q = schrodinger.potential(sc, points)
                pipe_w, ok_w = schrodinger.wave(sc, points)
                compared = 0
                for k, pt in enumerate(points.tolist()):
                    cf_q = closed.potential(pt)
                    cf_w = closed.wave(pt)
                    if cf_q is None or cf_w is None or not (ok_q[k] and ok_w[k]):
                        continue
                    scale_q = 1.0 + linalg.fro(cf_q)
                    scale_w = 1.0 + linalg.fro(cf_w)
                    assert linalg.fro(pipe_q[k] - cf_q) <= 1e-9 * scale_q, closed.name
                    assert linalg.fro(pipe_w[k] - cf_w) <= 1e-9 * scale_w, closed.name
                    compared += 1
                assert compared >= 90, (closed.name, compared)

    _certify(
        2,
        "pipeline potential and wave match all three closed forms to 1e-9",
        check,
    )


def test_criterion_3_analytic_pde_exactness(family_reports):
    def check():
        for family, channels in _ANALYTIC_CHANNELS.items():
            for report in family_reports[family]:
                by_name = {c.name: c for c in report.channels}
                for name in channels:
                    ch = by_name[name]
                    assert ch.passed, (family, name, ch.max_relative)

    _certify(
        3,
        "analytic PDE residuals stay below 1e-9 for 20 scenarios x 4 families",
        check,
    )


def test_criterion_4_finite_difference_residuals(family_reports):
    def check():
        for family, channels in _FD_CHANNELS.items():
            for report in family_reports[family]:
                by_name = {c.name: c for c in report.channels}
                for name in channels:
                    ch = by_name[name]
                    assert ch.passed, (family, name, ch.max_relative)

        # DS I has no analytic PDE path: FD-only on a 9^3 grid at 1e-5.
        rng = np.random.default_rng(SEED + 4)
        sc = dsi.random_scenario(rng)
        report = dsi.verify_scenario(sc, grid=dsi.default_grid(count=9))
        assert report.masked_count == 0
        assert report.passed, [(c.name, c.max_relative) for c in report.channels]

    _certify(
        4,
        "order-4 FD residuals stay below 1e-6 (1e-5 for DSI on a 9^3 grid)",
        check,
    )


def test_criterion_5_structural_reductions():
    def check():
        rng = np.random.default_rng(SEED + 5)
        points2 = [tuple(rng.uniform(-0.8, 0.8, 2)) for _ in range(20)]
        points3 = [tuple(rng.uniform(-0.5, 0.5, 3)) for _ in range(20)]

        sc = dirac.random_scenario(rng)
        for pt in points2:
            v = dirac.potential(sc, pt)
            assert linalg.fro(v - linalg.adjoint(v)) <= 1e-10 * linalg.fro(v) + 1e-300

        a = np.diag([0.5, 0.9]).astype(complex) + np.diag([0.2], 1)
        chat = 0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        sq = schrodinger.build_schrodinger(a, chat)
        for pt in points2:
            q = schrodinger.potential(sq, pt)
            assert np.array_equal(q, linalg.adjoint(q))

        sd = dsi.random_scenario(rng)
        for pt in points3:
            _, q1, q2 = dsi.fields_uq(sd, pt)
            assert np.array_equal(q1, linalg.adjoint(q1))
            assert np.array_equal(q2, linalg.adjoint(q2))

        sg = gnoe.random_scenario(rng)
        b = sg.b_mat
        for pt in points3:
            f = gnoe.xi(sg, pt)
            assert linalg.fro(linalg.adjoint(f) - b @ f @ b) <= 1e-12 * linalg.fro(f) + 1e-300

    _certify(
        5,
        "Hermitian and signature reductions hold at every sampled point",
        check,
    )


def test_criterion_6_positivity():
    def check():
        rng = np.random.default_rng(SEED + 6)
        for _ in range(50):
            sc = schrodinger.random_scenario(rng)
            points = [tuple(rng.uniform(-1.0, 1.0, 2)) for _ in range(100)]
            report = schrodinger.check_positivity(sc, points)
            assert report.hypotheses_met
            assert report.positive, report

    _certify(
        6,
        "S stays positive definite for 50 hypothesis-satisfying scenarios",
        check,
    )


def test_criterion_7_rational_oracle():
    def check():
        # Pipeline instance: nilpotent nodes, dyadic-rational C factors
        # (exactly representable in binary floating point, so the float
        # pipeline and the exact oracle see identical inputs).
        c1 = np.array([[1.0, 0.5], [0.0, 1.0]])
        c2 = np.array([[1.0, 0.0], [0.25, 1.0]])
        sc = dsi.build_rational_dsi(c1=c1, c2=c2)

        # Independent oracle in exact rational arithmetic. The nilpotent
        # exponent collapses: E_k = I + (x +- y) N exactly, no t term.
        xs, ys = sp.symbols("x y", real=True)
        nil = sp.Matrix([[0, 1], [0, 0]])
        e1 = sp.eye(2) + (xs + ys) * nil
        e2 = sp.eye(2) + (xs - ys) * nil
        r_half = sp.Rational(-1, 2)
        r_mat = sp.Matrix([[0, r_half], [r_half, 0]])
        c1_s = sp.Matrix([[1, sp.Rational(1, 2)], [0, 1]])
        c2_s = sp.Matrix([[1, 0], [sp.Rational(1, 4), 1]])
        head = sp.Matrix([[1], [0]])
        phi1 = c1_s * e1 * head
        phi2 = c2_s * e2 * head
        s_mat = sp.eye(2) + c1_s * e1 * r_mat * e1.T * c1_s.T - c2_s * e2 * r_mat * e2.T * c2_s.T
        s_inv = s_mat.inv()
        pi = phi1.row_join(phi2)
        q_sym = (pi.T * s_inv * pi).applyfunc(sp.cancel)
        u_sym = 2 * q_sym[1, 0]
        q1_sym = sp.Rational(1, 2) * u_sym**2 - 2 * sp.diff(q_sym[0, 0], ys)
        q2_sym = -sp.Rational(1, 2) * u_sym**2 + 2 * sp.diff(q_sym[1, 1], ys)

        # Dyadic rationals are exact in binary floating point, so the
        # pipeline sees exactly the oracle's evaluation points.  Keep the
        # determinant bounded away from zero: next to the singular surface
        # the conditioning of S^-1 costs float evaluation its last digits,
        # which would test the pole, not the arithmetic.
        det_sym = sp.cancel(s_mat.det())
        points = []
        k = 0
        while len(points) < 20:
            x = Fraction(k - 10, 16)
            t = Fraction((3 * k) % 7 - 3, 8)
            y = Fraction((5 * k) % 11 - 5, 16)
            k += 1
            det = det_sym.subs(
                {xs: sp.Rational(x.numerator, x.denominator),
                 ys: sp.Rational(y.numerator, y.denominator)}
            )
            if abs(det) >= sp.Rational(1, 2):
                points.append((x, t, y))

        for x, t, y in points:
            subs = {xs: sp.Rational(x.numerator, x.denominator),
                    ys: sp.Rational(y.numerator, y.denominator)}
            exact = [sp.Rational(expr.subs(subs)) for expr in (u_sym, q1_sym, q2_sym)]
            fields = dsi.fields_uq(sc, (float(x), float(t), float(y)))
            assert fields is not None
            for got, want in zip(fields, exact):
                scale = 1.0 + abs(float(want))
                assert abs(got[0, 0] - float(want)) <= 1e-12 * scale, (x, t, y)

    _certify(
        7,
        "nilpotent DSI fields match the exact rational oracle to 1e-12",
        check,
    )


def test_criterion_8_derivative_rule_certification():
    def check():
        rng = np.random.default_rng(SEED + 8)
        derivs2 = [(0,), (1,), (0, 0), (0, 1), (1, 1)]
        derivs3 = [(0,), (1,), (2,), (0, 2), (1, 2), (2, 2)]
        cases = [
            (dirac.random_scenario(rng).family, 2, derivs2),
            (schrodinger.random_scenario(rng).family, 2, derivs2),
            (dsi.random_scenario(rng).family, 3, derivs3),
            (gnoe.random_scenario(rng).family, 3, derivs3),
        ]
        for family, nvars, derivs in cases:
            for _ in range(5):
                pt = tuple(rng.uniform(-0.5, 0.5, nvars))
                for deriv in derivs:
                    direct = family.s_direct(pt, deriv)
                    routed = family.s(pt, deriv)
                    scale = 1.0 + linalg.fro(direct)
                    assert linalg.fro(routed - direct) <= 1e-9 * scale

        # The Loewner factors carry no S matrix; its derivative structure
        # is certified through the premise systems instead.
        sc = loewner.random_scenario(rng)
        report = loewner.verify_scenario(sc, grid=loewner.default_grid(count=5))
        assert report.passed, [(c.name, c.max_relative) for c in report.channels]

    _certify(
        8,
        "rule-based S derivatives equal brute-force term derivatives to 1e-9",
        check,
    )


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    def check():
        monkeypatch.chdir(tmp_path)
        entries = cli.catalog()
        assert len(entries) >= 6
        for name, _, config_path in entries:
            assert cli.main(["run", config_path]) == 0, name
            out_path = Path(json.loads(Path(config_path).read_text())["output"]["path"])
            report_path = out_path.with_suffix(".report.json")
            first = (out_path.read_bytes(), report_path.read_bytes())
            assert cli.main(["run", config_path]) == 0, name
            assert (out_path.read_bytes(), report_path.read_bytes()) == first, name

    _certify(
        9,
        "all built-in configs exit 0 and rerun bit-identically",
        check,
    )
