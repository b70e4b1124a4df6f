"""The benchmark's workloads: their inputs, their items and their checks.

A workload is built from ``--seed`` (its set-up), then yields rounds of
items. An item is one timed call into the package. After each item the
benchmark calls ``after`` outside the timed part; it returns whether the
operation succeeded and how many grid points it verified, and records any
wrong output in ``problems``. ``finish`` runs the remaining checks once the
timed part is over.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from pseudoexp import cli, dirac, dsi, gnoe, loewner, schrodinger, verify

import checks

FAMILIES = (("dirac", dirac), ("loewner", loewner), ("schrodinger", schrodinger), ("dsi", dsi), ("gnoe", gnoe))

# Arguments of random_scenario that pin the shape of a draw, so that every
# seed asks for the same amount of work and the seed picks only the entries.
# Per-point cost depends on the shape (about 10.5 against 12.5 ms for DS I
# with 1 x 1 and 2 x 2 blocks). DS I still draws the widths of chat_1 and
# chat_2.
PINNED_SHAPES = {
    "pseudoexp.dirac": {"max_channel": 1},
    "pseudoexp.schrodinger": {"max_dim": 1},
    "pseudoexp.dsi": {"max_dim": 1},
    "pseudoexp.gnoe": {"max_l": 1, "max_m": 2},
}


class Item:
    def __init__(self, name: str, run):
        self.name = name
        self.run = run


def _num(value) -> complex:
    """A config scalar: a number or an [re, im] pair."""
    return complex(*value) if isinstance(value, list) else complex(value)


def _grid(names, half_width: float, count: int) -> verify.Grid:
    return verify.Grid(tuple(verify.Axis(n, -half_width, half_width, count) for n in names))


def _node_problems(sc, label: str) -> list[str]:
    """Node identities of any scenario, recomputed with numpy."""
    if isinstance(sc, dsi.DsiScenario):
        eye1, eye2 = np.eye(sc.m1), np.eye(sc.m2)
        return checks.check_node_identity(sc.a1, sc.r1, sc.chat1, eye1, -1.0, label) + checks.check_node_identity(
            sc.a2, sc.r2, sc.chat2, eye2, -1.0, label
        )
    if isinstance(sc, loewner.LoewnerScenario):
        return []  # no node: the Loewner factors carry no R
    node = sc.node
    out = []
    for a, nu, sign in zip(node.a_mats, node.nu_mats, node.signs):
        out += checks.check_node_identity(a, node.r_mat, node.chat, nu, sign, label)
    return out


def _structure_problems(fam: str, sc, points, label: str) -> list[str]:
    """Node identities, Hermitian potentials, the gnoe reduction and the
    Loewner spectrum at the given points. Singular points are skipped."""
    out = _node_problems(sc, label)

    def values(fn):
        return [v for v in (fn(p) for p in points) if v is not None]

    if fam == "dirac":
        out += checks.check_hermitian(values(lambda p: dirac.potential(sc, p)), label)
    elif fam == "schrodinger":
        out += checks.check_hermitian(values(lambda p: schrodinger.potential(sc, p)), label)
    elif fam == "dsi":
        out += checks.check_hermitian([f[k] for f in values(lambda p: dsi.fields_uq(sc, p)) for k in (1, 2)], label)
    elif fam == "gnoe":
        out += checks.check_signature(values(lambda p: gnoe.xi(sc, p)), sc.b_diag, label)
    elif fam == "loewner":
        out += checks.check_spectrum([f[1] for f in values(lambda p: loewner.eval_loewner(sc, p))], sc.d_diag, label)
    return out


# -- cli-configs ---------------------------------------------------------------


def _on_line(coefficients, offset: float):
    """Points p with coefficients . p == offset, to roundoff."""
    return lambda p: abs(sum(c * v for c, v in zip(coefficients, p)) - offset) <= checks.ON_SET_ATOL


# Closed forms of the schrodinger builders that have one.
CLOSED_FORMS = {
    "singular_line": checks.singular_line_closed_form,
    "rational": checks.rational_closed_form,
    "nonsingular": checks.nonsingular_closed_form,
}


def _refs(closed_form) -> dict:
    return dict(zip(("potential", "wave"), closed_form))


# Singular sets of the built-in configs that cross one. dense-grid's
# singular-line item shares the config's name and its set.
KNOWN_SINGULAR = {
    "dirac-two-channel": _on_line((1.0, 1.0), 0.0),  # t + y = 0
    "schrodinger-singular-line": _on_line((1.0, 2.0), -0.75),  # x + 2t = -3/4
}


class CliConfigs:
    """The six built-in configs through ``cli.main(["run", ...])``."""

    name = "cli-configs"

    def __init__(self, seed: int, workdir: Path):
        # The built-in configs have no seeded part, so the seed is unused.
        self.config_dir = Path(tempfile.mkdtemp(prefix="configs-", dir=workdir))
        self.output_dir = Path(tempfile.mkdtemp(prefix="outputs-", dir=workdir))
        self.configs = {}
        for name, _, path in cli.catalog():
            config = json.loads(Path(path).read_text())
            dump = self.output_dir / Path(config["output"]["path"]).name
            config["output"]["path"] = str(dump)
            config_path = self.config_dir / f"{name}.json"
            config_path.write_text(json.dumps(config, indent=2))
            self.configs[name] = (config, config_path, dump, dump.with_suffix(".report.json"))
        # gnoe-diagonal, the config of middle cost, runs twice: with an odd
        # number of items per round the median item falls inside its times,
        # not in the gap between the schrodinger configs and the slower ones,
        # where it moved by 12% from run to run.
        self.round_names = list(self.configs) + ["gnoe-diagonal"]
        self.first: dict[str, tuple[bytes, bytes]] = {}
        self.problems: list[str] = []

    def round(self) -> list[Item]:
        return [Item(name, self._runner(self.configs[name][1])) for name in self.round_names]

    @staticmethod
    def _runner(path: Path):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["run", str(path)])

        return run

    def after(self, item: Item, code) -> tuple[bool, int]:
        config, _, dump, report = self.configs[item.name]
        points = math.prod(axis["count"] for axis in config["grid"])
        if code != 0:
            return False, points
        got = (dump.read_bytes(), report.read_bytes())
        if item.name not in self.first:
            self.first[item.name] = got
        else:
            for first, again, what in zip(self.first[item.name], got, ("dump", "report")):
                self.problems += checks.check_identical(first, again, f"{item.name} {what}")
        return True, points

    def bytes_per_round(self) -> int:
        return sum(len(d) + len(r) for d, r in (self.first[name] for name in self.round_names))

    def finish(self) -> list[str]:
        oracle = None
        for name, (dump, report) in self.first.items():
            config = self.configs[name][0]
            rows = checks.read_dump(dump, config["output"]["format"])
            self.problems += checks.check_report(json.loads(report)["report"], rows, name)
            on_set = KNOWN_SINGULAR.get(name, lambda p: False)
            family, params = config["family"], config["params"]
            builder = params.get("builder")
            if family == "schrodinger" and builder in CLOSED_FORMS:
                refs = _refs(CLOSED_FORMS[builder](**self._closed_form_args(params)))
                self.problems += checks.check_mask(rows, on_set, name)
                self.problems += checks.check_closed_form(rows, refs, name)
            elif family == "dsi" and set(params) == {"builder"} and builder == "rational":
                oracle = oracle or checks.RationalDsiOracle()
                self.problems += checks.check_dsi_oracle(rows, oracle, name)
                self.problems += checks.check_hermitian(
                    [f[k] for _, s, f in rows if not s for k in ("q1", "q2")], name
                )
            elif family == "dirac":
                self.problems += checks.check_mask(rows, on_set, name)
                self.problems += checks.check_hermitian([f["potential"] for _, s, f in rows if not s], name)
            elif family == "gnoe":
                self.problems += checks.check_mask(rows, on_set, name)
                self.problems += checks.check_signature(
                    [f["xi"] for _, s, f in rows if not s], [_num(v).real for v in params["b"]], name
                )
            else:
                self.problems.append(f"{name}: no independent check for {family}/{builder}")
        return self.problems

    @staticmethod
    def _closed_form_args(params: dict) -> dict:
        """Builder arguments as numbers: complex for mu0 and b, else real."""
        return {
            k: _num(v) if k in ("mu0", "b") else _num(v).real for k, v in params.items() if k != "builder"
        }

    def close(self) -> None:
        shutil.rmtree(self.config_dir, ignore_errors=True)
        shutil.rmtree(self.output_dir, ignore_errors=True)


# -- dense-grid ----------------------------------------------------------------

# Default grids are 9 x 9 over [-0.8, 0.8]^2 (spacing 0.2) and 5^3 over
# [-0.6, 0.6]^3 or [-0.5, 0.5]^3 (spacing 0.3 or 0.25). These are 4-5 times
# finer per axis, over a smaller box. The boxes are small so that a round
# takes about 4 s and a 30 s run has six or more rounds to take each item's
# median time from. With 17 x 17 and 5^3 boxes (four or five rounds) the
# run-to-run spread of points_per_s was three times wider.
DENSE_2D = (0.3, 13)  # spacing 0.05
DENSE_3D = (0.09, 4)  # spacing 0.06
# The pole line x + 2t = -3/4 runs through this window on exact binary grid
# values (spacing 1/16), so 7 grid points lie on it.
SINGULAR_LINE_GRID = verify.Grid((verify.Axis("x", -1.0, 0.0, 17), verify.Axis("t", -0.25, 0.75, 17)))
SINGULAR_LINE_ITEM = "schrodinger-singular-line"


class DenseGrid:
    """One scenario per family swept on a fine grid, DS I twice, plus the
    singular-line example across its pole line."""

    name = "dense-grid"

    def __init__(self, seed: int, workdir: Path):
        seqs = np.random.SeedSequence(seed).spawn(4)
        params = np.random.default_rng(seqs[1])
        mu0 = complex(params.uniform(0.6, 1.4), params.uniform(-0.5, 0.5))
        d = float(params.uniform(0.5, 2.0))

        def draw(module, k):
            return lambda: module.random_scenario(np.random.default_rng(seqs[k]), **PINNED_SHAPES[module.__name__])

        g2 = lambda names: _grid(names, *DENSE_2D)  # noqa: E731
        g3 = lambda names: _grid(names, *DENSE_3D)  # noqa: E731
        # name -> (family, builder, grid, S built to stay positive). The
        # Loewner scenario is one fixed draw: see the README.
        self.cases = {
            "dirac": ("dirac", draw(dirac, 0), g2(dirac.VAR_NAMES), True),
            "loewner": (
                "loewner",
                lambda: loewner.random_scenario(np.random.default_rng(0)),
                g2(loewner.VAR_NAMES),
                False,
            ),
            "schrodinger": (
                "schrodinger",
                lambda: schrodinger.build_nonsingular_example(mu0=mu0, d=d)[0],
                g2(schrodinger.VAR_NAMES),
                True,
            ),
            "gnoe": ("gnoe", draw(gnoe, 2), g3(gnoe.VAR_NAMES), True),
            "dsi-rational": ("dsi", dsi.build_rational_dsi, g3(dsi.VAR_NAMES), False),
            "dsi-exp": ("dsi", draw(dsi, 3), g3(dsi.VAR_NAMES), True),
            SINGULAR_LINE_ITEM: (
                "schrodinger",
                lambda: schrodinger.build_singular_line_example()[0],
                SINGULAR_LINE_GRID,
                False,
            ),
        }
        self.scenarios = {name: build() for name, (_, build, _, _) in self.cases.items()}
        self.schrodinger_args = {"mu0": mu0, "d": d}
        self.first: dict[str, dict] = {}
        self.problems: list[str] = []

    def round(self) -> list[Item]:
        # Fresh scenario objects every round: a scenario keeps the matrix
        # exponentials of the points it has seen, and a second sweep of the
        # same one would time that cache instead of the sweep.
        return [Item(name, self._runner(fam, build(), grid)) for name, (fam, build, grid, _) in self.cases.items()]

    @staticmethod
    def _runner(fam: str, sc, grid: verify.Grid):
        module = dict(FAMILIES)[fam]
        return lambda: module.verify_scenario(sc, grid=grid)

    def after(self, item: Item, report) -> tuple[bool, int]:
        grid = self.cases[item.name][2]
        if report.total_points != grid.size:
            self.problems.append(f"{item.name}: report covers {report.total_points} of {grid.size} points")
        summary = report.to_dict()
        if item.name not in self.first:
            self.first[item.name] = summary
        elif summary != self.first[item.name]:
            self.problems.append(f"{item.name}: report differs from the first pass")
        if item.name == SINGULAR_LINE_ITEM and not report.passed:
            # The known failure is the FD channel alone; the analytic
            # residual must still hold.
            bad = [c.name for c in report.channels if not c.passed and c.name != "wave_fd"]
            if bad:
                self.problems.append(f"{item.name}: channels {bad} fail besides wave_fd")
        return bool(report.passed), report.total_points

    def bytes_per_round(self) -> int:
        return 0

    def finish(self) -> list[str]:
        for name, (fam, _, grid, positive) in self.cases.items():
            points = grid.points()
            sc = self.scenarios[name]
            self.problems += _structure_problems(fam, sc, points[::5], name)
            if positive:
                self.problems += checks.check_positive([sc.family.s(p) for p in points], name)
        sc, grid = self.scenarios["schrodinger"], self.cases["schrodinger"][2]
        self.problems += checks.check_closed_form(
            self._rows(sc, grid), _refs(checks.nonsingular_closed_form(**self.schrodinger_args)), "schrodinger"
        )
        rows = self._rows(self.scenarios[SINGULAR_LINE_ITEM], SINGULAR_LINE_GRID)
        self.problems += checks.check_mask(rows, KNOWN_SINGULAR[SINGULAR_LINE_ITEM], SINGULAR_LINE_ITEM)
        self.problems += checks.check_closed_form(rows, _refs(checks.singular_line_closed_form()), SINGULAR_LINE_ITEM)
        sc, grid = self.scenarios["dsi-rational"], self.cases["dsi-rational"][2]
        rows = []
        for p in grid.points():
            f = dsi.fields_uq(sc, p)
            rows.append((p, f is None, {} if f is None else dict(zip(("u", "q1", "q2"), f))))
        self.problems += checks.check_dsi_oracle(rows, checks.RationalDsiOracle(), "dsi-rational")
        return self.problems

    @staticmethod
    def _rows(sc, grid: verify.Grid) -> list:
        rows = []
        for p in grid.points():
            q, w = schrodinger.potential(sc, p), schrodinger.wave(sc, p)
            singular = q is None or w is None
            rows.append((p, singular, {} if singular else {"potential": q, "wave": w}))
        return rows

    def close(self) -> None:
        pass


# -- scenario-batch ------------------------------------------------------------


class ScenarioBatch:
    """Seeded ``random_scenario`` draws, each built and verified on its
    family's default grid. Item k of the batch draws from
    SeedSequence([seed, k]); every round repeats the batch with new
    scenario objects."""

    name = "scenario-batch"

    def __init__(self, seed: int, workdir: Path):
        self.batch = {f"{fam}-{k}": (fam, np.random.SeedSequence([seed, k])) for k, fam in enumerate(BATCH_ROUND)}
        self.first: dict[str, dict] = {}
        self.problems: list[str] = []

    def round(self) -> list[Item]:
        return [Item(name, self._runner(dict(FAMILIES)[fam], seq)) for name, (fam, seq) in self.batch.items()]

    @staticmethod
    def _runner(module, seq):
        def run():
            sc = module.random_scenario(np.random.default_rng(seq), **PINNED_SHAPES[module.__name__])
            return sc, module.verify_scenario(sc)

        return run

    def after(self, item: Item, result) -> tuple[bool, int]:
        sc, report = result
        fam = self.batch[item.name][0]
        ok = bool(report.passed) and report.masked_count == 0
        summary = report.to_dict()
        if item.name in self.first:
            if summary != self.first[item.name]:
                self.problems.append(f"{item.name}: report differs from the first pass")
        else:
            self.first[item.name] = summary
            if ok:
                # Three grid points are enough to catch a broken field
                # identity; S is checked at every grid point.
                points = dict(FAMILIES)[fam].default_grid().points()
                self.problems += _structure_problems(fam, sc, points[:: len(points) // 3 + 1], item.name)
                self.problems += checks.check_positive([sc.family.s(p) for p in points], item.name)
        return ok, report.total_points

    def bytes_per_round(self) -> int:
        return 0

    def finish(self) -> list[str]:
        return self.problems

    def close(self) -> None:
        pass


# Loewner is left out: about 3% of its random draws fail the FD channel on
# the default grid (see the README), so the failed share would depend on the
# seed. Its per-point work is measured on dense-grid. gnoe, the family of
# middle cost, is drawn three times: with an odd number of items the median
# item falls inside gnoe's times, not in the gap between two families.
BATCH_ROUND = ("dirac", "schrodinger", "gnoe", "dsi", "dirac", "schrodinger", "gnoe", "dsi", "gnoe")

WORKLOADS = {w.name: w for w in (CliConfigs, DenseGrid, ScenarioBatch)}
