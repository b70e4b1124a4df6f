"""CLI behavior: schema validation, exit codes, artifact formats, determinism."""

import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pseudoexp import cli, dsi, family, schrodinger


def write_config(tmp_path, overrides=None, **top):
    config = {
        "family": "schrodinger",
        "params": {"builder": "rational", "mu0": 1},
        "grid": [
            {"name": "x", "min": -1, "max": 1, "count": 3},
            {"name": "t", "min": -1, "max": 1, "count": 3},
        ],
        "output": {"fields": ["potential"], "format": "csv", "path": "out.csv"},
    }
    config.update(top)
    if overrides:
        for key, value in overrides.items():
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def reference_dump(path, grid, names, values, ok, fmt):
    """The dump written row by row, one complex entry at a time: the oracle
    the CLI's column writers must match byte for byte."""
    rows = [(point, [v[k] for v in values] if ok[k] else None) for k, point in enumerate(grid.points())]
    if fmt == "json":
        records = []
        for point, entries in rows:
            record = {"point": [float(c) for c in point], "singular": entries is None}
            if entries is not None:
                record["values"] = {
                    name: [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]
                    for name, m in zip(names, entries)
                }
            records.append(record)
        payload = {"grid": grid.spec(), "fields": names, "points": records}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    header = [ax.name for ax in grid.axes]
    for name, v in zip(names, values):
        for i in range(v.shape[1]):
            for j in range(v.shape[2]):
                header.extend((f"{name}[{i}][{j}].re", f"{name}[{i}][{j}].im"))
    header.append("singular")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for point, entries in rows:
            row = [repr(float(c)) for c in point]
            if entries is None:
                writer.writerow(row + [""] * (len(header) - len(row) - 1) + ["1"])
                continue
            for m in entries:
                for z in np.atleast_2d(m).ravel():
                    row.extend((repr(float(z.real)), repr(float(z.imag))))
            writer.writerow(row + ["0"])


class TestCatalog:
    def test_has_six_entries(self):
        names = [name for name, _, _ in cli.catalog()]
        assert names == [
            "dirac-two-channel",
            "dsi-rational",
            "gnoe-diagonal",
            "schrodinger-nonsingular",
            "schrodinger-rational",
            "schrodinger-singular-line",
        ]

    def test_every_entry_is_a_real_file(self):
        for _, _, path in cli.catalog():
            assert Path(path).is_file()

    def test_examples_command_deterministic(self, capsys):
        assert cli.main(["examples"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["examples"]) == 0
        assert capsys.readouterr().out == first
        assert "dirac-two-channel" in first

    def test_catalog_configs_validate(self):
        for _, _, path in cli.catalog():
            assert cli.main(["validate", path]) == 0


class TestRun:
    def test_run_writes_artifacts_and_reruns_identically(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = next(p for n, _, p in cli.catalog() if n == "schrodinger-rational")
        assert cli.main(["run", config]) == 0
        dump = (tmp_path / "schrodinger-rational.csv").read_bytes()
        report = (tmp_path / "schrodinger-rational.report.json").read_bytes()
        assert cli.main(["run", config]) == 0
        assert (tmp_path / "schrodinger-rational.csv").read_bytes() == dump
        assert (tmp_path / "schrodinger-rational.report.json").read_bytes() == report

    def test_rational_potential_column_matches_closed_form(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = next(p for n, _, p in cli.catalog() if n == "schrodinger-rational")
        assert cli.main(["run", config]) == 0
        _, closed = schrodinger.build_rational_example(mu0=1.0)
        rows = (tmp_path / "schrodinger-rational.csv").read_text().splitlines()
        header = rows[0].split(",")
        x_col, t_col = header.index("x"), header.index("t")
        re_col = header.index("potential[0][0].re")
        hits = 0
        for line in rows[1:]:
            cells = line.split(",")
            if float(cells[x_col]) == 0.0 and float(cells[t_col]) == 0.0:
                expected = closed.potential((0.0, 0.0))[0, 0]
                assert float(cells[re_col]) == pytest.approx(expected.real, abs=1e-12)
                hits += 1
        assert hits == 1

    def test_singular_points_flagged_in_csv_and_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = next(p for n, _, p in cli.catalog() if n == "schrodinger-singular-line")
        assert cli.main(["run", config]) == 0
        rows = (tmp_path / "schrodinger-singular-line.csv").read_text().splitlines()
        flagged = [r for r in rows[1:] if r.endswith(",1")]
        assert len(flagged) == 4
        for row in flagged:
            cells = row.split(",")
            assert all(c == "" for c in cells[2:-1])
        report = json.loads(
            (tmp_path / "schrodinger-singular-line.report.json").read_text()
        )
        assert report["report"]["masked_points"] == 4
        assert len(report["report"]["mask"]) == 4

    # S = C E R E* C* has rank 1 at every point, so the whole grid is
    # masked: the run fails (exit 1) in either format and still writes the
    # dump and the report, the CSV with every column of the fields' shapes.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_singular_at_every_point(self, tmp_path, monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        path = write_config(
            tmp_path,
            params={"builder": "general", "a": [[1]], "chat": [[1]], "c": [[1], [1]], "s0": [[0, 0], [0, 0]]},
            output={"fields": ["potential", "wave"], "format": fmt, "path": f"dump.{fmt}"},
        )
        assert cli.main(["run", str(path)]) == 1
        report = json.loads((tmp_path / "dump.report.json").read_text())
        assert report["report"]["masked_points"] == report["report"]["total_points"] == 9
        assert report["report"]["passed"] is False
        dump = (tmp_path / f"dump.{fmt}").read_text()
        if fmt == "json":
            assert all(record["singular"] for record in json.loads(dump)["points"])
            return
        header, *rows = dump.splitlines()
        columns = ["potential[0][0]", "wave[0][0]", "wave[0][1]"]
        assert header.split(",") == ["x", "t", *(f"{c}.{p}" for c in columns for p in ("re", "im")), "singular"]
        assert len(rows) == 9
        for row in rows:
            cells = row.split(",")
            assert cells[-1] == "1"
            assert cells[2:-1] == [""] * 6

    def test_json_dump_round_trips_exactly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(
            tmp_path,
            output={"fields": ["potential", "wave"], "format": "json", "path": "dump.json"},
        )
        assert cli.main(["run", str(path)]) == 0
        payload = json.loads((tmp_path / "dump.json").read_text())
        sc, _ = schrodinger.build_rational_example(mu0=1.0)
        for record in payload["points"]:
            assert not record["singular"]
            point = tuple(record["point"])
            direct = schrodinger.potential(sc, point)
            parsed = np.array(
                [[complex(re, im) for re, im in row] for row in record["values"]["potential"]]
            )
            assert np.array_equal(parsed, direct)

    def test_residual_failure_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(
            tmp_path, verify={"tolerance": {"wave_fd": 1e-30}}
        )
        assert cli.main(["run", str(path)]) == 1
        # Artifacts are still written for inspection.
        assert (tmp_path / "out.csv").exists()
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert report["report"]["passed"] is False

    def test_seeded_random_scenario_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(
            tmp_path,
            params={"builder": "random"},
            seed=7,
            grid=[
                {"name": "x", "min": -0.5, "max": 0.5, "count": 3},
                {"name": "t", "min": -0.5, "max": 0.5, "count": 3},
            ],
        )
        assert cli.main(["run", str(path)]) == 0
        first = (tmp_path / "out.csv").read_bytes()
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "out.csv").read_bytes() == first

    # S past the double range exits 2 naming the first such grid point, with
    # no RuntimeWarning (warnings fail the suite) and no file written. With
    # mu0 = 1e20, ||G_t|| is about 1e40 and exp(t G_t) takes about 134
    # squarings, so the sign of the roundoff in a unit-modulus eigenvalue
    # decides between overflow and underflow: at (-1, -1), exp(x A) underflows
    # to zero and exp(t G_t) overflows, and 0 * inf leaves S not finite.
    @pytest.mark.parametrize(
        "name, params, x_range, where",
        [
            ("schrodinger-rational", {"mu0": 1e20}, None, "x = -1.0, t = -1.0"),
            ("schrodinger-nonsingular", {}, (-400, 400), "x = 400.0, t = -1.0"),
        ],
    )
    def test_overflowing_s_exits_two_naming_the_point(
        self, tmp_path, monkeypatch, capsys, name, params, x_range, where
    ):
        monkeypatch.chdir(tmp_path)
        config = json.loads(Path(next(p for n, _, p in cli.catalog() if n == name)).read_text())
        config["params"].update(params)
        if x_range:
            config["grid"][0]["min"], config["grid"][0]["max"] = x_range
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path)]) == 2
        assert f"config error: S overflows at {where}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_huge_generators_exit_two_without_a_warning(self, tmp_path):
        # mu0 = 1e150 puts G_t = -i A^2 near 1e300, so the unscaled product
        # G_x G_t of the recipe's commutator check overflows. Run as a user
        # would, under Python's default warning filters.
        config = json.loads(Path(next(p for n, _, p in cli.catalog() if n == "schrodinger-rational")).read_text())
        config["params"]["mu0"] = 1e150
        (tmp_path / "config.json").write_text(json.dumps(config))
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "pseudoexp.cli", "run", "config.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("config error: ") and "RuntimeWarning" not in run.stderr, run.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_grid_too_large_to_allocate_exits_two(self, tmp_path, monkeypatch, capsys):
        # 10^7 x 10^7 points need hundreds of TiB, beyond any address space,
        # so the allocation fails at once.
        monkeypatch.chdir(tmp_path)
        grid = [{"name": v, "min": -1, "max": 1, "count": 10**7} for v in ("x", "t")]
        path = write_config(tmp_path, grid=grid)
        assert cli.main(["run", str(path)]) == 2
        assert "config error: a grid of 100000000000000 points" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


class TestSchemaErrors:
    def test_min_not_below_max(self, tmp_path):
        path = write_config(
            tmp_path,
            grid=[
                {"name": "x", "min": 1, "max": 1, "count": 3},
                {"name": "t", "min": -1, "max": 1, "count": 3},
            ],
        )
        assert cli.main(["validate", str(path)]) == 2

    def test_count_below_two(self, tmp_path):
        path = write_config(
            tmp_path,
            grid=[
                {"name": "x", "min": -1, "max": 1, "count": 1},
                {"name": "t", "min": -1, "max": 1, "count": 3},
            ],
        )
        assert cli.main(["validate", str(path)]) == 2

    def test_wrong_axis_order(self, tmp_path):
        path = write_config(
            tmp_path,
            grid=[
                {"name": "t", "min": -1, "max": 1, "count": 3},
                {"name": "x", "min": -1, "max": 1, "count": 3},
            ],
        )
        assert cli.main(["validate", str(path)]) == 2

    # An integer literal beyond the float range exits 2 with a config
    # message, not with the OverflowError of converting it, and writes nothing.
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "bounds",
        [{"min": -(10**400), "max": 1}, {"min": -1, "max": 10**400}],
        ids=["huge-min", "huge-max"],
    )
    def test_grid_bound_beyond_float_range(self, tmp_path, monkeypatch, capsys, command, bounds):
        monkeypatch.chdir(tmp_path)
        path = write_config(
            tmp_path,
            grid=[
                {"name": "x", "count": 3, **bounds},
                {"name": "t", "min": -1, "max": 1, "count": 3},
            ],
        )
        assert cli.main([command, str(path)]) == 2
        assert "grid min/max must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_unknown_family(self, tmp_path):
        path = write_config(tmp_path, family="heat")
        assert cli.main(["validate", str(path)]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, plot=True)
        assert cli.main(["validate", str(path)]) == 2

    def test_unknown_output_field(self, tmp_path):
        path = write_config(
            tmp_path,
            output={"fields": ["charge"], "format": "csv", "path": "out.csv"},
        )
        assert cli.main(["validate", str(path)]) == 2

    def test_unknown_tolerance_channel(self, tmp_path):
        path = write_config(tmp_path, verify={"tolerance": {"bogus": 1e-6}})
        assert cli.main(["validate", str(path)]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["validate", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "absent.json")]) == 2

    def test_random_builder_without_seed(self, tmp_path):
        path = write_config(tmp_path, params={"builder": "random"})
        assert cli.main(["validate", str(path)]) == 2

    def test_malformed_complex_entry(self, tmp_path):
        path = write_config(
            tmp_path, params={"builder": "rational", "mu0": [1, 2, 3]}
        )
        assert cli.main(["validate", str(path)]) == 2

    # A misshaped S0 is named by its shape, not by the Hermitian test or
    # numpy's broadcast error.
    @pytest.mark.parametrize("s0", [[[1, 2]], [[1, 0], [0, 1], [0, 0]]], ids=["1x2", "3x2"])
    def test_misshaped_s0(self, tmp_path, capsys, s0):
        config = json.loads(Path(next(p for n, _, p in cli.catalog() if n == "gnoe-diagonal")).read_text())
        config["params"]["s0"] = s0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 2
        assert "config error: S0 must be square with the Pi row count" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()


class TestVerifySettings:
    # Zero, negative, NaN and infinite values, and an integer beyond the
    # float range, exit 2 before the sweep and write nothing.
    @pytest.mark.parametrize(
        "verify_cfg",
        [
            {"tolerance": 0},
            {"tolerance": -1},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
            {"tolerance": {"wave_fd": -1}},
            {"tolerance": {"wave_fd": float("nan")}},
            {"tolerance": {"wave_fd": float("inf")}},
            {"h": float("inf")},
            {"h": float("nan")},
            {"h": 0},
            pytest.param({"h": 10**400}, id="{'h': 10**400}"),
        ],
        ids=repr,
    )
    def test_non_positive_or_non_finite_exits_two(self, tmp_path, monkeypatch, capsys, verify_cfg):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, verify=verify_cfg)
        assert cli.main(["run", str(path)]) == 2
        assert "must be a finite positive number" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_positive_scalar_tolerance_applies_to_every_channel(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, verify={"tolerance": 1e-3})
        assert cli.main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "out.report.json").read_text())["report"]
        assert {c["tolerance"] for c in report["channels"].values()} == {1e-3}


class TestConstructionErrors:
    def test_unsolvable_identity_exits_three(self, tmp_path):
        # Purely imaginary spectrum: the Lyapunov identity is inconsistent.
        path = write_config(
            tmp_path,
            family="dirac",
            params={"builder": "two_channel", "g1": [[1, 1]], "n1": 1, "d": [[0, 1], [0, 2]]},
            grid=[
                {"name": "t", "min": -1, "max": 1, "count": 3},
                {"name": "y", "min": -1, "max": 1, "count": 3},
            ],
            output={"fields": ["potential"], "format": "csv", "path": "out.csv"},
        )
        assert cli.main(["validate", str(path)]) == 3
        assert cli.main(["run", str(path)]) == 3

    def test_validate_does_not_write_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = next(p for n, _, p in cli.catalog() if n == "schrodinger-rational")
        assert cli.main(["validate", config]) == 0
        assert not (tmp_path / "schrodinger-rational.csv").exists()


class TestOverwriteGuard:
    @pytest.mark.parametrize(
        "config_name, out_path",
        [("config.json", "config.json"), ("run.report.json", "run.csv")],
    )
    def test_output_onto_config_exits_two(self, tmp_path, monkeypatch, config_name, out_path):
        monkeypatch.chdir(tmp_path)
        path = write_config(
            tmp_path, output={"fields": ["potential"], "format": "json", "path": out_path}
        )
        path = path.rename(tmp_path / config_name)
        before = path.read_bytes()
        assert cli.main(["run", config_name]) == 2
        assert cli.main(["run", str(path)]) == 2
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [config_name]


class TestOutputPath:
    # A dump path in a missing directory, or naming a directory, exits 2
    # before the sweep under both commands, and writes nothing.
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("out_path", ["nodir/out.csv", "adir"])
    def test_unwritable_dump_path_exits_two(self, tmp_path, monkeypatch, capsys, command, out_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        path = write_config(
            tmp_path, output={"fields": ["potential"], "format": "csv", "path": out_path}
        )
        assert cli.main([command, str(path)]) == 2
        assert f"output.path {out_path!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "config.json"]

    def test_write_error_exits_two_naming_the_path(self, tmp_path, monkeypatch, capsys):
        # A report path that is a directory is caught with the dump path,
        # before the sweep, so no dump is left without its report.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.report.json").mkdir()
        path = write_config(tmp_path)
        for command in ("validate", "run"):
            assert cli.main([command, str(path)]) == 2
            assert "report path 'out.report.json' is a directory" in capsys.readouterr().err
            assert not (tmp_path / "out.csv").exists()

    def test_failed_report_write_exits_two_naming_the_path(self, tmp_path, monkeypatch, capsys):
        # A write that fails anyway exits 2 with a message naming the path.
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path)
        write_text = Path.write_text

        def failing(self, *args, **kwargs):
            if self.name == "out.report.json":
                raise PermissionError(13, "Permission denied", str(self))
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        assert cli.main(["run", str(path)]) == 2
        assert "cannot write output 'out.report.json'" in capsys.readouterr().err


class TestDump:
    @pytest.mark.parametrize("fields", [["wave"], ["potential"], ["wave", "potential"]])
    def test_a_subset_of_fields_dumps_exactly_its_columns(self, tmp_path, monkeypatch, fields):
        # The two-channel config crosses its singular line t + y = 0, so the
        # rows include singular ones.
        monkeypatch.chdir(tmp_path)
        config = json.loads(Path(next(p for n, _, p in cli.catalog() if n == "dirac-two-channel")).read_text())
        tables = {}
        for name, chosen in (("full", config["output"]["fields"]), ("part", fields)):
            config["output"] = {"fields": chosen, "format": "csv", "path": f"{name}.csv"}
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            assert cli.main(["run", f"{name}.json"]) == 0
            with open(f"{name}.csv", newline="") as fh:
                tables[name] = list(csv.reader(fh))
        full, part = tables["full"], tables["part"]
        columns = [c for f in fields for c in full[0] if c.startswith(f + "[")]
        assert part[0] == ["t", "y", *columns, "singular"]
        keep = [full[0].index(c) for c in part[0]]
        assert [[row[i] for i in keep] for row in full] == part
        assert any(row[-1] == "1" for row in part[1:])

    @pytest.mark.parametrize("name", [n for n, _, _ in cli.catalog()])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dump_matches_the_row_by_row_reference(self, tmp_path, monkeypatch, name, fmt):
        # Each built-in config, in its own format and in the other one.
        monkeypatch.chdir(tmp_path)
        config = json.loads(Path(next(p for n, _, p in cli.catalog() if n == name)).read_text())
        config["output"].update(format=fmt, path=f"dump.{fmt}")
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert cli.main(["run", "config.json"]) == 0
        _, module, scenario, grid, _, (fields, _, _) = cli._prepare("config.json")
        values, ok = module.SPEC.field_values(scenario, grid.stacked(), fields)
        reference_dump(tmp_path / "reference", grid, fields, values, ok, fmt)
        assert (tmp_path / f"dump.{fmt}").read_bytes() == (tmp_path / "reference").read_bytes()

    def test_fields_evaluated_once_per_point_outside_the_sweep(self, tmp_path, monkeypatch):
        # The CLI reaches the builder and verify_scenario through module
        # attributes at call time, and evaluates the fields of every grid
        # point once, on one view of the whole grid, for both dump formats.
        monkeypatch.chdir(tmp_path)
        in_sweep, views, used = [False], [], []
        at = family.PseudoExpFamily.at

        def counting_at(self, points):
            if not in_sweep[0]:
                views.append(np.array(points))
            return at(self, points)

        monkeypatch.setattr(family.PseudoExpFamily, "at", counting_at)
        cases = [
            (dsi, "build_rational_dsi", {"builder": "rational"}, ("x", "t", "y"), ["q2", "u"]),
            (schrodinger, "build_rational_example", {"builder": "rational"}, ("x", "t"), ["wave", "potential"]),
        ]
        for module, builder, params, names, fields in cases:
            verify_scenario, build = module.verify_scenario, getattr(module, builder)

            def sweeping(*args, verify_scenario=verify_scenario, **kwargs):
                used.append("verify")
                in_sweep[0] = True
                try:
                    return verify_scenario(*args, **kwargs)
                finally:
                    in_sweep[0] = False

            def building(*args, build=build, **kwargs):
                used.append("build")
                return build(*args, **kwargs)

            monkeypatch.setattr(module, "verify_scenario", sweeping)
            monkeypatch.setattr(module, builder, building)
            grid = [{"name": n, "min": -0.2, "max": 0.2, "count": 2} for n in names]
            points = list(itertools.product((-0.2, 0.2), repeat=len(names)))
            for fmt in ("csv", "json"):
                views.clear()
                used.clear()
                path = write_config(
                    tmp_path,
                    family=module.SPEC.name,
                    params=params,
                    grid=grid,
                    output={"fields": fields, "format": fmt, "path": f"out.{fmt}"},
                )
                assert cli.main(["run", str(path)]) == 0
                assert used == ["build", "verify"]
                assert len(views) == 1
                assert [tuple(p) for p in views[0]] == points
