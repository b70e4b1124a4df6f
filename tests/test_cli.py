"""CLI behavior: schema validation, exit codes, artifact formats, determinism."""

import json
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


class TestDump:
    def test_fields_evaluated_once_per_point_outside_the_sweep(self, tmp_path, monkeypatch):
        # The CLI reaches the builder and verify_scenario through module
        # attributes at call time, and evaluates the fields of every grid
        # point once, in one batched call, for both dump formats.
        monkeypatch.chdir(tmp_path)
        in_sweep, q_calls, used = [False], [], []
        q_deriv = family.PseudoExpFamily.q_deriv
        verify_scenario, build = dsi.verify_scenario, dsi.build_rational_dsi

        def counting_q_deriv(self, points, derivs):
            if not in_sweep[0]:
                q_calls.append(np.array(points))
            return q_deriv(self, points, derivs)

        def sweeping(*args, **kwargs):
            used.append("verify")
            in_sweep[0] = True
            try:
                return verify_scenario(*args, **kwargs)
            finally:
                in_sweep[0] = False

        def building(*args, **kwargs):
            used.append("build")
            return build(*args, **kwargs)

        monkeypatch.setattr(family.PseudoExpFamily, "q_deriv", counting_q_deriv)
        monkeypatch.setattr(dsi, "verify_scenario", sweeping)
        monkeypatch.setattr(dsi, "build_rational_dsi", building)
        grid = [{"name": n, "min": -0.2, "max": 0.2, "count": 2} for n in ("x", "t", "y")]
        points = [(x, t, y) for x in (-0.2, 0.2) for t in (-0.2, 0.2) for y in (-0.2, 0.2)]
        for fmt in ("csv", "json"):
            q_calls.clear()
            used.clear()
            path = write_config(
                tmp_path,
                family="dsi",
                params={"builder": "rational"},
                grid=grid,
                output={"fields": ["q2", "u"], "format": fmt, "path": f"out.{fmt}"},
            )
            assert cli.main(["run", str(path)]) == 0
            assert used == ["build", "verify"]
            assert len(q_calls) == 1
            assert [tuple(p) for p in q_calls[0]] == points
