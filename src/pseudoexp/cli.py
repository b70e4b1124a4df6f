"""Command-line front end.

Subcommands:
    run <config.json>       build the scenario, sweep the grid, write the
                            field dump and a residual report
    validate <config.json>  schema and construction checks only, no sweep
    examples                list the built-in scenario configs

Exit codes: 0 verification passed, 1 residual failure, 2 config or schema
error, 3 construction error. Each family's builders and their parameters,
output fields and default tolerances come from its declaration
(``<family>.SPEC``). Complex scalars in configs are numbers or two-element
[re, im] arrays; matrices are row-major nested arrays. The dump holds one
CSV line or JSON record per grid point, formatted by column from each
field's stacked values. Output files are deterministic: rerunning an
identical config byte-matches.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path
from types import ModuleType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import dirac, dsi, gnoe, loewner, schrodinger, verify
from .errors import ConfigError, ConstructionError, NoSolutionError
from .spec import parse_int

__all__ = ["main", "main_entry", "catalog"]

_TOP_KEYS = {"description", "family", "params", "grid", "verify", "output", "seed"}
_FORMATS = ("csv", "json")
_MODULES = {m.SPEC.name: m for m in (dirac, dsi, gnoe, loewner, schrodinger)}


def _take(params: Mapping, name: str, allowed: set) -> None:
    extra = set(params) - allowed
    if extra:
        raise ConfigError(f"unknown {name} keys: {sorted(extra)}")


def _build(module: ModuleType, params: Mapping, seed):
    """Scenario from the config's params, by the builder the family declares.

    The builder function is looked up on the module at call time, so a
    rebinding of the module attribute takes effect.
    """
    spec = module.SPEC
    name = params.get("builder", "general")
    builder = spec.builders.get(name) if isinstance(name, str) else None
    if builder is None:
        raise ConfigError(f"unknown {spec.name} builder {name!r}")
    _take(params, "params", {"builder", *builder.required, *builder.optional})
    function = getattr(module, builder.function)
    if builder.seeded:
        if seed is None:
            raise ConfigError(f"builder {name!r} needs a top-level seed")
        return function(np.random.default_rng(parse_int(seed, "seed")))
    kwargs = dict(builder.defaults)
    for key, parse in {**builder.required, **builder.optional}.items():
        if key in params:
            kwargs[key] = parse(params[key], key)
        elif key in builder.required:
            raise ConfigError(f"{name} builder needs {key!r}")
    built = function(**kwargs)
    # The worked examples also return their closed form.
    return built[0] if isinstance(built, tuple) else built


# -- schema ------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(config) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    return config


def _family_module(config: Mapping) -> ModuleType:
    family = config.get("family")
    if not isinstance(family, str) or family not in _MODULES:
        raise ConfigError(f"family must be one of {sorted(_MODULES)}, got {family!r}")
    return _MODULES[family]


def _grid_from_config(config: Mapping, var_names: Sequence[str]) -> verify.Grid:
    spec = config.get("grid")
    if not isinstance(spec, list):
        raise ConfigError("grid must be an array of axis objects")
    if len(spec) != len(var_names):
        raise ConfigError(f"grid must list the variables {list(var_names)} in order")
    axes = []
    for entry, expected in zip(spec, var_names):
        if not isinstance(entry, dict) or set(entry) != {"name", "min", "max", "count"}:
            raise ConfigError("each grid axis needs exactly name, min, max, count")
        if entry["name"] != expected:
            raise ConfigError(
                f"grid axes must be {list(var_names)} in order, got {entry['name']!r}"
            )
        count = entry["count"]
        if isinstance(count, bool) or not isinstance(count, int) or count < 2:
            raise ConfigError("grid counts must be integers >= 2")
        lo, hi = entry["min"], entry["max"]
        for v in (lo, hi):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError("grid min/max must be numbers")
            # Also rejects NaN, infinities and integers too large for a float.
            if not -sys.float_info.max <= v <= sys.float_info.max:
                raise ConfigError(f"grid min/max must be finite, got {v!r}")
        if not lo < hi:
            raise ConfigError("grid min must be strictly below max")
        axes.append(verify.Axis(expected, float(lo), float(hi), count))
    return verify.Grid(tuple(axes))


def _finite_positive(value, name: str) -> float:
    # NaN fails both comparisons; the upper bound also rejects infinity and
    # integers too large to convert to float.
    number = not isinstance(value, bool) and isinstance(value, (int, float))
    if not (number and 0 < value <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def _verify_settings(config: Mapping, spec) -> tuple[float, int, dict]:
    vcfg = config.get("verify", {})
    if not isinstance(vcfg, dict):
        raise ConfigError("verify must be an object")
    _take(vcfg, "verify", {"h", "accuracy", "tolerance"})
    h = _finite_positive(vcfg.get("h", verify.DEFAULT_H), "verify.h")
    accuracy = vcfg.get("accuracy", verify.DEFAULT_ACCURACY)
    if isinstance(accuracy, bool) or accuracy not in (2, 4):
        raise ConfigError("verify.accuracy must be 2 or 4")
    tolerances = dict(spec.tolerances)
    tol_cfg = vcfg.get("tolerance")
    if tol_cfg is not None:
        if isinstance(tol_cfg, dict):
            unknown = set(tol_cfg) - set(tolerances)
            if unknown:
                raise ConfigError(
                    f"unknown residual channels for {spec.name}: {sorted(unknown)}"
                )
            for name, value in tol_cfg.items():
                tolerances[name] = _finite_positive(value, f"verify.tolerance.{name}")
        else:
            value = _finite_positive(tol_cfg, "verify.tolerance")
            tolerances = {name: value for name in tolerances}
    return h, int(accuracy), tolerances


def _output_settings(config: Mapping, family_fields: Sequence[str]) -> tuple[list[str], str, str]:
    ocfg = config.get("output")
    if not isinstance(ocfg, dict):
        raise ConfigError("output must be an object")
    _take(ocfg, "output", {"fields", "format", "path"})
    fields = ocfg.get("fields")
    if not isinstance(fields, list) or not fields:
        raise ConfigError("output.fields must be a non-empty array")
    unknown = [f for f in fields if f not in family_fields]
    if unknown:
        raise ConfigError(
            f"unknown output fields {unknown}; available: {sorted(family_fields)}"
        )
    if len(set(fields)) != len(fields):
        raise ConfigError("output.fields must not repeat")
    fmt = ocfg.get("format")
    if fmt not in _FORMATS:
        raise ConfigError(f"output.format must be one of {_FORMATS}")
    path = ocfg.get("path")
    if not isinstance(path, str) or not path:
        raise ConfigError("output.path must be a non-empty string")
    # Checked before the sweep, so a run does not fail only when it writes.
    dump = Path(path)
    if dump.is_dir() or not dump.parent.is_dir():
        raise ConfigError(f"output.path {path!r} must name a file in an existing directory")
    report = dump.with_suffix(".report.json")
    if report.is_dir():
        raise ConfigError(f"report path {str(report)!r} is a directory")
    return list(fields), fmt, path


def _check_not_config(config_path: str, out_path: str) -> None:
    """Refuse a dump or report path that would overwrite the config itself."""
    dump = Path(out_path)
    for target in (dump, dump.with_suffix(".report.json")):
        if target.resolve() == Path(config_path).resolve():
            raise ConfigError(f"output {str(target)!r} would overwrite the config file")


# -- output writers ----------------------------------------------------------


def _pairs(v: np.ndarray) -> np.ndarray:
    """An (N, rows, cols) field as (N, rows, cols, 2) floats, (re, im) last."""
    return np.stack([v.real, v.imag], -1)


def _write_csv(path: Path, grid: verify.Grid, names: list, values: tuple, ok: np.ndarray) -> None:
    """One line per grid point: its coordinates, each field's (re, im)
    columns, row-major, and the singular flag; the field cells of a singular
    point are empty."""
    header = [ax.name for ax in grid.axes]
    for name, v in zip(names, values):
        _, n_rows, n_cols = v.shape
        header.extend(
            f"{name}[{i}][{j}].{part}" for i in range(n_rows) for j in range(n_cols) for part in ("re", "im")
        )
    header.append("singular")
    nvars, n = len(grid.axes), grid.size
    table = np.concatenate([grid.stacked(), *(_pairs(v).reshape(n, -1) for v in values)], axis=1)
    blank = "," * (len(header) - nvars) + "1"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(
            (",".join(map(repr, row)) + ",0" if good else ",".join(map(repr, row[:nvars])) + blank) + "\n"
            for row, good in zip(table.tolist(), ok.tolist())
        )


def _write_json(path: Path, grid: verify.Grid, names: list, values: tuple, ok: np.ndarray) -> None:
    """One record per grid point; each field of a non-singular point as
    [row][col][re, im] lists."""
    columns = [_pairs(v).tolist() for v in values]
    records = [
        {"point": point, "singular": False, "values": dict(zip(names, entries))}
        if good
        else {"point": point, "singular": True}
        for point, good, *entries in zip(grid.stacked().tolist(), ok.tolist(), *columns)
    ]
    payload = {"grid": grid.spec(), "fields": names, "points": records}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- subcommands -------------------------------------------------------------


def _prepare(path: str):
    config = _load_config(path)
    module = _family_module(config)
    spec = module.SPEC
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    grid = _grid_from_config(config, spec.var_names)
    h, accuracy, tolerances = _verify_settings(config, spec)
    fields, fmt, out_path = _output_settings(config, spec.fields)
    _check_not_config(path, out_path)
    scenario = _build(module, params, config.get("seed"))
    return config, module, scenario, grid, (h, accuracy, tolerances), (fields, fmt, out_path)


def _cmd_run(path: str) -> int:
    (
        config, module, scenario, grid, (h, accuracy, tolerances), (fields, fmt, out_path)
    ) = _prepare(path)
    spec = module.SPEC
    # Looked up at call time, so a rebinding of the module attribute takes effect.
    try:
        report = module.verify_scenario(scenario, grid=grid, tolerances=tolerances, h=h, accuracy=accuracy)
        values, ok = spec.field_values(scenario, grid.stacked(), fields)
    except MemoryError as exc:
        raise ConfigError(f"a grid of {grid.size} points does not fit in memory ({exc})") from exc
    dump_path = Path(out_path)
    report_path = dump_path.with_suffix(".report.json")
    payload = {
        "config": config,
        "family": spec.name,
        "output": {"fields": fields, "format": fmt, "path": out_path},
        "report": report.to_dict(),
        "verify": {"h": h, "accuracy": accuracy},
    }
    try:
        write = _write_csv if fmt == "csv" else _write_json
        write(dump_path, grid, fields, values, ok)
        report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output {exc.filename!r}: {exc.strerror or exc}") from exc

    status = "pass" if report.passed else "FAIL"
    print(
        f"{spec.name}: {status}, {report.total_points} points, "
        f"{report.masked_count} singular, max relative residual "
        f"{report.max_relative:.3e}"
    )
    print(f"wrote {dump_path} and {report_path}")
    return 0 if report.passed else 1


def _cmd_validate(path: str) -> int:
    _, module, _, grid, *_ = _prepare(path)
    print(f"ok: {module.SPEC.name} scenario, grid of {grid.size} points")
    return 0


def catalog() -> list[tuple[str, str, str]]:
    """(name, description, path) for every shipped config, sorted by name."""
    root = resources.files("pseudoexp") / "configs"
    entries = []
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".json"):
            continue
        data = json.loads(item.read_text())
        entries.append(
            (item.name[: -len(".json")], data.get("description", ""), str(item))
        )
    return entries


def _cmd_examples() -> int:
    for name, description, path in catalog():
        print(f"{name}: {description}")
        print(f"    {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pseudoexp",
        description="Build and verify explicit wave-equation solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config and write artifacts")
    run_p.add_argument("config", help="path to a JSON scenario config")
    val_p = sub.add_parser("validate", help="schema and construction checks only")
    val_p.add_argument("config", help="path to a JSON scenario config")
    sub.add_parser("examples", help="list the built-in scenario configs")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "validate":
            return _cmd_validate(args.config)
        return _cmd_examples()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionError, NoSolutionError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
