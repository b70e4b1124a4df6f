"""Quick tests of the benchmark itself.

Run from the repository root with

    python3 -m pytest perfbench -q

Each correctness check must accept the package's output and reject it once a
field value or a mask bit is perturbed; every metric must be printed with the
name and unit that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from pseudoexp import cli, dsi, gnoe, schrodinger  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _perturb(rows, field, index=0, by=1e-6):
    """Copy of ``rows`` with one entry of one field moved by a relative amount."""
    out = [(p, s, dict(f)) for p, s, f in rows]
    k = next(i for i, (_, s, _) in enumerate(out) if not s and i >= index)
    m = out[k][2][field].copy()
    m[0, 0] += by * (1.0 + abs(m[0, 0]))
    out[k][2][field] = m
    return out


def _flip_mask(rows, index):
    out = list(rows)
    p, s, f = out[index]
    out[index] = (p, not s, f)
    return out


@pytest.fixture(scope="module")
def singular_line_dump(tmp_path_factory):
    """The built-in singular-line config run through the CLI."""
    tmp = tmp_path_factory.mktemp("cli")
    path = next(p for name, _, p in cli.catalog() if name == "schrodinger-singular-line")
    config = json.loads(Path(path).read_text())
    config["output"]["path"] = str(tmp / "dump.csv")
    (tmp / "config.json").write_text(json.dumps(config))
    assert cli.main(["run", str(tmp / "config.json")]) == 0
    data = (tmp / "dump.csv").read_bytes()
    report = json.loads((tmp / "dump.report.json").read_text())["report"]
    return data, report


def _on_line(p):
    return abs(p[0] + 2.0 * p[1] + 0.75) <= checks.ON_SET_ATOL


def test_closed_form_and_mask_accept_dump_and_reject_perturbations(singular_line_dump):
    data, report = singular_line_dump
    rows = checks.read_dump(data, "csv")
    refs = dict(zip(("potential", "wave"), checks.singular_line_closed_form()))
    assert any(s for _, s, _ in rows)
    assert checks.check_closed_form(rows, refs, "x") == []
    assert checks.check_mask(rows, _on_line, "x") == []
    assert checks.check_report(report, rows, "x") == []
    assert checks.check_closed_form(_perturb(rows, "potential"), refs, "x")
    assert checks.check_closed_form(_perturb(rows, "wave", index=30), refs, "x")
    on = next(i for i, (_, s, _) in enumerate(rows) if s)
    assert checks.check_mask(_flip_mask(rows, on), _on_line, "x")
    assert checks.check_mask(_flip_mask(rows, 0), _on_line, "x")
    assert checks.check_report(dict(report, mask=[]), rows, "x")


def test_identical_rejects_one_changed_byte(singular_line_dump):
    data, _ = singular_line_dump
    assert checks.check_identical(data, bytes(data), "x") == []
    changed = data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
    assert checks.check_identical(data, changed, "x")


@pytest.mark.parametrize(
    "closed_form, builder",
    [
        (checks.rational_closed_form, schrodinger.build_rational_example),
        (checks.nonsingular_closed_form, schrodinger.build_nonsingular_example),
    ],
)
def test_other_closed_forms_match_pipeline_and_reject_perturbation(closed_form, builder):
    sc, _ = builder(mu0=0.8 + 0.3j)
    points = [(x, t) for x in (-0.7, 0.1, 0.6) for t in (-0.5, 0.4)]
    rows = [(p, False, {"potential": schrodinger.potential(sc, p), "wave": schrodinger.wave(sc, p)}) for p in points]
    refs = dict(zip(("potential", "wave"), closed_form(mu0=0.8 + 0.3j)))
    assert checks.check_closed_form(rows, refs, "x") == []
    assert checks.check_closed_form(_perturb(rows, "potential"), refs, "x")


def test_dsi_oracle_accepts_pipeline_and_rejects_field_and_mask():
    sc = dsi.build_rational_dsi()
    points = [(x, 0.2, y) for x in (-0.6, -0.3, 0.25) for y in (-0.6, 0.0, 0.3, 0.5)]
    rows = []
    for p in points:
        f = dsi.fields_uq(sc, p)
        rows.append((p, f is None, {} if f is None else dict(zip(("u", "q1", "q2"), f))))
    oracle = checks.RationalDsiOracle()
    assert checks.check_dsi_oracle(rows, oracle, "x") == []
    for field in ("u", "q1", "q2"):
        assert checks.check_dsi_oracle(_perturb(rows, field), oracle, "x")
    assert checks.check_dsi_oracle(_flip_mask(rows, 0), oracle, "x")


def test_structural_checks_reject_perturbations():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = g + g.conj().T
    assert checks.check_hermitian([herm], "x") == []
    assert checks.check_hermitian([herm + 1e-9 * np.eye(3) * 1j], "x")

    sc = gnoe.random_scenario(rng)
    xi = gnoe.xi(sc, (0.1, -0.2, 0.3))
    assert checks.check_signature([xi], sc.b_diag, "x") == []
    bad = xi.copy()
    bad[0, -1] += 1e-9
    assert checks.check_signature([bad], sc.b_diag, "x")

    node = sc.node
    args = (node.a_mats[0], node.r_mat, node.chat, node.nu_mats[0], node.signs[0])
    assert checks.check_node_identity(*args, "x") == []
    r = node.r_mat.copy()
    r[0, 0] += 1e-6
    assert checks.check_node_identity(args[0], r, *args[2:], "x")

    s = sc.family.s((0.1, -0.2, 0.3))
    assert checks.check_positive([s], "x") == []
    low = np.linalg.eigvalsh(s).min()
    assert checks.check_positive([s - (low + 1e-9) * np.eye(len(s))], "x")

    v = rng.normal(size=(2, 2))
    ell = v @ np.diag([-0.5, 0.7]) @ np.linalg.inv(v)
    assert checks.check_spectrum([ell], [0.7, -0.5], "x") == []
    assert checks.check_spectrum([ell + 1e-6 * np.eye(2)], [0.7, -0.5], "x")


def test_declared_metrics_match_the_printed_ones():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)
    empty = tracing.Tracer()
    assert set(tracing.layer_metrics(empty, empty, 1, 0, 1.0)) == set(run.PER_LAYER)
    with pytest.raises(ValueError):
        run.result_line(True, 1, 0, {}, run.END_TO_END)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, **run.PINNED_ENV)
    command = DECLARED["command"]
    assert command[-1] == "perfbench/run.py"
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, units", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_a_short_run_prints_every_metric_with_its_unit(trace, units):
    out = _bench(ROOT, "--workload", "scenario-batch", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench(tmp_path, "--workload", "dense-grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
