"""Benchmark of verified grid points per second for pseudoexp.

Run from the root of a checkout, through the command in BENCHMARK.json, which
pins serial sweeps (PSEUDOEXP_WORKERS=1) and one BLAS thread:

    env PSEUDOEXP_WORKERS=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        MKL_NUM_THREADS=1 python3 perfbench/run.py \\
        --workload dense-grid --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, and the span totals go to ``.perfbench/trace-<workload>-<seed>.json``.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
PINNED_ENV = {"PSEUDOEXP_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("cli-configs", "dense-grid", "scenario-batch")
# Set-up runs this many times in all: once in the measuring process and the
# rest in fresh interpreters, so every sample includes the imports.
SETUP_SAMPLES = 7

END_TO_END = {
    "points_per_s": "1/s",
    "item_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.mat_exp.calls": "count",
    "linalg.mat_exp.self_s": "s",
    "linalg.solve_pivoted.calls": "count",
    "linalg.solve_pivoted.self_s": "s",
    "linalg.solve_pivoted.singular": "count",
    "linalg.solve_sylvester.calls": "count",
    "linalg.solve_sylvester.self_s": "s",
    "snode.solve_for_R.self_s": "s",
    "snode.validate.self_s": "s",
    "family.exp_value.calls": "count",
    "family.exp_cache.hit_ratio": "ratio",
    "family.pi.calls": "count",
    "family.pi.self_s": "s",
    "family.s.calls": "count",
    "family.s.self_s": "s",
    "family.fields.calls": "count",
    "family.fields.self_s": "s",
    "verify.fd_partial.calls": "count",
    "verify.fd_partial.self_s": "s",
    "verify.sweep.self_s": "s",
    "verify.field_evals_per_point": "count",
    **{f"{fam}.ms_per_point": "ms" for fam in tracing.FAMILIES},
    **{f"{fam}.build_s": "s" for fam in tracing.FAMILIES},
    "cli.self_s": "s",
    "cli.fields_outside_sweep": "count",
    "cli.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup(workload: str, seed: int, traced: bool = False):
    """Import the package and build the workload's inputs.

    Returns (workload object, seconds, set-up tracer or None). The clock
    starts before ``import pseudoexp``.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pseudoexp

    if Path(pseudoexp.__file__).resolve().parent != SRC / "pseudoexp":
        fail(f"imported pseudoexp from {pseudoexp.__file__}, not from {SRC}")
    import workloads

    setup_tracer = None
    if traced:
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
    try:
        work = workloads.WORKLOADS[workload](seed, WORKDIR)
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
    return work, time.perf_counter() - start, setup_tracer


def setup_in_fresh_process(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if out.returncode != 0:
        fail(f"set-up in a fresh process failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


class Measurement:
    """Item times and outcomes over whole rounds of a workload."""

    def __init__(self):
        self.times: list[float] = []
        self.by_slot: dict[int, list[float]] = {}  # place in the round -> times
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    def item_times(self) -> list[float]:
        """Each item's median time across the rounds."""
        return [statistics.median(times) for times in self.by_slot.values()]

    def points_per_s(self) -> float:
        """Points of one round over the sum of its items' median times."""
        return self.points / self.rounds / sum(self.item_times())

    def item_p50_s(self) -> float:
        return statistics.median(self.item_times())


def measure(work, seconds: float, tracer=None) -> Measurement:
    """Run whole rounds until the items have taken ``seconds``.

    Only the item calls are timed; the checks in ``work.after`` run outside
    the clock and, in a traced run, with the tracer off.
    """
    m = Measurement()
    clock = time.perf_counter
    if tracer is not None:
        tracer.enabled = False
    while m.rounds == 0 or m.busy_s < seconds:
        for slot, item in enumerate(work.round()):
            if tracer is not None:
                tracer.enabled = True
            t0 = clock()
            result = item.run()
            elapsed = clock() - t0
            if tracer is not None:
                tracer.enabled = False
            ok, points = work.after(item, result)
            m.times.append(elapsed)
            m.by_slot.setdefault(slot, []).append(elapsed)
            m.points += points
            m.attempted += 1
            m.failed += 0 if ok else 1
        m.rounds += 1
    return m


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    missing = set(units) - set(values)
    if missing:
        raise ValueError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics})


def report_problems(problems: list[str]) -> None:
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"check failed: ... {len(problems) - 20} more", file=sys.stderr)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pseudoexp" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'pseudoexp'}")
    wrong = {k: os.environ.get(k) for k, v in PINNED_ENV.items() if os.environ.get(k) != v}
    if wrong:
        fail(f"run through the command in BENCHMARK.json; these variables are not pinned: {wrong}")
    WORKDIR.mkdir(exist_ok=True)

    if args.setup_only:
        work, seconds, _ = setup(args.workload, args.seed)
        work.close()
        print(repr(seconds))
        return 0

    work, main_setup_s, setup_tracer = setup(args.workload, args.seed, traced=bool(args.trace))
    try:
        if args.trace:
            return traced_run(work, args, setup_tracer)
        samples = [main_setup_s] + [setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        m = measure(work, args.seconds)
        rss = peak_rss_mb()
        problems = work.finish()
        report_problems(problems)
        values = {
            "points_per_s": m.points_per_s(),
            "item_p50_s": m.item_p50_s(),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": rss,
        }
        print(result_line(not problems, m.attempted, m.failed, values, END_TO_END))
        return 0
    finally:
        work.close()


def traced_run(work, args, setup_tracer) -> int:
    """Half the time untraced, half traced, to attribute time and to report
    what the tracing costs."""
    plain = measure(work, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(work, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    problems = work.finish()
    report_problems(problems)
    overhead = plain.points_per_s() / traced.points_per_s()
    values = tracing.layer_metrics(tracer, setup_tracer, traced.rounds, work.bytes_per_round(), overhead)
    trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
    trace = {"workload": args.workload, "seed": args.seed, "rounds": traced.rounds}
    trace.update(setup=setup_tracer.to_json(), timed=tracer.to_json())
    trace_path.write_text(json.dumps(trace, indent=1) + "\n")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(result_line(not problems, attempted, failed, values, PER_LAYER))
    return 0


if __name__ == "__main__":
    sys.exit(main())
