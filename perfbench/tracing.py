"""Spans around the package's public functions, for the per-layer metrics.

``Tracer.install`` replaces the functions and methods named in ``install``
with wrappers that open a span on entry and close it on exit. Spans nest
through a stack, so each closed span knows its parent, and a span's self time
is its duration minus the time of its child spans. Closed spans are folded
at once into totals keyed by (name, parent name, anchor), which keeps memory
flat however long the run is. The anchor is the innermost open span among
``ANCHORS``: it tells a field evaluation inside a sweep from one the CLI makes
outside it.

A function can be bound under several names: ``from .snode import
solve_for_R`` binds it again in each family module, and ``cli`` keeps each
family's ``verify_scenario`` in a dict. ``install`` wraps every such binding in
the package, so calls through any of them are seen.
"""

from __future__ import annotations

import sys
import time
import types

ANCHORS = ("verify.sweep", "cli.main")
FAMILIES = ("dirac", "loewner", "schrodinger", "dsi", "gnoe")
FIELD_METHODS = ("q", "w", "q_deriv", "w_deriv")


class Tracer:
    def __init__(self):
        self.totals: dict[tuple, list] = {}  # (name, parent, anchor) -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.enabled = True
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching ------------------------------------------------------------

    def _wrap(self, original, name: str, on_result=None):
        stack, totals, clock = self._stack, self.totals, time.perf_counter
        is_anchor = name in ANCHORS

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            anchor = name if is_anchor else (parent[3] if parent else None)
            frame = [name, clock(), 0.0, anchor]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[1]
                if parent is not None:
                    parent[2] += elapsed
                key = (name, parent[0] if parent else None, anchor)
                rec = totals.get(key)
                if rec is None:
                    totals[key] = [1, elapsed, elapsed - frame[2]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[2]
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def wrap_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, self._wrap(original, name))
        self._patches.append((cls, attr, original))

    def wrap_function(self, func, name: str, on_result=None) -> None:
        """Wrap every binding of ``func`` in the package's modules."""
        found = False
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if value is func:
                    setattr(module, attr, self._wrap(func, name, on_result))
                    self._patches.append((module, attr, func))
                    found = True
                elif isinstance(value, dict):
                    found |= self._wrap_in_dict(value, func, name, on_result)
        if not found:
            self.missing.append(name)

    def _wrap_in_dict(self, table: dict, func, name, on_result) -> bool:
        found = False
        for key, value in list(table.items()):
            if value is func:
                table[key] = self._wrap(func, name, on_result)
                self._patches.append((table, key, func))
                found = True
            elif isinstance(value, dict):
                found |= self._wrap_in_dict(value, func, name, on_result)
        return found

    def install(self) -> None:
        """Wrap the functions whose spans the per-layer metrics read."""
        from pseudoexp import cli, family, linalg, snode, verify

        def singular(result):
            if result is None:
                self.count("linalg.solve_pivoted.singular")

        self.wrap_function(linalg.mat_exp, "linalg.mat_exp")
        self.wrap_function(linalg.solve_pivoted, "linalg.solve_pivoted", singular)
        self.wrap_function(linalg.solve_sylvester, "linalg.solve_sylvester")
        self.wrap_function(snode.solve_for_R, "snode.solve_for_R")
        self.wrap_method(snode.SMultinode, "validate", "snode.validate")
        self.wrap_method(family.ExponentRecipe, "exp_value", "family.exp_value")
        self.wrap_method(family.PseudoExpFamily, "pi", "family.pi")
        self.wrap_method(family.PseudoExpFamily, "s", "family.s")
        for attr in FIELD_METHODS:
            self.wrap_method(family.PseudoExpFamily, attr, "family.fields")
        self.wrap_function(verify.fd_partial, "verify.fd_partial")
        self.wrap_function(
            verify.sweep, "verify.sweep", lambda r: self.count("verify.points", r.total_points)
        )
        for fam in FAMILIES:
            module = sys.modules[f"pseudoexp.{fam}"]
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                    if attr.startswith("build_") or attr == "random_scenario":
                        self.wrap_function(value, f"{fam}.build")
            self.wrap_function(
                module.verify_scenario,
                f"{fam}.verify_scenario",
                lambda r, fam=fam: self.count(f"{fam}.points", r.total_points),
            )
        self.wrap_function(cli.main, "cli.main")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- queries -------------------------------------------------------------

    def _sum(self, index: int, name: str, parent=..., anchor=..., not_parent=...) -> float:
        total = 0.0
        for (n, p, a), rec in self.totals.items():
            if n != name:
                continue
            if parent is not ... and p != parent:
                continue
            if not_parent is not ... and p == not_parent:
                continue
            if anchor is not ... and a != anchor:
                continue
            total += rec[index]
        return total

    def calls(self, name: str, **where) -> float:
        return self._sum(0, name, **where)

    def total_s(self, name: str, **where) -> float:
        return self._sum(1, name, **where)

    def self_s(self, name: str, **where) -> float:
        return self._sum(2, name, **where)

    def to_json(self) -> dict:
        """Span totals per (name, parent, anchor), for the trace file."""
        edges = [
            {"name": n, "parent": p, "anchor": a, "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for (n, p, a), rec in sorted(self.totals.items(), key=lambda kv: -kv[1][1])
        ]
        return {"spans": edges, "counters": dict(self.counters), "not_wrapped": list(self.missing)}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("pseudoexp") and m is not None]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rounds_tr: Tracer, setup_tr: Tracer, rounds: int, bytes_per_round: float, overhead: float) -> dict:
    """Per-layer metrics; counts and self times are per round of the workload.

    ``setup_tr`` holds the spans of the workload's set-up, which only the
    per-build times read (dense-grid builds its scenarios there).
    """
    tr = rounds_tr
    m: dict[str, float] = {}
    for name in ("linalg.mat_exp", "linalg.solve_pivoted", "linalg.solve_sylvester"):
        m[f"{name}.calls"] = tr.calls(name) / rounds
        m[f"{name}.self_s"] = tr.self_s(name) / rounds
    m["linalg.solve_pivoted.singular"] = tr.counters.get("linalg.solve_pivoted.singular", 0) / rounds
    m["snode.solve_for_R.self_s"] = tr.self_s("snode.solve_for_R") / rounds
    m["snode.validate.self_s"] = tr.self_s("snode.validate") / rounds
    exp_calls = tr.calls("family.exp_value")
    m["family.exp_value.calls"] = exp_calls / rounds
    m["family.exp_cache.hit_ratio"] = _ratio(
        exp_calls - tr.calls("linalg.mat_exp", parent="family.exp_value"), exp_calls
    )
    for name in ("family.pi", "family.s", "family.fields"):
        m[f"{name}.calls"] = tr.calls(name) / rounds
        m[f"{name}.self_s"] = tr.self_s(name) / rounds
    m["verify.fd_partial.calls"] = tr.calls("verify.fd_partial") / rounds
    m["verify.fd_partial.self_s"] = tr.self_s("verify.fd_partial") / rounds
    m["verify.sweep.self_s"] = tr.self_s("verify.sweep") / rounds
    m["verify.field_evals_per_point"] = _ratio(
        tr.calls("family.fields", anchor="verify.sweep"), tr.counters.get("verify.points", 0)
    )
    for fam in FAMILIES:
        m[f"{fam}.ms_per_point"] = 1e3 * _ratio(
            tr.total_s(f"{fam}.verify_scenario"), tr.counters.get(f"{fam}.points", 0)
        )
        # Only builds not nested in another build of the family: a random
        # draw calls its builder, and both are one build.
        build = f"{fam}.build"
        built = sum(t.calls(build, not_parent=build) for t in (tr, setup_tr))
        build_time = sum(t.total_s(build, not_parent=build) for t in (tr, setup_tr))
        m[f"{fam}.build_s"] = _ratio(build_time, built)
    m["cli.self_s"] = tr.self_s("cli.main") / rounds
    m["cli.fields_outside_sweep"] = tr.calls("family.fields", anchor="cli.main") / rounds
    m["cli.bytes_written"] = bytes_per_round
    m["trace.overhead_ratio"] = overhead
    return m
