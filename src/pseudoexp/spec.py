"""One declaration per solution family.

A ``FamilySpec`` states a family's facts once: its variables, default grid,
residual channels with their default tolerances, named output fields,
config builders with their parameter schemas, and three functions. Its
``sources`` give each field and its derivatives, its ``equations`` write
each equation once over a derivative source ``d(F, v, ..., v)``, and its
``checks`` give the channels only analytic derivatives can check. One
``FamilySpec.evaluator`` reads the equations from the analytic sources and
from the stencils of one ``verify.fd_partial`` call. Each family module
derives its public field functions (``FamilySpec.field_function``), its
``default_grid``, ``evaluator`` and ``verify_scenario`` from its
declaration, and the CLI reads the same declaration for its config schema,
field dump and default tolerances. ``FamilySpec.field_values`` is the one
evaluation of output fields, for the field functions and the dump alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import linalg, verify
from .errors import ConfigError
from .family import pointwise

__all__ = [
    "Builder",
    "FamilySpec",
    "RANDOM",
    "parse_bool",
    "parse_complex",
    "parse_int",
    "parse_matrix",
    "parse_real",
    "parse_real_vector",
    "parse_vector",
    "value_only",
]


# -- config value parsers ------------------------------------------------------


def parse_complex(value, name: str) -> complex:
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number or [re, im] pair")
    try:
        if isinstance(value, (int, float)):
            return complex(value)
        if (
            isinstance(value, list)
            and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        ):
            return complex(value[0], value[1])
    except OverflowError:
        # An integer literal too large for a float.
        raise ConfigError(f"{name} is beyond the float range") from None
    raise ConfigError(f"{name} must be a number or [re, im] pair")


def parse_real(value, name: str) -> float:
    z = parse_complex(value, name)
    if z.imag != 0.0:
        raise ConfigError(f"{name} must be real")
    return z.real


def parse_matrix(value, name: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty nested array")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ConfigError(f"{name}[{i}] must be a non-empty array")
        rows.append([parse_complex(v, f"{name}[{i}][{j}]") for j, v in enumerate(row)])
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError(f"{name} rows must all have the same length")
    return np.array(rows, dtype=complex)


def parse_vector(value, name: str) -> list[complex]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty array")
    return [parse_complex(v, f"{name}[{j}]") for j, v in enumerate(value)]


def parse_real_vector(value, name: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty array")
    return [parse_real(v, f"{name}[{j}]") for j, v in enumerate(value)]


def parse_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    return value


def parse_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean")
    return value


# -- declarations --------------------------------------------------------------


@dataclass(frozen=True)
class Builder:
    """A config builder: the family module's function named ``function``,
    called with the parsed ``params`` as keyword arguments, or, when
    ``seeded``, with a generator seeded from the config's top-level seed.

    An absent optional key is left to the function's default, or passed as
    its entry in ``defaults``.
    """

    function: str
    # Config key -> parse_* helper.
    required: Mapping[str, Callable] = field(default_factory=dict)
    optional: Mapping[str, Callable] = field(default_factory=dict)
    defaults: Mapping[str, object] = field(default_factory=dict)
    seeded: bool = False


RANDOM = Builder("random_scenario", seeded=True)


def value_only(fn: Callable[[], np.ndarray]) -> Callable:
    """The source of a field that has no derivative source: its value is
    ``fn()``, computed once, and a derivative raises ValueError."""
    value = functools.cache(fn)

    def source(deriv: tuple[int, ...]) -> np.ndarray:
        if deriv:
            raise ValueError(f"no source for the derivative {deriv} of a value-only field")
        return value()

    return source


@dataclass(frozen=True)
class FamilySpec:
    """A family's declaration. Its ``tolerances`` name every residual
    channel a sweep computes, analytic and FD alike: both paths always run,
    and a tolerance map names exactly these channels. Each equation ``eq``
    gives the channels ``eq_analytic`` and ``eq_fd``."""

    name: str
    var_names: tuple[str, ...]
    # Default grid (count, half_width): ``count`` points per axis over
    # [-half_width, half_width].
    grid: tuple[int, float]
    # Default tolerance per residual channel the evaluator computes.
    tolerances: Mapping[str, float]
    # ``sources(sc, points)`` returns ({field name: source}, mask) at stacked
    # points: a source returns the derivative for a sorted multi-index,
    # computed once, or raises ValueError. The names cover the output fields
    # and all the equations and checks read.
    sources: Callable
    # ``equations(sc, d)`` returns {equation: residual matrices}, reading
    # d^k F / dv^k as ``d(F, v, ..., v)``.
    equations: Callable
    # ``checks(sc, sources)`` returns ({channel: absolute residual}, local
    # field scale): the channels only analytic sources can check.
    checks: Callable
    # Output field names, in the order of ``field_values``.
    fields: tuple[str, ...]
    builders: Mapping[str, Builder]

    def field_values(self, sc, points: np.ndarray, names: Optional[Sequence[str]] = None):
        """The named output fields (default: all of ``fields``, in order) at
        stacked points, with the mask of non-singular points."""
        sources, ok = self.sources(sc, points)
        return tuple(sources[name](()) for name in names or self.fields), ok

    def field_function(self, *names: str) -> Callable:
        """The public function of the named output fields: given an (N,
        nvars) stack of points, their values (one array for one name, a
        tuple for several) and the mask of points where S is not singular;
        given one point, its values, or None where S is singular."""

        @pointwise(masked=True)
        def field_function(sc, points: np.ndarray):
            values, ok = self.field_values(sc, points, names)
            return (values if len(names) > 1 else values[0]), ok

        return field_function

    def evaluator(self, sc, h: float = verify.DEFAULT_H, accuracy: int = verify.DEFAULT_ACCURACY):
        """The sweep's residual function of stacked points (see
        ``verify.sweep``): the checks, and each equation on the analytic
        sources and on FD stencils of the fields. The FD pass reads each
        derivative the analytic pass read from one ``verify.fd_partial``
        call, and field values from the sources, like the analytic pass."""

        def evaluate(points):
            sources, ok = self.sources(sc, points)
            read = {}

            def analytic(name, *variables):
                deriv = tuple(sorted(variables))
                if len(set(deriv)) > 1:
                    mixed = name + "_" + "".join(self.var_names[v] for v in deriv)
                    raise ValueError(f"an equation reads the mixed derivative {mixed}, which no stencil forms")
                read[name, deriv] = None
                return sources[name](deriv)

            channels, scale = self.checks(sc, sources)
            for eq, residual in self.equations(sc, analytic).items():
                channels[f"{eq}_analytic"] = linalg.fro(residual)
            wanted = [(name, deriv[0], len(deriv)) for name, deriv in read if deriv]

            def stack(shifted):
                fields, good = self.sources(sc, shifted)
                return {name: fields[name](()) for name, _, _ in wanted}, good

            stencils, ok_fd = verify.fd_partial(
                stack, points, wanted, lambda name: sources[name](()), h=h, accuracy=accuracy
            )
            fd = dict(zip(wanted, stencils))

            def stencil(name, *variables):
                return fd[name, variables[0], len(variables)] if variables else sources[name](())

            for eq, residual in self.equations(sc, stencil).items():
                channels[f"{eq}_fd"] = linalg.fro(residual)
            return (channels, scale), ok & ok_fd

        return evaluate

    def grid_function(self) -> Callable[..., verify.Grid]:
        """The family's ``default_grid(count, half_width)``."""
        names, (count, half_width) = self.var_names, self.grid

        def default_grid(count: int = count, half_width: float = half_width) -> verify.Grid:
            return verify.Grid(tuple(verify.Axis(n, -half_width, half_width, count) for n in names))

        return default_grid

    def verify_function(self) -> Callable[..., verify.ResidualReport]:
        """The family's ``verify_scenario``."""
        spec, default_grid = self, self.grid_function()

        def verify_scenario(
            sc,
            grid: Optional[verify.Grid] = None,
            tolerances: Optional[Mapping[str, float]] = None,
            h: float = verify.DEFAULT_H,
            accuracy: int = verify.DEFAULT_ACCURACY,
        ) -> verify.ResidualReport:
            """Sweep every residual channel, analytic and FD, over ``grid``
            (default: the declared grid) against ``tolerances`` (default:
            the declared ones). A given grid's axes must be the family's
            variables in order, and a given map must name exactly the
            declared channels; ValueError otherwise."""
            grid = grid or default_grid()
            names = [axis.name for axis in grid.axes]
            if names != list(spec.var_names):
                raise ValueError(f"grid axes must be {list(spec.var_names)} in order, got {names}")
            tol = spec.tolerances if tolerances is None else tolerances
            evaluate = spec.evaluator(sc, h=h, accuracy=accuracy)
            return verify.sweep(grid, evaluate, tol, meta={"family": spec.name})

        return verify_scenario
