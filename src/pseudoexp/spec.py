"""One declaration per solution family.

A ``FamilySpec`` states a family's facts once: its variables, default grid,
residual channels with their default tolerances, named output fields and
config builders with their parameter schemas. Each family module derives
its ``default_grid`` and ``verify_scenario`` from its declaration, and the
CLI reads the same declaration for its config schema, field dump and
default tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from . import verify
from .errors import ConfigError

__all__ = [
    "Builder",
    "FamilySpec",
    "RANDOM",
    "all_fields",
    "parse_bool",
    "parse_complex",
    "parse_int",
    "parse_matrix",
    "parse_real",
    "parse_real_vector",
    "parse_vector",
]


# -- config value parsers ------------------------------------------------------


def parse_complex(value, name: str) -> complex:
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number or [re, im] pair")
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
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


def all_fields(*field_fns: Callable) -> Callable:
    """Function of stacked points returning every field's values and the
    mask of points where all of them are defined (S not singular)."""

    def fields(sc, points):
        results = [fn(sc, points) for fn in field_fns]
        ok = np.logical_and.reduce([good for _, good in results])
        return tuple(values for values, _ in results), ok

    return fields


@dataclass(frozen=True)
class FamilySpec:
    """A family's declaration. Its ``tolerances`` name every residual
    channel a sweep computes, analytic and FD alike: both paths always run,
    and a tolerance map names exactly these channels."""

    name: str
    var_names: tuple[str, ...]
    # Default grid (count, half_width): ``count`` points per axis over
    # [-half_width, half_width].
    grid: tuple[int, float]
    # Default tolerance per residual channel the evaluator computes.
    tolerances: Mapping[str, float]
    # ``evaluator(sc, h=, accuracy=)`` returns the sweep's residual function
    # of stacked points (see ``verify.sweep``).
    evaluator: Callable
    # Output field names, and the function of (scenario, stacked points)
    # returning their values in this order with the mask of non-singular
    # points.
    fields: tuple[str, ...]
    field_values: Callable
    builders: Mapping[str, Builder]

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
            the declared ones). A given map must name exactly the declared
            channels; ``verify.sweep`` raises ValueError otherwise."""
            tol = spec.tolerances if tolerances is None else tolerances
            evaluate = spec.evaluator(sc, h=h, accuracy=accuracy)
            return verify.sweep(grid or default_grid(), evaluate, tol, meta={"family": spec.name})

        return verify_scenario
