"""Finite-difference oracles and residual aggregation over grids.

The FD path never sees the analytic derivative formulas: it evaluates the
constructed fields at stencil points and differences them, so agreement
between the two paths certifies both. A point where a field evaluator
returns None (singular S) is masked; masking is contagious through any
stencil that touches such a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Axis",
    "Grid",
    "fd_partial",
    "fd_mixed",
    "PointSample",
    "ChannelSummary",
    "ResidualReport",
    "sweep",
    "DEFAULT_H",
    "DEFAULT_ACCURACY",
]

DEFAULT_H = 1e-3
DEFAULT_ACCURACY = 4

# Central-difference stencils as (offset, coefficient) pairs; the result is
# divided by h**order. Order-4 variants are exact on polynomials through
# degree 4 (first derivative) and degree 5 (second derivative).
_STENCILS: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {
    (1, 2): ((-1, -0.5), (1, 0.5)),
    (1, 4): ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)),
    (2, 2): ((-1, 1.0), (0, -2.0), (1, 1.0)),
    (2, 4): (
        (-2, -1.0 / 12.0),
        (-1, 16.0 / 12.0),
        (0, -30.0 / 12.0),
        (1, 16.0 / 12.0),
        (2, -1.0 / 12.0),
    ),
}


@dataclass(frozen=True)
class Axis:
    """One uniformly sampled grid variable."""

    name: str
    minimum: float
    maximum: float
    count: int

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError("axis count must be a positive integer")
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise ValueError("axis bounds must be finite")
        if self.count > 1 and not self.maximum > self.minimum:
            raise ValueError("axis needs maximum > minimum")

    def points(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.minimum], dtype=float)
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class Grid:
    axes: tuple[Axis, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("axis names must be distinct")

    @property
    def size(self) -> int:
        return math.prod(ax.count for ax in self.axes) if self.axes else 0

    def points(self) -> list[tuple[float, ...]]:
        """All grid points, last axis varying fastest."""
        if not self.axes:
            return []
        coords = [ax.points() for ax in self.axes]
        mesh = np.meshgrid(*coords, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=-1)
        return [tuple(float(v) for v in row) for row in flat]

    def spec(self) -> list[dict]:
        return [
            {"name": ax.name, "min": ax.minimum, "max": ax.maximum, "count": ax.count}
            for ax in self.axes
        ]


MatrixFn = Callable[[tuple[float, ...]], Optional[np.ndarray]]


def fd_partial(
    f: MatrixFn,
    point: Sequence[float],
    variable: int,
    order: int = 1,
    h: float = DEFAULT_H,
    accuracy: int = DEFAULT_ACCURACY,
) -> Optional[np.ndarray]:
    """Central-difference d^order f / d variable^order at ``point``.

    Returns None as soon as any stencil evaluation returns None.
    """
    try:
        stencil = _STENCILS[(order, accuracy)]
    except KeyError:
        raise ValueError(f"no stencil for order={order}, accuracy={accuracy}") from None
    if not h > 0:
        raise ValueError("step h must be positive")
    total = None
    base = list(float(v) for v in point)
    for offset, coeff in stencil:
        shifted = list(base)
        shifted[variable] = base[variable] + offset * h
        value = f(tuple(shifted))
        if value is None:
            return None
        contrib = coeff * np.asarray(value, dtype=complex)
        total = contrib if total is None else total + contrib
    return total / h**order


def fd_mixed(
    f: MatrixFn,
    point: Sequence[float],
    var_a: int,
    var_b: int,
    h: float = DEFAULT_H,
    accuracy: int = DEFAULT_ACCURACY,
) -> Optional[np.ndarray]:
    """Mixed second partial by nesting first-derivative stencils."""
    if var_a == var_b:
        return fd_partial(f, point, var_a, order=2, h=h, accuracy=accuracy)

    def inner(p: tuple[float, ...]) -> Optional[np.ndarray]:
        return fd_partial(f, p, var_b, order=1, h=h, accuracy=accuracy)

    return fd_partial(inner, point, var_a, order=1, h=h, accuracy=accuracy)


@dataclass(frozen=True)
class PointSample:
    point: tuple[float, ...]
    residuals: Mapping[str, float]
    scale: float
    masked: bool


@dataclass(frozen=True)
class ChannelSummary:
    name: str
    max_absolute: float
    max_relative: float
    mean_relative: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ResidualReport:
    grid: Grid
    samples: tuple[PointSample, ...]
    field_scale: float
    channels: tuple[ChannelSummary, ...]
    masked_count: int
    passed: bool
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def total_points(self) -> int:
        return len(self.samples)

    @property
    def max_relative(self) -> float:
        return max((c.max_relative for c in self.channels), default=0.0)

    def masked_points(self) -> list[tuple[float, ...]]:
        return [s.point for s in self.samples if s.masked]

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.spec(),
            "field_scale": self.field_scale,
            "total_points": self.total_points,
            "masked_points": self.masked_count,
            "mask": [list(p) for p in self.masked_points()],
            "passed": bool(self.passed),
            "max_relative": self.max_relative,
            "channels": {
                c.name: {
                    "max_absolute": c.max_absolute,
                    "max_relative": c.max_relative,
                    "mean_relative": c.mean_relative,
                    "tolerance": c.tolerance,
                    "passed": bool(c.passed),
                }
                for c in self.channels
            },
            **dict(self.meta),
        }


EvaluateFn = Callable[[tuple[float, ...]], Optional[tuple[Mapping[str, float], float]]]


def sweep(
    grid: Grid,
    evaluate: EvaluateFn,
    tolerances: Union[float, Mapping[str, float]],
    meta: Optional[Mapping[str, object]] = None,
) -> ResidualReport:
    """Evaluate per-point residual channels over the grid, serially, and aggregate.

    ``evaluate`` returns None at singular (masked) points, otherwise a pair
    (absolute residual per channel, local field scale). Relative residuals
    divide by 1 + max field scale over the non-masked grid.
    """
    points = grid.points()
    if not points:
        raise ValueError("grid has no points")

    samples: list[PointSample] = []
    field_scale = 0.0
    for pt in points:
        res = evaluate(pt)
        if res is None:
            samples.append(PointSample(pt, {}, 0.0, True))
            continue
        residuals, scale = res
        clean = {str(k): float(v) for k, v in residuals.items()}
        for name, value in clean.items():
            if not math.isfinite(value):
                raise ValueError(f"non-finite residual in channel {name!r} at {pt}")
        samples.append(PointSample(pt, clean, float(scale), False))
        field_scale = max(field_scale, float(scale))

    denom = 1.0 + field_scale
    names = sorted({name for s in samples if not s.masked for name in s.residuals})
    channels = []
    all_passed = True
    for name in names:
        values = [s.residuals[name] for s in samples if not s.masked and name in s.residuals]
        max_abs = max(values)
        max_rel = max_abs / denom
        mean_rel = (sum(values) / len(values)) / denom
        if isinstance(tolerances, Mapping):
            if name not in tolerances:
                raise ValueError(f"no tolerance configured for channel {name!r}")
            tol = float(tolerances[name])
        else:
            tol = float(tolerances)
        ok = max_rel <= tol
        all_passed = all_passed and ok
        channels.append(ChannelSummary(name, max_abs, max_rel, mean_rel, tol, ok))

    masked_count = sum(1 for s in samples if s.masked)
    if masked_count == len(samples):
        all_passed = False  # nothing was verifiable
    return ResidualReport(
        grid=grid,
        samples=tuple(samples),
        field_scale=field_scale,
        channels=tuple(channels),
        masked_count=masked_count,
        passed=all_passed,
        meta=dict(meta or {}),
    )
