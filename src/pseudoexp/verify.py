"""Finite-difference oracles and residual aggregation over grids.

The FD path never sees the analytic derivative formulas: it evaluates the
constructed fields at stencil points and differences them, so agreement
between the two paths certifies both. Fields and residuals are evaluated
for a whole grid at once: functions take an (N, nvars) array of points and
return stacked values paired with an (N,) mask, False at points where S is
singular. Masking is contagious through any stencil that touches such a
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

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

    def stacked(self) -> np.ndarray:
        """All grid points as an (N, nvars) array, last axis varying fastest."""
        if not self.axes:
            return np.zeros((0, 0))
        mesh = np.meshgrid(*(ax.points() for ax in self.axes), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def points(self) -> list[tuple[float, ...]]:
        """All grid points as tuples, in the order of ``stacked``."""
        return [tuple(float(v) for v in row) for row in self.stacked()]

    def spec(self) -> list[dict]:
        return [
            {"name": ax.name, "min": ax.minimum, "max": ax.maximum, "count": ax.count}
            for ax in self.axes
        ]


# Stacked points (N, nvars) -> (values with a leading axis of N, (N,) mask).
MaskedFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def fd_partial(
    f: MaskedFn,
    points: np.ndarray,
    variable: int,
    order: int = 1,
    h: float = DEFAULT_H,
    accuracy: int = DEFAULT_ACCURACY,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference d^order f / d variable^order at stacked points.

    Calls ``f`` once per stencil offset, on all points shifted by it.
    Returns the derivatives and their mask: a point is masked when any of
    its stencil points is.
    """
    try:
        stencil = _STENCILS[(order, accuracy)]
    except KeyError:
        raise ValueError(f"no stencil for order={order}, accuracy={accuracy}") from None
    if not h > 0:
        raise ValueError("step h must be positive")
    points = np.asarray(points, dtype=float)
    total = None
    ok = np.ones(len(points), dtype=bool)
    for offset, coeff in stencil:
        shifted = points.copy()
        shifted[:, variable] = points[:, variable] + offset * h
        value, good = f(shifted)
        ok &= good
        contrib = coeff * np.asarray(value, dtype=complex)
        total = contrib if total is None else total + contrib
    return total / h**order, ok


def fd_mixed(
    f: MaskedFn,
    points: np.ndarray,
    var_a: int,
    var_b: int,
    h: float = DEFAULT_H,
    accuracy: int = DEFAULT_ACCURACY,
) -> tuple[np.ndarray, np.ndarray]:
    """Mixed second partial by nesting first-derivative stencils."""
    if var_a == var_b:
        return fd_partial(f, points, var_a, order=2, h=h, accuracy=accuracy)

    def inner(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return fd_partial(f, p, var_b, order=1, h=h, accuracy=accuracy)

    return fd_partial(inner, points, var_a, order=1, h=h, accuracy=accuracy)


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


# Stacked points (N, nvars) -> ((absolute residual per channel, local field
# scale), mask), each an (N,) array or a scalar for all points.
EvaluateFn = Callable[[np.ndarray], tuple[tuple[Mapping[str, np.ndarray], np.ndarray], np.ndarray]]


def sweep(
    grid: Grid,
    evaluate: EvaluateFn,
    tolerances: Union[float, Mapping[str, float]],
    meta: Optional[Mapping[str, object]] = None,
) -> ResidualReport:
    """Evaluate the residual channels at every grid point in one call, and
    aggregate.

    ``evaluate`` takes the stacked grid points and returns the absolute
    residual per channel and the local field scale at each point, with the
    mask: False at singular points, which are masked. Relative residuals
    divide by 1 + max field scale over the non-masked grid. A non-finite
    residual at a point that is not masked raises ValueError.
    """
    stacked = grid.stacked()
    if not len(stacked):
        raise ValueError("grid has no points")
    count = len(stacked)
    (residuals, scales), ok = evaluate(stacked)
    ok = np.broadcast_to(np.asarray(ok, dtype=bool), (count,))
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (count,))
    columns = {str(k): np.broadcast_to(np.asarray(v, dtype=float), (count,)) for k, v in residuals.items()}
    points = grid.points()
    for name, values in columns.items():
        bad = np.flatnonzero(ok & ~np.isfinite(values))
        if len(bad):
            raise ValueError(f"non-finite residual in channel {name!r} at {points[bad[0]]}")

    samples = tuple(
        PointSample(pt, {name: float(values[i]) for name, values in columns.items()}, float(scales[i]), False)
        if ok[i]
        else PointSample(pt, {}, 0.0, True)
        for i, pt in enumerate(points)
    )
    field_scale = max(0.0, float(scales[ok].max())) if ok.any() else 0.0

    denom = 1.0 + field_scale
    names = sorted(columns) if ok.any() else []
    channels = []
    all_passed = True
    for name in names:
        values = columns[name][ok].tolist()
        max_abs = max(values)
        max_rel = max_abs / denom
        mean_rel = (sum(values) / len(values)) / denom
        if isinstance(tolerances, Mapping):
            if name not in tolerances:
                raise ValueError(f"no tolerance configured for channel {name!r}")
            tol = float(tolerances[name])
        else:
            tol = float(tolerances)
        ok_channel = max_rel <= tol
        all_passed = all_passed and ok_channel
        channels.append(ChannelSummary(name, max_abs, max_rel, mean_rel, tol, ok_channel))

    masked_count = int(count - ok.sum())
    if masked_count == count:
        all_passed = False  # nothing was verifiable
    return ResidualReport(
        grid=grid,
        samples=samples,
        field_scale=field_scale,
        channels=tuple(channels),
        masked_count=masked_count,
        passed=all_passed,
        meta=dict(meta or {}),
    )
