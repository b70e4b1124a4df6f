"""Finite-difference oracles and residual aggregation over grids.

The FD path never sees the analytic derivative formulas: it evaluates the
constructed fields at stencil points and differences them, so agreement
between the two paths certifies both. Fields and residuals are evaluated
for a whole grid at once: functions take an (N, nvars) array of points and
return stacked values paired with an (N,) mask, False at points where S is
singular. Masking is contagious through any stencil that touches such a
point. ``fd_partial`` evaluates the field once per differenced variable,
on the shifted copies of the grid for all its stencil offsets at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "Axis",
    "Grid",
    "fd_partial",
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
    orders: Sequence[int],
    h: float = DEFAULT_H,
    accuracy: int = DEFAULT_ACCURACY,
) -> tuple[tuple, np.ndarray]:
    """Central-difference d^k f / d variable^k at stacked points, for each
    order k in ``orders``.

    Calls ``f`` once, on the copies of ``points`` shifted by each offset of
    the requested stencils, stacked end to end in increasing offset order.
    ``f`` may return an array or a tuple of arrays; each derivative comes
    back in the same form. Returns the derivatives, one per order, and
    their mask: a point is masked when any of its stencil points is.
    """
    stencils = []
    for order in orders:
        try:
            stencils.append(_STENCILS[(order, accuracy)])
        except KeyError:
            raise ValueError(f"no stencil for order={order}, accuracy={accuracy}") from None
    if not h > 0:
        raise ValueError("step h must be positive")
    points = np.asarray(points, dtype=float)
    count = len(points)
    offsets = sorted({offset for stencil in stencils for offset, _ in stencil})
    shifted = np.tile(points, (len(offsets), 1))
    shifted[:, variable] = np.concatenate([points[:, variable] + offset * h for offset in offsets])
    values, good = f(shifted)
    ok = np.asarray(good, dtype=bool).reshape(len(offsets), count).all(axis=0)
    start = {offset: k * count for k, offset in enumerate(offsets)}

    def derivative(value, stencil, order):
        value = np.asarray(value, dtype=complex)
        total = None
        for offset, coeff in stencil:
            contrib = coeff * value[start[offset] : start[offset] + count]
            total = contrib if total is None else total + contrib
        return total / h**order

    derivatives = tuple(
        _each_field(values, lambda v: derivative(v, stencil, order))
        for stencil, order in zip(stencils, orders)
    )
    return derivatives, ok


def _each_field(values, fn: Callable):
    """``fn`` of an array, or of each array of a tuple."""
    if isinstance(values, tuple):
        return tuple(fn(v) for v in values)
    return fn(values)


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
    """A sweep's outcome. Per grid point, in grid order: ``points``
    (N, nvars), the mask ``ok`` (N,), the local field ``scales`` (N,) and
    one absolute residual column (N,) per channel in ``residuals``; the
    entries at masked points carry no meaning."""

    grid: Grid
    points: np.ndarray
    ok: np.ndarray
    scales: np.ndarray
    residuals: Mapping[str, np.ndarray]
    field_scale: float
    channels: tuple[ChannelSummary, ...]
    masked_count: int
    passed: bool
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def total_points(self) -> int:
        return len(self.points)

    @property
    def max_relative(self) -> float:
        return max((c.max_relative for c in self.channels), default=0.0)

    def masked_points(self) -> list[tuple[float, ...]]:
        return [tuple(p) for p in self.points[~self.ok].tolist()]

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
    tolerances: Mapping[str, float],
    meta: Optional[Mapping[str, object]] = None,
) -> ResidualReport:
    """Evaluate the residual channels at every grid point in one call, and
    aggregate.

    ``evaluate`` takes the stacked grid points and returns the absolute
    residual per channel and the local field scale at each point, with the
    mask: False at singular points, which are masked. ``tolerances`` must
    name exactly the channels ``evaluate`` returned, even when every point
    is masked; otherwise ValueError. Relative residuals divide by 1 + max
    field scale over the non-masked grid. A non-finite residual at a point
    that is not masked raises ValueError.
    """
    stacked = grid.stacked()
    if not len(stacked):
        raise ValueError("grid has no points")
    count = len(stacked)
    (residuals, scales), ok = evaluate(stacked)
    ok = np.broadcast_to(np.asarray(ok, dtype=bool), (count,))
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (count,))
    columns = {str(k): np.broadcast_to(np.asarray(v, dtype=float), (count,)) for k, v in residuals.items()}
    if set(tolerances) != set(columns):
        raise ValueError(
            f"tolerances name the channels {sorted(tolerances)}, "
            f"but the sweep computed {sorted(columns)}"
        )
    for name, values in columns.items():
        bad = np.flatnonzero(ok & ~np.isfinite(values))
        if len(bad):
            raise ValueError(f"non-finite residual in channel {name!r} at {tuple(stacked[bad[0]].tolist())}")

    field_scale = max(0.0, float(scales[ok].max())) if ok.any() else 0.0

    denom = 1.0 + field_scale
    names = sorted(columns) if ok.any() else []
    channels = []
    all_passed = True
    for name in names:
        values = columns[name][ok].tolist()
        max_abs = max(values)
        max_rel = max_abs / denom
        # Python's sequential sum, so reports keep their exact bytes.
        mean_rel = (sum(values) / len(values)) / denom
        tol = float(tolerances[name])
        ok_channel = max_rel <= tol
        all_passed = all_passed and ok_channel
        channels.append(ChannelSummary(name, max_abs, max_rel, mean_rel, tol, ok_channel))

    masked_count = int(count - ok.sum())
    if masked_count == count:
        all_passed = False  # nothing was verifiable
    return ResidualReport(
        grid=grid,
        points=stacked,
        ok=ok,
        scales=scales,
        residuals=columns,
        field_scale=field_scale,
        channels=tuple(channels),
        masked_count=masked_count,
        passed=all_passed,
        meta=dict(meta or {}),
    )
