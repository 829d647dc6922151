"""Grid sweeps, lower convex envelopes, and Pareto merging of tradeoff curves."""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import DistortionPoint, TradeoffCurve

log = logging.getLogger(__name__)

DEFAULT_CELL_CAP = 10**7


@dataclass(frozen=True)
class GridAxis:
    name: str
    lower: float
    upper: float
    count: int

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"axis {self.name}: lower {self.lower} > upper {self.upper}")
        if self.count < 1:
            raise ValueError(f"axis {self.name}: count must be >= 1, got {self.count}")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.lower])
        return np.linspace(self.lower, self.upper, self.count)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if self.cells > self.cell_cap:
            raise ValueError(
                f"grid has {self.cells} cells, exceeding the cap of {self.cell_cap}"
            )

    @property
    def cells(self) -> int:
        n = 1
        for ax in self.axes:
            n *= ax.count
        return n

    def __iter__(self):
        """Yield one {axis name: value} dict per cell, last axis fastest."""
        grids = [ax.values() for ax in self.axes]
        names = [ax.name for ax in self.axes]
        for combo in itertools.product(*grids):
            yield dict(zip(names, combo))


def sweep(grid: GridSpec, evaluator) -> list:
    """Evaluate every grid cell, collecting the points the evaluator returns.

    The evaluator maps a {name: value} dict to a DistortionPoint or None
    (rejection).  Output order is deterministic (grid iteration order).
    """
    points = []
    for cell in grid:
        point = evaluator(cell)
        if point is not None:
            points.append(point)
    if not points:
        log.warning("sweep over %d cells produced no points", grid.cells)
    return points


def _staircase(x, y):
    """Indices of the Pareto staircase of (x, y), in lexicographic (x, y) order.

    After a stable lexicographic sort only the points strictly below every
    point before them survive (the Pareto-minimal points, as in Kung, Luccio
    and Preparata's maxima algorithm); of duplicates the lowest index is
    kept.  The result is strictly increasing in x and strictly decreasing in y.
    """
    order = np.lexsort((y, x))
    ys = y[order]
    stair = np.empty(ys.size, dtype=bool)
    stair[0] = True
    stair[1:] = ys[1:] < np.minimum.accumulate(ys)[:-1]
    return order[stair]


def lower_envelope_indices(x, y):
    """Indices (into the input arrays) of the lower-left convex boundary.

    The boundary is the chain of lower-convex-hull vertices from the smallest
    x up to the first vertex attaining the minimal y; vertices are strictly
    decreasing in y with strictly increasing slopes (collinear interior points
    are dropped, and of points sharing an x only the one with minimal y is
    kept, the lowest index among duplicates).

    Three exact steps, each on fewer points:

    1. Sampled-dominance prefilter.  The staircase of the strided sample
       ``x[::step], y[::step]`` with ``step = isqrt(n)`` is taken, and every
       point that is componentwise <= the last sample-staircase point with
       ``sx <= x``, without being an exact duplicate of it, is dropped.  Such a
       point is preceded in (x, y) order by a kept point that is no higher, so
       it is never on the staircase, and removing it changes no running
       minimum of the sweep below.  Sample-staircase points are never dropped
       (the last one with ``sx <= x`` is the point itself, a duplicate), and
       duplicates of a dominator are kept, so the survivors keep the point of
       lowest index among equal coordinates.
    2. The staircase of the survivors (``_staircase``): indices in the order
       of a stable sort of the survivors, which is their order in a sort of
       every point, so the same indices as on the full set.
    3. Andrew's monotone chain on that staircase, which is strictly increasing
       in x and strictly decreasing in y, so its last point is the first
       vertex of minimal y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        raise ValueError("envelope of an empty point set")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("envelope requires finite coordinates")
    step = math.isqrt(x.size)
    sx, sy = x[::step], y[::step]
    top = _staircase(sx, sy)
    sx, sy = sx[top], sy[top]
    left = np.searchsorted(sx, x, side="right") - 1  # last sample-staircase point with sx <= x
    dominated = (left >= 0) & (sy[left] <= y) & ((sx[left] != x) | (sy[left] != y))
    survivors = np.flatnonzero(~dominated)
    order = survivors[_staircase(x[survivors], y[survivors])]
    px = x[order].tolist()
    py = y[order].tolist()
    hull = []  # positions into order
    for k in range(len(order)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (px[j] - px[i]) * (py[k] - py[i]) - (py[j] - py[i]) * (px[k] - px[i]) > 0:
                break
            hull.pop()
        hull.append(k)
    return order[hull].tolist()


def lower_convex_envelope(points) -> TradeoffCurve:
    """Lower convex envelope of a set of (D1, D2) points.

    Accepts a sequence of DistortionPoint or an array-like of (x, y) pairs;
    returns a TradeoffCurve whose points are the selected input points
    (synthesized with scheme "envelope" for raw coordinate input), sorted by
    D1 and strictly decreasing in D2.
    """
    pts = list(points)
    if not pts:
        raise ValueError("envelope of an empty point set")
    if isinstance(pts[0], DistortionPoint):
        x = np.array([p.D[0] for p in pts])
        y = np.array([p.D[1] for p in pts])
        keep = lower_envelope_indices(x, y)
        return TradeoffCurve(points=tuple(pts[i] for i in keep), envelope_applied=True)
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) coordinates, got shape {arr.shape}")
    keep = lower_envelope_indices(arr[:, 0], arr[:, 1])
    made = tuple(
        DistortionPoint(D=(arr[i, 0], arr[i, 1]), scheme="envelope", params={}) for i in keep
    )
    return TradeoffCurve(points=made, envelope_applied=True)


def pareto_merge(curves) -> TradeoffCurve:
    """Union of the curves' points followed by the lower convex envelope."""
    curves = list(curves)
    if not curves:
        raise ValueError("pareto_merge of an empty curve list")
    merged = [p for curve in curves for p in curve.points]
    return lower_convex_envelope(merged)


def envelope_value(curve: TradeoffCurve, x) -> np.ndarray:
    """Piecewise-linear envelope evaluated at x (scalar or array), clipped to range."""
    xs = np.asarray(curve.d1())
    ys = np.asarray(curve.d2())
    return np.interp(np.asarray(x, dtype=float), xs, ys)
