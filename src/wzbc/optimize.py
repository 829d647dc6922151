"""Lower convex envelopes of tradeoff point sets."""

from __future__ import annotations

import math

import numpy as np

from .core import DistortionPoint, TradeoffCurve


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


def _undominated(sx, sy, x, y):
    """Indices of the points of (x, y) that the staircase (sx, sy) does not dominate.

    The staircase is strictly increasing in sx and strictly decreasing in sy.
    A point is dropped when it is componentwise >= the last staircase point
    with ``sx <= x`` without being an exact duplicate of it: a staircase point
    that is no higher precedes it in (x, y) order, so it is never on the
    staircase of the union.  Duplicates of a staircase point are kept, so the
    staircase of the union keeps the point of lowest index among equal
    coordinates.
    """
    left = np.searchsorted(sx, x, side="right") - 1
    dominated = (left >= 0) & (sy[left] <= y) & ((sx[left] != x) | (sy[left] != y))
    return np.flatnonzero(~dominated)


def _monotone_chain(x, y) -> list:
    """Positions of the lower hull vertices of a staircase, by Andrew's monotone chain.

    The points are strictly increasing in x and strictly decreasing in y, so
    the last point is a vertex; collinear interior points are dropped.
    """
    px = x.tolist()
    py = y.tolist()
    hull = []
    for k in range(len(px)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (px[j] - px[i]) * (py[k] - py[i]) - (py[j] - py[i]) * (px[k] - px[i]) > 0:
                break
            hull.pop()
        hull.append(k)
    return hull


def lower_envelope_indices(x, y):
    """Indices (into the input arrays) of the lower-left convex boundary.

    The boundary is the chain of lower-convex-hull vertices from the smallest
    x up to the first vertex attaining the minimal y; vertices are strictly
    decreasing in y with strictly increasing slopes (collinear interior points
    are dropped, and of points sharing an x only the one with minimal y is
    kept, the lowest index among duplicates).

    Three exact steps, each on fewer points:

    1. Sampled-dominance prefilter: the points that the staircase of the
       strided sample ``x[::step], y[::step]`` with ``step = isqrt(n)``
       dominates are dropped (``_undominated``).  Sample-staircase points are
       never dropped, and removing a dominated point changes no running
       minimum of the sweep below.
    2. The staircase of the survivors (``_staircase``): indices in the order
       of a stable sort of the survivors, which is their order in a sort of
       every point, so the same indices as on the full set.
    3. Andrew's monotone chain on that staircase (``_monotone_chain``).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("envelope requires finite coordinates")
    if x.size == 0:
        raise ValueError("envelope of an empty point set")
    step = math.isqrt(x.size)
    sx, sy = x[::step], y[::step]
    top = _staircase(sx, sy)
    survivors = _undominated(sx[top], sy[top], x, y)
    order = survivors[_staircase(x[survivors], y[survivors])]
    return order[_monotone_chain(x[order], y[order])].tolist()


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
        return TradeoffCurve(points=tuple(pts[i] for i in keep))
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) coordinates, got shape {arr.shape}")
    keep = lower_envelope_indices(arr[:, 0], arr[:, 1])
    made = tuple(
        DistortionPoint(D=(arr[i, 0], arr[i, 1]), scheme="envelope", params={}) for i in keep
    )
    return TradeoffCurve(points=made)
