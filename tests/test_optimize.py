import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzbc.core import GaussianProblem
from wzbc.gaussian import (
    GaussianLdsParams,
    choose_refinement_receiver,
    gaussian_lds_channel_rates,
    gaussian_lds_closed_form,
    gaussian_lds_dc_range,
    gaussian_lds_distortions,
    lds_parametric_cloud,
)
from wzbc.optimize import (
    lower_convex_envelope,
    lower_envelope_indices,
)


def test_envelope_drops_point_above_chord():
    curve = lower_convex_envelope([(0.0, 1.0), (1.0, 0.0), (0.5, 0.6)])
    assert [(p.D[0], p.D[1]) for p in curve.points] == [(0.0, 1.0), (1.0, 0.0)]


def test_envelope_collinear_keeps_endpoints_only():
    curve = lower_convex_envelope([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
    assert [(p.D[0], p.D[1]) for p in curve.points] == [(0.0, 2.0), (2.0, 0.0)]


def test_envelope_single_point():
    curve = lower_convex_envelope([(0.3, 0.4)])
    assert [(p.D[0], p.D[1]) for p in curve.points] == [(0.3, 0.4)]


def test_envelope_tie_in_x_keeps_min_y():
    curve = lower_convex_envelope([(0.0, 1.0), (0.0, 0.5), (1.0, 0.2)])
    assert [(p.D[0], p.D[1]) for p in curve.points] == [(0.0, 0.5), (1.0, 0.2)]


def test_envelope_cuts_increasing_tail():
    curve = lower_convex_envelope([(0.0, 1.0), (0.5, 0.1), (1.0, 0.9)])
    assert [(p.D[0], p.D[1]) for p in curve.points] == [(0.0, 1.0), (0.5, 0.1)]


def test_envelope_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        lower_convex_envelope([])
    with pytest.raises(ValueError):
        lower_convex_envelope([(0.0, np.inf)])


point_sets = st.lists(
    st.tuples(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _cross(ax, ay, bx, by, px, py):
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


@given(point_sets)
@settings(max_examples=300, deadline=None)
def test_envelope_properties(points):
    curve = lower_convex_envelope(points)
    xs = np.array(curve.d1())
    ys = np.array(curve.d2())
    # sorted and strictly decreasing
    assert np.all(np.diff(xs) > 0) or len(xs) == 1
    assert np.all(np.diff(ys) < 0) or len(ys) == 1
    # convex: every interior vertex is a strict left turn (cross-product form,
    # the same predicate the construction uses, robust to near-vertical edges)
    for i in range(len(xs) - 2):
        assert _cross(xs[i], ys[i], xs[i + 1], ys[i + 1], xs[i + 2], ys[i + 2]) > 0
    # no input point strictly below its bracketing hull edge
    for x, y in points:
        if len(xs) == 1 or x >= xs[-1]:
            assert y >= ys[-1] - 1e-12  # the last vertex attains the global minimum
            continue
        if x < xs[0]:
            continue
        j = int(np.searchsorted(xs, x, side="right"))
        j = min(max(j, 1), len(xs) - 1)
        c = _cross(xs[j - 1], ys[j - 1], xs[j], ys[j], x, y)
        scale = max(
            1.0, abs(xs[j] - xs[j - 1]) * (abs(y) + abs(ys[j - 1])),
            abs(ys[j] - ys[j - 1]) * (abs(x) + abs(xs[j - 1])),
        )
        assert c >= -1e-12 * scale


def _reference_envelope(x, y):
    """Monotone chain over every point, without the staircase prefilter."""
    order = np.lexsort((y, x))
    hull = []
    for k in order:
        if hull and x[hull[-1]] == x[k]:
            continue  # same x: the lexsort placed the minimal y first
        while len(hull) >= 2 and _cross(
            x[hull[-2]], y[hull[-2]], x[hull[-1]], y[hull[-1]], x[k], y[k]
        ) <= 0:
            hull.pop()
        hull.append(k)
    cut = int(np.argmin(y[hull]))  # first vertex of minimal y
    return [(x[i], y[i]) for i in hull[: cut + 1]]


# a 9 x 9 grid in steps of 1/4: duplicates, shared x, shared minimal y and
# collinear triples occur often and compare exactly
grid_point_sets = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40
)


@given(grid_point_sets)
@settings(max_examples=500, deadline=None)
def test_envelope_prefilter_matches_plain_monotone_chain(points):
    xy = np.array(points, dtype=float) / 4.0
    x, y = xy[:, 0], xy[:, 1]
    keep = lower_envelope_indices(x, y)
    assert [(x[i], y[i]) for i in keep] == _reference_envelope(x, y)


def reference_envelope_indices(x, y):
    """lower_envelope_indices without the sampled-dominance prefilter: staircase
    of every point (stable lexsort, strict running minimum), then the chain."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    order = np.lexsort((y, x))
    ys = y[order]
    stair = np.empty(ys.size, dtype=bool)
    stair[0] = True
    stair[1:] = ys[1:] < np.minimum.accumulate(ys)[:-1]
    order = order[stair]
    px = x[order].tolist()
    py = y[order].tolist()
    hull = []
    for k in range(len(order)):
        while len(hull) >= 2 and _cross(
            px[hull[-2]], py[hull[-2]], px[hull[-1]], py[hull[-1]], px[k], py[k]
        ) <= 0:
            hull.pop()
        hull.append(k)
    return order[hull].tolist()


@given(grid_point_sets)
@settings(max_examples=300, deadline=None)
def test_envelope_indices_match_reference_on_grid_sets(points):
    xy = np.array(points, dtype=float) / 4.0
    assert lower_envelope_indices(xy[:, 0], xy[:, 1]) == reference_envelope_indices(
        xy[:, 0], xy[:, 1]
    )


@pytest.mark.parametrize("side", [9, 41])
@pytest.mark.parametrize("size", [4, 5, 50, 300, 1000, 2000])
def test_envelope_indices_match_reference_on_large_grid_sets(size, side):
    # 1/4-step grid points, rich in duplicates, ties and collinear triples, at
    # sizes that make the sample step isqrt(size) range from 2 to 44
    rng = np.random.default_rng(size * side)
    for _ in range(20):
        x = rng.integers(0, side, size) / 4.0
        y = rng.integers(0, side, size) / 4.0
        assert lower_envelope_indices(x, y) == reference_envelope_indices(x, y)


def test_envelope_indices_match_reference_on_parametric_cloud():
    problem = GaussianProblem(1, (1, 0.5), (0.8, 0.4), kappa="1/2")
    cloud = lds_parametric_cloud(problem, choose_refinement_receiver(problem), 200, 200)
    keep = lower_envelope_indices(cloud["d_c"], cloud["d_r"])
    assert keep == reference_envelope_indices(cloud["d_c"], cloud["d_r"])
    assert len(keep) > 10


@pytest.mark.parametrize("size", [1, 2, 5, 100, 2000])
def test_envelope_indices_degenerate_sets_match_reference(size):
    rng = np.random.default_rng(size)
    same = np.full(size, 0.25)
    column = rng.integers(0, 5, size) / 4.0
    cases = [(same, same), (same, column), (column, same)]
    for x, y in cases:
        keep = lower_envelope_indices(x, y)
        assert keep == reference_envelope_indices(x, y)
        assert len(keep) == 1
        # one point survives: the lowest index among the minima
        assert keep[0] == int(np.flatnonzero((x == x.min()) & (y == y[x == x.min()].min()))[0])


@pytest.mark.parametrize(
    "points, expected",
    [
        ([(1, 1)], [(1, 1)]),
        ([(1, 1), (1, 1), (1, 1)], [(1, 1)]),
        ([(0, 2), (1, 1), (2, 0), (2, 0), (3, 0)], [(0, 2), (2, 0)]),
        ([(0, 3), (0, 1), (1, 0), (2, 0)], [(0, 1), (1, 0)]),
    ],
)
def test_envelope_degenerate_sets(points, expected):
    xy = np.array(points, dtype=float)
    keep = lower_envelope_indices(xy[:, 0], xy[:, 1])
    assert [tuple(xy[i]) for i in keep] == expected


def test_power_axis_sweep_matches_closed_form():
    # sweep the power split with the precoding parameter pinned to its
    # optimal branch value; the resulting curve must match the closed form
    problem = GaussianProblem(1, (1, 0.5), (0.8, 0.4), kappa=1)
    assign = choose_refinement_receiver(problem)
    gamma = 0.0 if problem.noise_vars[assign.c] > problem.noise_vars[assign.r] else 1.0

    points = []
    for nu in np.linspace(0.0, 1.0, 2001):
        rates = gaussian_lds_channel_rates(
            problem, assign, GaussianLdsParams(nu, gamma if nu > 0 else 0.0)
        )
        if not rates.clamped:
            points.append(gaussian_lds_distortions(problem, assign, rates))
    dmin, dmax = gaussian_lds_dc_range(problem, assign)
    worst = 0.0
    for p in points:
        d_c, d_r = p.D[assign.c], p.D[assign.r]
        if dmin <= d_c <= dmax:
            worst = max(worst, abs(d_r - gaussian_lds_closed_form(problem, assign, d_c)))
    assert worst < 1e-4
