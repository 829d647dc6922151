"""Binary Hamming evaluators.

Test channels everywhere are erasure-plus-flip: a description is produced
with probability q and, when produced, equals the source flipped with
probability alpha; the reconstruction distortion against side information of
crossover beta is then q * min(alpha, beta) + (1 - q) * beta.

The layered scheme constrains the common-layer description to be a degraded
version of the refinement description (q_c <= q_r and alpha_c >= alpha_r);
separate coding allows either degradation order of its two descriptions.
Tradeoff regions are traced by grid sweeps over the parameters that trace the
tradeoff; the q of the last description layer is not gridded.  The layer
distortion is non-increasing in q and every rate constraint is linear in q, so
for fixed values of the other parameters the best q is the largest one the
constraints allow, min(1, budget / r(alpha, beta)), as in the point-to-point
Wyner-Ziv problem.

The layered region is one table-driven pass per role assignment:

1. table -- the clamped channel rate triple (R_cc, R_cr, R_rr) of every
   channel tuple (t, gamma_c, gamma_r) on the gamma grid, from one array call
   of each kernel per auxiliary choice (``binary_lds_channel_rates`` is a
   one-cell call of the same kernel);
2. best tuple -- flagged tuples (a materially negative rate) are dropped.
   The largest q_r within the refinement budget is non-decreasing in R_rr,
   so a (q_c, alpha_c) cell needs only the admitting tuple (R_cc and R_cr
   fit) with the largest R_rr: the first admitting tuple in a stable
   R_rr-descending order, found by an argmax over bounded blocks of
   (cell, tuple) pairs.  Dominated tuples are never chosen, so none are pruned;
3. refinement -- for every cell with an admitting tuple, the last-layer
   kernel ``_last_layer`` gives each alpha_r <= alpha_c the largest q_r
   within the budget, at least q_c, and keeps the best alpha_r; every
   candidate point is bounds-checked and reduced to its envelope vertices;
4. envelope -- the lower convex envelope of the kept vertices of both role
   assignments (plus the zero-rate corners) is the region.

The separate-coding region is one pass over the (q_b, alpha_b) cells.  Theta
enters only through the bad-receiver cap kappa * (1 - H2(theta * p_b)) and
the cumulative cap, and for a fixed bad description the best good-receiver
distortion never gets worse as the cumulative cap grows.

1. caps -- both caps of every grid theta are T = U_c rates of the layered
   channel table with theta as gamma_r and the bad receiver as c: the bad
   cap is R_cc and the cumulative cap R_cc + R_rr;
2. theta -- each (q_b, alpha_b) cell keeps, of the thetas whose bad cap admits
   its rate, the one with the largest cumulative cap (a stable sort of theta
   by bad cap, a prefix argmax of the cumulative cap and a searchsorted);
3. good description -- the same last-layer kernel gives each alpha_g the
   largest q_g whose cumulative rate fits that cap, put in either degradation
   order with the bad description, and keeps the alpha_g with the smallest
   d_g;
4. envelope -- the candidate points are bounds-checked once and reduced to
   their envelope vertices.

q values come from the caps without the FEAS_TOL slack, which only widens the
admit tests, so every vertex's parameters satisfy its rate constraints within
FEAS_TOL.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BinaryProblem,
    DistortionPoint,
    RateTriple,
    RoleAssignment,
    TradeoffCurve,
    BLOCK_CELLS,
    RATE_CLAMP_EPS,
    bad_good_labels,
    parse_kappa,
    require_bandwidth_match,
    require_within_bounds,
)
from .infotheory import binary_convolution, binary_entropy, wz_rate_kernel
from .optimize import lower_envelope_indices

FEAS_TOL = 1e-12


class TChoice(enum.Enum):
    """Auxiliary-variable choice for the layered channel code."""

    T_EQUALS_UC = "uc"
    T_EQUALS_UC_XOR_UR = "xor"


@dataclass(frozen=True)
class BinarySourceParams:
    """Erasure/flip parameters of the two source descriptions.

    The common description must be a degraded version of the refinement one:
    q_c <= q_r and alpha_c >= alpha_r.
    """

    q_c: float
    q_r: float
    alpha_c: float
    alpha_r: float

    def __post_init__(self):
        for name in ("q_c", "q_r"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("alpha_c", "alpha_r"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise ValueError(f"{name} must lie in [0, 1/2], got {v}")
        if self.q_c > self.q_r:
            raise ValueError(f"degraded order requires q_c <= q_r, got {self.q_c} > {self.q_r}")
        if self.alpha_c < self.alpha_r:
            raise ValueError(
                f"degraded order requires alpha_c >= alpha_r, got {self.alpha_c} < {self.alpha_r}"
            )


@dataclass(frozen=True)
class BinaryChannelParams:
    """Bernoulli parameters of the two channel-code layers and the auxiliary choice."""

    gamma_c: float
    gamma_r: float
    t_choice: TChoice = TChoice.T_EQUALS_UC

    def __post_init__(self):
        for name in ("gamma_c", "gamma_r"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise ValueError(f"{name} must lie in [0, 1/2], got {v}")


def layer_distortion(q, alpha, beta):
    """Distortion q * min(alpha, beta) + (1 - q) * beta of one description layer.

    Written as beta - q * (beta - min(alpha, beta)), which is non-increasing
    in q in floating point as well (the product is monotone in q and the
    difference is nonnegative), so a larger grid q never gives a larger
    distortion.
    """
    return beta - q * (beta - np.minimum(alpha, beta))


def binary_capacity(p: float) -> float:
    """BSC capacity 1 - H2(p) in bits per channel use."""
    return 1.0 - binary_entropy(p)


def _h2(x: float) -> float:
    """Binary entropy in bits, in plain floats (0 at the endpoints)."""
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x) if 0.0 < x < 1.0 else 0.0


def _bisect(f, lo: float, hi: float) -> tuple:
    """Bracket [lo, hi] of the sign change of an increasing f (f < 0 below it),
    halved until its midpoint no longer lies strictly inside."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def binary_wz_distortion(beta: float, R: float) -> float:
    """Point-to-point Wyner-Ziv distortion-rate value of a binary source.

    The rate-distortion function is the lower convex envelope of
    g(d) = r(d, beta) = H2(beta * d) - H2(d) on [0, beta] and the point
    (beta, 0).  Its tangent point d_t from (beta, 0) is where
    g'(d)(beta - d) + g(d) changes sign.  Below g(d_t) the value lies on the
    tangent, beta - R (beta - d_t) / g(d_t) (time sharing between d_t and no
    description); from g(d_t) up to H2(beta) it is the saturation point
    g(d) = R, and above that it is 0.  Both points are found by bisection in
    plain floats until the bracket stops shrinking.
    """
    return _wz_distortion_witness(beta, R)[0]


def _wz_distortion_witness(beta: float, R: float) -> tuple:
    """(value, q, alpha): ``binary_wz_distortion`` and a description (q, alpha)
    that attains it, q = R / g(d_t) and alpha = d_t on the tangent, q = 1 and
    alpha = d at saturation; (0, beta) at R = 0 and (1, 0) when the value is 0."""
    if not 0.0 <= beta <= 0.5:
        raise ValueError(f"beta must lie in [0, 1/2], got {beta}")
    if not R >= 0.0:  # NaN fails too
        raise ValueError(f"rate must be nonnegative, got {R}")
    if R == 0.0:
        return beta, 0.0, beta
    if beta == 0.0 or R >= _h2(beta):
        return 0.0, 1.0, 0.0
    k = 1.0 - 2.0 * beta

    def g(d):
        return _h2(beta + k * d) - _h2(d)

    def tangent_sign(d):
        c = beta + k * d
        slope = k * math.log2((1.0 - c) / c) - math.log2((1.0 - d) / d)
        return slope * (beta - d) + g(d)

    d_t = _bisect(tangent_sign, 0.0, beta)[1]
    g_t = g(d_t)
    if R < g_t:
        return beta - R * ((beta - d_t) / g_t), R / g_t, d_t
    d = _bisect(lambda d: R - g(d), 0.0, d_t)[1]
    return d, 1.0, d


def binary_trivial_converse(problem: BinaryProblem) -> tuple:
    """Per-receiver lower bounds from the point-to-point distortion-rate value
    at rate kappa * (1 - H2(p_k))."""
    kappa = float(problem.kappa)
    return tuple(
        binary_wz_distortion(b, kappa * binary_capacity(p))
        for p, b in zip(problem.crossovers, problem.sideinfo_crossovers)
    )


def binary_uncoded(problem: BinaryProblem) -> DistortionPoint:
    """Uncoded transmission: D_k = min(p_k, beta_k)."""
    require_bandwidth_match(problem, "uncoded")
    D = tuple(min(p, b) for p, b in zip(problem.crossovers, problem.sideinfo_crossovers))
    point = DistortionPoint(D=D, scheme="uncoded", params={})
    require_within_bounds(problem, point.D)
    return point


def _grids(resolution: int):
    if resolution < 3:
        raise ValueError(f"grid too coarse: resolution must be >= 3, got {resolution}")
    qs = np.linspace(0.0, 1.0, resolution)
    alphas = np.linspace(0.0, 0.5, resolution)
    return qs, alphas


def binary_cds_points(problem: BinaryProblem, resolution: int = 41):
    """Feasible single-description (q, alpha) grid points and their distortions.

    Returns flat arrays (d1, d2, q, alpha).  A cell is kept when
    q * r(alpha, beta_k) <= kappa * (1 - H2(p_k)) for every receiver.
    """
    qs, alphas = _grids(resolution)
    kappa = float(problem.kappa)
    feasible = np.ones((resolution, resolution), dtype=bool)
    for p, beta in zip(problem.crossovers, problem.sideinfo_crossovers):
        cap = kappa * binary_capacity(p)
        feasible &= np.outer(qs, wz_rate_kernel(alphas, beta)) <= cap + FEAS_TOL
    d1 = layer_distortion(qs[:, None], alphas[None, :], problem.sideinfo_crossovers[0])
    d2 = layer_distortion(qs[:, None], alphas[None, :], problem.sideinfo_crossovers[1])
    qi, ai = np.nonzero(feasible)
    return d1[qi, ai], d2[qi, ai], qs[qi], alphas[ai]


def binary_cds_region(problem: BinaryProblem, resolution: int = 41) -> TradeoffCurve:
    """Tradeoff curve of the single-description scheme (envelope applied), columns q, alpha."""
    d1, d2, q, alpha = binary_cds_points(problem, resolution)
    keep = lower_envelope_indices(d1, d2)
    D = np.column_stack((d1[keep], d2[keep]))
    return TradeoffCurve(D, "cds", {"q": q[keep], "alpha": alpha[keep]})


def binary_lds_source_rates(
    src: BinarySourceParams, beta_c: float, beta_r: float
) -> RateTriple:
    """Source coding rates (bits per source symbol) of the two layers.

    R_cc = q_c r(alpha_c, beta_c), R_cr = q_c r(alpha_c, beta_r),
    R_rr = q_r r(alpha_r, beta_r) - q_c r(alpha_c, beta_r), clamped at 0.
    """
    r_cc = src.q_c * wz_rate_kernel(src.alpha_c, beta_c)
    r_cr = src.q_c * wz_rate_kernel(src.alpha_c, beta_r)
    r_rr = src.q_r * wz_rate_kernel(src.alpha_r, beta_r) - r_cr
    return RateTriple(r_cc, r_cr, r_rr).clamp()


def _channel_rate_table(p_c, p_r, kappa, gamma_c, gamma_r, t_choice):
    """Clamped channel rates of the layered code for arrays of (gamma_c, gamma_r).

    One array call of each kernel evaluates the formulas of
    ``binary_lds_channel_rates`` over every cell; the clamp mirrors
    ``RateTriple.clamp``.  Returns (rates, clamped): rates has one row
    (R_cc, R_cr, R_rr) per cell and clamped marks the materially negative rows.
    """
    k = float(parse_kappa(kappa))
    gamma_c = np.asarray(gamma_c, dtype=float)
    gamma_r = np.asarray(gamma_r, dtype=float)
    if t_choice is TChoice.T_EQUALS_UC:
        r_cc = k * (1.0 - binary_entropy(binary_convolution(gamma_r, p_c)))
        r_cr = k * (1.0 - binary_entropy(binary_convolution(gamma_r, p_r)))
        r_rr = k * wz_rate_kernel(p_r, gamma_r)
    else:
        g = np.minimum(binary_convolution(gamma_c, gamma_r), 0.5)
        shared = wz_rate_kernel(gamma_c, gamma_r)
        r_cc = k * (wz_rate_kernel(p_c, g) - shared)
        r_cr = k * (wz_rate_kernel(p_r, g) - shared)
        r_rr = k * shared
    rates = np.stack(np.broadcast_arrays(r_cc, r_cr, r_rr), axis=-1)
    low = rates.min(axis=-1)
    negative = low < 0.0
    rates[negative] = np.where(rates[negative] > 0.0, rates[negative], 0.0)
    return rates, low < -RATE_CLAMP_EPS


def binary_lds_channel_rates(
    p_c: float, p_r: float, ch: BinaryChannelParams, kappa=1
) -> RateTriple:
    """Channel rates (bits per source symbol, kappa applied) of the layered code.

    With T = U_c the common-layer input is pinned to the capacity-achieving
    uniform distribution (gamma_c = 1/2), giving
    kappa * (1 - H2(gamma_r * p_c), 1 - H2(gamma_r * p_r), r(p_r, gamma_r)).
    With T = U_c xor U_r the rates are
    kappa * (r(p_k, gamma_c * gamma_r) - r(gamma_c, gamma_r)) for the common
    layer and kappa * r(gamma_c, gamma_r) for the refinement layer; negative
    values are clamped to 0 with the flag set.  This is a one-cell call of the
    table kernel the layered sweep uses.
    """
    rates, clamped = _channel_rate_table(
        p_c, p_r, kappa, [ch.gamma_c], [ch.gamma_r], ch.t_choice
    )
    return RateTriple(*rates[0].tolist(), clamped=bool(clamped[0]))


def _lds_channel_table(p_c, p_r, kappa, resolution):
    """Every channel tuple on the gamma grid with its clamped rate triple.

    Rows are the T = U_c tuples (gamma_c = 1/2) over gamma_r, then the
    T = U_c xor U_r tuples over (gamma_c, gamma_r), gamma_r fastest.  Returns
    (xor, gamma_c, gamma_r, rates, clamped) with one entry (row) per tuple.
    """
    _, gammas = _grids(resolution)
    n = gammas.size
    uc = (np.full(n, 0.5), gammas)
    xor = (np.repeat(gammas, n), np.tile(gammas, n))
    rates_uc, clamped_uc = _channel_rate_table(p_c, p_r, kappa, *uc, TChoice.T_EQUALS_UC)
    rates_x, clamped_x = _channel_rate_table(p_c, p_r, kappa, *xor, TChoice.T_EQUALS_UC_XOR_UR)
    return (
        np.repeat([False, True], [n, n * n]),
        np.concatenate((uc[0], xor[0])),
        np.concatenate((uc[1], xor[1])),
        np.concatenate((rates_uc, rates_x)),
        np.concatenate((clamped_uc, clamped_x)),
    )


def _last_layer(budgets, q_o, a_o, strict, gain):
    """alpha grid index and q of the best last description per cell, the
    first alpha on ties.

    budgets holds rows (a, b) of the linear rate constraints q * a(alpha) <= b:
    a is on the alpha grid and b has one entry per cell.  Each alpha takes
    q = clip(min of b / a over the a > 0, 0, 1), or 1 where every a is 0.
    q_o and a_o are the q and alpha grid index of each cell's outer
    description.  An alpha below a_o (and a_o itself when strict) must refine
    the outer description: it is admitted when q_o * a <= b + FEAS_TOL for
    every budget, and its q is raised to q_o.  An alpha above a_o is excluded
    when strict; otherwise its q is capped at q_o.  The best alpha has the
    largest q * gain.  Cells are taken in blocks of BLOCK_CELLS // res.
    """
    res = gain.size
    cols = np.arange(res)
    # row i marks the alphas that must refine, or are coarser than, an outer
    # alpha of index i
    refine = cols <= cols[:, None] if strict else cols < cols[:, None]
    coarser = cols > cols[:, None]
    # a budget bounds only its columns with a > 0; the others divide by 1
    # and are then set to inf
    rows = [(a, np.where(a > 0.0, a, 1.0), a <= 0.0, b) for a, b in budgets]
    alpha = np.empty(q_o.size, dtype=np.int64)
    q_best = np.empty(q_o.size)
    step = max(1, BLOCK_CELLS // res)
    for start in range(0, q_o.size, step):
        blk = slice(start, start + step)
        qo, ao = q_o[blk, None], a_o[blk]
        must_refine = refine.take(ao, axis=0)
        q = fits = None
        for a, divisor, unbound, b in rows:
            b = b[blk, None]
            quot = b / divisor
            quot[:, unbound] = np.inf
            q = quot if q is None else np.minimum(q, quot, out=q)
            fit = qo * a <= b + FEAS_TOL
            fits = fit if fits is None else np.logical_and(fits, fit, out=fits)
        np.clip(q, 0.0, 1.0, out=q)
        if strict:  # the columns past a_o are excluded, so raise them all
            np.maximum(q, qo, out=q)
            admit = np.logical_and(fits, must_refine, out=fits)
        else:
            np.maximum(q, qo, out=q, where=must_refine)
            np.minimum(q, qo, out=q, where=coarser.take(ao, axis=0))
            admit = np.logical_or(fits, ~must_refine, out=fits)
        best = np.where(admit, q * gain, -np.inf).argmax(axis=1)
        alpha[blk] = best
        q_best[blk] = q[np.arange(best.size), best]
    return alpha, q_best


def _lds_refinement_search(problem, assign, resolution, rates):
    """Envelope vertices of the refinement search over channel triples.

    rates holds one unflagged channel triple per row.  For a (q_c, alpha_c)
    cell and an alpha_r <= alpha_c the best q_r is the largest one within the
    refinement budget R_rr + q_c r(alpha_c, beta_r), q_r = min(1, budget /
    r(alpha_r, beta_r)), and it must be at least q_c: the pair is admitted
    when q_c r(alpha_r, beta_r) fits the budget within FEAS_TOL, and q_r is
    then raised to q_c.  The layer distortion is non-increasing in q_r and q_r
    in the budget, so of the tuples whose R_cc and R_cr admit a cell, one with
    the largest R_rr attains the cell's best D_r.  Each cell therefore takes
    the first admitting tuple in a stable R_rr-descending order, found by an
    argmax over blocks of at most BLOCK_CELLS (cell, tuple) pairs.  Then
    _last_layer, with the one budget and in strict order, takes the best
    alpha_r of every cell.  Every candidate is bounds-checked and the
    candidates are reduced to their envelope vertices.  Returns (D, idx, q_r):
    D is a (2, m) array of receiver-order distortions, idx an (m, 4) array of
    indices (tuple row, q_c, alpha_c, alpha_r) and q_r the m refinement q values.
    """
    qs, alphas = _grids(resolution)
    res = qs.size
    beta_c = problem.sideinfo_crossovers[assign.c]
    beta_r = problem.sideinfo_crossovers[assign.r]
    r_r = wz_rate_kernel(alphas, beta_r)
    src_c = np.outer(qs, wz_rate_kernel(alphas, beta_c)).ravel()  # (q_c, alpha_c)
    src_r = np.outer(qs, r_r).ravel()
    order = np.argsort(-rates[:, 2], kind="stable")
    cap_c = rates[order, 0] + FEAS_TOL
    cap_r = rates[order, 1] + FEAS_TOL
    first = np.empty(res * res, dtype=np.int64)  # position in order, -1 when none admits
    step = max(1, BLOCK_CELLS // order.size)
    for start in range(0, res * res, step):
        fits = src_c[start : start + step, None] <= cap_c
        fits &= src_r[start : start + step, None] <= cap_r
        pos = fits.argmax(axis=1)
        first[start : start + step] = np.where(fits[np.arange(pos.size), pos], pos, -1)
    cell = np.flatnonzero(first >= 0)
    t = order[first[cell]]
    qc, ac = np.divmod(cell, res)
    budget = rates[t, 2] + src_r[cell]
    gain = beta_r - np.minimum(alphas, beta_r)  # D_r = beta_r - q_r * gain
    ar, qr = _last_layer([(r_r, budget)], qs[qc], ac, True, gain)
    d = np.empty((2, cell.size))
    d[assign.c] = layer_distortion(qs[qc], alphas[ac], beta_c)
    d[assign.r] = layer_distortion(qr, alphas[ar], beta_r)
    require_within_bounds(problem, d)
    keep = lower_envelope_indices(d[0], d[1])
    return d[:, keep], np.stack((t, qc, ac, ar), axis=1)[keep], qr[keep]


def _binary_lds_vertices(problem, assign, resolution):
    """Envelope vertices of one role assignment as (D, params): receiver-order
    (m, 2) distortions and an m-long column per parameter, assign as (m, 2)
    rows of 1-based (common, refinement) receivers.  The zero-rate corner,
    feasible for every channel tuple, comes first, with NaN gammas and an
    empty t; then the refinement search over the unflagged channel tuples."""
    qs, alphas = _grids(resolution)
    xor, gamma_c, gamma_r, rates, clamped = _lds_channel_table(
        problem.crossovers[assign.c], problem.crossovers[assign.r], problem.kappa, resolution
    )
    # a materially negative common-layer bound admits no nonnegative source
    # rate, so a flagged tuple is infeasible
    tuples = np.flatnonzero(~clamped)
    d, idx, q_r = _lds_refinement_search(problem, assign, resolution, rates[tuples])
    tup = tuples[idx[:, 0]]
    qc, ac, ar = idx[:, 1:].T
    roles = (assign.common_receiver, assign.refinement_receiver)
    t = np.where(xor[tup], TChoice.T_EQUALS_UC_XOR_UR.value, TChoice.T_EQUALS_UC.value)
    # parameter -> (its value at the zero-rate corner, its search column)
    columns = {
        "assign": (roles, np.tile(roles, (tup.size, 1))),
        "t": ("", t),
        "gamma_c": (np.nan, gamma_c[tup]),
        "gamma_r": (np.nan, gamma_r[tup]),
        "q_c": (0.0, qs[qc]),
        "alpha_c": (0.0, alphas[ac]),
        "q_r": (0.0, q_r),
        "alpha_r": (0.0, alphas[ar]),
    }
    params = {k: np.concatenate(([corner], column)) for k, (corner, column) in columns.items()}
    return np.concatenate(([problem.sideinfo_crossovers], d.T)), params


def binary_lds_region(problem: BinaryProblem, resolution: int = 41) -> TradeoffCurve:
    """Tradeoff curve of the layered scheme (envelope applied).

    Both role assignments and both auxiliary-variable choices are swept and
    merged; a parameter tuple is kept when its source rate triple is
    componentwise at most its channel rate triple.  Columns: ``_binary_lds_vertices``.
    """
    assigns = (RoleAssignment(1, 2), RoleAssignment(2, 1))
    parts = [_binary_lds_vertices(problem, a, resolution) for a in assigns]
    D = np.concatenate([D for D, _ in parts])
    keep = lower_envelope_indices(D[:, 0], D[:, 1])
    params = {k: np.concatenate([p[k] for _, p in parts])[keep] for k in parts[0][1]}
    return TradeoffCurve(D[keep], "lds", params)


def binary_lds_cds_pinned_points(problem: BinaryProblem, resolution: int = 41):
    """Layered sweep restricted to the single-description sub-grid.

    Pins q_c = q_r, alpha_c = alpha_r, gamma_r = 0 with T = U_c under the
    identity role assignment, and emits every feasible cell (no inner
    minimization), for comparison against the single-description sweep.
    Returns flat arrays (d1, d2, q, alpha).
    """
    qs, alphas = _grids(resolution)
    beta_1, beta_2 = problem.sideinfo_crossovers
    ch = BinaryChannelParams(0.5, 0.0, TChoice.T_EQUALS_UC)
    rates = binary_lds_channel_rates(problem.crossovers[0], problem.crossovers[1], ch,
                                     problem.kappa)
    r_1 = wz_rate_kernel(alphas, beta_1)
    r_2 = wz_rate_kernel(alphas, beta_2)
    src_cc = np.outer(qs, r_1)
    src_cr = np.outer(qs, r_2)
    src_rr = src_cr - src_cr  # refinement layer coincides with the common layer
    feasible = (
        (src_cc <= rates.R_cc + FEAS_TOL)
        & (src_cr <= rates.R_cr + FEAS_TOL)
        & (src_rr <= rates.R_rr + FEAS_TOL)
    )
    d1 = layer_distortion(qs[:, None], alphas[None, :], beta_1)
    d2 = layer_distortion(qs[:, None], alphas[None, :], beta_2)
    qi, ai = np.nonzero(feasible)
    return d1[qi, ai], d2[qi, ai], qs[qi], alphas[ai]


def separate_coding_labels(problem: BinaryProblem) -> tuple:
    """0-based (bad, good) receiver indices: the bad receiver has the larger
    channel crossover; equal crossovers label the receiver with smaller
    side-information crossover as good."""
    return bad_good_labels(problem.crossovers, problem.sideinfo_crossovers)


def _separate_best_theta(cap_b, cap_tot, need):
    """Theta index with the largest cumulative cap among those whose bad cap
    admits each bad-description rate in need (-1 when none admits it).

    The thetas are stably sorted by admitting threshold cap_b + FEAS_TOL,
    largest first, so the thetas admitting a rate are a prefix of that order
    whose length a searchsorted finds; a prefix argmax of cap_tot (first
    attaining position) then names the best of them.
    """
    thr = cap_b + FEAS_TOL
    order = np.argsort(-thr, kind="stable")
    cap = cap_tot[order]
    record = np.empty(cap.size, dtype=bool)
    record[0] = True
    record[1:] = cap[1:] > np.maximum.accumulate(cap)[:-1]
    best = order[np.maximum.accumulate(np.where(record, np.arange(cap.size), 0))]
    count = np.searchsorted(-thr[order], -need, side="right")
    return np.where(count > 0, best[count - 1], -1)


def binary_separate_region(problem: BinaryProblem, resolution: int = 41) -> TradeoffCurve:
    """Achievable tradeoff of separate source and channel coding.

    Sweeps the bad receiver's description (q_b, alpha_b) and the good
    receiver's alpha_g; theta and q_g follow from them.  The bad receiver's
    description rate must fit its channel rate kappa * (1 - H2(theta * p_b));
    the good receiver's cumulative source rate must fit the cumulative
    channel rate kappa * (1 - H2(theta * p_b)) + kappa * (H2(theta * p_g) -
    H2(p_g)), with the cumulative source rate picked by the side-information
    order.  Either degradation order of the two descriptions is allowed.
    The columns are theta, q_b, alpha_b, q_g and alpha_g.
    """
    b, g = separate_coding_labels(problem)
    p_b, p_g = problem.crossovers[b], problem.crossovers[g]
    beta_b, beta_g = problem.sideinfo_crossovers[b], problem.sideinfo_crossovers[g]
    qs, alphas = _grids(resolution)
    res = qs.size
    thetas = np.linspace(0.0, 0.5, resolution)
    # T = U_c channel rates with the bad receiver as c: cap_b = R_cc, cap_tot = R_cc + R_rr
    rates, _ = _channel_rate_table(p_b, p_g, problem.kappa, 0.5, thetas, TChoice.T_EQUALS_UC)
    cap_b = rates[:, 0]
    cap_tot = cap_b + rates[:, 2]
    r_bb = wz_rate_kernel(alphas, beta_b)  # r(alpha, beta_b) on the alpha grid
    r_bg = wz_rate_kernel(alphas, beta_g)
    need = np.outer(qs, r_bb).ravel()  # bad-description rate per (q_b, alpha_b)
    theta = _separate_best_theta(cap_b, cap_tot, need)
    cell = np.flatnonzero(theta >= 0)  # q_b = 0 fits every bad cap, so never empty
    theta = theta[cell]
    qb_i, ab_i = np.divmod(cell, res)
    gain = beta_g - np.minimum(alphas, beta_g)  # d_g = beta_g - q_g * gain
    # the cumulative cap T and the bad-description rates S at the bad and E at
    # the good receiver
    q_b = qs[qb_i]
    T = cap_tot[theta]
    S = need[cell]
    if beta_g <= beta_b:
        # the good receiver has the better side information: its cumulative
        # rate S + (q_g r_bg - E)^+ fits T when q_g r_bg <= T - S + E
        E = q_b * r_bg[ab_i]
        budgets = [(r_bg, T - S + E)]
    else:
        # q_g r_bg + (S - q_g r_bb)^+ fits T when q_g r_bg <= T and
        # q_g (r_bg - r_bb) <= T - S (r_bg >= r_bb, as r grows with beta)
        budgets = [(r_bg, T), (r_bg - r_bb, T - S)]
    ag_i, q_g = _last_layer(budgets, q_b, ab_i, False, gain)
    d_b = layer_distortion(q_b, alphas[ab_i], beta_b)
    d_g = layer_distortion(q_g, alphas[ag_i], beta_g)
    D = np.empty((cell.size, 2))
    D[:, b], D[:, g] = d_b, d_g
    require_within_bounds(problem, D.T)
    keep = lower_envelope_indices(D[:, 0], D[:, 1])
    params = dict(theta=thetas[theta], q_b=q_b, alpha_b=alphas[ab_i], q_g=q_g, alpha_g=alphas[ag_i])
    return TradeoffCurve(D[keep], "separate", {k: v[keep] for k, v in params.items()})


# compare's binary schemes, in the order of its usage error's list:
# name -> (problem, resolution, extend_flat) -> TradeoffCurve
SCHEMES = {
    "converse": lambda problem, *_: TradeoffCurve(binary_trivial_converse(problem), "converse"),
    "uncoded": lambda problem, *_: TradeoffCurve(binary_uncoded(problem).D, "uncoded"),
    "cds": lambda problem, resolution, _: binary_cds_region(problem, resolution),
    "lds": lambda problem, resolution, _: binary_lds_region(problem, resolution),
    "separate": lambda problem, resolution, _: binary_separate_region(problem, resolution),
}
