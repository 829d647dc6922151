"""Binary Hamming evaluators.

Test channels everywhere are erasure-plus-flip: a description is produced
with probability q and, when produced, equals the source flipped with
probability alpha; the reconstruction distortion against side information of
crossover beta is then q * min(alpha, beta) + (1 - q) * beta.

The layered scheme constrains the common-layer description to be a degraded
version of the refinement description (q_c <= q_r and alpha_c >= alpha_r);
separate coding allows either degradation order of its two descriptions.
Tradeoff regions are traced by exhaustive grid sweeps.  For fixed values of
the remaining parameters the layered search selects the best grid value of
its last q axis directly (the distortion is monotone in q and the rate
constraint is linear in q, so this is exactly the grid minimum).

The layered region is one table-driven pass per role assignment:

1. table -- the clamped channel rate triple (R_cc, R_cr, R_rr) of every
   channel tuple (t, gamma_c, gamma_r) on the gamma grid, from one array call
   of each kernel per auxiliary choice (``binary_lds_channel_rates`` is a
   one-cell call of the same kernel);
2. best tuple -- flagged tuples (a materially negative rate) are dropped.
   The layer distortion is non-increasing in q and the largest grid q_r
   within the refinement budget is non-decreasing in R_rr, so a
   (q_c, alpha_c) cell needs only the admitting tuple (R_cc and R_cr fit)
   with the largest R_rr: the first admitting tuple in a stable
   R_rr-descending order, found by an argmax over bounded blocks of
   (cell, tuple) pairs.  Dominated tuples are never chosen, so none are pruned;
3. refinement -- for every cell with an admitting tuple each alpha_r takes the
   largest grid q_r within the budget and the best alpha_r is kept, in one
   pass over the (q_c, alpha_c, alpha_r) cells; every candidate point is
   bounds-checked and reduced to its envelope vertices;
4. envelope -- the lower convex envelope of the kept vertices of both role
   assignments (plus the zero-rate corners) is the region.

The separate-coding region is one theta-batched pass.  Theta enters only
through the bad-receiver cap kappa * (1 - H2(theta * p_b)) and the cumulative
cap; the cumulative source rate and the degradation-order mask of a
(q_b, alpha_b, alpha_g, q_g) cell do not depend on it.

1. caps -- both caps of every grid theta, from one array call of each kernel;
2. rank -- each cell is evaluated once, in slabs of q_b rows of at most
   _CHUNK_CELLS cells (one row when a row alone is larger), and ranked by the
   first sorted cumulative cap that admits it; cells out of degradation order
   get no rank;
3. bucket minimum -- the minimum d_g per (q_b, alpha_b, rank) followed by a
   prefix minimum over rank is the best d_g of every (theta, q_b, alpha_b);
   the bad-receiver cap is then a mask.  These are the comparisons of a
   per-theta loop on the same floats, so the result is exact;
4. envelope -- every per-theta candidate set is bounds-checked and reduced to
   its envelope vertices, the region is the envelope of those, and
   (q_g, alpha_g) is recovered only for the region's vertices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    BinaryProblem,
    DistortionPoint,
    RateTriple,
    RoleAssignment,
    TradeoffCurve,
    RATE_CLAMP_EPS,
    bad_good_labels,
    parse_kappa,
    require_two_receivers,
    require_within_bounds,
    validate_problem,
)
from .infotheory import binary_convolution, binary_entropy, wz_rate_kernel
from .optimize import lower_envelope_indices

FEAS_TOL = 1e-12
# index slack when flooring a continuous q bound onto the grid, in grid units
_IDX_EPS = 1e-9
# (cell, tuple) pairs per layered best-tuple block and cells per separate-sweep
# slab: bounds the sweeps' working arrays to a few hundred kilobytes
_CHUNK_CELLS = 2**14


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


def binary_wz_distortion(beta: float, R: float, grid_resolution: int = 2001) -> float:
    """Point-to-point distortion-rate value with side information.

    Minimizes q * alpha + (1 - q) * beta over gridded alpha in [0, beta] with
    q * r(alpha, beta) <= R; for each alpha the optimal q = min(1, R / r) is
    computed analytically rather than gridded.
    """
    if not 0.0 <= beta <= 0.5:
        raise ValueError(f"beta must lie in [0, 1/2], got {beta}")
    if R < 0:
        raise ValueError(f"rate must be nonnegative, got {R}")
    if grid_resolution < 2:
        raise ValueError(f"grid_resolution must be >= 2, got {grid_resolution}")
    if beta == 0.0:
        return 0.0
    alphas = np.linspace(0.0, beta, grid_resolution)
    rates = wz_rate_kernel(alphas, beta)
    q = np.where(rates > 0.0, np.minimum(1.0, R / np.where(rates > 0.0, rates, 1.0)), 1.0)
    d = q * alphas + (1.0 - q) * beta
    return float(d.min())


def binary_trivial_converse(problem: BinaryProblem, grid_resolution: int = 2001) -> tuple:
    """Per-receiver lower bounds from the point-to-point distortion-rate value
    at rate kappa * (1 - H2(p_k))."""
    validate_problem(problem)
    kappa = float(problem.kappa)
    return tuple(
        binary_wz_distortion(b, kappa * binary_capacity(p), grid_resolution)
        for p, b in zip(problem.crossovers, problem.sideinfo_crossovers)
    )


def binary_uncoded(problem: BinaryProblem) -> DistortionPoint:
    """Uncoded transmission: D_k = min(p_k, beta_k)."""
    validate_problem(problem)
    if problem.kappa != 1:
        raise ValueError("uncoded requires bandwidth match (kappa = 1), got "
                         f"kappa = {problem.kappa}")
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
    validate_problem(problem)
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
    """Tradeoff curve of the single-description scheme (envelope applied)."""
    d1, d2, q, alpha = binary_cds_points(problem, resolution)
    keep = lower_envelope_indices(d1, d2)
    points = tuple(
        DistortionPoint(
            D=(d1[i], d2[i]), scheme="cds", params={"q": float(q[i]), "alpha": float(alpha[i])}
        )
        for i in keep
    )
    return TradeoffCurve(points=points, envelope_applied=True)


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


def _lds_refinement_search(problem, assign, resolution, rates):
    """Envelope vertices of the refinement search over channel triples.

    rates holds one unflagged channel triple per row.  The layer distortion is
    non-increasing in q and the largest grid q_r within the refinement budget
    R_rr + q_c r(alpha_c, beta_r) is non-decreasing in R_rr, so of the tuples
    whose R_cc and R_cr admit a (q_c, alpha_c) cell, one with the largest R_rr
    attains the cell's best D_r.  Each cell therefore takes the first admitting
    tuple in a stable R_rr-descending order, found by an argmax over blocks of
    at most _CHUNK_CELLS (cell, tuple) pairs.  Then each alpha_r takes the
    largest grid q_r within the budget (which attains the grid minimum of D_r
    for that alpha_r) and the best alpha_r is kept.  Every candidate is
    bounds-checked and the candidates are reduced to their envelope vertices.
    Returns (D, idx): D is a (2, m) array of receiver-order distortions and
    idx an (m, 5) array of grid indices (tuple row, q_c, alpha_c, q_r, alpha_r).
    """
    qs, alphas = _grids(resolution)
    res = qs.size
    beta_c = problem.sideinfo_crossovers[assign.c]
    beta_r = problem.sideinfo_crossovers[assign.r]
    r_r = wz_rate_kernel(alphas, beta_r)
    src_c = np.outer(qs, wz_rate_kernel(alphas, beta_c)).ravel()  # (q_c, alpha_c)
    src_r = np.outer(qs, r_r).ravel()
    dc_tab = layer_distortion(qs[:, None], alphas[None, :], beta_c)
    dr_tab = layer_distortion(qs[:, None], alphas[None, :], beta_r)
    order = np.argsort(-rates[:, 2], kind="stable")
    cap_c = rates[order, 0] + FEAS_TOL
    cap_r = rates[order, 1] + FEAS_TOL
    first = np.empty(res * res, dtype=np.int64)  # position in order, -1 when none admits
    step = max(1, _CHUNK_CELLS // order.size)
    for start in range(0, res * res, step):
        fits = src_c[start : start + step, None] <= cap_c
        fits &= src_r[start : start + step, None] <= cap_r
        pos = fits.argmax(axis=1)
        first[start : start + step] = np.where(fits[np.arange(pos.size), pos], pos, -1)
    cell = np.flatnonzero(first >= 0)
    t = order[first[cell]]
    qc, ac = np.divmod(cell, res)
    budget = rates[t, 2] + src_r[cell]
    # largest grid q_r within budget, per (cell, alpha_r); in-place steps keep
    # the working set small
    with np.errstate(divide="ignore", invalid="ignore"):
        qmax = budget[:, None] / r_r[None, :]
    qmax[:, r_r <= 0.0] = 1.0
    np.minimum(qmax, 1.0, out=qmax)
    qmax *= res - 1
    qmax += _IDX_EPS
    qr_all = qmax.astype(np.int64)
    del qmax
    dr_cand = dr_tab[qr_all, np.arange(res)]
    dr_cand[(qr_all < qc[:, None]) | (alphas > alphas[ac][:, None] + FEAS_TOL)] = np.inf
    ar = np.argmin(dr_cand, axis=1)
    rows = np.flatnonzero(np.isfinite(dr_cand[np.arange(cell.size), ar]))
    t, qc, ac, ar = t[rows], qc[rows], ac[rows], ar[rows]
    qr = qr_all[rows, ar]
    d = np.empty((2, rows.size))
    d[assign.c] = dc_tab[qc, ac]
    d[assign.r] = dr_tab[qr, ar]
    require_within_bounds(problem, d)
    keep = lower_envelope_indices(d[0], d[1])
    return d[:, keep], np.stack((t, qc, ac, qr, ar), axis=1)[keep]


def _binary_lds_vertices(problem, assign, resolution):
    """Envelope vertices (receiver coordinates) contributed by one role assignment.

    The zero-rate corner comes first, then the vertices of the refinement
    search over the unflagged channel tuples.
    """
    qs, alphas = _grids(resolution)
    roles = (assign.common_receiver, assign.refinement_receiver)
    corner = [None, None]
    corner[assign.c] = problem.sideinfo_crossovers[assign.c]
    corner[assign.r] = problem.sideinfo_crossovers[assign.r]
    vertices = [
        # zero-rate corner: the all-q=0 tuple is feasible for every channel tuple
        DistortionPoint(
            D=tuple(corner),
            scheme="lds",
            params={"assign": roles, "q_c": 0.0, "alpha_c": 0.0, "q_r": 0.0, "alpha_r": 0.0},
        )
    ]
    xor, gamma_c, gamma_r, rates, clamped = _lds_channel_table(
        problem.crossovers[assign.c], problem.crossovers[assign.r], problem.kappa, resolution
    )
    # a materially negative common-layer bound admits no nonnegative source
    # rate, so a flagged tuple is infeasible
    tuples = np.nonzero(~clamped)[0]
    D, idx = _lds_refinement_search(problem, assign, resolution, rates[tuples])
    for (x, y), (row, qc, ac, qr, ar) in zip(D.T.tolist(), idx.tolist()):
        tup = tuples[row]
        params = {
            "assign": roles,
            "t": (TChoice.T_EQUALS_UC_XOR_UR if xor[tup] else TChoice.T_EQUALS_UC).value,
            "gamma_c": float(gamma_c[tup]),
            "gamma_r": float(gamma_r[tup]),
            "q_c": float(qs[qc]),
            "alpha_c": float(alphas[ac]),
            "q_r": float(qs[qr]),
            "alpha_r": float(alphas[ar]),
        }
        vertices.append(DistortionPoint(D=(x, y), scheme="lds", params=params))
    return vertices


def binary_lds_region(problem: BinaryProblem, resolution: int = 41) -> TradeoffCurve:
    """Tradeoff curve of the layered scheme (envelope applied).

    Both role assignments and both auxiliary-variable choices are swept and
    merged; a parameter tuple is kept when its source rate triple is
    componentwise at most its channel rate triple.
    """
    validate_problem(problem)
    require_two_receivers(problem)
    vertices = []
    for assign in (RoleAssignment(1, 2), RoleAssignment(2, 1)):
        vertices.extend(_binary_lds_vertices(problem, assign, resolution))
    x = np.array([v.D[0] for v in vertices])
    y = np.array([v.D[1] for v in vertices])
    keep = lower_envelope_indices(x, y)
    return TradeoffCurve(points=tuple(vertices[i] for i in keep), envelope_applied=True)


def binary_lds_cds_pinned_points(problem: BinaryProblem, resolution: int = 41):
    """Layered sweep restricted to the single-description sub-grid.

    Pins q_c = q_r, alpha_c = alpha_r, gamma_r = 0 with T = U_c under the
    identity role assignment, and emits every feasible cell (no inner
    minimization), for comparison against the single-description sweep.
    Returns flat arrays (d1, d2, q, alpha).
    """
    validate_problem(problem)
    require_two_receivers(problem)
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
    validate_problem(problem)
    require_two_receivers(problem)
    return bad_good_labels(problem.crossovers, problem.sideinfo_crossovers)


def _separate_caps(p_b, p_g, kappa, thetas):
    """Bad-receiver and cumulative channel rates of separate coding per theta.

    cap_b = kappa * (1 - H2(theta * p_b)) and
    cap_tot = cap_b + kappa * (H2(theta * p_g) - H2(p_g)), one array call of
    each kernel over the theta grid.
    """
    cap_b = kappa * (1.0 - binary_entropy(binary_convolution(thetas, p_b)))
    cap_tot = cap_b + kappa * (
        binary_entropy(binary_convolution(thetas, p_g)) - binary_entropy(p_g)
    )
    return cap_b, cap_tot


def _separate_cells(qs, alphas, r_bb, r_bg, good_first, q_b):
    """Cumulative source rate and degradation-order mask of separate coding.

    q_b is a slab of bad-description q values.  Both returned arrays have
    shape (len(q_b), alpha_b, alpha_g * q_g), q_g fastest.  The cumulative
    source rate is q_b r(alpha_b, beta_b) + (q_g r(alpha_g, beta_g) -
    q_b r(alpha_b, beta_g))^+ when the good receiver has the better side
    information and q_g r(alpha_g, beta_g) + (q_b r(alpha_b, beta_b) -
    q_g r(alpha_g, beta_b))^+ otherwise.  The mask admits either degradation
    order of the two descriptions.
    """
    res = qs.size
    q_g = np.tile(qs, res)
    a_g = np.repeat(alphas, res)
    q_b = q_b[:, None, None]
    a_b = alphas[:, None]
    S = q_b * r_bb[:, None]
    if good_first:
        lhs = q_g * np.repeat(r_bg, res) - q_b * r_bg[:, None]
        np.maximum(0.0, lhs, out=lhs)
        lhs += S
    else:
        lhs = S - q_g * np.repeat(r_bb, res)
        np.maximum(0.0, lhs, out=lhs)
        lhs += q_g * np.repeat(r_bg, res)
    order = ((q_b <= q_g + FEAS_TOL) & (a_b >= a_g - FEAS_TOL)) | (
        (q_g <= q_b + FEAS_TOL) & (a_g >= a_b - FEAS_TOL)
    )
    return lhs, order


def _separate_best_dg(qs, alphas, r_bb, r_bg, good_first, d_g_tab, thresholds):
    """Best good-receiver distortion per (threshold, q_b, alpha_b).

    Entry [k, i, j] is the minimum of d_g over the (alpha_g, q_g) cells in
    degradation order with (qs[i], alphas[j]) whose cumulative source rate is
    at most thresholds[k] (inf when there is none).  Each cell is compared
    with the sorted thresholds once (its rank is the first threshold that
    admits it), the bucket minimum of d_g is taken per (q_b, alpha_b, rank),
    and a prefix minimum over rank gives every threshold at once.  The q_b
    axis is walked in slabs of at most _CHUNK_CELLS cells (one q_b row when a
    row alone is larger).
    """
    res = qs.size
    n = len(thresholds)
    cells = res * res
    ranked = np.argsort(thresholds, kind="stable")
    sorted_thr = thresholds[ranked]
    d_g = d_g_tab.T.ravel()  # (alpha_g, q_g), q_g fastest
    best = np.full(res * res * n, np.inf)  # (q_b, alpha_b, rank)
    step = max(1, _CHUNK_CELLS // res**3)
    for start in range(0, res, step):
        lhs, admit = _separate_cells(qs, alphas, r_bb, r_bg, good_first, qs[start : start + step])
        admit &= lhs <= sorted_thr[-1]
        idx = np.flatnonzero(admit)
        rank = np.searchsorted(sorted_thr, lhs.ravel()[idx])
        del lhs, admit  # freed before the next slab is built, to bound peak memory
        row, cell = np.divmod(idx, cells)
        np.minimum.at(best, (row + start * res) * n + rank, d_g[cell])
    best = np.minimum.accumulate(best.reshape(res, res, n), axis=2)
    return np.moveaxis(best, 2, 0)[np.argsort(ranked)]


def _separate_good_params(qs, alphas, r_bb, r_bg, good_first, d_g_tab, threshold, qb_i, ab_i):
    """(q_g, alpha_g) grid indices of the first (alpha_g, q_g) cell attaining the
    best good-receiver distortion of (qs[qb_i], alphas[ab_i]) at a threshold."""
    lhs, order = _separate_cells(qs, alphas, r_bb, r_bg, good_first, qs[qb_i : qb_i + 1])
    valid = order[0, ab_i] & (lhs[0, ab_i] <= threshold)
    ag_i, qg_i = divmod(int(np.argmin(np.where(valid, d_g_tab.T.ravel(), np.inf))), qs.size)
    return qg_i, ag_i


def binary_separate_region(problem: BinaryProblem, resolution: int = 41) -> TradeoffCurve:
    """Achievable tradeoff of separate source and channel coding.

    Sweeps the channel power-split parameter theta and the two description
    test channels.  The bad receiver's description rate must fit its channel
    rate kappa * (1 - H2(theta * p_b)); the good receiver's cumulative source
    rate must fit the cumulative channel rate
    kappa * (1 - H2(theta * p_b)) + kappa * (H2(theta * p_g) - H2(p_g)),
    with the cumulative source rate picked by the side-information order.
    Either degradation order of the two descriptions is allowed.
    """
    validate_problem(problem)
    require_two_receivers(problem)
    b, g = separate_coding_labels(problem)
    p_b, p_g = problem.crossovers[b], problem.crossovers[g]
    beta_b, beta_g = problem.sideinfo_crossovers[b], problem.sideinfo_crossovers[g]
    qs, alphas = _grids(resolution)
    thetas = np.linspace(0.0, 0.5, resolution)
    cap_b, cap_tot = _separate_caps(p_b, p_g, float(problem.kappa), thetas)
    good_first = beta_g <= beta_b  # side information order: the good receiver's is better
    r_bb = wz_rate_kernel(alphas, beta_b)  # r(alpha, beta_b) on the alpha grid
    r_bg = wz_rate_kernel(alphas, beta_g)
    d_b_tab = layer_distortion(qs[:, None], alphas[None, :], beta_b)
    d_g_tab = layer_distortion(qs[:, None], alphas[None, :], beta_g)
    grid = (qs, alphas, r_bb, r_bg, good_first, d_g_tab)
    best = _separate_best_dg(*grid, cap_tot + FEAS_TOL)  # (theta, q_b, alpha_b)
    ok_b = np.outer(qs, r_bb) <= cap_b[:, None, None] + FEAS_TOL
    # per-theta envelope vertices in receiver coordinates (D1 on the x axis)
    xs, ys, origin = [], [], []
    for t in range(resolution):
        qb_i, ab_i = np.nonzero(ok_b[t] & np.isfinite(best[t]))
        if qb_i.size == 0:
            continue
        d_b, d_g = d_b_tab[qb_i, ab_i], best[t, qb_i, ab_i]
        x, y = (d_b, d_g) if b == 0 else (d_g, d_b)
        require_within_bounds(problem, (x, y))
        keep = lower_envelope_indices(x, y)
        xs.append(x[keep])
        ys.append(y[keep])
        origin.extend((t, qb_i[i], ab_i[i]) for i in keep)
    if not origin:
        raise ValueError("separate-coding sweep produced no feasible points")
    x, y = np.concatenate(xs), np.concatenate(ys)
    points = []
    for i in lower_envelope_indices(x, y):
        t, qb_i, ab_i = origin[i]
        qg_i, ag_i = _separate_good_params(*grid, cap_tot[t] + FEAS_TOL, qb_i, ab_i)
        params = {
            "theta": float(thetas[t]),
            "q_b": float(qs[qb_i]),
            "alpha_b": float(alphas[ab_i]),
            "q_g": float(qs[qg_i]),
            "alpha_g": float(alphas[ag_i]),
        }
        points.append(DistortionPoint(D=(x[i], y[i]), scheme="separate", params=params))
    return TradeoffCurve(points=tuple(points), envelope_applied=True)
