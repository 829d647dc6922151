"""Quadratic Gaussian evaluators.

Notation follows the unit-variance convention of the problem types: P is the
channel input power, W_k the channel noise variance at receiver k, and N_k the
MMSE of estimating the source from side information k.  All rates are in bits;
channel rates are per channel use unless stated otherwise.

The layered scheme splits the power as nu*P for the common layer and
(1-nu)*P for the refinement layer, and precodes the common layer against the
refinement codeword with combining parameter gamma.  Negative common-layer
rate expressions are clamped to 0 and flagged; sweeps skip flagged points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK_CELLS,
    DistortionPoint,
    GaussianProblem,
    RateTriple,
    RoleAssignment,
    TradeoffCurve,
    bad_good_labels,
    require_bandwidth_match,
    require_within_bounds,
)
from .optimize import lower_envelope_indices

RANGE_GUARD = 1e-12  # floating-point slack on closed-interval domain checks


def gaussian_capacity(P: float, W: float) -> float:
    """Point-to-point AWGN capacity (1/2) log2(1 + P/W) in bits per channel use."""
    if P < 0:
        raise ValueError(f"power must be nonnegative, got {P}")
    if W <= 0:
        raise ValueError(f"noise variance must be positive, got {W}")
    return 0.5 * math.log2(1.0 + P / W)


def gaussian_wz_distortion(N: float, R: float) -> float:
    """Distortion-rate value N * 2^(-2R) for side information of quality N."""
    if not 0 < N <= 1:
        raise ValueError(f"N must lie in (0, 1], got {N}")
    if R < 0:
        raise ValueError(f"rate must be nonnegative, got {R}")
    return N * 2.0 ** (-2.0 * R)


def gaussian_trivial_converse(problem: GaussianProblem) -> tuple:
    """Per-receiver lower bounds D_k >= N_k / (1 + P/W_k)^kappa."""
    kappa = float(problem.kappa)
    return tuple(
        n / (1.0 + problem.power / w) ** kappa
        for w, n in zip(problem.noise_vars, problem.sideinfo_vars)
    )


def gaussian_uncoded(problem: GaussianProblem) -> DistortionPoint:
    """Distortion of transmitting the scaled source directly: N_k W_k / (W_k + N_k P)."""
    require_bandwidth_match(problem, "uncoded")
    P = problem.power
    D = tuple(
        n * w / (w + n * P) for w, n in zip(problem.noise_vars, problem.sideinfo_vars)
    )
    point = DistortionPoint(D=D, scheme="uncoded", params={})
    require_within_bounds(problem, point.D)
    return point


def _quality(P: float, W: float, N: float, kappa: float) -> float:
    """Combined channel and side information quality ((1 + P/W)^kappa - 1) / N."""
    return ((1.0 + P / W) ** kappa - 1.0) / N


def gaussian_cds(problem: GaussianProblem) -> DistortionPoint:
    """Single-description point: 1/D_k = 1/N_k + min_k' quality_k'."""
    P = problem.power
    kappa = float(problem.kappa)
    best = min(_quality(P, w, n, kappa)
               for w, n in zip(problem.noise_vars, problem.sideinfo_vars))
    D = tuple(1.0 / (1.0 / n + best) for n in problem.sideinfo_vars)
    point = DistortionPoint(D=D, scheme="cds", params={})
    require_within_bounds(problem, point.D)
    return point


def choose_refinement_receiver(problem: GaussianProblem) -> RoleAssignment:
    """Send the refinement layer to the receiver with better combined quality.

    The assignment satisfies quality_c <= quality_r; for kappa = 1 this is the
    product rule W_c N_c >= W_r N_r.  Ties assign receiver 1 as c.
    """
    P = problem.power
    kappa = float(problem.kappa)
    q1 = _quality(P, problem.noise_vars[0], problem.sideinfo_vars[0], kappa)
    q2 = _quality(P, problem.noise_vars[1], problem.sideinfo_vars[1], kappa)
    if q1 <= q2:
        return RoleAssignment(common_receiver=1, refinement_receiver=2)
    return RoleAssignment(common_receiver=2, refinement_receiver=1)


def _check_assignment(problem: GaussianProblem, assign: RoleAssignment) -> None:
    P = problem.power
    kappa = float(problem.kappa)
    qc = _quality(P, problem.noise_vars[assign.c], problem.sideinfo_vars[assign.c], kappa)
    qr = _quality(P, problem.noise_vars[assign.r], problem.sideinfo_vars[assign.r], kappa)
    if qc > qr + RANGE_GUARD:
        raise ValueError(
            "role assignment violates the refinement-receiver rule: "
            f"quality_c = {qc} > quality_r = {qr}"
        )


@dataclass(frozen=True)
class GaussianLdsParams:
    """Power fraction nu for the common layer and precoding parameter gamma."""

    nu: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"nu must lie in [0, 1], got {self.nu}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.nu == 0.0 and self.gamma != 0.0:
            raise ValueError(
                f"nu = 0 requires gamma = 0 (limit convention), got gamma = {self.gamma}"
            )


def _common_layer_rate(P, W, nubar_p, dpc, gap):
    """Common-layer rate 0.5 log2((1 + P/W) / denom) and its denominator
    denom = 1 + nubar P (dpc + gap), elementwise over broadcast arrays, with
    dpc = gamma^2/(nu P) and gap = (1 - gamma)^2 / W."""
    denom = 1.0 + nubar_p * (dpc + gap)
    return 0.5 * np.log2((1.0 + P / W) / denom), denom


def gaussian_lds_channel_rates(
    problem: GaussianProblem, assign: RoleAssignment, params: GaussianLdsParams
) -> RateTriple:
    """Effective channel rates of the layered scheme, per channel use.

    R_cc = (1/2) log2 [(1 + P/W_c) / (1 + nubar P (gamma^2/(nu P) + (1-gamma)^2/W_c))],
    R_cr the same with W_r, and R_rr = (1/2) log2 of that denominator with W_r.
    Negative values are clamped to 0 with the clamped flag set.  This is a
    one-cell call of the rate kernel of the (nu, gamma) sweep.
    """
    P = problem.power
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    nu, gamma = params.nu, params.gamma
    # gamma is pinned to 0 at nu = 0, where the gamma^2/(nu P) term vanishes in the limit
    dpc = np.array([gamma * gamma / (nu * P) if nu > 0.0 else 0.0])
    nubar_p = np.array([(1.0 - nu) * P])
    r_cc, _ = _common_layer_rate(P, W_c, nubar_p, dpc, (1.0 - gamma) ** 2 / W_c)
    r_cr, denom_r = _common_layer_rate(P, W_r, nubar_p, dpc, (1.0 - gamma) ** 2 / W_r)
    r_rr = 0.5 * np.log2(denom_r)
    return RateTriple(float(r_cc[0]), float(r_cr[0]), float(r_rr[0])).clamp()


def _lds_distortions(problem, assign, r_cc, r_cr, r_rr):
    """(D_c, D_r) arrays of nonnegative rate-triple arrays (see ``gaussian_lds_distortions``)."""
    kappa = float(problem.kappa)
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    phi = np.minimum(
        (2.0 ** (2.0 * kappa * r_cc) - 1.0) / N_c,
        (2.0 ** (2.0 * kappa * r_cr) - 1.0) / N_r,
    )
    d_c = N_c / (1.0 + N_c * phi)
    d_r = N_r / (1.0 + N_r * phi) * 2.0 ** (-2.0 * kappa * r_rr)
    return d_c, d_r


def gaussian_lds_distortions(
    problem: GaussianProblem, assign: RoleAssignment, rates: RateTriple
) -> DistortionPoint:
    """Best distortion pair for a given channel-rate triple.

    phi = min{(2^(2 kappa R_cc) - 1)/N_c, (2^(2 kappa R_cr) - 1)/N_r},
    D_c = N_c / (1 + N_c phi), D_r = N_r / (1 + N_r phi) * 2^(-2 kappa R_rr).
    """
    if min(rates.as_tuple()) < 0:
        raise ValueError(f"rates must be nonnegative, got {rates.as_tuple()}")
    d_c, d_r = _lds_distortions(problem, assign, *np.array(rates.as_tuple())[:, None])
    point = DistortionPoint(
        D=(d_c[0], d_r[0]) if assign.c == 0 else (d_r[0], d_c[0]),
        scheme="lds",
        params={
            "assign": (assign.common_receiver, assign.refinement_receiver),
            "rates": rates.as_tuple(),
            "rate_clamped": rates.clamped,
        },
    )
    require_within_bounds(problem, point.D)
    return point


def gaussian_lds_dc_range(problem: GaussianProblem, assign: RoleAssignment) -> tuple:
    """Domain [D_c_min, D_c_max] of the bandwidth-matched layered closed form."""
    require_bandwidth_match(problem, "closed form")
    _check_assignment(problem, assign)
    P = problem.power
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    d_min = N_c * W_c / (P + W_c)
    if N_c < N_r and W_c > W_r:
        d_max = N_c * min(1.0, N_r * (W_c - W_r) / ((P + W_c) * (N_r - N_c)))
    elif N_c >= N_r and W_c >= W_r:
        d_max = N_c
    elif N_c > N_r and W_c < W_r:
        d_max = N_c * (
            W_c / (P + W_c)
            + P * (W_c * N_c - W_r * N_r) / ((P + W_c) * (N_c - N_r) * W_r)
        )
    else:
        # N_c <= N_r with W_c <= W_r is excluded by the refinement-receiver rule
        raise ValueError("parameter ordering excluded by the refinement-receiver rule")
    return d_min, d_max


def _require_in_domain(name: str, values: np.ndarray, inside, domain: str) -> None:
    """Raise ValueError naming the first element of values outside its domain."""
    if not inside.all():
        bad = float(values[~inside].flat[0])
        raise ValueError(f"{name} = {bad} outside {domain}")


def _scalar_or_array(values):
    """A float for a scalar argument, the array otherwise."""
    return float(values) if values.ndim == 0 else values


def gaussian_lds_closed_form(
    problem: GaussianProblem,
    assign: RoleAssignment,
    D_c,
    extend_flat: bool = False,
):
    """Bandwidth-matched layered tradeoff D_r as a function of D_c.

    D_r = N_r N_c^2 / (D_c N_c + N_r (N_c - D_c)) * F where
    F = W_r D_c / ((W_r - W_c) N_c + (P + W_c) D_c) when W_c > W_r and
    F = W_c / (P + W_c) when W_c <= W_r.  With ``extend_flat`` the curve is
    continued at the refinement receiver's point-to-point floor for
    D_c in (D_c_max, N_c].

    D_c is a scalar (a float is returned) or an array, evaluated elementwise
    with the scalar formula's operations, so both give the same bits.  The
    domain is checked once; any element outside it raises ValueError.
    """
    d_min, d_max = gaussian_lds_dc_range(problem, assign)
    P = problem.power
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    D_c = np.asarray(D_c, dtype=float)
    flat = np.zeros(D_c.shape, dtype=bool)
    if extend_flat and d_max < N_c:
        flat = (d_max - RANGE_GUARD < D_c) & (D_c <= N_c + RANGE_GUARD)
    _require_in_domain(
        "D_c",
        D_c,
        flat | ((d_min - RANGE_GUARD <= D_c) & (D_c <= d_max + RANGE_GUARD)),
        f"the closed-form domain [{d_min}, {d_max}]",
    )
    lead = N_r * N_c * N_c / (D_c * N_c + N_r * (N_c - D_c))
    if W_c > W_r:
        factor = W_r * D_c / ((W_r - W_c) * N_c + (P + W_c) * D_c)
    else:
        factor = W_c / (P + W_c)
    D_r = lead * factor
    if flat.any():
        D_r = np.where(flat, gaussian_wz_distortion(N_r, gaussian_capacity(P, W_r)), D_r)
    return _scalar_or_array(D_r)


def _lds_curve_targets(problem, assign, D_c):
    """(phi, A, B, M) arrays of ``gaussian_lds_curve`` at a D_c array."""
    P = problem.power
    kappa = float(problem.kappa)
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    phi = 1.0 / D_c - 1.0 / N_c
    A = (1.0 + P / W_c) / (1.0 + N_c * phi) ** (1.0 / kappa)
    B = (1.0 + P / W_r) / (1.0 + N_r * phi) ** (1.0 / kappa)
    M = A if W_c <= W_r else 1.0 + (A - 1.0) * W_c / W_r
    return phi, A, B, M


def gaussian_lds_curve(problem: GaussianProblem, assign: RoleAssignment, D_c):
    """Exact layered tradeoff D_r as a function of D_c, for any kappa.

    With phi = 1/D_c - 1/N_c the common-layer rate targets become
    denom_c <= A and denom_r <= B, where
    A = (1 + P/W_c) / (1 + N_c phi)^(1/kappa) and
    B = (1 + P/W_r) / (1 + N_r phi)^(1/kappa),
    and D_r = N_r / (1 + N_r phi) * min(B, M)^(-kappa) with M the largest
    denom_r that any (nu, gamma) allows under denom_c <= A:
    M = A when W_c <= W_r (witness gamma = 1, nu = 1 / min(A, B)), otherwise
    M = 1 + (A - 1) W_c / W_r (witness gamma = 0,
    nu = 1 - (min(M, B) - 1) W_r / P; A - 1 <= P/W_c on the domain, so M
    never exceeds the nu = 0 value 1 + P/W_r).  Where B <= M the curve is the
    refinement receiver's floor N_r / (1 + P/W_r)^kappa, written as one
    constant.  At kappa = 1 this equals ``gaussian_lds_closed_form``.

    D_c is a scalar (a float is returned) or an array, on the domain
    [D_c of ``gaussian_cds``, N_c]; any element outside it raises ValueError.
    """
    P = problem.power
    kappa = float(problem.kappa)
    W_r = problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    lo = gaussian_cds(problem).D[assign.c]
    D_c = np.asarray(D_c, dtype=float)
    _require_in_domain(
        "D_c", D_c, (lo - RANGE_GUARD <= D_c) & (D_c <= N_c + RANGE_GUARD), f"[{lo}, {N_c}]"
    )
    phi, _, B, M = _lds_curve_targets(problem, assign, D_c)
    floor = N_r / (1.0 + P / W_r) ** kappa
    D_r = np.where(B <= M, floor, N_r / (1.0 + N_r * phi) * M ** -kappa)
    return _scalar_or_array(D_r)


def _lds_curve_witness(problem, assign, D_c):
    """(nu, gamma) arrays that attain ``gaussian_lds_curve`` at a D_c array: the
    witnesses its docstring gives, with nu clipped to [0, 1] against rounding."""
    _, A, B, M = _lds_curve_targets(problem, assign, D_c)
    if problem.noise_vars[assign.c] <= problem.noise_vars[assign.r]:
        return np.minimum(1.0, 1.0 / np.minimum(A, B)), np.ones_like(A)
    nu = 1.0 - (np.minimum(M, B) - 1.0) * problem.noise_vars[assign.r] / problem.power
    return np.clip(nu, 0.0, 1.0), np.zeros_like(A)


def gaussian_lds_dc_of_dr(
    problem: GaussianProblem, assign: RoleAssignment, D_r: float
) -> float:
    """Inverse of the W_c < W_r branch of the closed form: best D_c at a given D_r.

    Used when the refinement receiver has the worse channel, so the separate
    coding comparison is naturally parameterized by D_r.  Valid for
    D_r in [N_r W_r / (P + W_r), N_c N_r W_c / (N_c W_c + P N_r)].
    """
    require_bandwidth_match(problem, "closed form")
    _check_assignment(problem, assign)
    P = problem.power
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    if not W_c < W_r:
        raise ValueError("inverse form applies to the W_c < W_r branch only")
    lo = N_r * W_r / (P + W_r)
    hi = N_c * N_r * W_c / (N_c * W_c + P * N_r)
    if not lo - RANGE_GUARD <= D_r <= hi + RANGE_GUARD:
        raise ValueError(f"D_r = {D_r} outside [{lo}, {hi}]")
    return N_c * N_r / (N_c - N_r) * (N_c * W_c / ((P + W_c) * D_r) - 1.0)


def separate_coding_labels(problem: GaussianProblem) -> tuple:
    """0-based (bad, good) receiver indices for separate coding.

    The bad receiver is the one with the larger channel noise variance; equal
    noise variances fall back to labeling the receiver with smaller N as good.
    """
    return bad_good_labels(problem.noise_vars, problem.sideinfo_vars)


def gaussian_separate_closed_form(problem: GaussianProblem, D_b):
    """Bandwidth-matched separate source/channel coding tradeoff D_g(D_b).

    The branch is selected by the side information degradation order: the
    single-expression form when the good channel also has the better side
    information (N_g <= N_b), otherwise the max of the two constraints.
    D_b is a scalar or an array, as for ``gaussian_lds_closed_form``.
    """
    require_bandwidth_match(problem, "closed form")
    b, g = separate_coding_labels(problem)
    P = problem.power
    W_b, W_g = problem.noise_vars[b], problem.noise_vars[g]
    N_b, N_g = problem.sideinfo_vars[b], problem.sideinfo_vars[g]
    lo = gaussian_wz_distortion(N_b, gaussian_capacity(P, W_b))
    D_b = np.asarray(D_b, dtype=float)
    _require_in_domain(
        "D_b", D_b, (lo - RANGE_GUARD <= D_b) & (D_b <= N_b + RANGE_GUARD), f"[{lo}, {N_b}]"
    )
    denom_ch = (W_g - W_b) * N_b + (P + W_b) * D_b
    if N_g <= N_b:
        return _scalar_or_array(
            (N_g * N_b * N_b * W_g * D_b) / ((D_b * N_b + N_g * (N_b - D_b)) * denom_ch)
        )
    alt = N_b * (N_g * W_g - (P + W_b) * D_b - N_b * (W_g - W_b)) / (N_g - N_b)
    return _scalar_or_array(N_g / denom_ch * np.maximum(W_g * D_b, alt))


def _scheme3_rates(problem, assign, nu):
    """(R_cc, R_cr, R_rr) arrays of the reversed-decoding variant over a nu array."""
    P = problem.power
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    r_cc = 0.5 * np.log2(1.0 + nu * P / W_c)
    r_cr = 0.5 * np.log2(1.0 + nu * P / W_r)
    r_rr = 0.5 * np.log2(1.0 + (1.0 - nu) * P / (nu * P + W_r))
    return r_cc, r_cr, r_rr


def gaussian_scheme3_rates(
    problem: GaussianProblem, assign: RoleAssignment, nu: float
) -> RateTriple:
    """Channel rates (per channel use) of the reversed-decoding layered variant.

    The refinement codeword is decoded first while the common layer acts as
    noise; the precoding parameter is set to its point-to-point optimum, which
    only affects R_cc.  This is a one-cell call of the kernel of
    ``gaussian_scheme3_curve``.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    return RateTriple(*(float(r[0]) for r in _scheme3_rates(problem, assign, np.array([nu]))))


def gaussian_scheme3_curve(problem: GaussianProblem, assign: RoleAssignment, count: int):
    """Distortion pairs of the reversed-decoding variant at nu = linspace(0, 1, count).

    Returns arrays (D_c, D_r), one array evaluation of the rate and
    distortion kernels, so each point equals, bit for bit, the one-cell
    ``gaussian_lds_distortions(gaussian_scheme3_rates(nu))`` value; the
    curve is bounds-checked once.
    """
    rates = _scheme3_rates(problem, assign, np.linspace(0.0, 1.0, count))
    d_c, d_r = _lds_distortions(problem, assign, *rates)
    require_within_bounds(problem, (d_c, d_r) if assign.c == 0 else (d_r, d_c))
    return d_c, d_r


def gaussian_scheme3_closed_form(problem: GaussianProblem, assign: RoleAssignment, D_c):
    """Bandwidth-matched closed form of the reversed-decoding variant.

    D_r = [N_r W_r / (P + W_r)] * [D_c N_c + (N_c W_c / W_r)(N_c - D_c)]
                                / [D_c N_c + N_r (N_c - D_c)]
    for D_c in [N_c W_c / (P + W_c), N_c].  D_c is a scalar or an array, as
    for ``gaussian_lds_closed_form``.
    """
    require_bandwidth_match(problem, "closed form")
    P = problem.power
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    lo = N_c * W_c / (P + W_c)
    D_c = np.asarray(D_c, dtype=float)
    _require_in_domain(
        "D_c", D_c, (lo - RANGE_GUARD <= D_c) & (D_c <= N_c + RANGE_GUARD), f"[{lo}, {N_c}]"
    )
    lead = N_r * W_r / (P + W_r)
    num = D_c * N_c + (N_c * W_c / W_r) * (N_c - D_c)
    den = D_c * N_c + N_r * (N_c - D_c)
    return _scalar_or_array(lead * num / den)


def _lds_cloud_blocks(problem, assign, nu_count, gamma_count, gamma_lo=-1.0, gamma_hi=2.0):
    """Kept cells of the (nu, gamma) grid sweep of the layered scheme, block by block.

    Yields (d_c, d_r, nu, gamma) arrays of the cells whose rate triple needed
    no clamping (clamped cells are skipped, as are nu = 0 cells with
    gamma != 0, where only the gamma = 0 limit is defined), in row-major
    (nu, gamma) order, one row block at a time; when no kept cell has nu = 0,
    a last one-cell block holds the nu = 0 limit corner (gamma forced to 0).

    A block is at most BLOCK_CELLS cells of whole nu rows (one row when a row
    is wider) and is compacted as it is evaluated: R_cc is computed on every
    cell, R_cr only on the cells that pass the R_cc test, and R_rr and the
    distortions only on the cells that pass both.  Terms of one axis are
    computed once per row or column and broadcast, so every cell value comes
    from the same elementwise expression on the same floats as on a full
    meshgrid.
    """
    P = problem.power
    kappa = float(problem.kappa)
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    nu = np.linspace(0.0, 1.0, nu_count)
    gamma = np.linspace(gamma_lo, gamma_hi, gamma_count)
    nu_p = nu * P
    nubar_p = (1.0 - nu) * P
    gamma_sq = gamma * gamma
    gap_c = (1.0 - gamma) ** 2 / W_c
    gap_r = (1.0 - gamma) ** 2 / W_r
    dpc_nu0 = np.where(gamma == 0, 0.0, np.inf)  # nu = 0: only the gamma = 0 limit
    rows = max(1, BLOCK_CELLS // gamma_count)
    nu0_kept = False
    for lo in range(0, nu_count, rows):
        block = slice(lo, lo + rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            dpc = gamma_sq[None, :] / nu_p[block, None]
            dpc[nu[block] == 0] = dpc_nu0
            r_cc, _ = _common_layer_rate(P, W_c, nubar_p[block, None], dpc, gap_c[None, :])
            # skip materially clamped cells; boundary noise is snapped to 0 below
            kept = np.isfinite(dpc) & (r_cc >= -RANGE_GUARD)
            row, col = np.nonzero(kept)
            row += lo
            dpc, r_cc = dpc[kept], r_cc[kept]
            r_cr, denom_r = _common_layer_rate(P, W_r, nubar_p[row], dpc, gap_r[col])
            ok = r_cr >= -RANGE_GUARD
            row, col, r_cc, r_cr, denom_r = row[ok], col[ok], r_cc[ok], r_cr[ok], denom_r[ok]
            r_rr = 0.5 * np.log2(denom_r)
            r_cc = np.maximum(r_cc, 0.0)
            r_cr = np.maximum(r_cr, 0.0)
            r_rr = np.maximum(r_rr, 0.0)
            d_c, d_r = _lds_distortions(problem, assign, r_cc, r_cr, r_rr)
        nu_kept = nu[row]
        nu0_kept = nu0_kept or bool(np.any(nu_kept == 0.0))
        yield d_c, d_r, nu_kept, gamma[col]
    if not nu0_kept:
        # gamma grid lacks 0: the nu = 0 limit corner (gamma forced to 0)
        corner_dr = N_r * 2.0 ** (-2.0 * kappa * gaussian_capacity(P, W_r))
        yield np.array([N_c]), np.array([corner_dr]), np.zeros(1), np.zeros(1)


def lds_parametric_cloud(
    problem: GaussianProblem,
    assign: RoleAssignment,
    nu_count: int = 400,
    gamma_count: int = 400,
    gamma_lo: float = -1.0,
    gamma_hi: float = 2.0,
):
    """Vectorized (nu, gamma) grid sweep of the layered scheme, as one cloud.

    Returns a dict of flat arrays {d_c, d_r, nu, gamma}: the kept cells of
    every row block of ``_lds_cloud_blocks`` in row-major (nu, gamma) order,
    then the nu = 0 limit corner when no kept cell has nu = 0.  The tests
    and the acceptance suite check against this materialized cloud; the
    ``gaussian-oracle`` suite walks the blocks and never holds the whole
    cloud.
    """
    blocks = _lds_cloud_blocks(problem, assign, nu_count, gamma_count, gamma_lo, gamma_hi)
    return {
        key: np.concatenate(column)
        for key, column in zip(("d_c", "d_r", "nu", "gamma"), zip(*blocks))
    }


def gaussian_separate_sweep(problem: GaussianProblem, count: int = 400):
    """Separate-coding boundary for general kappa by sweeping the power split.

    For each nu the bad-channel condition is tightened to equality, fixing
    D_b, and the applicable good-channel condition is tightened to give the
    smallest D_g, at most N_g.  Returns flat arrays {d_b, d_g, nu} in
    receiver-label order (bad first).
    """
    b, g = separate_coding_labels(problem)
    P = problem.power
    kappa = float(problem.kappa)
    W_b, W_g = problem.noise_vars[b], problem.noise_vars[g]
    N_b, N_g = problem.sideinfo_vars[b], problem.sideinfo_vars[g]
    nu = np.linspace(0.0, 1.0, count)
    nubar = 1.0 - nu
    # a power that overflows to inf is the exact limit: its D = N / inf = 0
    with np.errstate(over="ignore"):
        bad_rhs = (1.0 + nu * P / (nubar * P + W_b)) ** kappa
        good_rhs = bad_rhs * (1.0 + nubar * P / W_g) ** kappa
    d_b = N_b / bad_rhs
    if N_g <= N_b:
        d_g = N_b * N_b * N_g / (good_rhs * (N_g * N_b + d_b * (N_b - N_g)))
    else:
        sol1 = N_g / good_rhs
        with np.errstate(divide="ignore", invalid="ignore"):
            sol2 = (N_g / good_rhs - d_b) * N_b * N_g / (d_b * (N_g - N_b))
        d_g = np.maximum(sol1, np.where(np.isfinite(sol2), sol2, sol1))
    # rounding can leave d_g above N_g, which is always achievable; + 0.0 makes -0 0
    return {"d_b": d_b, "d_g": np.minimum(d_g, N_g) + 0.0, "nu": nu}


def _curve_rows(c, d_c, d_r, envelope=False):
    """(m, 2) receiver-order rows of role-order arrays (D_c, D_r), c the 0-based
    receiver of D_c: the envelope vertices, or every sample sorted by (D1, D2)."""
    D = np.empty((np.size(d_c), 2))
    D[:, c], D[:, 1 - c] = d_c, d_r
    if envelope:
        return D[lower_envelope_indices(D[:, 0], D[:, 1])]
    return D[np.lexsort((D[:, 1], D[:, 0]))]


def _lds(problem, resolution, extend_flat):
    assign = choose_refinement_receiver(problem)
    top = problem.sideinfo_vars[assign.c]
    if problem.kappa == 1:
        dmin, dmax = gaussian_lds_dc_range(problem, assign)
        d_c = np.linspace(dmin, top if extend_flat else dmax, resolution)
        d_r = gaussian_lds_closed_form(problem, assign, d_c, extend_flat)
        return TradeoffCurve(_curve_rows(assign.c, d_c, d_r), "lds")
    for _ in range(2):
        # the envelope ends at the first sample of minimal D_r (past the knee
        # the curve is the constant floor), so the second pass spends every
        # sample on D_c up to there
        d_c = np.linspace(gaussian_cds(problem).D[assign.c], top, resolution)
        d_r = gaussian_lds_curve(problem, assign, d_c)
        top = d_c[np.argmin(d_r)]
    return TradeoffCurve(_curve_rows(assign.c, d_c, d_r, envelope=True), "lds")


def _scheme3(problem, resolution, extend_flat):
    assign = choose_refinement_receiver(problem)
    if problem.kappa == 1:
        N_c, W_c = problem.sideinfo_vars[assign.c], problem.noise_vars[assign.c]
        d_c = np.linspace(N_c * W_c / (problem.power + W_c), N_c, resolution)
        d_r = gaussian_scheme3_closed_form(problem, assign, d_c)
    else:
        d_c, d_r = gaussian_scheme3_curve(problem, assign, resolution)
    return TradeoffCurve(_curve_rows(assign.c, d_c, d_r), "scheme3")


def _separate(problem, resolution, extend_flat):
    sweep = gaussian_separate_sweep(problem, resolution)
    b, _ = separate_coding_labels(problem)
    return TradeoffCurve(_curve_rows(b, sweep["d_b"], sweep["d_g"]), "separate")


# compare's Gaussian schemes, in the order of its usage error's list:
# name -> (problem, resolution, extend_flat) -> TradeoffCurve
SCHEMES = {
    "converse": lambda problem, *_: TradeoffCurve(gaussian_trivial_converse(problem), "converse"),
    "uncoded": lambda problem, *_: TradeoffCurve(gaussian_uncoded(problem).D, "uncoded"),
    "cds": lambda problem, *_: TradeoffCurve(gaussian_cds(problem).D, "cds"),
    "lds": _lds,
    "separate": _separate,
    "scheme3": _scheme3,
}
