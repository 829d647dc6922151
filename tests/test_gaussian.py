import math
from fractions import Fraction

import numpy as np
import pytest

from wzbc.core import GaussianProblem, RateTriple, RoleAssignment
from wzbc.gaussian import (
    GaussianLdsParams,
    choose_refinement_receiver,
    gaussian_capacity,
    gaussian_cds,
    gaussian_lds_channel_rates,
    gaussian_lds_closed_form,
    gaussian_lds_curve,
    gaussian_lds_dc_of_dr,
    gaussian_lds_dc_range,
    gaussian_lds_distortions,
    gaussian_scheme3_closed_form,
    gaussian_scheme3_curve,
    gaussian_scheme3_rates,
    gaussian_separate_closed_form,
    gaussian_separate_sweep,
    gaussian_trivial_converse,
    gaussian_uncoded,
    gaussian_wz_distortion,
    lds_parametric_cloud,
    separate_coding_labels,
    _lds_cloud_blocks,
    _lds_curve_witness,
)

P_A = GaussianProblem(power=1, noise_vars=(1, 0.5), sideinfo_vars=(0.8, 0.4), kappa=1)
P_B = GaussianProblem(power=1, noise_vars=(2, 0.5), sideinfo_vars=(0.3, 0.9), kappa=1)


def random_problem(rng):
    return GaussianProblem(
        power=float(rng.uniform(0.5, 4)),
        noise_vars=tuple(rng.uniform(0.25, 4, 2)),
        sideinfo_vars=tuple(rng.uniform(0.1, 1, 2)),
        kappa=1,
    )


def test_capacity_examples():
    assert gaussian_capacity(1, 1) == 0.5
    assert gaussian_capacity(1, 0.5) == pytest.approx(0.5 * math.log2(3), abs=1e-15)
    assert gaussian_capacity(0, 1) == 0.0
    with pytest.raises(ValueError):
        gaussian_capacity(1, 0)


def test_wz_distortion_examples():
    assert gaussian_wz_distortion(0.37, 0.0) == 0.37
    assert gaussian_wz_distortion(0.4, 0.5 * math.log2(3)) == pytest.approx(0.4 / 3, abs=1e-12)
    assert gaussian_wz_distortion(0.5, 0.5) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        gaussian_wz_distortion(0.5, -0.1)


def test_trivial_converse_examples():
    assert gaussian_trivial_converse(P_A) == pytest.approx((0.4, 0.4 / 3), abs=1e-12)
    assert gaussian_trivial_converse(P_B) == pytest.approx((0.2, 0.3), abs=1e-12)
    # zero-bandwidth limit: no channel, the side-information floor remains
    tiny = GaussianProblem(1, (1, 0.5), (0.8, 0.4), kappa=Fraction(1, 10**9))
    assert gaussian_trivial_converse(tiny) == pytest.approx((0.8, 0.4), abs=1e-7)


def test_uncoded_examples():
    assert gaussian_uncoded(P_A).D == pytest.approx((0.8 / 1.8, 0.2 / 0.9), abs=1e-12)
    # without side information the uncoded point meets the point-to-point floor
    no_si = GaussianProblem(1, (1, 0.5), (1, 1), kappa=1)
    floors = tuple(
        gaussian_wz_distortion(1.0, gaussian_capacity(1, w)) for w in no_si.noise_vars
    )
    assert gaussian_uncoded(no_si).D == pytest.approx(floors, abs=1e-12)
    with pytest.raises(ValueError, match="bandwidth match"):
        gaussian_uncoded(GaussianProblem(1, (1, 0.5), (0.8, 0.4), kappa=2))


def test_cds_examples_against_product_rule():
    # independent oracle for kappa=1: 1/D_k = 1/N_k + P / max(W N)
    for problem, expected in ((P_A, (0.4, 4 / 15)), (P_B, (0.2, 0.36))):
        best = problem.power / max(
            w * n for w, n in zip(problem.noise_vars, problem.sideinfo_vars)
        )
        oracle = tuple(1 / (1 / n + best) for n in problem.sideinfo_vars)
        point = gaussian_cds(problem)
        assert point.D == pytest.approx(oracle, abs=1e-12)
        assert point.D == pytest.approx(expected, abs=1e-5)


def test_cds_matches_converse_when_quality_constant():
    # W1 N1 == W2 N2 with kappa = 1
    problem = GaussianProblem(1, (1, 0.5), (0.4, 0.8), kappa=1)
    assert gaussian_cds(problem).D == pytest.approx(
        gaussian_trivial_converse(problem), abs=1e-12
    )


def test_cds_general_kappa_matches_converse_at_minimizer():
    # the quality-minimizing receiver sits exactly on its converse bound,
    # whichever of the two it is
    minimizers = set()
    for W, N in (((1, 0.5), (0.8, 0.4)), ((0.5, 2), (0.4, 0.9))):
        problem = GaussianProblem(1.5, W, N, kappa="1/2")
        point = gaussian_cds(problem)
        conv = gaussian_trivial_converse(problem)
        kappa = float(problem.kappa)
        quality = [((1 + problem.power / w) ** kappa - 1) / n for w, n in zip(W, N)]
        k_star = int(np.argmin(quality))
        minimizers.add(k_star)
        assert point.D[k_star] == pytest.approx(conv[k_star], abs=1e-12)
    assert minimizers == {0, 1}


def test_choose_refinement_receiver():
    assert choose_refinement_receiver(P_A) == RoleAssignment(1, 2)
    assert choose_refinement_receiver(P_B) == RoleAssignment(1, 2)
    flipped = GaussianProblem(1, (0.5, 1), (0.4, 0.8), kappa=1)
    assert choose_refinement_receiver(flipped) == RoleAssignment(2, 1)
    tie = GaussianProblem(1, (1, 0.5), (0.4, 0.8), kappa=1)
    assert choose_refinement_receiver(tie) == RoleAssignment(1, 2)


def test_lds_channel_rates_full_power_reduces_to_capacities():
    assign = choose_refinement_receiver(P_A)
    for gamma in (-0.5, 0.0, 0.7, 1.0):
        rates = gaussian_lds_channel_rates(P_A, assign, GaussianLdsParams(1.0, gamma))
        assert rates.R_cc == pytest.approx(gaussian_capacity(1, 1), abs=1e-12)
        assert rates.R_cr == pytest.approx(gaussian_capacity(1, 0.5), abs=1e-12)
        assert rates.R_rr == pytest.approx(0.0, abs=1e-12)
        assert not rates.clamped


def test_lds_channel_rates_zero_power():
    assign = choose_refinement_receiver(P_A)
    rates = gaussian_lds_channel_rates(P_A, assign, GaussianLdsParams(0.0, 0.0))
    assert rates.R_cc == pytest.approx(0.0, abs=1e-12)
    assert rates.R_cr == pytest.approx(0.0, abs=1e-12)
    assert rates.R_rr == pytest.approx(gaussian_capacity(1, 0.5), abs=1e-12)
    with pytest.raises(ValueError, match="gamma"):
        GaussianLdsParams(0.0, 0.5)


def test_lds_refinement_rate_sum_is_capacity():
    # R_cr + R_rr equals the refinement receiver's capacity whenever no
    # clamping occurs, in particular at the precoding optimum
    rng = np.random.default_rng(11)
    for _ in range(20):
        problem = random_problem(rng)
        assign = choose_refinement_receiver(problem)
        nu = float(rng.uniform(0.05, 1))
        w_r = problem.noise_vars[assign.r]
        gamma = nu * problem.power / (nu * problem.power + w_r)
        rates = gaussian_lds_channel_rates(problem, assign, GaussianLdsParams(nu, gamma))
        assert not rates.clamped
        assert rates.R_cr + rates.R_rr == pytest.approx(
            gaussian_capacity(problem.power, w_r), abs=1e-10
        )


def test_lds_distortions_examples():
    assign = choose_refinement_receiver(P_A)
    cap = RateTriple(gaussian_capacity(1, 1), gaussian_capacity(1, 0.5), 0.0)
    point = gaussian_lds_distortions(P_A, assign, cap)
    assert point.D == pytest.approx(gaussian_cds(P_A).D, abs=1e-12)

    zero_cl = RateTriple(0.0, 0.0, gaussian_capacity(1, 0.5))
    point = gaussian_lds_distortions(P_A, assign, zero_cl)
    assert point.D[assign.c] == pytest.approx(0.8, abs=1e-12)
    assert point.D[assign.r] == pytest.approx(0.4 / 3, abs=1e-12)


def test_lds_distortions_phi_branch():
    # when the common-layer bound at receiver c exceeds the one at r, the
    # refinement distortion collapses to N_r 2^(-2 kappa (R_cr + R_rr))
    assign = choose_refinement_receiver(P_A)
    rates = RateTriple(0.9, 0.1, 0.2)
    n_c, n_r = 0.8, 0.4
    assert (2 ** (2 * rates.R_cc) - 1) / n_c > (2 ** (2 * rates.R_cr) - 1) / n_r
    point = gaussian_lds_distortions(P_A, assign, rates)
    assert point.D[assign.r] == pytest.approx(
        n_r * 2 ** (-2 * (rates.R_cr + rates.R_rr)), abs=1e-12
    )


def test_lds_closed_form_pinned_values():
    assign = choose_refinement_receiver(P_A)
    assert gaussian_lds_closed_form(P_A, assign, 0.4) == pytest.approx(4 / 15, abs=1e-5)
    assert gaussian_lds_closed_form(P_A, assign, 0.8) == pytest.approx(0.4 / 3, abs=1e-5)
    assert gaussian_lds_closed_form(P_A, assign, 0.6) == pytest.approx(6 / 35, abs=1e-5)
    assign_b = choose_refinement_receiver(P_B)
    dmin, dmax = gaussian_lds_dc_range(P_B, assign_b)
    assert dmax == pytest.approx(0.225, abs=1e-9)
    assert gaussian_lds_closed_form(P_B, assign_b, 0.2) == pytest.approx(0.36, abs=1e-5)


def test_lds_closed_form_domain_errors():
    assign = choose_refinement_receiver(P_A)
    with pytest.raises(ValueError, match="domain"):
        gaussian_lds_closed_form(P_A, assign, 0.05)
    bad_kappa = GaussianProblem(1, (1, 0.5), (0.8, 0.4), kappa=2)
    with pytest.raises(ValueError, match="kappa"):
        gaussian_lds_closed_form(bad_kappa, assign, 0.5)
    with pytest.raises(ValueError, match="refinement-receiver rule"):
        gaussian_lds_closed_form(P_A, RoleAssignment(2, 1), 0.5)


def test_lds_closed_form_flat_extension():
    assign = choose_refinement_receiver(P_B)
    dmin, dmax = gaussian_lds_dc_range(P_B, assign)
    floor = gaussian_wz_distortion(0.9, gaussian_capacity(1, 0.5))
    assert dmax < P_B.sideinfo_vars[assign.c] - 1e-12  # strictly inside, extension applies
    with pytest.raises(ValueError):
        gaussian_lds_closed_form(P_B, assign, 0.28)
    assert gaussian_lds_closed_form(P_B, assign, 0.28, extend_flat=True) == pytest.approx(
        floor, abs=1e-12
    )
    # the closed form is continuous at the junction
    assert gaussian_lds_closed_form(P_B, assign, dmax) == pytest.approx(floor, abs=1e-12)


def test_lds_dc_range_cases():
    # N_c >= N_r, W_c >= W_r: full range up to N_c
    assign = choose_refinement_receiver(P_A)
    assert gaussian_lds_dc_range(P_A, assign) == pytest.approx((0.8 / 2, 0.8), abs=1e-12)
    # N_c < N_r, W_c > W_r: capped range (pinned endpoint)
    assign_b = choose_refinement_receiver(P_B)
    assert gaussian_lds_dc_range(P_B, assign_b)[1] == pytest.approx(0.3 * 0.75, abs=1e-12)
    # N_c > N_r, W_c < W_r
    p3 = GaussianProblem(1, (0.5, 1), (0.9, 0.3), kappa=1)
    assign3 = choose_refinement_receiver(p3)
    assert (assign3.c, assign3.r) == (0, 1)
    lo, hi = gaussian_lds_dc_range(p3, assign3)
    expected_hi = 0.9 * (0.5 / 1.5 + 1 * (0.45 - 0.3) / (1.5 * 0.6 * 1))
    assert hi == pytest.approx(expected_hi, abs=1e-12)
    assert lo <= hi <= 0.9 + 1e-12


def test_separate_closed_form_examples():
    assert gaussian_separate_closed_form(P_A, 0.6) == pytest.approx(6 / 35, abs=1e-5)
    # endpoint consistency: at the bad receiver's floor the curve meets the
    # single-description point
    cds = gaussian_cds(P_A)
    b, g = separate_coding_labels(P_A)
    floor_b = gaussian_wz_distortion(
        P_A.sideinfo_vars[b], gaussian_capacity(P_A.power, P_A.noise_vars[b])
    )
    assert gaussian_separate_closed_form(P_A, floor_b) == pytest.approx(cds.D[g], abs=1e-10)
    # reversed side-information order instance uses the max-of-two branch
    b2, g2 = separate_coding_labels(P_B)
    assert (b2, g2) == (0, 1)
    val = gaussian_separate_closed_form(P_B, 0.25)
    denom = (0.5 - 2) * 0.3 + 3 * 0.25
    alt = 0.3 * (0.9 * 0.5 - 3 * 0.25 - 0.3 * (0.5 - 2)) / (0.9 - 0.3)
    assert val == pytest.approx(0.9 / denom * max(0.5 * 0.25, alt), abs=1e-12)
    with pytest.raises(ValueError):
        gaussian_separate_closed_form(P_A, 0.05)


def test_separate_matches_lds_when_bad_receiver_has_bad_side_info():
    # W_c >= W_r and N_c >= N_r: the two closed forms coincide
    assign = choose_refinement_receiver(P_A)
    for d in np.linspace(0.4, 0.8, 9):
        assert gaussian_separate_closed_form(P_A, d) == pytest.approx(
            gaussian_lds_closed_form(P_A, assign, d), abs=1e-12
        )


def test_separate_sweep_matches_closed_form_at_unit_bandwidth():
    for problem in (P_A, P_B):
        sweep = gaussian_separate_sweep(problem, 150)
        for d_b, d_g in zip(sweep["d_b"], sweep["d_g"]):
            assert d_g == pytest.approx(
                gaussian_separate_closed_form(problem, d_b), abs=1e-10
            )


@pytest.mark.parametrize("kappa", ["1", "1/2"])
@pytest.mark.parametrize("count", [41, 400, 1001])
def test_separate_sweep_never_exceeds_the_good_receivers_side_information(kappa, count):
    # N_g - N_b = 1e-6: the nu = 1 row rounded above N_g = 1 before the clip
    problem = GaussianProblem(0.5, (7, 0.001), (0.999999, 1), kappa)
    sweep = gaussian_separate_sweep(problem, count)
    assert separate_coding_labels(problem) == (0, 1)
    assert sweep["d_g"].max() <= 1.0
    assert sweep["d_g"][-1] == 1.0


def test_scheme3_closed_form_examples():
    assign = choose_refinement_receiver(P_B)
    n_c, w_r, n_r, P = 0.3, 0.5, 0.9, 1.0
    floor_r = n_r * w_r / (P + w_r)
    assert gaussian_scheme3_closed_form(P_B, assign, n_c) == pytest.approx(floor_r, abs=1e-12)
    dmin = 0.3 * 2 / 3
    assert gaussian_scheme3_closed_form(P_B, assign, dmin) == pytest.approx(
        gaussian_cds(P_B).D[assign.r], abs=1e-10
    )
    # interior ordering: the reversed-decoding variant is never better
    for d in np.linspace(dmin, 0.225, 7):
        assert gaussian_scheme3_closed_form(P_B, assign, d) >= gaussian_lds_closed_form(
            P_B, assign, d
        ) - 1e-12


def test_scheme3_rates_match_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        problem = random_problem(rng)
        assign = choose_refinement_receiver(problem)
        nu = float(rng.uniform(0.01, 1))
        rates = gaussian_scheme3_rates(problem, assign, nu)
        point = gaussian_lds_distortions(problem, assign, rates)
        d_c = point.D[assign.c]
        assert point.D[assign.r] == pytest.approx(
            gaussian_scheme3_closed_form(problem, assign, d_c), abs=1e-10
        )


def test_lds_dc_of_dr_inverts_closed_form():
    p3 = GaussianProblem(1, (0.5, 1), (0.9, 0.3), kappa=1)
    assign = choose_refinement_receiver(p3)
    assert p3.noise_vars[assign.c] < p3.noise_vars[assign.r]
    dmin, dmax = gaussian_lds_dc_range(p3, assign)
    for d_c in np.linspace(dmin, dmax, 9):
        d_r = gaussian_lds_closed_form(p3, assign, d_c)
        assert gaussian_lds_dc_of_dr(p3, assign, d_r) == pytest.approx(d_c, abs=1e-9)


def test_parametric_cloud_contains_endpoints_and_respects_converse():
    rng = np.random.default_rng(17)
    for _ in range(5):
        problem = random_problem(rng)
        assign = choose_refinement_receiver(problem)
        cloud = lds_parametric_cloud(problem, assign, 80, 80)
        conv = gaussian_trivial_converse(problem)
        c, r = assign.c, assign.r
        assert np.all(cloud["d_c"] >= conv[c] - 1e-12)
        assert np.all(cloud["d_r"] >= conv[r] - 1e-12)
        dmin, _ = gaussian_lds_dc_range(problem, assign)
        assert cloud["d_c"].min() == pytest.approx(dmin, abs=1e-12)
        assert cloud["d_c"].max() == pytest.approx(problem.sideinfo_vars[c], abs=1e-12)


def test_cds_beats_uncoded_when_refinement_channel_is_worse():
    # W_c < W_r and N_c > N_r: the single-description refinement distortion
    # is at most the uncoded one
    rng = np.random.default_rng(23)
    found = 0
    while found < 10:
        problem = random_problem(rng)
        assign = choose_refinement_receiver(problem)
        W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
        N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
        if not (W_c < W_r and N_c > N_r):
            continue
        found += 1
        cds = gaussian_cds(problem)
        unc = gaussian_uncoded(problem)
        assert cds.D[assign.r] <= unc.D[assign.r] + 1e-12


def test_all_schemes_dominate_trivial_converse():
    rng = np.random.default_rng(29)
    for _ in range(10):
        problem = random_problem(rng)
        conv = gaussian_trivial_converse(problem)
        assign = choose_refinement_receiver(problem)
        points = [gaussian_cds(problem).D, gaussian_uncoded(problem).D]
        dmin, dmax = gaussian_lds_dc_range(problem, assign)
        for d_c in np.linspace(dmin, dmax, 17):
            pair = [0.0, 0.0]
            pair[assign.c] = d_c
            pair[assign.r] = gaussian_lds_closed_form(problem, assign, d_c)
            points.append(tuple(pair))
            pair3 = [0.0, 0.0]
            pair3[assign.c] = d_c
            pair3[assign.r] = gaussian_scheme3_closed_form(problem, assign, d_c)
            points.append(tuple(pair3))
        b, g = separate_coding_labels(problem)
        floor_b = gaussian_wz_distortion(
            problem.sideinfo_vars[b], gaussian_capacity(problem.power, problem.noise_vars[b])
        )
        for d_b in np.linspace(floor_b, problem.sideinfo_vars[b], 17):
            pair = [0.0, 0.0]
            pair[b] = d_b
            pair[g] = gaussian_separate_closed_form(problem, d_b)
            points.append(tuple(pair))
        for d1, d2 in points:
            assert d1 >= conv[0] - 1e-12 and d2 >= conv[1] - 1e-12


def reference_parametric_cloud(
    problem, assign, nu_count=400, gamma_count=400, gamma_lo=-1.0, gamma_hi=2.0
):
    """The full-meshgrid evaluation that lds_parametric_cloud must reproduce bit
    for bit: every formula on every cell, then one mask, then np.append of the
    nu = 0 corner."""
    P = problem.power
    kappa = float(problem.kappa)
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    nu = np.linspace(0.0, 1.0, nu_count)
    gamma = np.linspace(gamma_lo, gamma_hi, gamma_count)
    NU, G = np.meshgrid(nu, gamma, indexing="ij")
    nubar = 1.0 - NU
    with np.errstate(divide="ignore", invalid="ignore"):
        dpc = np.where(NU > 0, G * G / (NU * P), np.inf)
        dpc = np.where((NU == 0) & (G == 0), 0.0, dpc)
        valid = np.isfinite(dpc)
        denom_c = 1.0 + nubar * P * (dpc + (1.0 - G) ** 2 / W_c)
        denom_r = 1.0 + nubar * P * (dpc + (1.0 - G) ** 2 / W_r)
        r_cc = 0.5 * np.log2((1.0 + P / W_c) / denom_c)
        r_cr = 0.5 * np.log2((1.0 + P / W_r) / denom_r)
        r_rr = 0.5 * np.log2(denom_r)
        valid &= (r_cc >= -1e-12) & (r_cr >= -1e-12)
        r_cc = np.maximum(r_cc, 0.0)
        r_cr = np.maximum(r_cr, 0.0)
        r_rr = np.maximum(r_rr, 0.0)
        phi = np.minimum(
            (2.0 ** (2.0 * kappa * r_cc) - 1.0) / N_c,
            (2.0 ** (2.0 * kappa * r_cr) - 1.0) / N_r,
        )
        d_c = N_c / (1.0 + N_c * phi)
        d_r = N_r / (1.0 + N_r * phi) * 2.0 ** (-2.0 * kappa * r_rr)
    keep = valid.ravel()
    out = {
        "d_c": d_c.ravel()[keep],
        "d_r": d_r.ravel()[keep],
        "nu": NU.ravel()[keep],
        "gamma": G.ravel()[keep],
    }
    if not np.any(out["nu"] == 0.0):
        corner_dr = N_r * 2.0 ** (-2.0 * kappa * gaussian_capacity(P, W_r))
        out = {
            "d_c": np.append(out["d_c"], N_c),
            "d_r": np.append(out["d_r"], corner_dr),
            "nu": np.append(out["nu"], 0.0),
            "gamma": np.append(out["gamma"], 0.0),
        }
    return out


def reference_lds_closed_form(problem, assign, D_c, extend_flat=False):
    """The layered closed form in Python float arithmetic, one point per call."""
    d_min, d_max = gaussian_lds_dc_range(problem, assign)
    P = problem.power
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    D_c = float(D_c)
    if extend_flat and d_max < N_c and d_max - 1e-12 < D_c <= N_c + 1e-12:
        return gaussian_wz_distortion(N_r, gaussian_capacity(P, W_r))
    assert d_min - 1e-12 <= D_c <= d_max + 1e-12
    lead = N_r * N_c * N_c / (D_c * N_c + N_r * (N_c - D_c))
    if W_c > W_r:
        factor = W_r * D_c / ((W_r - W_c) * N_c + (P + W_c) * D_c)
    else:
        factor = W_c / (P + W_c)
    return lead * factor


def reference_scheme3_closed_form(problem, assign, D_c):
    """The reversed-decoding closed form in Python float arithmetic."""
    P = problem.power
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    D_c = float(D_c)
    lead = N_r * W_r / (P + W_r)
    num = D_c * N_c + (N_c * W_c / W_r) * (N_c - D_c)
    den = D_c * N_c + N_r * (N_c - D_c)
    return lead * num / den


def reference_separate_closed_form(problem, D_b):
    """The separate-coding closed form in Python float arithmetic."""
    b, g = separate_coding_labels(problem)
    P = problem.power
    W_b, W_g = problem.noise_vars[b], problem.noise_vars[g]
    N_b, N_g = problem.sideinfo_vars[b], problem.sideinfo_vars[g]
    D_b = float(D_b)
    denom_ch = (W_g - W_b) * N_b + (P + W_b) * D_b
    if N_g <= N_b:
        return (N_g * N_b * N_b * W_g * D_b) / ((D_b * N_b + N_g * (N_b - D_b)) * denom_ch)
    alt = N_b * (N_g * W_g - (P + W_b) * D_b - N_b * (W_g - W_b)) / (N_g - N_b)
    return N_g / denom_ch * max(W_g * D_b, alt)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# (nu_count, gamma_count, gamma_lo, gamma_hi, gamma grid holds 0); the last
# two rows are wider than one BLOCK_CELLS block, so each block is one row
CLOUD_GRIDS = [
    (400, 400, -1.0, 2.0, True),
    (401, 401, -1.0, 2.0, False),
    (120, 401, -1.0, 2.0, False),
    (401, 121, -1.0, 2.0, True),
    (200, 201, -0.5, 1.5, True),
    (201, 200, -0.5, 1.5, False),
    (3, 20001, -1.0, 2.0, False),
    (2, 30001, -1.0, 2.0, True),
]


@pytest.mark.parametrize("kappa", ["1", "1/2", "2/3"])
@pytest.mark.parametrize("grid", CLOUD_GRIDS, ids=lambda g: "x".join(map(str, g[:4])))
@pytest.mark.parametrize("common", [1, 2])
def test_parametric_cloud_equals_full_grid_reference_bitwise(kappa, grid, common):
    nu_count, gamma_count, lo, hi, has_zero = grid
    assert np.any(np.linspace(lo, hi, gamma_count) == 0.0) == has_zero
    assign = RoleAssignment(common, 3 - common)
    for base in (P_A, P_B):
        problem = GaussianProblem(base.power, base.noise_vars, base.sideinfo_vars, kappa)
        cloud = lds_parametric_cloud(problem, assign, nu_count, gamma_count, lo, hi)
        ref = reference_parametric_cloud(problem, assign, nu_count, gamma_count, lo, hi)
        assert set(cloud) == {"d_c", "d_r", "nu", "gamma"}
        for key in ref:
            assert same_bits(cloud[key], ref[key]), key
        # the nu = 0 corner is a grid cell or the appended last point
        assert has_zero or (cloud["nu"][-1], cloud["gamma"][-1]) == (0.0, 0.0)


@pytest.mark.parametrize("kappa", ["1", "1/2", "2"])
@pytest.mark.parametrize("common", [1, 2])
def test_scalar_entry_points_equal_the_sweep_bitwise(kappa, common):
    # 31 gamma values on [-1, 2] include 0, so every yielded cell is a kept grid cell
    assert np.any(np.linspace(-1.0, 2.0, 31) == 0.0)
    assign = RoleAssignment(common, 3 - common)
    for base in (P_A, P_B):
        problem = GaussianProblem(base.power, base.noise_vars, base.sideinfo_vars, kappa)
        for d_c, d_r, nu, gamma in _lds_cloud_blocks(problem, assign, 41, 31):
            for cell in zip(d_c.tolist(), d_r.tolist(), nu.tolist(), gamma.tolist()):
                rates = gaussian_lds_channel_rates(problem, assign, GaussianLdsParams(*cell[2:]))
                assert not rates.clamped
                D = gaussian_lds_distortions(problem, assign, rates).D
                assert (D[assign.c].hex(), D[assign.r].hex()) == (cell[0].hex(), cell[1].hex())


def test_closed_forms_accept_arrays_bitwise():
    # an array call, a scalar loop and the Python float formula agree bit for
    # bit, flat continuation included
    rng = np.random.default_rng(41)
    problems = [P_A, P_B] + [random_problem(rng) for _ in range(6)]
    for problem in problems:
        assign = choose_refinement_receiver(problem)
        n_c = problem.sideinfo_vars[assign.c]
        w_c = problem.noise_vars[assign.c]
        b, _ = separate_coding_labels(problem)
        n_b, w_b = problem.sideinfo_vars[b], problem.noise_vars[b]
        dmin, dmax = gaussian_lds_dc_range(problem, assign)
        cases = [
            (lambda d, flat=flat: gaussian_lds_closed_form(problem, assign, d, flat),
             lambda d, flat=flat: reference_lds_closed_form(problem, assign, d, flat),
             np.linspace(dmin, top, 97))
            for flat, top in ((False, dmax), (True, n_c))
        ]
        cases.append((
            lambda d: gaussian_scheme3_closed_form(problem, assign, d),
            lambda d: reference_scheme3_closed_form(problem, assign, d),
            np.linspace(n_c * w_c / (problem.power + w_c), n_c, 97),
        ))
        floor_b = gaussian_wz_distortion(n_b, gaussian_capacity(problem.power, w_b))
        cases.append((
            lambda d: gaussian_separate_closed_form(problem, d),
            lambda d: reference_separate_closed_form(problem, d),
            np.linspace(floor_b, n_b, 97),
        ))
        for closed_form, reference, grid in cases:
            expected = np.array([reference(d) for d in grid.tolist()])
            assert same_bits(closed_form(grid), expected)
            assert same_bits(np.array([closed_form(d) for d in grid.tolist()]), expected)


def test_closed_forms_flat_region_and_scalar_type():
    assign = choose_refinement_receiver(P_B)
    dmin, dmax = gaussian_lds_dc_range(P_B, assign)
    floor = gaussian_wz_distortion(0.9, gaussian_capacity(1, 0.5))
    d_c = np.array([dmin, dmax, 0.26, 0.28, 0.3])
    d_r = gaussian_lds_closed_form(P_B, assign, d_c, extend_flat=True)
    assert d_r.shape == (5,)
    assert list(d_r[2:]) == [floor] * 3  # every point past dmax is on the floor
    for d in (0.2, np.float64(0.2), np.array(0.2)):
        assert type(gaussian_lds_closed_form(P_B, assign, d)) is float
        assert type(gaussian_scheme3_closed_form(P_B, assign, d)) is float
        assert type(gaussian_separate_closed_form(P_B, d)) is float
    assert type(gaussian_lds_closed_form(P_B, assign, 0.28, extend_flat=True)) is float


def test_closed_forms_reject_one_element_out_of_domain():
    assign = choose_refinement_receiver(P_A)
    dmin, dmax = gaussian_lds_dc_range(P_A, assign)
    d_c = np.linspace(dmin, dmax, 11)
    for bad in (dmin - 1e-6, dmax + 1e-6):
        probe = d_c.copy()
        probe[5] = bad
        with pytest.raises(ValueError, match=f"D_c = {bad} outside the closed-form domain"):
            gaussian_lds_closed_form(P_A, assign, probe)
    probe = d_c.copy()
    probe[-1] = P_A.sideinfo_vars[assign.c] + 1e-6
    with pytest.raises(ValueError, match="outside"):
        gaussian_scheme3_closed_form(P_A, assign, probe)
    with pytest.raises(ValueError, match="outside"):
        gaussian_lds_closed_form(P_A, assign, probe, extend_flat=True)
    with pytest.raises(ValueError, match="D_b = .* outside"):
        gaussian_separate_closed_form(P_A, np.array([0.5, 0.05, 0.6]))


@pytest.mark.parametrize("kappa", ["1", "1/2", "2/3"])
@pytest.mark.parametrize("common", [1, 2])
def test_scheme3_curve_equals_scalar_loop_bitwise(kappa, common):
    assign = RoleAssignment(common, 3 - common)
    for base in (P_A, P_B):
        problem = GaussianProblem(base.power, base.noise_vars, base.sideinfo_vars, kappa)
        d_c, d_r = gaussian_scheme3_curve(problem, assign, 101)
        points = [
            gaussian_lds_distortions(problem, assign, gaussian_scheme3_rates(problem, assign, nu))
            for nu in np.linspace(0.0, 1.0, 101)
        ]
        assert same_bits(d_c, np.array([p.D[assign.c] for p in points]))
        assert same_bits(d_r, np.array([p.D[assign.r] for p in points]))


def _lds_curve_targets(problem, assign, D_c):
    """(phi, A, B, M) of the exact layered curve at D_c, in Python float arithmetic."""
    P = problem.power
    kappa = float(problem.kappa)
    W_c, W_r = problem.noise_vars[assign.c], problem.noise_vars[assign.r]
    N_c, N_r = problem.sideinfo_vars[assign.c], problem.sideinfo_vars[assign.r]
    phi = 1.0 / float(D_c) - 1.0 / N_c
    A = (1.0 + P / W_c) / (1.0 + N_c * phi) ** (1.0 / kappa)
    B = (1.0 + P / W_r) / (1.0 + N_r * phi) ** (1.0 / kappa)
    M = A if W_c <= W_r else 1.0 + (A - 1.0) * W_c / W_r
    return phi, A, B, M


def reference_lds_curve(problem, assign, D_c):
    """The exact layered curve in Python float arithmetic, one point per call."""
    kappa = float(problem.kappa)
    W_r, N_r = problem.noise_vars[assign.r], problem.sideinfo_vars[assign.r]
    phi, _, B, M = _lds_curve_targets(problem, assign, D_c)
    if B <= M:
        return N_r / (1.0 + problem.power / W_r) ** kappa
    return N_r / (1.0 + N_r * phi) * M ** -kappa


# (P, W, N): common receiver 1 or 2, W_c above, below and equal to W_r at every kappa
LDS_CURVE_BASES = [
    (1.0, (1.0, 0.5), (0.8, 0.4)),
    (1.0, (2.0, 0.5), (0.3, 0.9)),
    (1.0, (0.5, 1.0), (0.9, 0.3)),
    (1.0, (0.5, 2.0), (0.6, 0.2)),
    (1.0, (1.0, 0.5), (0.3, 0.9)),
    (1.0, (1.0, 1.0), (0.7, 0.3)),
    (2.7, (0.4, 3.1), (0.5, 0.95)),
    (0.6, (3.5, 0.3), (0.15, 0.85)),
]


def lds_curve_problems(kappa):
    """(problem, assign, D_c samples on [D_c of cds, N_c]) for every base problem."""
    out = []
    for P, W, N in LDS_CURVE_BASES:
        problem = GaussianProblem(P, W, N, kappa)
        assign = choose_refinement_receiver(problem)
        d_c = np.linspace(gaussian_cds(problem).D[assign.c], N[assign.c], 401)
        out.append((problem, assign, d_c))
    orders = {p.noise_vars[a.c] <= p.noise_vars[a.r] for p, a, _ in out}
    assert orders == {True, False}
    return out


LDS_CURVE_KAPPAS = ["1/3", "1/2", "2/3", "2"]


@pytest.mark.parametrize("kappa", LDS_CURVE_KAPPAS + ["1"])
def test_lds_curve_at_or_below_every_cloud_cell(kappa):
    for problem, assign, _ in lds_curve_problems(kappa):
        cloud = lds_parametric_cloud(problem, assign, 200, 200)
        d_r = gaussian_lds_curve(problem, assign, cloud["d_c"])
        assert np.max(d_r - cloud["d_r"]) <= 1e-12


def test_lds_curve_equals_closed_form_at_unit_bandwidth():
    rng = np.random.default_rng(31)
    bases = LDS_CURVE_BASES + [
        (float(rng.uniform(0.5, 4)), tuple(rng.uniform(0.25, 4, 2)), tuple(rng.uniform(0.1, 1, 2)))
        for _ in range(12)
    ]
    for P, W, N in bases:
        problem = GaussianProblem(P, W, N, 1)
        assign = choose_refinement_receiver(problem)
        dmin, dmax = gaussian_lds_dc_range(problem, assign)
        d_c = np.linspace(dmin, dmax, 301)
        closed = gaussian_lds_closed_form(problem, assign, d_c)
        assert np.max(np.abs(gaussian_lds_curve(problem, assign, d_c) - closed)) <= 1e-12
        # past d_max the curve is the floor that --extend-flat continues with
        d_c = np.linspace(dmin, N[assign.c], 301)
        flat = gaussian_lds_closed_form(problem, assign, d_c, extend_flat=True)
        assert np.max(np.abs(gaussian_lds_curve(problem, assign, d_c) - flat)) <= 1e-12


@pytest.mark.parametrize("kappa", LDS_CURVE_KAPPAS + ["1"])
def test_lds_curve_points_have_witnesses(kappa):
    # every sample, so every vertex that compare emits, is attained by its
    # (nu, gamma) through the channel rates and the distortion map
    for problem, assign, d_c in lds_curve_problems(kappa):
        d_r = gaussian_lds_curve(problem, assign, d_c)
        nus, gammas = _lds_curve_witness(problem, assign, d_c)
        for dc, dr, nu, gamma in zip(d_c.tolist(), d_r.tolist(), nus.tolist(), gammas.tolist()):
            rates = gaussian_lds_channel_rates(problem, assign, GaussianLdsParams(nu, gamma))
            assert not rates.clamped
            point = gaussian_lds_distortions(problem, assign, rates)
            assert point.D[assign.c] == pytest.approx(dc, abs=1e-12)
            assert point.D[assign.r] == pytest.approx(dr, abs=1e-12)


@pytest.mark.parametrize("kappa", ["1", "1/2", "2", "3/7"])
def test_reversed_assignment_never_lies_below_the_chosen_curve(kappa):
    # the paper's rule sends the refinement layer to the receiver of better
    # combined quality: read in the chosen coordinates, no cell of the
    # reversed assignment's sweep lies left of the chosen curve's domain or
    # below the curve
    for P, W, N in LDS_CURVE_BASES:
        problem = GaussianProblem(P, W, N, kappa)
        assign = choose_refinement_receiver(problem)
        reverse = RoleAssignment(assign.refinement_receiver, assign.common_receiver)
        cloud = lds_parametric_cloud(problem, reverse, 200, 200)
        d_c, d_r = cloud["d_r"], cloud["d_c"]
        assert np.min(d_c) >= gaussian_cds(problem).D[assign.c] - 1e-12 * N[assign.c]
        assert np.max(gaussian_lds_curve(problem, assign, d_c) - d_r) <= 1e-12 * N[assign.r]


@pytest.mark.parametrize("kappa", ["1/2", "2", "3/7", "5/3"])
def test_lds_curve_at_or_below_scheme3_and_separate_samples(kappa):
    # the layered curve is at or below every in-domain sample of the
    # reversed-decoding curve and, when the bad receiver is c, of the
    # separate-coding sweep
    separate = 0
    for P, W, N in LDS_CURVE_BASES:
        problem = GaussianProblem(P, W, N, kappa)
        assign = choose_refinement_receiver(problem)
        curves = [gaussian_scheme3_curve(problem, assign, 401)]
        if separate_coding_labels(problem)[0] == assign.c:
            sweep = gaussian_separate_sweep(problem, 401)
            curves.append((sweep["d_b"], sweep["d_g"]))
            separate += 1
        lo = gaussian_cds(problem).D[assign.c]
        for d_c, d_r in curves:
            inside = (lo <= d_c) & (d_c <= N[assign.c])
            assert inside.any()
            excess = gaussian_lds_curve(problem, assign, d_c[inside]) - d_r[inside]
            assert np.max(excess) <= 1e-12 * N[assign.r]
    assert separate > 0


@pytest.mark.parametrize("kappa", LDS_CURVE_KAPPAS)
def test_lds_curve_matches_scalar_reference_and_has_one_flat_tail(kappa):
    for problem, assign, d_c in lds_curve_problems(kappa):
        d_r = gaussian_lds_curve(problem, assign, d_c)
        ref = np.array([reference_lds_curve(problem, assign, d) for d in d_c.tolist()])
        assert np.max(np.abs(d_r - ref)) <= 1e-15
        floor = gaussian_trivial_converse(problem)[assign.r]
        assert np.all(d_r >= floor)
        # the refinement receiver's floor is one constant tail that reaches N_c
        at_floor = np.flatnonzero(np.abs(d_r - floor) <= 1e-12)
        assert np.array_equal(at_floor, np.arange(at_floor[0], d_r.size))
        assert np.all(d_r[at_floor] == d_r[-1])


def test_lds_curve_domain_and_scalar_type():
    assign = choose_refinement_receiver(P_A)
    problem = GaussianProblem(P_A.power, P_A.noise_vars, P_A.sideinfo_vars, "1/2")
    lo, hi = gaussian_cds(problem).D[assign.c], problem.sideinfo_vars[assign.c]
    for d in (lo, 0.6, np.float64(0.6), np.array(0.6), hi):
        assert type(gaussian_lds_curve(problem, assign, d)) is float
    d_c = np.linspace(lo, hi, 11)
    for bad in (lo - 1e-6, hi + 1e-6):
        probe = d_c.copy()
        probe[5] = bad
        with pytest.raises(ValueError, match=f"D_c = {bad} outside"):
            gaussian_lds_curve(problem, assign, probe)
