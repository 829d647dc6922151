import numpy as np
import pytest

from wzbc.core import (
    BinaryProblem,
    GaussianProblem,
    RoleAssignment,
    bad_good_labels,
    parse_kappa,
    require_within_bounds,
)
from wzbc.binary import (
    BinaryChannelParams,
    BinarySourceParams,
    TChoice,
    binary_capacity,
    binary_cds_points,
    binary_cds_region,
    binary_lds_cds_pinned_points,
    binary_lds_channel_rates,
    binary_lds_region,
    binary_lds_source_rates,
    binary_separate_region,
    binary_trivial_converse,
    binary_uncoded,
    binary_wz_distortion,
    layer_distortion,
    _binary_lds_vertices,
    _grids,
    _lds_channel_table,
    _lds_refinement_search,
    _separate_best_dg,
    _separate_caps,
    _separate_cells,
    FEAS_TOL,
    _IDX_EPS,
    separate_coding_labels,
)
from wzbc.gaussian import separate_coding_labels as gaussian_separate_coding_labels
from wzbc.infotheory import binary_convolution, binary_entropy, wz_rate_kernel
from wzbc.optimize import envelope_value, lower_envelope_indices

PROBLEM = BinaryProblem(crossovers=(0.05, 0.1), sideinfo_crossovers=(0.2, 0.1), kappa=1)


def bisect_entropy_inverse(h, lo=0.0, hi=0.5):
    """Smallest p with H2(p) = h, by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_wz_distortion_edges():
    assert binary_wz_distortion(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
    assert binary_wz_distortion(0.3, binary_entropy(0.3)) == pytest.approx(0.0, abs=1e-12)
    assert binary_wz_distortion(0.0, 0.5) == 0.0


def test_wz_distortion_pinned_value():
    # frozen from the 2-D brute force over (q, alpha); the analytic-q search
    # refines it from above by less than the alpha-grid slack
    val = binary_wz_distortion(0.25, 0.4)
    assert val == pytest.approx(0.10407830809514322, abs=1e-12)
    qs = np.linspace(0, 1, 2000)
    alphas = np.linspace(0, 0.25, 2000)
    rates = wz_rate_kernel(alphas, 0.25)
    feas = np.outer(qs, rates) <= 0.4
    brute = float((qs[:, None] * alphas[None, :] + (1 - qs[:, None]) * 0.25)[feas].min())
    assert val <= brute + 1e-12
    assert brute - val < 1e-4


def test_wz_distortion_monotone_in_rate():
    vals = [binary_wz_distortion(0.25, r) for r in np.linspace(0, 1, 21)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(0.25)
    assert binary_wz_distortion(0.25, binary_entropy(0.25) + 0.01) == 0.0


def test_uncoded_examples():
    assert binary_uncoded(PROBLEM).D == (0.05, 0.1)
    assert binary_uncoded(
        BinaryProblem((0.05, 0.1), (0.0, 0.1), kappa=1)
    ).D[0] == 0.0
    assert binary_uncoded(
        BinaryProblem((0.0, 0.1), (0.2, 0.1), kappa=1)
    ).D[0] == 0.0
    with pytest.raises(ValueError, match="bandwidth match"):
        binary_uncoded(BinaryProblem((0.05, 0.1), (0.2, 0.1), kappa=2))


def test_cds_region_zero_rate_corner_dominated():
    curve = binary_cds_region(PROBLEM, 21)
    beta = PROBLEM.sideinfo_crossovers
    assert any(p.D[0] <= beta[0] + 1e-12 and p.D[1] <= beta[1] + 1e-12 for p in curve.points)


def test_cds_region_touches_both_converse_corners_when_balanced():
    # pick alpha (inside the q = 1 regime of both receivers) and betas, then
    # solve the channel crossovers so the rate constraint is tight at q = 1
    # for both receivers; the single description then attains both
    # point-to-point floors simultaneously
    alpha, betas = 0.02, (0.25, 0.15)
    ps = tuple(
        bisect_entropy_inverse(1.0 - wz_rate_kernel(alpha, b)) for b in betas
    )
    problem = BinaryProblem(ps, betas, kappa=1)
    conv = binary_trivial_converse(problem, 4001)
    assert conv == pytest.approx((alpha, alpha), abs=1e-6)
    d1, d2, q, a = binary_cds_points(problem, 2001)
    assert min(d1) == pytest.approx(alpha, abs=0.5 / 2000)
    assert min(d2) == pytest.approx(alpha, abs=0.5 / 2000)
    # both coordinates are minimized simultaneously at q = 1, alpha
    i = int(np.argmin(d1))
    assert d2[i] == pytest.approx(min(d2), abs=1e-12)
    assert q[i] == 1.0 and a[i] == pytest.approx(alpha, abs=0.5 / 2000)


def test_cds_region_zero_capacity_receiver():
    problem = BinaryProblem((0.05, 0.5), (0.2, 0.1), kappa=1)
    d1, d2, q, a = binary_cds_points(problem, 41)
    # only zero-rate cells are feasible: q = 0 or r(alpha, beta_k) = 0
    rates = q * wz_rate_kernel(np.minimum(a, 0.5), 0.1)
    assert np.all(rates <= 1e-12)
    assert np.all(d2 >= 0.1 - 1e-12)


def test_lds_source_rates():
    src = BinarySourceParams(q_c=0.3, q_r=0.3, alpha_c=0.2, alpha_r=0.2)
    rates = binary_lds_source_rates(src, 0.2, 0.1)
    assert rates.R_rr == pytest.approx(0.0, abs=1e-15)
    src2 = BinarySourceParams(q_c=0.0, q_r=0.7, alpha_c=0.3, alpha_r=0.1)
    rates2 = binary_lds_source_rates(src2, 0.2, 0.1)
    assert rates2.R_cc == 0.0 and rates2.R_cr == 0.0
    assert rates2.R_rr == pytest.approx(0.7 * wz_rate_kernel(0.1, 0.1), abs=1e-15)
    src3 = BinarySourceParams(q_c=0.5, q_r=0.9, alpha_c=0.5, alpha_r=0.2)
    rates3 = binary_lds_source_rates(src3, 0.2, 0.1)
    assert rates3.R_cc == pytest.approx(0.0, abs=1e-15)
    assert rates3.R_cr == pytest.approx(0.0, abs=1e-15)


def test_source_params_enforce_degraded_order():
    with pytest.raises(ValueError, match="q_c <= q_r"):
        BinarySourceParams(q_c=0.8, q_r=0.3, alpha_c=0.3, alpha_r=0.1)
    with pytest.raises(ValueError, match="alpha_c >= alpha_r"):
        BinarySourceParams(q_c=0.1, q_r=0.3, alpha_c=0.1, alpha_r=0.3)


def test_lds_channel_rates_uc_branch():
    ch = BinaryChannelParams(0.5, 0.0, TChoice.T_EQUALS_UC)
    rates = binary_lds_channel_rates(0.05, 0.1, ch, 1)
    assert rates.R_cc == pytest.approx(1 - binary_entropy(0.05), abs=1e-15)
    assert rates.R_cr == pytest.approx(1 - binary_entropy(0.1), abs=1e-15)
    assert rates.R_rr == pytest.approx(0.0, abs=1e-15)
    kappa_rates = binary_lds_channel_rates(0.05, 0.1, ch, "1/2")
    assert kappa_rates.R_cc == pytest.approx(rates.R_cc / 2, abs=1e-15)


def test_lds_channel_rates_xor_degenerate_cases():
    # gamma_c = 1/2 reduces to the single-description rates
    ch = BinaryChannelParams(0.5, 0.3, TChoice.T_EQUALS_UC_XOR_UR)
    rates = binary_lds_channel_rates(0.05, 0.1, ch, 1)
    assert rates.R_cc == pytest.approx(1 - binary_entropy(0.05), abs=1e-12)
    assert rates.R_cr == pytest.approx(1 - binary_entropy(0.1), abs=1e-12)
    assert rates.R_rr == pytest.approx(0.0, abs=1e-12)
    # gamma_r = 1/2 starves the common layer when gamma_c <= p_c
    ch2 = BinaryChannelParams(0.03, 0.5, TChoice.T_EQUALS_UC_XOR_UR)
    rates2 = binary_lds_channel_rates(0.05, 0.1, ch2, 1)
    assert rates2.R_cc == 0.0 and rates2.R_cr == 0.0
    assert rates2.clamped
    assert rates2.R_rr == pytest.approx(wz_rate_kernel(0.03, 0.5), abs=1e-12)


@pytest.mark.parametrize("resolution", [15, 41])
@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_channel_table_rows_equal_scalar_rates_bitwise(resolution, kappa):
    for p_c, p_r in ((0.05, 0.1), (0.1, 0.05)):
        xor, gamma_c, gamma_r, rates, clamped = _lds_channel_table(p_c, p_r, kappa, resolution)
        assert len(xor) == resolution + resolution**2
        assert clamped.any() and not clamped.all()
        for t, g_c, g_r, row, flag in zip(xor, gamma_c, gamma_r, rates, clamped):
            t_choice = TChoice.T_EQUALS_UC_XOR_UR if t else TChoice.T_EQUALS_UC
            want = binary_lds_channel_rates(
                p_c, p_r, BinaryChannelParams(float(g_c), float(g_r), t_choice), kappa
            )
            assert [float(v).hex() for v in row] == [v.hex() for v in want.as_tuple()]
            assert bool(flag) == want.clamped


def reference_lds_refinement_search(problem, assign, resolution, rates):
    """The layered refinement search as a walk over (tuple, q_c, alpha_c,
    alpha_r) cubes, in chunks of at most 2**20 cells (one tuple when a tuple
    alone is larger), each chunk reduced to its envelope vertices: the former
    body of _lds_refinement_search, kept as the exactness oracle.  Returns the
    (2, m) receiver-order distortions of the kept vertices."""
    qs, alphas = _grids(resolution)
    res = qs.size
    beta_c = problem.sideinfo_crossovers[assign.c]
    beta_r = problem.sideinfo_crossovers[assign.r]
    r_r = wz_rate_kernel(alphas, beta_r)
    src_c = np.outer(qs, wz_rate_kernel(alphas, beta_c))  # (q_c, alpha_c)
    src_r = np.outer(qs, r_r)
    dc_tab = layer_distortion(qs[:, None], alphas[None, :], beta_c)
    dr_tab = layer_distortion(qs[:, None], alphas[None, :], beta_r)
    step = max(1, 2**20 // res**3)
    kept = []
    for start in range(0, len(rates), step):
        chunk = rates[start : start + step]
        cl_ok = (src_c <= chunk[:, 0, None, None] + FEAS_TOL) & (
            src_r <= chunk[:, 1, None, None] + FEAS_TOL
        )
        t, qc, ac = np.nonzero(cl_ok)
        if t.size == 0:
            continue
        budget = chunk[t, 2] + src_r[qc, ac]
        with np.errstate(divide="ignore", invalid="ignore"):
            qmax = budget[:, None] / r_r[None, :]
        qmax[:, r_r <= 0.0] = 1.0
        qr_all = (np.minimum(qmax, 1.0) * (res - 1) + _IDX_EPS).astype(np.int64)
        dr_cand = dr_tab[qr_all, np.arange(res)]
        dr_cand[(qr_all < qc[:, None]) | (alphas > alphas[ac][:, None] + FEAS_TOL)] = np.inf
        ar = np.argmin(dr_cand, axis=1)
        rows = np.nonzero(np.isfinite(dr_cand[np.arange(t.size), ar]))[0]
        if rows.size == 0:
            continue
        qc, ac, ar = qc[rows], ac[rows], ar[rows]
        d = np.empty((2, rows.size))
        d[assign.c] = dc_tab[qc, ac]
        d[assign.r] = dr_tab[qr_all[rows, ar], ar]
        require_within_bounds(problem, d)
        kept.append(d[:, lower_envelope_indices(d[0], d[1])])
    return np.concatenate(kept, axis=1)


def undominated_rows(rates):
    """rates without the rows that another row weakly dominates componentwise
    (of equal rows the first is kept): the tuple pruning that used to precede
    the chunked refinement search."""
    ge = np.all(rates[None, :, :] >= rates[:, None, :], axis=2)
    gt = np.any(rates[None, :, :] > rates[:, None, :], axis=2)
    earlier = np.tri(len(rates), k=-1, dtype=bool)
    return rates[~(ge & (gt | earlier)).any(axis=1)]


def envelope_hex(D):
    return [(D[0][i].hex(), D[1][i].hex()) for i in lower_envelope_indices(D[0], D[1])]


ASSIGNS = (RoleAssignment(1, 2), RoleAssignment(2, 1))
# crossovers of both orders and a tie, side information of both orders and a tie
LDS_PROBLEM_SET = [
    ((p_1, p_2), sideinfo)
    for p_1 in (0.01, 0.1, 0.3)
    for p_2 in (0.05, 0.1, 0.25)
    for sideinfo in ((0.2, 0.1), (0.1, 0.4), (0.25, 0.25))
]


def assert_search_equals_reference(problem, resolution):
    for assign in ASSIGNS:
        _, _, _, rates, clamped = _lds_channel_table(
            problem.crossovers[assign.c], problem.crossovers[assign.r], problem.kappa, resolution
        )
        unflagged = rates[~clamped]
        D, _ = _lds_refinement_search(problem, assign, resolution, unflagged)
        want = reference_lds_refinement_search(
            problem, assign, resolution, undominated_rows(unflagged)
        )
        assert envelope_hex(D) == envelope_hex(want), (problem, resolution, assign)


@pytest.mark.parametrize("resolution", [11, 15, 21])
@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_refinement_search_equals_chunked_reference(kappa, resolution):
    for crossovers, sideinfo in LDS_PROBLEM_SET:
        assert_search_equals_reference(BinaryProblem(crossovers, sideinfo, kappa=kappa), resolution)


def test_refinement_search_equals_chunked_reference_on_fixture_at_41():
    assert_search_equals_reference(PROBLEM, 41)


@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_lds_vertices_carry_feasible_witnesses(kappa):
    for crossovers, sideinfo in LDS_PROBLEM_SET:
        problem = BinaryProblem(crossovers, sideinfo, kappa=kappa)
        for assign in ASSIGNS:
            beta_c = sideinfo[assign.c]
            beta_r = sideinfo[assign.r]
            for v in _binary_lds_vertices(problem, assign, 15):
                p = v.params
                assert p["assign"] == (assign.common_receiver, assign.refinement_receiver)
                src = BinarySourceParams(p["q_c"], p["q_r"], p["alpha_c"], p["alpha_r"])
                D = [None, None]
                D[assign.c] = float(layer_distortion(src.q_c, src.alpha_c, beta_c))
                D[assign.r] = float(layer_distortion(src.q_r, src.alpha_r, beta_r))
                assert tuple(D) == v.D
                if "t" not in p:  # the zero-rate corner needs no channel rate
                    assert v.D == sideinfo
                    continue
                ch = BinaryChannelParams(p["gamma_c"], p["gamma_r"], TChoice(p["t"]))
                channel = binary_lds_channel_rates(
                    crossovers[assign.c], crossovers[assign.r], ch, kappa
                )
                assert not channel.clamped
                source = binary_lds_source_rates(src, beta_c, beta_r)
                for need, have in zip(source.as_tuple(), channel.as_tuple()):
                    assert need <= have + FEAS_TOL


def test_lds_pinned_subgrid_equals_cds_points():
    for res in (11, 21, 41):
        a = binary_cds_points(PROBLEM, res)
        b = binary_lds_cds_pinned_points(PROBLEM, res)
        set_a = sorted(zip(*(v.tolist() for v in a)))
        set_b = sorted(zip(*(v.tolist() for v in b)))
        assert set_a == set_b


def test_lds_region_zero_rate_corner_present():
    vertices = _binary_lds_vertices(PROBLEM, RoleAssignment(1, 2), 11)
    assert any(v.D == PROBLEM.sideinfo_crossovers for v in vertices)


def test_lds_region_contains_cds_region():
    lds = binary_lds_region(PROBLEM, 21)
    cds = binary_cds_region(PROBLEM, 21)
    lo, hi = lds.d1()[0], lds.d1()[-1]
    for p in cds.points:
        x = min(max(p.D[0], lo), hi)
        assert envelope_value(lds, x) <= p.D[1] + 1e-12


def test_lds_region_respects_converse_and_bounds():
    conv = binary_trivial_converse(PROBLEM)
    beta = PROBLEM.sideinfo_crossovers
    curve = binary_lds_region(PROBLEM, 21)
    for p in curve.points:
        assert p.D[0] >= conv[0] - 1e-9 and p.D[1] >= conv[1] - 1e-9
        assert p.D[0] <= beta[0] + 1e-12 and p.D[1] <= beta[1] + 1e-12


def test_lds_region_grid_slack_shrinks():
    conv = binary_trivial_converse(PROBLEM)

    def worst_violation(res):
        curve = binary_lds_region(PROBLEM, res)
        return max(
            max(conv[0] - p.D[0], conv[1] - p.D[1]) for p in curve.points
        )

    coarse, fine = worst_violation(11), worst_violation(21)
    assert fine <= max(coarse, 0.0) + 1e-12


def test_lds_region_rejects_coarse_grid():
    with pytest.raises(ValueError, match="grid too coarse"):
        binary_lds_region(PROBLEM, 2)


def test_refinement_total_capacity_not_exceeded():
    # R_cr + R_rr never exceeds the refinement receiver's capacity
    p_c, p_r = 0.05, 0.1
    cap_r = binary_capacity(p_r)
    gammas = np.linspace(0, 0.5, 21)
    for g_r in gammas:
        rates = binary_lds_channel_rates(
            p_c, p_r, BinaryChannelParams(0.5, g_r, TChoice.T_EQUALS_UC), 1
        )
        assert rates.R_cr + rates.R_rr <= cap_r + 1e-12
    for g_c in gammas:
        for g_r in gammas:
            rates = binary_lds_channel_rates(
                p_c, p_r, BinaryChannelParams(g_c, g_r, TChoice.T_EQUALS_UC_XOR_UR), 1
            )
            if not rates.clamped:
                assert rates.R_cr + rates.R_rr <= cap_r + 1e-12


def test_separate_region_basics():
    curve = binary_separate_region(PROBLEM, 21)
    conv = binary_trivial_converse(PROBLEM)
    beta = PROBLEM.sideinfo_crossovers
    for p in curve.points:
        assert p.D[0] >= conv[0] - 1e-9 and p.D[1] >= conv[1] - 1e-9
        assert p.D[0] <= beta[0] + 1e-12 and p.D[1] <= beta[1] + 1e-12
    # zero-rate corner achievable: some point dominates (beta_1, beta_2)
    assert any(p.D[0] <= beta[0] + 1e-12 and p.D[1] <= beta[1] + 1e-12 for p in curve.points)
    with pytest.raises(ValueError, match="grid too coarse"):
        binary_separate_region(PROBLEM, 2)


def test_separate_channel_bounds_at_theta_extremes():
    # theta = 0: everything to the bad-receiver message, no private increment;
    # theta = 1/2: bad-receiver bound collapses, good receiver gets full capacity
    p_b, p_g = 0.1, 0.05
    cap_b = lambda th: 1 - binary_entropy(binary_convolution(th, p_b))
    cap_inc = lambda th: binary_entropy(binary_convolution(th, p_g)) - binary_entropy(p_g)
    assert cap_b(0.0) == pytest.approx(1 - binary_entropy(p_b), abs=1e-15)
    assert cap_inc(0.0) == pytest.approx(0.0, abs=1e-15)
    assert cap_b(0.5) == pytest.approx(0.0, abs=1e-12)
    assert cap_inc(0.5) == pytest.approx(1 - binary_entropy(p_g), abs=1e-12)


def reference_separate_vertices(problem, resolution):
    """The separate-coding sweep as one (theta, q_b) loop over res^3 cubes:
    the former body of binary_separate_region, kept as the exactness oracle.
    Returns the region's (D, params) pairs."""
    b, g = separate_coding_labels(problem)
    p_b, p_g = problem.crossovers[b], problem.crossovers[g]
    beta_b, beta_g = problem.sideinfo_crossovers[b], problem.sideinfo_crossovers[g]
    kappa = float(problem.kappa)
    qs, alphas = _grids(resolution)
    thetas = np.linspace(0.0, 0.5, resolution)
    good_first = beta_g <= beta_b
    r_bb = wz_rate_kernel(alphas, beta_b)
    r_bg = wz_rate_kernel(alphas, beta_g)
    d_b_tab = layer_distortion(qs[:, None], alphas[None, :], beta_b)
    d_g_tab = layer_distortion(qs[:, None], alphas[None, :], beta_g)
    vertices = []
    for theta in thetas:
        cap_b = kappa * (1.0 - binary_entropy(binary_convolution(theta, p_b)))
        cap_tot = cap_b + kappa * (
            binary_entropy(binary_convolution(theta, p_g)) - binary_entropy(p_g)
        )
        pts_x, pts_y, pts_params = [], [], []
        for qb_i, q_b in enumerate(qs):
            S = q_b * r_bb
            ok_b = S <= cap_b + FEAS_TOL
            if not ok_b.any():
                continue
            if good_first:
                E = q_b * r_bg
                lhs = S[:, None, None] + np.maximum(
                    0.0, qs[None, None, :] * r_bg[None, :, None] - E[:, None, None]
                )
            else:
                qr_g = qs[None, None, :] * r_bg[None, :, None]
                lhs = qr_g + np.maximum(
                    0.0, S[:, None, None] - qs[None, None, :] * r_bb[None, :, None]
                )
            cond = lhs <= cap_tot + FEAS_TOL
            order = (
                (q_b <= qs[None, None, :] + FEAS_TOL)
                & (alphas[:, None, None] >= alphas[None, :, None] - FEAS_TOL)
            ) | (
                (qs[None, None, :] <= q_b + FEAS_TOL)
                & (alphas[None, :, None] >= alphas[:, None, None] - FEAS_TOL)
            )
            valid = cond & order & ok_b[:, None, None]
            if not valid.any():
                continue
            flat = np.where(valid, d_g_tab.T[None, :, :], np.inf).reshape(valid.shape[0], -1)
            best = np.argmin(flat, axis=1)
            d_g_min = flat[np.arange(flat.shape[0]), best]
            for ab_i in np.nonzero(np.isfinite(d_g_min))[0]:
                ag_i, qg_i = divmod(int(best[ab_i]), len(qs))
                pts_x.append(d_b_tab[qb_i, ab_i])
                pts_y.append(d_g_min[ab_i])
                pts_params.append((theta, q_b, alphas[ab_i], qs[qg_i], alphas[ag_i]))
        if not pts_x:
            continue
        xb = np.asarray(pts_x) if b == 0 else np.asarray(pts_y)
        yb = np.asarray(pts_y) if b == 0 else np.asarray(pts_x)
        for i in lower_envelope_indices(xb, yb):
            names = ("theta", "q_b", "alpha_b", "q_g", "alpha_g")
            vertices.append(((xb[i], yb[i]), dict(zip(names, map(float, pts_params[i])))))
    x = np.array([d[0] for d, _ in vertices])
    y = np.array([d[1] for d, _ in vertices])
    return [vertices[i] for i in lower_envelope_indices(x, y)]


# both side-information orders, equal crossovers (with and without a
# side-information tie), crossovers near 0.01 and 0.3, kappa 1 and 1/2
SEPARATE_PROBLEMS = [
    BinaryProblem((0.05, 0.1), (0.2, 0.1), kappa=1),  # good receiver's side info worse
    BinaryProblem((0.01, 0.3), (0.1, 0.4), kappa=1),  # good receiver's side info better
    BinaryProblem((0.3, 0.012), (0.05, 0.45), kappa="1/2"),
    BinaryProblem((0.1, 0.1), (0.3, 0.15), kappa="1/2"),  # label tie on the crossover
    BinaryProblem((0.2, 0.2), (0.25, 0.25), kappa=1),  # full label tie
]


@pytest.mark.parametrize("resolution", [3, 5, 11, 21])
@pytest.mark.parametrize("problem", SEPARATE_PROBLEMS)
def test_separate_region_equals_theta_loop_reference(problem, resolution):
    curve = binary_separate_region(problem, resolution)
    want = reference_separate_vertices(problem, resolution)
    assert [[float(d).hex() for d in p.D] for p in curve.points] == [
        [float(d).hex() for d in D] for D, _ in want
    ]
    assert [dict(p.params) for p in curve.points] == [params for _, params in want]


@pytest.mark.parametrize("resolution", [15, 27, 41])
@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_separate_caps_equal_scalar_expressions_bitwise(resolution, kappa):
    k = float(parse_kappa(kappa))
    thetas = np.linspace(0.0, 0.5, resolution)
    for p_b, p_g in ((0.1, 0.05), (0.3, 0.012), (0.2, 0.2)):
        cap_b, cap_tot = _separate_caps(p_b, p_g, k, thetas)
        for theta, cb, ct in zip(thetas, cap_b, cap_tot):
            want_b = k * (1.0 - binary_entropy(binary_convolution(theta, p_b)))
            want_tot = want_b + k * (
                binary_entropy(binary_convolution(theta, p_g)) - binary_entropy(p_g)
            )
            assert (float(cb).hex(), float(ct).hex()) == (want_b.hex(), want_tot.hex())


@pytest.mark.parametrize("resolution", [7, 17])
@pytest.mark.parametrize("good_first", [True, False])
def test_separate_best_dg_equals_brute_force_at_tied_thresholds(good_first, resolution):
    qs, alphas = _grids(resolution)
    r_bb = wz_rate_kernel(alphas, 0.3)
    r_bg = wz_rate_kernel(alphas, 0.15)
    d_g_tab = layer_distortion(qs[:, None], alphas[None, :], 0.15)
    lhs, order = _separate_cells(qs, alphas, r_bb, r_bg, good_first, qs)
    # thresholds equal to cell values, unsorted, repeated, and one admitting nothing
    picks = np.random.default_rng(resolution).choice(lhs[order], 9)
    thresholds = np.concatenate((picks, picks[:2], [-1.0]))
    best = _separate_best_dg(qs, alphas, r_bb, r_bg, good_first, d_g_tab, thresholds)
    d_g = d_g_tab.T.ravel()
    for k, threshold in enumerate(thresholds):
        want = np.where(order & (lhs <= threshold), d_g, np.inf).min(axis=2)
        assert np.array_equal(best[k], want)


@pytest.mark.parametrize("problem", SEPARATE_PROBLEMS)
def test_separate_vertices_carry_feasible_witnesses(problem):
    b, g = separate_coding_labels(problem)
    p_b, p_g = problem.crossovers[b], problem.crossovers[g]
    beta_b, beta_g = problem.sideinfo_crossovers[b], problem.sideinfo_crossovers[g]
    k = float(problem.kappa)
    for p in binary_separate_region(problem, 21).points:
        theta, q_b, a_b, q_g, a_g = (
            p.params[name] for name in ("theta", "q_b", "alpha_b", "q_g", "alpha_g")
        )
        cap_b = k * (1.0 - binary_entropy(binary_convolution(theta, p_b)))
        cap_tot = cap_b + k * (
            binary_entropy(binary_convolution(theta, p_g)) - binary_entropy(p_g)
        )
        bad_rate = q_b * wz_rate_kernel(a_b, beta_b)
        assert bad_rate <= cap_b + FEAS_TOL
        if beta_g <= beta_b:
            total = bad_rate + max(0.0, q_g * wz_rate_kernel(a_g, beta_g)
                                   - q_b * wz_rate_kernel(a_b, beta_g))
        else:
            total = q_g * wz_rate_kernel(a_g, beta_g) + max(
                0.0, bad_rate - q_g * wz_rate_kernel(a_g, beta_b)
            )
        assert total <= cap_tot + FEAS_TOL
        assert (q_b <= q_g + FEAS_TOL and a_b >= a_g - FEAS_TOL) or (
            q_g <= q_b + FEAS_TOL and a_g >= a_b - FEAS_TOL
        )
        D = [None, None]
        D[b] = float(layer_distortion(q_b, a_b, beta_b))
        D[g] = float(layer_distortion(q_g, a_g, beta_g))
        assert tuple(D) == p.D


@pytest.mark.parametrize(
    "channel, sideinfo, want",
    [
        ((0.1, 0.05), (0.2, 0.3), (0, 1)),
        ((0.05, 0.1), (0.2, 0.3), (1, 0)),
        ((0.1, 0.1), (0.3, 0.2), (0, 1)),  # channel tie: smaller side-info parameter is good
        ((0.1, 0.1), (0.2, 0.3), (1, 0)),
        ((0.1, 0.1), (0.2, 0.2), (0, 1)),  # full tie: receiver 2 is good
    ],
)
def test_separate_coding_labels_rule_for_both_problem_kinds(channel, sideinfo, want):
    assert bad_good_labels(channel, sideinfo) == want
    assert separate_coding_labels(BinaryProblem(channel, sideinfo)) == want
    gaussian = GaussianProblem(power=1.0, noise_vars=channel, sideinfo_vars=sideinfo)
    assert gaussian_separate_coding_labels(gaussian) == want


def test_lds_envelope_below_separate_envelope():
    lds = binary_lds_region(PROBLEM, 21)
    sep = binary_separate_region(PROBLEM, 21)
    lo = max(lds.d1()[0], sep.d1()[0])
    hi = min(lds.d1()[-1], sep.d1()[-1])
    xs = np.linspace(lo, hi, 21)
    assert np.all(envelope_value(lds, xs) <= envelope_value(sep, xs) + 1e-9)


def test_layer_distortion_is_non_increasing_in_q_on_every_grid():
    betas = np.linspace(0.0, 0.5, 101)[:, None, None]
    for resolution in range(15, 122):
        qs, alphas = _grids(resolution)
        d = layer_distortion(qs[None, :, None], alphas[None, None, :], betas)
        assert np.all(d[:, 1:, :] <= d[:, :-1, :])
        # alpha >= beta: the description does not help, at any q
        assert np.all(d == betas, where=alphas[None, None, :] >= betas)


def test_layer_distortion_formula():
    assert layer_distortion(0.0, 0.3, 0.2) == pytest.approx(0.2)
    assert layer_distortion(1.0, 0.3, 0.2) == pytest.approx(0.2)  # alpha above beta
    assert layer_distortion(1.0, 0.05, 0.2) == pytest.approx(0.05)
    assert layer_distortion(0.5, 0.1, 0.2) == pytest.approx(0.15)


def test_cds_accepts_more_than_two_receivers():
    # feasibility constrains every receiver; the curve is emitted for the first two
    problem = BinaryProblem((0.05, 0.1, 0.2), (0.2, 0.1, 0.3), kappa=1)
    d1, d2, q, a = binary_cds_points(problem, 21)
    assert len(d1) > 0
    caps = [1 - binary_entropy(p) for p in problem.crossovers]
    for qi, ai in zip(q, a):
        for p, beta, cap in zip(problem.crossovers, problem.sideinfo_crossovers, caps):
            assert qi * wz_rate_kernel(ai, beta) <= cap + 1e-9
