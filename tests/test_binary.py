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
    _channel_rate_table,
    _grids,
    _last_layer,
    _lds_channel_table,
    _lds_refinement_search,
    _separate_best_theta,
    _wz_distortion_witness,
    FEAS_TOL,
    separate_coding_labels,
)
from wzbc.cli import main
from wzbc.gaussian import separate_coding_labels as gaussian_separate_coding_labels
from wzbc.infotheory import binary_convolution, binary_entropy, wz_rate_kernel
from wzbc.optimize import lower_envelope_indices

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
    for beta in (0.0, 0.05, 0.3, 0.5):
        assert binary_wz_distortion(beta, 0.0) == beta
        assert binary_wz_distortion(beta, binary_entropy(beta)) == 0.0
        assert binary_wz_distortion(beta, 2.0) == 0.0
    assert binary_wz_distortion(0.0, 0.5) == 0.0
    # no side information: the rate-distortion function, H2(D) = 1 - R
    assert binary_entropy(binary_wz_distortion(0.5, 0.4)) == pytest.approx(0.6, abs=1e-12)
    for beta, R in ((-0.1, 0.1), (0.6, 0.1), (0.2, -1e-9), (0.2, float("nan"))):
        with pytest.raises(ValueError):
            binary_wz_distortion(beta, R)


def test_wz_distortion_witness_meets_the_rate_and_gives_the_value():
    # edges and both branches: the witness (q, alpha) fits the rate and its
    # layer distortion is the value
    cases = [(0.3, 0.0), (0.0, 0.5), (0.3, 2.0), (0.5, 0.4), (0.1, 0.05), (0.1, 0.4)]
    for beta, R in cases:
        value, q, alpha = _wz_distortion_witness(beta, R)
        assert value == binary_wz_distortion(beta, R)
        assert q * wz_rate_kernel(alpha, beta) <= R + 1e-15
        assert layer_distortion(q, alpha, beta) == pytest.approx(value, abs=1e-15)


def fine_grid_wz_distortion(beta, R, n=2_000_001):
    """min over an n-point alpha grid on [0, beta] of the time-sharing
    distortion beta - q (beta - alpha) with q = min(1, R / r(alpha, beta))."""
    alphas = np.linspace(0.0, beta, n)
    r = wz_rate_kernel(alphas, beta)
    q = np.ones(n)
    q[r > 0.0] = np.minimum(1.0, R / r[r > 0.0])
    return float((beta - q * (beta - alphas)).min())


def wz_tangent_point(beta, n=200_001):
    """Grid estimate of the tangent point from (beta, 0) to r(., beta): the
    maximizer of (beta - a) / r(a, beta)."""
    a = np.linspace(0.0, beta, n)[1:-1]
    return float(a[np.argmax((beta - a) / wz_rate_kernel(a, beta))])


def test_wz_distortion_pinned_value():
    # the exact value; the 2,000,001-point analytic-q grid value lies above it
    # by 6.4e-15 (on the tangent branch the grid error is second order)
    val = binary_wz_distortion(0.25, 0.4)
    assert val.hex() == "0x1.aa4e03c94f69ep-4"
    assert 0.0 <= fine_grid_wz_distortion(0.25, 0.4) - val < 1e-12


def test_wz_distortion_monotone_in_rate():
    for beta in (0.01, 0.1, 0.2, 0.25, 0.3, 0.45, 0.5):
        rates = np.linspace(0.0, binary_entropy(beta) + 0.01, 401)
        vals = [binary_wz_distortion(beta, float(r)) for r in rates]
        assert all(b <= a for a, b in zip(vals, vals[1:])), beta
        assert vals[0] == beta and vals[-1] == 0.0


def test_wz_distortion_monotone_in_beta():
    for R in (0.0, 0.05, 0.3, 0.6, 0.99):
        vals = [binary_wz_distortion(float(b), R) for b in np.linspace(0.0, 0.5, 401)]
        assert all(b >= a for a, b in zip(vals, vals[1:])), R


def test_wz_distortion_against_a_fine_grid():
    # random draws on both branches: never above the grid value, equal to it
    # within 1e-12 on the tangent branch and within the grid spacing on the
    # saturation branch (there the grid misses the saturation point to first order)
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(6):
        beta = float(rng.uniform(0.01, 0.5))
        R = float(rng.uniform(0.0, binary_entropy(beta)))
        val = binary_wz_distortion(beta, R)
        grid = fine_grid_wz_distortion(beta, R)
        assert val <= grid + 1e-15, (beta, R)
        # the grid tangent point is off by ~1e-6, so the margin keeps the
        # classification right
        tangent = R < wz_rate_kernel(wz_tangent_point(beta), beta) * (1 - 1e-4)
        seen.add(tangent)
        assert grid - val <= (1e-12 if tangent else beta / 2_000_000), (beta, R, tangent)
    assert seen == {True, False}


def test_wz_distortion_at_the_saturation_kink():
    # at R = r(d_t, beta) both branches give the tangent point d_t
    for beta in (0.1, 0.45):
        d_t = wz_tangent_point(beta)
        R = float(wz_rate_kernel(d_t, beta))
        val = binary_wz_distortion(beta, R)
        assert val == pytest.approx(d_t, abs=1e-5)
        assert -1e-15 <= fine_grid_wz_distortion(beta, R) - val <= beta / 2_000_000


@pytest.mark.parametrize("seed", range(5))
def test_binary_oracle_suite_passes(seed, capsys):
    assert main(["validate", "--suite", "binary-oracle", "--seed", str(seed)]) == 0
    assert "sub-grid equality True" in capsys.readouterr().out


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
    conv = binary_trivial_converse(problem)
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
    # every row at 15; at 41 the whole T = U_c block and 200 seeded xor rows
    rng = np.random.default_rng(resolution)
    for p_c, p_r in ((0.05, 0.1), (0.1, 0.05)):
        xor, gamma_c, gamma_r, rates, clamped = _lds_channel_table(p_c, p_r, kappa, resolution)
        assert len(xor) == resolution + resolution**2
        assert clamped.any() and not clamped.all()
        rows = np.arange(len(xor))
        if resolution > 15:
            rows = np.concatenate((rows[:resolution], rng.choice(rows[resolution:], 200, False)))
        assert not xor[:resolution].any() and xor[resolution:].all()
        for i in rows:
            t_choice = TChoice.T_EQUALS_UC_XOR_UR if xor[i] else TChoice.T_EQUALS_UC
            want = binary_lds_channel_rates(
                p_c, p_r, BinaryChannelParams(float(gamma_c[i]), float(gamma_r[i]), t_choice), kappa
            )
            assert [float(v).hex() for v in rates[i]] == [v.hex() for v in want.as_tuple()]
            assert bool(clamped[i]) == want.clamped


def grid_q_lds_search(problem, assign, resolution, rates):
    """The former grid-q layered refinement search: each alpha_r takes the
    largest grid q_r within the budget, over (tuple, q_c, alpha_c, alpha_r)
    cubes in chunks of at most 2**20 cells (one tuple when a tuple alone is
    larger), each chunk reduced to its envelope vertices.  Kept as the
    reference the continuous-q_r search must dominate.  Returns the (2, m)
    receiver-order distortions of the kept vertices."""
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
        qr_all = (np.minimum(qmax, 1.0) * (res - 1) + 1e-9).astype(np.int64)
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


def reference_lds_refinement_search(problem, assign, resolution, rates):
    """The layered refinement search with continuous q_r for every (tuple,
    q_c, alpha_c, alpha_r) cell: an alpha_r <= alpha_c takes
    q_r = min(1, budget / r(alpha_r, beta_r)) (1 when r = 0) and is admitted
    when q_c r(alpha_r, beta_r) fits the budget within FEAS_TOL, with q_r
    raised to q_c.  Chunks of at most 2**20 cells (one tuple when a tuple
    alone is larger) are each reduced to their envelope vertices.  Returns the
    (2, m) receiver-order distortions of the kept vertices."""
    qs, alphas = _grids(resolution)
    res = qs.size
    beta_c = problem.sideinfo_crossovers[assign.c]
    beta_r = problem.sideinfo_crossovers[assign.r]
    r_r = wz_rate_kernel(alphas, beta_r)
    src_c = np.outer(qs, wz_rate_kernel(alphas, beta_c))  # (q_c, alpha_c)
    src_r = np.outer(qs, r_r)
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
        budget = (chunk[t, 2] + src_r[qc, ac])[:, None]
        q_c = qs[qc][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            q_r = np.where(r_r > 0.0, np.minimum(1.0, budget / r_r), 1.0)
        ok = (q_c * r_r <= budget + FEAS_TOL) & (alphas <= alphas[ac][:, None])
        q_r = np.maximum(q_r, q_c)
        # the smallest D_r over alpha_r of each (tuple, q_c, alpha_c) is the
        # only point of the row the envelope can keep
        d = np.empty((2, t.size))
        d[assign.c] = layer_distortion(qs[qc], alphas[ac], beta_c)
        d[assign.r] = np.where(ok, layer_distortion(q_r, alphas, beta_r), np.inf).min(axis=1)
        require_within_bounds(problem, d)
        kept.append(d[:, lower_envelope_indices(d[0], d[1])])
    return np.concatenate(kept, axis=1)


def undominated_rows(rates):
    """rates without the rows that another row weakly dominates componentwise
    (of equal rows the first is kept): no tuple they drop gives a point that
    a kept tuple does not give as well."""
    ge = np.all(rates[None, :, :] >= rates[:, None, :], axis=2)
    gt = np.any(rates[None, :, :] > rates[:, None, :], axis=2)
    earlier = np.tri(len(rates), k=-1, dtype=bool)
    return rates[~(ge & (gt | earlier)).any(axis=1)]


def envelope_hex(D):
    return [(D[0][i].hex(), D[1][i].hex()) for i in lower_envelope_indices(D[0], D[1])]


def assert_on_or_above(D_old, D_new, tol=1e-12):
    """Every point of D_old lies on or above the lower envelope through D_new
    (+inf left of its first vertex, its lowest value right of its last)."""
    keep = lower_envelope_indices(D_new[0], D_new[1])
    xs, ys = D_new[0][keep], D_new[1][keep]
    x = np.where((D_old[0] < xs[0]) & (D_old[0] >= xs[0] - tol), xs[0], D_old[0])
    below = np.interp(x, xs, ys, left=np.inf, right=ys[-1]) - (D_old[1] + tol)
    assert np.all(below <= 0.0), float(below.max())


ASSIGNS = (RoleAssignment(1, 2), RoleAssignment(2, 1))
# crossovers of both orders and a tie, side information of both orders and a tie
LDS_PROBLEM_SET = [
    ((p_1, p_2), sideinfo)
    for p_1 in (0.01, 0.1, 0.3)
    for p_2 in (0.05, 0.1, 0.25)
    for sideinfo in ((0.2, 0.1), (0.1, 0.4), (0.25, 0.25))
]


def unflagged_rates(problem, assign, resolution):
    _, _, _, rates, clamped = _lds_channel_table(
        problem.crossovers[assign.c], problem.crossovers[assign.r], problem.kappa, resolution
    )
    return rates[~clamped]


def assert_search_equals_reference(problem, resolution, prune):
    """The search equals the continuous-q_r reference in float hex; the
    reference walks every unflagged tuple, or only the undominated ones when
    prune is set (to bound its time at the larger resolutions)."""
    for assign in ASSIGNS:
        rates = unflagged_rates(problem, assign, resolution)
        D, _, _ = _lds_refinement_search(problem, assign, resolution, rates)
        want = reference_lds_refinement_search(
            problem, assign, resolution, undominated_rows(rates) if prune else rates
        )
        assert envelope_hex(D) == envelope_hex(want), (problem, resolution, assign)


@pytest.mark.parametrize("resolution", [11, 15])
@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_refinement_search_equals_chunked_reference(kappa, resolution):
    for crossovers, sideinfo in LDS_PROBLEM_SET:
        assert_search_equals_reference(
            BinaryProblem(crossovers, sideinfo, kappa=kappa), resolution, prune=False
        )


def test_refinement_search_equals_chunked_reference_on_fixture_at_41():
    assert_search_equals_reference(PROBLEM, 41, prune=True)


@pytest.mark.parametrize("resolution", [11, 15])
@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_refinement_search_dominates_grid_q_search(kappa, resolution):
    for crossovers, sideinfo in LDS_PROBLEM_SET:
        problem = BinaryProblem(crossovers, sideinfo, kappa=kappa)
        for assign in ASSIGNS:
            rates = unflagged_rates(problem, assign, resolution)
            D, _, _ = _lds_refinement_search(problem, assign, resolution, rates)
            old = grid_q_lds_search(problem, assign, resolution, undominated_rows(rates))
            assert_on_or_above(old, D)


@pytest.mark.parametrize("layer", [0, 1])
def test_refinement_search_admits_common_rates_over_cap_by_half_the_slack(layer):
    # one tuple whose R_cc (layer 0) or R_cr (layer 1) lies FEAS_TOL / 2 below
    # the rate of the cell (q_c, alpha_c) = (1, 0.05): the cell is admitted, and
    # it alone attains the smallest D_c
    assign, res = RoleAssignment(1, 2), 11
    qs, alphas = _grids(res)
    beta_c, beta_r = PROBLEM.sideinfo_crossovers
    r_layer = wz_rate_kernel(alphas, (beta_c, beta_r)[layer])
    rates = np.array([[10.0, 10.0, 0.0]])
    rates[0, layer] = r_layer[1] - 0.5 * FEAS_TOL
    D, _, _ = _lds_refinement_search(PROBLEM, assign, res, rates)
    d_c = layer_distortion(qs[:, None], alphas[None, :], beta_c)
    src = np.outer(qs, r_layer)
    assert D[assign.c].min() == d_c[src <= rates[0, layer] + FEAS_TOL].min() == d_c[-1, 1]
    assert d_c[src <= rates[0, layer]].min() > d_c[-1, 1]


def test_refinement_search_admits_q_r_below_q_c_by_half_the_slack():
    # the cell (q_c, alpha_c) = (1, 0.05) with R_rr FEAS_TOL / 2 short of
    # what alpha_r = 0 needs at q_r = q_c: the pair is admitted with q_r = 1,
    # which gives the vertex (0.05, 0)
    assign, res = RoleAssignment(1, 2), 11
    _, alphas = _grids(res)
    beta_c, beta_r = PROBLEM.sideinfo_crossovers
    r_r = wz_rate_kernel(alphas, beta_r)
    r_rr = r_r[0] - r_r[1] - 0.5 * FEAS_TOL
    rates = np.array([[wz_rate_kernel(alphas[1], beta_c), r_r[1], r_rr]])
    assert r_r[0] > rates[0, 2] + r_r[1]  # the budget alone does not admit it
    D, _, q_r = _lds_refinement_search(PROBLEM, assign, res, rates)
    assert (layer_distortion(1.0, alphas[1], beta_c), 0.0) in zip(D[assign.c], D[assign.r])
    assert np.all(q_r <= 1.0)


@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_lds_vertices_carry_feasible_witnesses(kappa):
    # every row of each role assignment's vertices and of the merged region
    # re-derives its D from its own columns
    region_assigns = set()
    for crossovers, sideinfo in LDS_PROBLEM_SET:
        problem = BinaryProblem(crossovers, sideinfo, kappa=kappa)
        curve = binary_lds_region(problem, 15)
        region_assigns.update(map(tuple, curve.params["assign"].tolist()))
        tables = [_binary_lds_vertices(problem, a, 15) for a in ASSIGNS]
        for rows, params in tables + [(curve.D, curve.params)]:
            assert all(column.shape[0] == rows.shape[0] for column in params.values())
            for i, D in enumerate(rows.tolist()):
                p = {k: v[i] for k, v in params.items()}
                assign = RoleAssignment(*p["assign"].tolist())
                beta_c = sideinfo[assign.c]
                beta_r = sideinfo[assign.r]
                src = BinarySourceParams(p["q_c"], p["q_r"], p["alpha_c"], p["alpha_r"])
                d = [None, None]
                d[assign.c] = float(layer_distortion(src.q_c, src.alpha_c, beta_c))
                d[assign.r] = float(layer_distortion(src.q_r, src.alpha_r, beta_r))
                assert d == D
                if p["t"] == "":  # the zero-rate corner needs no channel rate
                    assert D == list(sideinfo)
                    assert np.isnan(p["gamma_c"]) and np.isnan(p["gamma_r"])
                    continue
                ch = BinaryChannelParams(p["gamma_c"], p["gamma_r"], TChoice(str(p["t"])))
                channel = binary_lds_channel_rates(
                    crossovers[assign.c], crossovers[assign.r], ch, kappa
                )
                assert not channel.clamped
                source = binary_lds_source_rates(src, beta_c, beta_r)
                for need, have in zip(source.as_tuple(), channel.as_tuple()):
                    assert need <= have + FEAS_TOL
    # the merged rows came from both role assignments
    assert region_assigns == {(1, 2), (2, 1)}


@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_cds_region_carries_feasible_witnesses(kappa):
    # each row's (q, alpha) gives its D exactly and fits every receiver's channel
    problems = [(PROBLEM.crossovers, PROBLEM.sideinfo_crossovers)] + LDS_PROBLEM_SET
    for crossovers, sideinfo in problems:
        curve = binary_cds_region(BinaryProblem(crossovers, sideinfo, kappa=kappa), 15)
        q, alpha = curve.params["q"], curve.params["alpha"]
        assert q.shape == alpha.shape == curve.d1().shape
        for k, (p, beta) in enumerate(zip(crossovers, sideinfo)):
            assert layer_distortion(q, alpha, beta).tolist() == curve.D[:, k].tolist()
            cap = float(parse_kappa(kappa)) * (1.0 - binary_entropy(p))
            assert np.all(q * wz_rate_kernel(alpha, beta) <= cap + 1e-12)


def test_lds_pinned_subgrid_equals_cds_points():
    for res in (11, 21, 41):
        a = binary_cds_points(PROBLEM, res)
        b = binary_lds_cds_pinned_points(PROBLEM, res)
        set_a = sorted(zip(*(v.tolist() for v in a)))
        set_b = sorted(zip(*(v.tolist() for v in b)))
        assert set_a == set_b


def test_lds_region_zero_rate_corner_present():
    D, params = _binary_lds_vertices(PROBLEM, RoleAssignment(1, 2), 11)
    assert D[0].tolist() == list(PROBLEM.sideinfo_crossovers) and params["t"][0] == ""
    # at zero capacity only the zero-rate corner is feasible: the region is
    # that corner alone, the first row of the first role assignment
    curve = binary_lds_region(BinaryProblem((0.5, 0.5), PROBLEM.sideinfo_crossovers), 11)
    assert curve.D.tolist() == [list(PROBLEM.sideinfo_crossovers)]
    p = curve.params
    assert p["assign"].tolist() == [[1, 2]] and p["t"].tolist() == [""]
    assert np.isnan(p["gamma_c"]).all() and np.isnan(p["gamma_r"]).all()
    assert [p[k].tolist() for k in ("q_c", "alpha_c", "q_r", "alpha_r")] == [[0.0]] * 4


def test_lds_region_contains_cds_region():
    lds = binary_lds_region(PROBLEM, 21)
    cds = binary_cds_region(PROBLEM, 21)
    lo, hi = lds.d1()[0], lds.d1()[-1]
    for p in cds.points:
        x = min(max(p.D[0], lo), hi)
        assert np.interp(x, lds.d1(), lds.d2()) <= p.D[1] + 1e-12


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


def grid_q_separate_vertices(problem, resolution):
    """The former grid-q separate-coding sweep as one (theta, q_b) loop over
    res^3 (alpha_b, alpha_g, q_g) cubes, kept as the reference the
    continuous-q_g sweep must dominate.  Returns the region's (D, params) pairs."""
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


def reference_separate_vertices(problem, resolution):
    """The separate-coding sweep with continuous q_g for every (theta, q_b,
    alpha_b, alpha_g) cell: per theta, a (q_b, alpha_b) whose rate fits the
    bad cap within FEAS_TOL pairs with every alpha_g at the largest q_g whose
    cumulative rate fits the cumulative cap, put in degradation order (q_g <=
    q_b when alpha_g > alpha_b; when alpha_g < alpha_b admitted only if
    q_g >= q_b - FEAS_TOL, then raised to q_b).  Each theta's points are
    reduced to their envelope vertices and the region is the envelope of
    those.  Returns the (2, m) receiver-order distortions of its vertices."""
    b, g = separate_coding_labels(problem)
    p_b, p_g = problem.crossovers[b], problem.crossovers[g]
    beta_b, beta_g = problem.sideinfo_crossovers[b], problem.sideinfo_crossovers[g]
    kappa = float(problem.kappa)
    qs, alphas = _grids(resolution)
    good_first = beta_g <= beta_b
    Q_b, A_b, A_g = qs[:, None, None], alphas[None, :, None], alphas[None, None, :]
    S = Q_b * wz_rate_kernel(A_b, beta_b)
    E = Q_b * wz_rate_kernel(A_b, beta_g)
    r_gg = wz_rate_kernel(A_g, beta_g)
    r_gb = wz_rate_kernel(A_g, beta_b)
    d_b = np.broadcast_to(layer_distortion(Q_b, A_b, beta_b), (resolution,) * 3)
    xs, ys = [], []
    for theta in np.linspace(0.0, 0.5, resolution):
        cap_b = kappa * (1.0 - binary_entropy(binary_convolution(theta, p_b)))
        cap_tot = cap_b + kappa * (
            binary_entropy(binary_convolution(theta, p_g)) - binary_entropy(p_g)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            if good_first:
                q = (cap_tot - S + E) / r_gg
            else:
                q = np.minimum(
                    cap_tot / r_gg, np.where(r_gg > r_gb, (cap_tot - S) / (r_gg - r_gb), np.inf)
                )
        q = np.clip(np.where(r_gg > 0.0, q, 1.0), 0.0, 1.0)
        q = np.where(A_g > A_b, np.minimum(q, Q_b), q)
        ok = ((A_g >= A_b) | (q >= Q_b - FEAS_TOL)) & (S <= cap_b + FEAS_TOL)
        q = np.where(A_g < A_b, np.maximum(q, Q_b), q)
        if not ok.any():
            continue
        pair = (d_b[ok], layer_distortion(q, A_g, beta_g)[ok])
        x, y = pair if b == 0 else pair[::-1]
        keep = lower_envelope_indices(x, y)
        xs.append(x[keep])
        ys.append(y[keep])
    x, y = np.concatenate(xs), np.concatenate(ys)
    keep = lower_envelope_indices(x, y)
    return np.array([x[keep], y[keep]])


# both side-information orders, equal crossovers (with and without a
# side-information tie), crossovers near 0.01 and 0.3, kappa 1 and 1/2
SEPARATE_PROBLEMS = [
    BinaryProblem((0.05, 0.1), (0.2, 0.1), kappa=1),  # good receiver's side info worse
    BinaryProblem((0.01, 0.3), (0.1, 0.4), kappa=1),  # good receiver's side info better
    BinaryProblem((0.3, 0.012), (0.05, 0.45), kappa="1/2"),
    BinaryProblem((0.1, 0.1), (0.3, 0.15), kappa="1/2"),  # label tie on the crossover
    BinaryProblem((0.2, 0.2), (0.25, 0.25), kappa=1),  # full label tie
]


def curve_D(curve):
    return np.array([p.D for p in curve.points]).T


@pytest.mark.parametrize("resolution", [3, 5, 11, 21])
@pytest.mark.parametrize("problem", SEPARATE_PROBLEMS)
def test_separate_region_equals_theta_loop_reference(problem, resolution):
    got = curve_D(binary_separate_region(problem, resolution))
    want = reference_separate_vertices(problem, resolution)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("resolution", [5, 11, 21])
@pytest.mark.parametrize("problem", SEPARATE_PROBLEMS)
def test_separate_region_dominates_grid_q_reference(problem, resolution):
    old = np.array([D for D, _ in grid_q_separate_vertices(problem, resolution)]).T
    assert_on_or_above(old, curve_D(binary_separate_region(problem, resolution)))


@pytest.mark.parametrize("resolution", [15, 27, 41])
@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_separate_caps_equal_scalar_expressions_bitwise(resolution, kappa):
    k = float(parse_kappa(kappa))
    thetas = np.linspace(0.0, 0.5, resolution)
    for p_b, p_g in ((0.1, 0.05), (0.3, 0.012), (0.2, 0.2)):
        rates, _ = _channel_rate_table(p_b, p_g, kappa, 0.5, thetas, TChoice.T_EQUALS_UC)
        cap_b, cap_tot = rates[:, 0], rates[:, 0] + rates[:, 2]
        for theta, cb, ct in zip(thetas, cap_b, cap_tot):
            want_b = k * (1.0 - binary_entropy(binary_convolution(theta, p_b)))
            want_tot = want_b + k * (
                binary_entropy(binary_convolution(theta, p_g)) - binary_entropy(p_g)
            )
            assert (float(cb).hex(), float(ct).hex()) == (want_b.hex(), want_tot.hex())


@pytest.mark.parametrize("resolution", [7, 17])
def test_separate_theta_choice_equals_brute_force_at_tied_caps(resolution):
    rng = np.random.default_rng(resolution)
    # repeated bad caps and cumulative caps; rates at, between and beyond the thresholds
    cap_b = rng.choice(np.linspace(0.0, 1.0, 5), resolution)
    cap_tot = cap_b + rng.choice([0.0, 0.25, 0.5], resolution)
    need = np.concatenate((cap_b + FEAS_TOL, cap_b, rng.uniform(-0.1, 1.1, 50), [2.0]))
    got = _separate_best_theta(cap_b, cap_tot, need)
    for rate, t in zip(need, got):
        admitted = np.flatnonzero(rate <= cap_b + FEAS_TOL)
        if admitted.size == 0:
            assert t == -1
        else:
            assert t == admitted[np.argmax(cap_tot[admitted])]


def bisect_good_q(rate, T):
    """Largest q in [0, 1] with rate(q) <= T for a non-decreasing rate, by
    bisection on arrays (rate(0) <= T everywhere)."""
    lo, hi = np.zeros_like(T), np.ones_like(T)
    fits = rate(hi) <= T
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        ok = rate(mid) <= T
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return np.where(fits, 1.0, lo)


def separate_budgets(T, S, E, r_gg, r_gb, good_first):
    """The last-layer budgets of binary_separate_region for (n, 1) columns T
    (cumulative cap), S and E (bad-description rate at the bad and at the
    good receiver) and r_gg, r_gb = r(alpha_g, beta_g), r(alpha_g, beta_b)."""
    if good_first:
        return [(r_gg, (T - S + E)[:, 0])]
    return [(r_gg, T[:, 0]), (r_gg - r_gb, (T - S)[:, 0])]


@pytest.mark.parametrize("resolution", [7, 17])
@pytest.mark.parametrize("good_first", [True, False])
def test_separate_best_dg_equals_brute_force_at_tied_thresholds(good_first, resolution):
    qs, alphas = _grids(resolution)
    beta_b, beta_g = (0.3, 0.15) if good_first else (0.15, 0.3)
    r_gg, r_gb = wz_rate_kernel(alphas, beta_g), wz_rate_kernel(alphas, beta_b)
    gain = beta_g - np.minimum(alphas, beta_g)
    rng = np.random.default_rng(resolution)
    n = 40
    qb_i = rng.integers(0, qs.size, n)
    ab_i = rng.integers(0, alphas.size, n)
    q_b = qs[qb_i][:, None]
    S = q_b * r_gb[ab_i][:, None]  # bad-description rate at the bad receiver
    E = q_b * r_gg[ab_i][:, None]  # and at the good receiver

    def rate(q, ag):  # cumulative source rate of the good receiver
        if good_first:
            return S + np.maximum(q * r_gg[ag] - E, 0.0)
        return q * r_gg[ag] + np.maximum(S - q * r_gb[ag], 0.0)

    # thresholds tied to the cumulative rates of grid cells, repeated across
    # cells, equal to the bad rate alone, and admitting every q_g
    grid = rate(qs[:, None, None], np.arange(alphas.size)[None, None, :])  # (q, cell, alpha)
    tied = grid[rng.integers(0, qs.size, n), np.arange(n), rng.integers(0, alphas.size, n)]
    T = np.stack([tied, tied[rng.permutation(n)], S[:, 0], np.full(n, 2.0)], axis=1)
    T = np.maximum(T, S)  # a theta is chosen only when the bad description fits
    for k in range(T.shape[1]):
        Tk = T[:, k : k + 1]
        budgets = separate_budgets(Tk, S, E, r_gg, r_gb, good_first)
        ag, q_g = _last_layer(budgets, q_b[:, 0], ab_i, False, gain)
        got = layer_distortion(q_g, alphas[ag], beta_g)
        ags = np.arange(alphas.size)[None, :]
        q = bisect_good_q(lambda x: rate(x, ags), np.broadcast_to(Tk, (n, alphas.size)))
        later, earlier = ags > ab_i[:, None], ags < ab_i[:, None]
        q = np.where(later, np.minimum(q, q_b), q)
        admitted = ~earlier | (q >= q_b - FEAS_TOL)
        q = np.where(earlier, np.maximum(q, q_b), q)
        want = np.where(admitted, layer_distortion(q, alphas[ags], beta_g), np.inf).min(axis=1)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.all(rate(q_g[:, None], ag[:, None]) <= Tk + FEAS_TOL)


def test_separate_theta_choice_admits_a_rate_over_the_bad_cap_by_half_the_slack():
    cap_b = np.array([0.3, 0.5, 0.2])
    cap_tot = np.array([0.9, 0.6, 1.0])
    need = np.array([0.5, 0.3, 0.5]) + np.array([0.5, 0.5, 2.0]) * FEAS_TOL
    assert _separate_best_theta(cap_b, cap_tot, need).tolist() == [1, 0, -1]


@pytest.mark.parametrize("good_first", [True, False])
def test_separate_good_q_admits_an_earlier_alpha_g_by_half_the_slack(good_first):
    # alpha_b has grid index 1; at alpha_g index 0 the largest q_g within the
    # cumulative cap lies FEAS_TOL / 2 (first cell) or 2 FEAS_TOL (second cell)
    # below q_b: the first is admitted with q_g = q_b, the second is not
    r_gg = np.array([0.8, 0.5, 0.3])
    r_gb = np.array([0.6, 0.4, 0.2])
    q_b, S, E = 0.5, 0.2, 0.225
    target = q_b - np.array([[0.5], [2.0]]) * FEAS_TOL
    T = S - E + target * r_gg[0] if good_first else target * r_gg[0]
    budgets = separate_budgets(T, np.full_like(T, S), np.full_like(T, E), r_gg, r_gb, good_first)
    q_o, a_o = np.full(2, q_b), np.ones(2, dtype=np.int64)
    # only alpha_g index 0 has a gain, so it wins wherever it is admitted
    alpha, q = _last_layer(budgets, q_o, a_o, False, np.array([1.0, 0.0, 0.0]))
    assert alpha.tolist() == [0, 1] and q[0] == q_b
    # a later alpha_g is capped by q_b
    alpha, q = _last_layer(budgets, q_o, a_o, False, np.array([0.0, 0.0, 1.0]))
    assert alpha.tolist() == [2, 2] and np.all(q <= q_b)


def one_cell_last_layer(budgets, q_o, a_o, strict, gain):
    """_last_layer on one cell, from plain lists."""
    rows = [(np.array(a, dtype=float), np.array([b])) for a, b in budgets]
    alpha, q = _last_layer(rows, np.array([q_o]), np.array([a_o]), strict, np.array(gain))
    return int(alpha[0]), float(q[0])


def test_last_layer_strict_excludes_a_coarser_alpha_and_loose_caps_its_q():
    budgets = [([0.5, 0.5], 0.4)]  # q = 0.8 in both columns
    gain = [0.1, 1.0]  # the coarser alpha (index 1) has the larger gain
    assert one_cell_last_layer(budgets, 0.2, 0, True, gain) == (0, 0.8)
    assert one_cell_last_layer(budgets, 0.2, 0, False, gain) == (1, 0.2)


def test_last_layer_at_the_outer_alpha_only_strict_raises_q():
    # alpha index 1 is the outer one, where q = b lies FEAS_TOL / 2 or
    # 2 FEAS_TOL below q_o; index 0 is unbounded and has no gain
    gain = [0.0, 1.0]
    for slack, admitted in ((0.5, True), (2.0, False)):
        b = 0.5 - slack * FEAS_TOL
        budgets = [([0.0, 1.0], b)]
        assert one_cell_last_layer(budgets, 0.5, 1, False, gain) == (1, b)
        want = (1, 0.5) if admitted else (0, 1.0)
        assert one_cell_last_layer(budgets, 0.5, 1, True, gain) == want


@pytest.mark.parametrize("strict", [True, False])
def test_last_layer_admits_a_rate_over_its_budget_by_5e_13_not_1e_10(strict):
    # literal slacks, so the test does not scale with FEAS_TOL: alpha index 0
    # must refine the outer description (q_o = 0.5, rate 0.5); index 1 is
    # unbounded and has the smaller gain
    gain = [1.0, 0.4]
    for over, want in ((1e-10, (1, 1.0)), (5e-13, (0, 0.5))):
        budgets = [([1.0, 0.0], 0.5 - over)]
        assert one_cell_last_layer(budgets, 0.5, 1, strict, gain) == want


def test_separate_theta_admits_a_rate_over_its_cap_by_5e_13_not_1e_10():
    # literal slacks, as above: theta 0 has bad cap 0.3, theta 1 has 0.5 and
    # the smaller cumulative cap
    cap_b, cap_tot = np.array([0.3, 0.5]), np.array([0.9, 0.6])
    for over, want in ((1e-10, [-1, 1]), (5e-13, [1, 0])):
        need = np.array([0.5 + over, 0.3 + over])
        assert _separate_best_theta(cap_b, cap_tot, need).tolist() == want


@pytest.mark.parametrize("strict", [True, False])
def test_last_layer_unbounded_column_takes_q_one(strict):
    budgets = [([0.5, 0.0], 0.1), ([0.2, 0.0], 0.05)]
    assert one_cell_last_layer(budgets, 0.0, 1, strict, [0.0, 1.0]) == (1, 1.0)


def test_last_layer_two_budgets_take_the_smaller_quotient():
    loose, tight = ([0.5], 0.4), ([0.25], 0.1)  # quotients 0.8 and 0.4
    assert one_cell_last_layer([loose, tight], 0.0, 0, True, [1.0]) == (0, 0.4)
    assert one_cell_last_layer([tight, loose], 0.0, 0, True, [1.0]) == (0, 0.4)


@pytest.mark.parametrize("strict", [True, False])
def test_last_layer_ties_pick_the_first_alpha(strict):
    budgets = [([0.0, 0.0, 0.0], 0.5)]
    assert one_cell_last_layer(budgets, 1.0, 1, strict, [1.0, 1.0, 1.0]) == (0, 1.0)


@pytest.mark.parametrize("strict", [True, False])
def test_last_layer_blocks_do_not_change_the_result(monkeypatch, strict):
    rng = np.random.default_rng(5)
    res, n = 9, 500
    a = np.where(rng.random(res) < 0.2, 0.0, rng.random(res))
    budgets = [(a, rng.random(n)), (a / 2, rng.random(n) - 0.1)]
    q_o, a_o = rng.random(n), rng.integers(0, res, n)
    gain = rng.random(res)
    whole = _last_layer(budgets, q_o, a_o, strict, gain)
    monkeypatch.setattr("wzbc.binary.BLOCK_CELLS", 4 * res)
    blocked = _last_layer(budgets, q_o, a_o, strict, gain)
    assert all(np.array_equal(x, y) for x, y in zip(whole, blocked))


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
    assert np.all(np.interp(xs, lds.d1(), lds.d2()) <= np.interp(xs, sep.d1(), sep.d2()) + 1e-9)


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

