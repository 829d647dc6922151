import numpy as np
import pytest

from wzbc.dmc import (
    MarkovChainViolation,
    SchemeInputs,
    binary_superposition_inputs,
    bsc_matrix,
    extend_with_outputs,
    lds_rate_triple,
    scheme1_rate_triple,
)
from wzbc.infotheory import (
    JointDistribution,
    binary_convolution,
    binary_entropy,
    mutual_information,
    wz_rate_kernel,
)

from test_infotheory import reference_mutual_information


def uniform_inputs(t_choice="uc", p_c=0.1, p_r=0.2, g_c=0.3, g_r=0.25, kappa=1):
    return binary_superposition_inputs(p_c, p_r, g_c, g_r, t_choice, kappa)


def test_extend_with_outputs_is_consistent():
    inputs = uniform_inputs()
    ext = extend_with_outputs(inputs)
    assert ext.names[-2:] == ("V_c", "V_r")
    assert ext.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    # V_c marginal equals the channel applied to the U marginal
    p_u = inputs.joint.marginal_pmf(("U",))
    p_vc = ext.marginal_pmf(("V_c",))
    assert p_vc == pytest.approx(p_u @ inputs.channel_to_common, abs=1e-12)


def test_markov_checks_pass_for_factored_construction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p_c, p_r, g_c, g_r = rng.uniform(0.02, 0.48, 4)
        choice = "uc" if rng.random() < 0.5 else "xor"
        lds_rate_triple(binary_superposition_inputs(p_c, p_r, g_c, g_r, choice))


def test_markov_violation_detected():
    # T carries information about the channel noise path beyond (U_c, U_r):
    # make T depend on U directly with U not a function of (U_c, U_r)
    pmf = np.zeros((2, 2, 2, 2, 2))  # (T, U_c, U_r, U, S)
    rng = np.random.default_rng(1)
    for uc in (0, 1):
        for ur in (0, 1):
            for u in (0, 1):
                w = 0.25 * (0.3 if u == 0 else 0.7)
                pmf[u, uc, ur, u, ur] += w  # T = U, but U is random given (U_c, U_r)
    joint = JointDistribution(("T", "U_c", "U_r", "U", "S"), pmf)
    inputs = SchemeInputs(joint, bsc_matrix(0.1), bsc_matrix(0.2))
    with pytest.raises(MarkovChainViolation, match="conditional mutual information"):
        lds_rate_triple(inputs)


def test_lds_reduces_to_cds_with_trivial_refinement():
    # U_r trivial (gamma_r = 0) and T = U: rates (I(U;V_c), I(U;V_r), 0)
    inputs = uniform_inputs("xor", g_r=0.0)  # T = U_c xor U_r = U; U_r == 0
    triple = lds_rate_triple(inputs)
    ext = extend_with_outputs(inputs)
    assert triple.R_cc == pytest.approx(mutual_information(ext, "U", "V_c"), abs=1e-12)
    assert triple.R_cr == pytest.approx(mutual_information(ext, "U", "V_r"), abs=1e-12)
    assert triple.R_rr == pytest.approx(0.0, abs=1e-12)


def test_lds_matches_binary_closed_forms():
    p_c, p_r, g_r = 0.07, 0.13, 0.21
    triple = lds_rate_triple(binary_superposition_inputs(p_c, p_r, 0.5, g_r, "uc"))
    assert triple.R_cc == pytest.approx(1 - binary_entropy(binary_convolution(g_r, p_c)), abs=1e-9)
    assert triple.R_cr == pytest.approx(1 - binary_entropy(binary_convolution(g_r, p_r)), abs=1e-9)
    assert triple.R_rr == pytest.approx(wz_rate_kernel(p_r, g_r), abs=1e-9)
    g_c = 0.34
    triple2 = lds_rate_triple(binary_superposition_inputs(p_c, p_r, g_c, g_r, "xor"))
    shared = wz_rate_kernel(g_c, g_r)
    conv = binary_convolution(g_c, g_r)
    assert triple2.R_cc == pytest.approx(wz_rate_kernel(p_c, conv) - shared, abs=1e-9)
    assert triple2.R_cr == pytest.approx(wz_rate_kernel(p_r, conv) - shared, abs=1e-9)
    assert triple2.R_rr == pytest.approx(shared, abs=1e-9)


def test_scheme1_trivial_cases():
    # U_c = U: single layer
    pmf = np.zeros((2, 2, 2, 2, 2))
    for u in (0, 1):
        pmf[u, u, 0, u, 0] += 0.5  # T = U_c = U, U_r trivial
    inputs = SchemeInputs(
        JointDistribution(("T", "U_c", "U_r", "U", "S"), pmf),
        bsc_matrix(0.1),
        bsc_matrix(0.2),
    )
    triple = scheme1_rate_triple(inputs)
    ext = extend_with_outputs(inputs)
    assert triple.R_cc == pytest.approx(mutual_information(ext, "U", "V_c"), abs=1e-12)
    assert triple.R_rr == pytest.approx(0.0, abs=1e-12)
    # U_c independent of U: the common layer carries nothing
    pmf2 = np.zeros((2, 2, 2, 2, 2))
    for uc in (0, 1):
        for u in (0, 1):
            pmf2[uc, uc, 0, u, 0] += 0.25
    inputs2 = SchemeInputs(
        JointDistribution(("T", "U_c", "U_r", "U", "S"), pmf2),
        bsc_matrix(0.1),
        bsc_matrix(0.2),
    )
    triple2 = scheme1_rate_triple(inputs2)
    ext2 = extend_with_outputs(inputs2)
    assert triple2.R_cc == pytest.approx(0.0, abs=1e-12)
    assert triple2.R_cr == pytest.approx(0.0, abs=1e-12)
    assert triple2.R_rr == pytest.approx(mutual_information(ext2, "U", "V_r"), abs=1e-12)


def test_scheme1_equals_lds_with_uc_auxiliary():
    rng = np.random.default_rng(2)
    for _ in range(25):
        p_c, p_r, g_c, g_r = rng.uniform(0.02, 0.48, 4)
        inputs = binary_superposition_inputs(p_c, p_r, g_c, g_r, "uc")
        s1 = scheme1_rate_triple(inputs)
        lds = lds_rate_triple(inputs)
        for a, b in zip(s1.as_tuple(), lds.as_tuple()):
            assert a == pytest.approx(b, abs=1e-12)


def test_rates_unclamped_by_design():
    # an overloaded xor instance yields a negative common-layer rate
    inputs = binary_superposition_inputs(0.45, 0.45, 0.02, 0.49, "xor")
    triple = lds_rate_triple(inputs)
    assert triple.R_cc < 0
    assert not triple.clamped


def test_scheme_inputs_channel_validation():
    joint = uniform_inputs().joint
    with pytest.raises(ValueError, match="shape"):
        SchemeInputs(joint, np.eye(3), bsc_matrix(0.1))
    with pytest.raises(ValueError, match="pmfs"):
        SchemeInputs(joint, np.array([[0.5, 0.4], [0.5, 0.5]]), bsc_matrix(0.1))


def test_factored_pmf_always_passes_markov_checks():
    # joints built as p(U_c) p(U_r) p(T | U_c, U_r) p(U | U_c, U_r) satisfy
    # both chains by construction, for random conditionals
    rng = np.random.default_rng(8)
    for _ in range(20):
        p_uc = rng.dirichlet([1, 1])
        p_ur = rng.dirichlet([1, 1])
        t_given = rng.dirichlet([1, 1], size=(2, 2))  # (uc, ur) -> pmf of T
        u_given = rng.dirichlet([1, 1], size=(2, 2))
        pmf = np.zeros((2, 2, 2, 2, 2))  # (T, U_c, U_r, U, S) with S = U_r
        for uc in (0, 1):
            for ur in (0, 1):
                for t in (0, 1):
                    for u in (0, 1):
                        w = p_uc[uc] * p_ur[ur] * t_given[uc, ur][t] * u_given[uc, ur][u]
                        pmf[t, uc, ur, u, ur] += w
        joint = JointDistribution(("T", "U_c", "U_r", "U", "S"), pmf)
        inputs = SchemeInputs(joint, bsc_matrix(0.08), bsc_matrix(0.21))
        lds_rate_triple(inputs)


TRIPLES = (lds_rate_triple, scheme1_rate_triple)


def engine_columns(inputs):
    """Every rate the engine computes for one input: both triples."""
    return [x for f in TRIPLES for x in f(inputs).as_tuple()]


def batch_draws():
    rng = np.random.default_rng(17)
    draws = rng.uniform(0.01, 0.49, (24, 4))
    # gammas at 0 (an empty layer, zero cells in the pmf) and at 1/2
    draws[:6, 2] = 0.0
    draws[6:12, 3] = 0.0
    draws[12:18, 2] = 0.5
    draws[18:22, 3] = 0.5
    draws[22, 2:] = (0.0, 0.5)
    draws[23, 2:] = (0.5, 0.0)
    return draws


@pytest.mark.parametrize("t_choice", ["uc", "xor"])
@pytest.mark.parametrize("kappa", [1, "1/2"])
def test_batched_engine_equals_batch_of_one_bitwise(t_choice, kappa):
    draws = batch_draws()
    batched = engine_columns(binary_superposition_inputs(*draws.T, t_choice, kappa))
    assert all(col.shape == (len(draws),) for col in batched)
    for i, (p_c, p_r, g_c, g_r) in enumerate(draws):
        single = engine_columns(binary_superposition_inputs(p_c, p_r, g_c, g_r, t_choice, kappa))
        assert all(type(x) is float for x in single)
        assert [col[i] for col in batched] == single


@pytest.mark.parametrize("t_choice", ["uc", "xor"])
def test_batched_engine_matches_scalar_reference_mi(t_choice):
    draws = batch_draws()
    inputs = binary_superposition_inputs(*draws.T, t_choice)
    ext = extend_with_outputs(inputs)
    triple = lds_rate_triple(inputs)
    for i, (p_c, p_r, g_c, g_r) in enumerate(draws):
        one = extend_with_outputs(binary_superposition_inputs(p_c, p_r, g_c, g_r, t_choice))
        np.testing.assert_array_equal(ext.pmf[i], one.pmf)
        i_t_ur = reference_mutual_information(one, ("T",), ("U_r",))
        want = (
            reference_mutual_information(one, ("T",), ("V_c",)) - i_t_ur,
            reference_mutual_information(one, ("T",), ("V_r",)) - i_t_ur,
            reference_mutual_information(one, ("U_r",), ("T", "V_r")),
        )
        for got, ref in zip(triple.as_tuple(), want):
            assert abs(got[i] - ref) <= 1e-14


def test_extend_with_outputs_broadcasts_channels_against_the_batch():
    # an unbatched joint with a batch of channels, and a (3, 1) joint batch
    # with a (4,) channel batch
    p = np.array([0.05, 0.2, 0.35, 0.45])
    ext = extend_with_outputs(binary_superposition_inputs(p, 0.2, 0.3, 0.25))
    assert ext.batch_shape == (4,)
    for i, p_c in enumerate(p):
        one = extend_with_outputs(binary_superposition_inputs(p_c, 0.2, 0.3, 0.25))
        np.testing.assert_array_equal(ext.pmf[i], one.pmf)
    g = np.array([[0.1], [0.3], [0.5]])
    triple = lds_rate_triple(binary_superposition_inputs(p, 0.2, g, 0.25, "xor"))
    assert triple.R_cc.shape == (3, 4)
    assert triple.R_rr[2, 1] == lds_rate_triple(
        binary_superposition_inputs(p[1], 0.2, 0.5, 0.25, "xor")
    ).R_rr


def violating_pmf():
    # T = U, but U is random given (U_c, U_r)
    pmf = np.zeros((2, 2, 2, 2))  # (T, U_c, U_r, U), the axes of binary_superposition_inputs
    for uc in (0, 1):
        for ur in (0, 1):
            for u in (0, 1):
                pmf[u, uc, ur, u] += 0.25 * (0.3 if u == 0 else 0.7)
    return pmf


def test_one_markov_violation_fails_the_batch():
    good = binary_superposition_inputs(0.1, 0.2, np.array([0.1, 0.2, 0.3]), 0.25).joint.pmf
    pmf = np.concatenate([good, violating_pmf()[None]])
    inputs = SchemeInputs(
        JointDistribution(("T", "U_c", "U_r", "U"), pmf), bsc_matrix(0.1), bsc_matrix(0.2)
    )
    alone = SchemeInputs(
        JointDistribution(("T", "U_c", "U_r", "U"), violating_pmf()),
        bsc_matrix(0.1),
        bsc_matrix(0.2),
    )
    with pytest.raises(MarkovChainViolation) as alone_err:
        lds_rate_triple(alone)
    with pytest.raises(MarkovChainViolation) as batch_err:
        lds_rate_triple(inputs)
    # the message names the worst element's value, the violator's own
    assert str(batch_err.value) == str(alone_err.value)
    lds_rate_triple(
        SchemeInputs(JointDistribution(inputs.joint.names, good), bsc_matrix(0.1), bsc_matrix(0.2))
    )


def test_one_bad_batch_element_raises():
    gammas = np.array([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="non-finite"):
        binary_superposition_inputs(0.1, 0.2, np.array([0.1, np.nan, 0.3]), 0.25)
    with pytest.raises(ValueError, match="non-finite"):
        binary_superposition_inputs(0.1, 0.2, 0.25, np.array([0.1, 0.2, np.nan]))
    pmf = binary_superposition_inputs(0.1, 0.2, gammas, 0.25).joint.pmf.copy()
    pmf[2, 0, 0, 0, 0] += 1e-6
    with pytest.raises(ValueError, match="sum"):
        JointDistribution(("T", "U_c", "U_r", "U"), pmf)
    joint = binary_superposition_inputs(0.1, 0.2, gammas, 0.25).joint
    channels = bsc_matrix(np.array([0.1, 0.2, 0.3, 0.4]))
    bad_row = channels.copy()
    bad_row[1, 0] = (0.5, 0.4)
    nan_row = channels.copy()
    nan_row[3, 1, 0] = np.nan
    for bad in (bad_row, nan_row):
        with pytest.raises(ValueError, match="pmfs"):
            SchemeInputs(joint, bad, channels)
        with pytest.raises(ValueError, match="pmfs"):
            SchemeInputs(joint, channels, bad)
    with pytest.raises(ValueError, match="broadcast"):
        SchemeInputs(joint, bsc_matrix(np.array([0.1, 0.2, 0.3])), channels)


def test_nan_parameters_are_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        binary_superposition_inputs(0.1, 0.2, np.nan, 0.3)
    with pytest.raises(ValueError, match="crossover"):
        binary_superposition_inputs(np.nan, 0.2, 0.1, 0.3)
    with pytest.raises(ValueError, match="crossover"):
        bsc_matrix(np.array([0.1, np.nan]))
    with pytest.raises(ValueError, match="crossover"):
        bsc_matrix(1.5)


def test_bsc_matrix_broadcasts():
    p = np.array([[0.0, 0.1], [0.25, 1.0]])
    m = bsc_matrix(p)
    assert m.shape == (2, 2, 2, 2)
    for idx in np.ndindex(2, 2):
        np.testing.assert_array_equal(m[idx], bsc_matrix(float(p[idx])))
    np.testing.assert_array_equal(bsc_matrix(0.1), [[0.9, 0.1], [0.1, 0.9]])
