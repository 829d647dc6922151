import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzbc.infotheory import (
    JointDistribution,
    binary_convolution,
    binary_entropy,
    mutual_information,
    wz_rate_kernel,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
halves = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # 2 - 0.75 log2 3
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591329, abs=1e-15)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


@given(probs)
def test_binary_entropy_symmetry(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


def test_binary_convolution_examples():
    assert binary_convolution(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)
    assert binary_convolution(0.37, 0.5) == 0.5
    assert binary_convolution(0.0, 0.33) == 0.33


@given(probs, probs)
def test_binary_convolution_commutative(a, b):
    assert binary_convolution(a, b) == pytest.approx(binary_convolution(b, a), abs=1e-12)


@given(probs, probs, probs)
def test_binary_convolution_associative(a, b, c):
    left = binary_convolution(binary_convolution(a, b), c)
    right = binary_convolution(a, binary_convolution(b, c))
    assert left == pytest.approx(right, abs=1e-12)


def test_wz_rate_kernel_examples():
    beta = 0.3
    assert wz_rate_kernel(0.0, beta) == pytest.approx(binary_entropy(beta), abs=1e-15)
    assert wz_rate_kernel(0.5, beta) == pytest.approx(0.0, abs=1e-12)
    assert wz_rate_kernel(0.1, 0.3) > wz_rate_kernel(0.2, 0.3)


@given(halves, halves, halves)
@settings(max_examples=200)
def test_wz_rate_kernel_monotone(a1, a2, beta):
    lo, hi = sorted((a1, a2))
    assert wz_rate_kernel(hi, beta) <= wz_rate_kernel(lo, beta) + 1e-12


@given(halves, halves, halves)
@settings(max_examples=200)
def test_wz_rate_kernel_increasing_in_beta(alpha, b1, b2):
    lo, hi = sorted((b1, b2))
    assert wz_rate_kernel(alpha, hi) >= wz_rate_kernel(alpha, lo) - 1e-12


def test_wz_rate_kernel_nonnegative_and_domain():
    assert wz_rate_kernel(0.2, 0.4) >= 0.0
    with pytest.raises(ValueError):
        wz_rate_kernel(0.6, 0.3)


def _joint(names, pmf):
    return JointDistribution(names, pmf)


def test_joint_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        _joint(("A",), [0.5, 0.6])
    with pytest.raises(ValueError, match="unique"):
        _joint(("A", "A"), [[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(ValueError, match="axes"):
        _joint(("A", "B"), [0.5, 0.5])
    with pytest.raises(ValueError, match="negative"):
        _joint(("A",), [1.5, -0.5])


def test_joint_distribution_immutable():
    j = _joint(("A",), [0.5, 0.5])
    with pytest.raises(AttributeError):
        j.names = ("B",)
    with pytest.raises(ValueError):
        j.pmf[0] = 1.0


def test_mutual_information_independent_pair():
    pmf = np.outer([0.3, 0.7], [0.6, 0.4])
    j = _joint(("A", "B"), pmf)
    assert mutual_information(j, "A", "B") == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_bsc_closed_form():
    p = 0.11
    pmf = 0.5 * np.array([[1 - p, p], [p, 1 - p]])
    j = _joint(("U", "V"), pmf)
    assert mutual_information(j, "U", "V") == pytest.approx(
        1.0 - binary_entropy(p), abs=1e-12
    )


def test_conditional_mi_markov_chain_is_zero():
    # A - C - B: A and B are independent flips of C
    rng = np.random.default_rng(3)
    pc = rng.dirichlet([1, 1])
    a_flip, b_flip = 0.2, 0.35
    pmf = np.zeros((2, 2, 2))  # (A, B, C)
    for c in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                pa = 1 - a_flip if a == c else a_flip
                pb = 1 - b_flip if b == c else b_flip
                pmf[a, b, c] = pc[c] * pa * pb
    j = _joint(("A", "B", "C"), pmf)
    assert mutual_information(j, "A", "B", "C") == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(j, "A", "B") > 0.01


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_chain_rule(seed):
    rng = np.random.default_rng(seed)
    pmf = rng.dirichlet(np.ones(2 * 3 * 2)).reshape(2, 3, 2)
    j = _joint(("A", "B", "C"), pmf)
    lhs = mutual_information(j, "A", ("B", "C"))
    rhs = mutual_information(j, "A", "C") + mutual_information(j, "A", "B", "C")
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_mutual_information_errors():
    j = _joint(("A", "B"), np.full((2, 2), 0.25))
    with pytest.raises(KeyError):
        mutual_information(j, "A", "X")
    with pytest.raises(ValueError, match="disjoint"):
        mutual_information(j, "A", "A")


def test_cell_cap():
    # a read-only view of one float: the cap is checked before any copy
    pmf = np.broadcast_to(0.0, (10**7 + 1,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            JointDistribution(("A",), pmf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "call",
    [
        lambda: binary_entropy(float("nan")),
        lambda: binary_entropy(np.array([0.1, np.nan])),
        lambda: binary_convolution(np.nan, 0.1),
        lambda: binary_convolution(0.1, np.array([0.2, np.nan])),
        lambda: wz_rate_kernel(np.nan, 0.2),
        lambda: wz_rate_kernel(0.2, np.nan),
        lambda: wz_rate_kernel(np.array([0.1, np.nan]), 0.2),
    ],
)
def test_kernels_reject_nan(call):
    with pytest.raises(ValueError, match="must lie in"):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_joint_distribution_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        _joint(("A", "B"), [[bad, 0.5], [0.25, 0.25]])


# The entropy and mutual information of a single distribution as computed
# before the engine took batches: masses above ZERO_MASS are gathered in C
# order and summed.  Batched values are held to it within 1e-14 bits.
def reference_entropy(joint, names=None):
    p = joint.pmf if names is None else joint.marginal_pmf(names)
    mass = p[p > 1e-15]
    return float(-(mass * np.log2(mass)).sum())


def reference_mutual_information(joint, a, b, c=()):
    h_c = reference_entropy(joint, c) if c else 0.0
    return (
        reference_entropy(joint, a + c)
        + reference_entropy(joint, b + c)
        - reference_entropy(joint, a + b + c)
        - h_c
    )


def random_batch(rng, batch_shape, shape=(2, 3, 2), zero_frac=0.3):
    """Random pmfs of ``shape`` over a batch, with some exact zero cells."""
    cells = int(np.prod(shape))
    pmf = rng.dirichlet(np.ones(cells), size=batch_shape)
    pmf[rng.random(pmf.shape) < zero_frac] = 0.0
    pmf[..., 0] += 1e-3  # no element is all zeros
    pmf /= pmf.sum(axis=-1, keepdims=True)
    return pmf.reshape(tuple(batch_shape) + shape)


GROUPS = [
    (("A",), ("B",), ()),
    (("A",), ("B", "C"), ()),
    (("A",), ("B",), ("C",)),
    (("B",), ("A", "C"), ()),
    (("C", "A"), ("B",), ()),
]


@pytest.mark.parametrize("batch_shape", [(1,), (40,), (3, 5)])
def test_batched_entropy_and_mi_match_scalar_reference(batch_shape):
    rng = np.random.default_rng(5)
    pmf = random_batch(rng, batch_shape)
    batch = _joint(("A", "B", "C"), pmf)
    assert batch.batch_shape == batch_shape
    for names in (None, ("A",), ("C", "B"), ("B", "A", "C")):
        h = batch.entropy(names)
        assert h.shape == batch_shape
        for idx in np.ndindex(*batch_shape):
            one = _joint(("A", "B", "C"), pmf[idx])
            assert abs(h[idx] - reference_entropy(one, names)) <= 1e-14
            assert h[idx] == one.entropy(names)  # bitwise equal to a batch of one
    for a, b, c in GROUPS:
        mi = mutual_information(batch, a, b, c)
        assert mi.shape == batch_shape
        for idx in np.ndindex(*batch_shape):
            one = _joint(("A", "B", "C"), pmf[idx])
            assert abs(mi[idx] - reference_mutual_information(one, a, b, c)) <= 1e-14
            assert mi[idx] == mutual_information(one, a, b, c)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_scalar_entropy_and_mi_match_reference(seed):
    rng = np.random.default_rng(seed)
    j = _joint(("A", "B", "C"), random_batch(rng, (), zero_frac=0.5))
    for names in (None, ("A",), ("C", "B")):
        assert abs(j.entropy(names) - reference_entropy(j, names)) <= 1e-14
    for a, b, c in GROUPS:
        assert abs(mutual_information(j, a, b, c) - reference_mutual_information(j, a, b, c)) <= 1e-14


def test_scalar_entropy_and_mi_are_floats():
    j = _joint(("A", "B", "C"), np.full((2, 2, 2), 0.125))
    assert type(j.entropy()) is float
    assert type(j.entropy(("A",))) is float
    assert type(mutual_information(j, "A", "B")) is float
    assert type(mutual_information(j, "A", "B", "C")) is float


def test_marginal_pmf_keeps_batch_axes():
    rng = np.random.default_rng(9)
    pmf = random_batch(rng, (4, 2))
    j = _joint(("A", "B", "C"), pmf)
    assert j.marginal_pmf(("C", "A")).shape == (4, 2, 2, 2)
    np.testing.assert_array_equal(
        j.marginal_pmf(("C", "A")), np.transpose(pmf.sum(axis=3), (0, 1, 3, 2))
    )
    assert j.axis("A") == 2 and j.axis("C") == 4


@pytest.mark.parametrize(
    "spoil, match",
    [
        (lambda p: p.__setitem__((3, 0, 0, 0), p[3, 0, 0, 0] + 1e-9), "sum"),
        (lambda p: p.__setitem__((7, 1, 2, 1), np.nan), "non-finite"),
        (lambda p: p.__setitem__((0, 1, 0, 1), -1e-3), "negative"),
    ],
)
def test_batch_checks_hold_per_element(spoil, match):
    rng = np.random.default_rng(4)
    pmf = random_batch(rng, (10,), zero_frac=0.0)
    _joint(("A", "B", "C"), pmf)
    spoil(pmf)
    with pytest.raises(ValueError, match=match):
        _joint(("A", "B", "C"), pmf)


def test_cell_cap_applies_to_the_whole_batch(monkeypatch):
    import wzbc.infotheory as it

    monkeypatch.setattr(it, "MAX_CELLS", 100)
    _joint(("A",), np.full((12, 8), 1 / 8))  # 96 cells
    with pytest.raises(ValueError, match="cap"):
        _joint(("A",), np.full((13, 8), 1 / 8))  # 8 cells per element, 104 in all
