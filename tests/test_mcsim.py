import sys

import numpy as np
import pytest

from wzbc.core import BinaryProblem, GaussianProblem
from wzbc.gaussian import gaussian_uncoded
from wzbc.binary import binary_uncoded
from wzbc.mcsim import (
    BATCH_SPAN,
    SimConfig,
    simulate_uncoded_binary,
    simulate_uncoded_gaussian,
)

GAUSSIAN = GaussianProblem(power=1, noise_vars=(1, 0.5), sideinfo_vars=(0.8, 0.4), kappa=1)
BINARY = BinaryProblem(crossovers=(0.05, 0.1), sideinfo_crossovers=(0.2, 0.1), kappa=1)
CFG = SimConfig(samples=10**6, seed=42)


def test_uncoded_gaussian_matches_closed_form():
    target = tuple(gaussian_uncoded(GAUSSIAN).D)
    assert target == pytest.approx((0.8 / 1.8, 0.2 / 0.9), abs=1e-12)
    est = simulate_uncoded_gaussian(GAUSSIAN, CFG)
    assert est.within(target, 4.0)
    assert all(s > 0 for s in est.stderr)


def test_uncoded_gaussian_no_side_info_limit():
    problem = GaussianProblem(1, (1, 0.5), (1 - 1e-12, 1 - 1e-12), kappa=1)
    est = simulate_uncoded_gaussian(problem, SimConfig(samples=200_000, seed=7))
    target = tuple(w / (w + 1) for w in problem.noise_vars)
    assert est.within(target, 4.0)


def test_uncoded_gaussian_rejects_bandwidth_mismatch():
    with pytest.raises(ValueError, match="bandwidth match"):
        simulate_uncoded_gaussian(
            GaussianProblem(1, (1, 0.5), (0.8, 0.4), kappa=2), CFG
        )


def test_uncoded_binary_matches_closed_form():
    est = simulate_uncoded_binary(BINARY, CFG)
    assert est.within(binary_uncoded(BINARY).D, 4.0)


def test_uncoded_binary_edge_cases():
    clean = BinaryProblem((0.0, 0.1), (0.2, 0.1), kappa=1)
    est = simulate_uncoded_binary(clean, SimConfig(samples=10_000, seed=3))
    assert est.mean[0] == 0.0
    # p == beta: either decoder rule attains the same rate
    tie = BinaryProblem((0.1, 0.1), (0.1, 0.1), kappa=1)
    est_tie = simulate_uncoded_binary(tie, SimConfig(samples=500_000, seed=11))
    assert est_tie.within((0.1, 0.1), 4.0)


def test_determinism_across_runs_and_threads():
    a = simulate_uncoded_gaussian(GAUSSIAN, CFG, threads=1)
    b = simulate_uncoded_gaussian(GAUSSIAN, CFG, threads=1)
    c = simulate_uncoded_gaussian(GAUSSIAN, CFG, threads=4)
    assert a == b == c
    x = simulate_uncoded_binary(BINARY, CFG, threads=1)
    y = simulate_uncoded_binary(BINARY, CFG, threads=3)
    assert x == y
    different_seed = simulate_uncoded_gaussian(GAUSSIAN, SimConfig(10**6, 43))
    assert different_seed != a


def test_shared_pool_with_more_workers_than_cores_matches_one_thread():
    # 14 batches on 8 workers with frequent thread switches: a work buffer
    # shared between two workers would corrupt a batch
    cfg = SimConfig(6 * BATCH_SPAN + 3, 5)
    expected = simulate_uncoded_gaussian(GAUSSIAN, cfg, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = simulate_uncoded_gaussian(GAUSSIAN, cfg, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_convergence_rate():
    # quadrupling the sample count halves the standard error, within 20%
    ratios = []
    for seed in (1, 2, 3):
        small = simulate_uncoded_gaussian(GAUSSIAN, SimConfig(100_000, seed))
        large = simulate_uncoded_gaussian(GAUSSIAN, SimConfig(400_000, seed))
        ratios += [b / a for a, b in zip(small.stderr, large.stderr)]
    mean_ratio = sum(ratios) / len(ratios)
    assert abs(mean_ratio - 0.5) < 0.1


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(samples=0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"samples": -5}, "samples"),
        ({"samples": True}, "samples"),
        ({"samples": 1000.5}, "samples"),
        ({"samples": 1000.0}, "samples"),
        ({"samples": "1000"}, "samples"),
        ({"samples": 1000, "seed": -1}, "seed"),
        ({"samples": 1000, "seed": 1.5}, "seed"),
        ({"samples": 1000, "seed": False}, "seed"),
        ({"samples": 1000, "seed": None}, "seed"),
    ],
)
def test_sim_config_rejects_bad_values_naming_the_field(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        SimConfig(**kwargs)


def test_sim_config_accepts_integers():
    assert SimConfig(1).seed == 0
    assert SimConfig(np.int64(1000), np.int64(7)) == SimConfig(1000, 7)


# estimates of the flips-only binary batch, the same at every thread count
BINARY_ESTIMATES = {
    13: (("0x1.98aeb80ecfa6ap-5", "0x1.9a87a072d1aebp-4"),
         ("0x1.c89411b63e763p-13", "0x1.3ae3d1bd11376p-12")),
    42: (("0x1.98244e93e1c9bp-5", "0x1.9859c8c9320dap-4"),
         ("0x1.c84ac8abcc20ap-13", "0x1.3a255b76ed6eap-12")),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seed", sorted(BINARY_ESTIMATES))
def test_uncoded_binary_estimate_is_pinned(seed, threads):
    est = simulate_uncoded_binary(BINARY, SimConfig(10**6, seed), threads)
    mean, stderr = BINARY_ESTIMATES[seed]
    assert tuple(m.hex() for m in est.mean) == mean
    assert tuple(s.hex() for s in est.stderr) == stderr


# estimates of batches walked in BLOCK_CELLS pieces, each piece drawing its
# x, then its Z_v, then its Z_y; the same bits at every thread count
GAUSSIAN_ESTIMATES = {
    1: (("0x1.c762533bda224p-2", "0x1.c6db422288486p-3"),
        ("0x1.49c172b2e097cp-11", "0x1.48f09d3c459cbp-12")),
    13: (("0x1.c6323f4ff9136p-2", "0x1.c6b0a141e1600p-3"),
         ("0x1.48ae7a6bb46aep-11", "0x1.48dc5ca646b89p-12")),
    42: (("0x1.c7ae51dc89155p-2", "0x1.c63d765c0fec0p-3"),
         ("0x1.49a55ca650fa4p-11", "0x1.48f3b9fa4f2cbp-12")),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seed", sorted(GAUSSIAN_ESTIMATES))
def test_uncoded_gaussian_estimate_is_pinned(seed, threads):
    est = simulate_uncoded_gaussian(GAUSSIAN, SimConfig(10**6, seed), threads)
    mean, stderr = GAUSSIAN_ESTIMATES[seed]
    assert tuple(m.hex() for m in est.mean) == mean
    assert tuple(s.hex() for s in est.stderr) == stderr


# float.hex of every (mean, stderr): the Gaussian ones from batches walked in
# pieces, the binary ones from the flips-only batch; 10**6 + 17 samples end in
# a partial batch and 1000 lie below BLOCK_CELLS, so that run is one piece,
# drawn as the former per-receiver pools drew it into fresh arrays.  Receiver
# 1 of SIDE_BINARY (p > beta) decodes from its side information, receiver 0
# from the channel.
SIDE_BINARY = BinaryProblem(crossovers=(0.05, 0.3), sideinfo_crossovers=(0.2, 0.1), kappa=1)
GOLDEN_RUNS = {
    "gaussian": lambda cfg, threads: simulate_uncoded_gaussian(GAUSSIAN, cfg, threads),
    "binary": lambda cfg, threads: simulate_uncoded_binary(SIDE_BINARY, cfg, threads),
}
GOLDEN_ESTIMATES = {
    ("gaussian", 10**6 + 17): (
        ("0x1.c7b33c273f322p-2", "0x1.c63d65b4ca891p-3"),
        ("0x1.49a6cf4e625efp-11", "0x1.48f2e65355d6dp-12"),
    ),
    ("gaussian", 1000): (
        ("0x1.b25f25d4cc7d8p-2", "0x1.cdedcc9b6e11dp-3"),
        ("0x1.331491ea626d4p-6", "0x1.434bc2854f857p-7"),
    ),
    ("binary", 10**6 + 17): (
        ("0x1.9826b997dff28p-5", "0x1.985801d8601e0p-4"),
        ("0x1.c84b125e0f2bep-13", "0x1.3a2410dab4c57p-12"),
    ),
    ("binary", 1000): (
        ("0x1.5810624dd2f1bp-5", "0x1.810624dd2f1aap-4"),
        ("0x1.9fb4fd8024a7ap-8", "0x1.2e65b7cc8befbp-7"),
    ),
}


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(GOLDEN_ESTIMATES), ids=lambda c: f"{c[0]}-{c[1]}")
def test_estimates_equal_golden_values(case, threads):
    name, samples = case
    est = GOLDEN_RUNS[name](SimConfig(samples, 42), threads)
    mean, stderr = GOLDEN_ESTIMATES[case]
    assert tuple(m.hex() for m in est.mean) == mean
    assert tuple(s.hex() for s in est.stderr) == stderr
    assert est.samples == samples
