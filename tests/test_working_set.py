"""Working-set bounds of the validate oracles, measured with tracemalloc.

numpy reports its data buffers to tracemalloc, so a traced peak counts every
array the code allocates and does not depend on the machine's allocator.
"""

import contextlib
import io
import tracemalloc

import pytest

from wzbc.binary import binary_lds_region, binary_separate_region
from wzbc.cli import main
from wzbc.core import BinaryProblem, GaussianProblem
from wzbc.mcsim import SimConfig, simulate_uncoded_binary, simulate_uncoded_gaussian

MB = 2**20


def traced_peak(run) -> int:
    """Bytes allocated at the peak of run(), above what was live before it.

    run() is called once untraced first, so that imports and caches filled on
    a first call do not count.
    """
    run()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        if started:
            tracemalloc.stop()


def test_gaussian_oracle_suite_holds_one_block_and_the_staircase():
    # four 400 x 400 sweeps, each checked against the curve one block at a
    # time, so the suite holds one block and the curve's temporaries for it
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["validate", "--suite", "gaussian-oracle", "--seed", "42"]) == 0

    assert traced_peak(run) <= 3 * MB


def test_uncoded_gaussian_two_workers_hold_four_pieces_each():
    # per worker: x, v, y and z pieces of 2^14 doubles (128 KiB each), while
    # one batch-long buffer alone would take 2 MiB
    problem = GaussianProblem(1.0, (1.0, 0.5), (0.8, 0.4), 1)
    cfg = SimConfig(10**6, 42)
    assert traced_peak(lambda: simulate_uncoded_gaussian(problem, cfg, threads=2)) <= 2 * MB


def test_uncoded_binary_two_workers_hold_one_piece_each():
    # per worker: one piece of 2^14 doubles for the flips
    problem = BinaryProblem((0.05, 0.1), (0.2, 0.1), 1)
    cfg = SimConfig(10**6, 42)
    assert traced_peak(lambda: simulate_uncoded_binary(problem, cfg, threads=2)) <= 1 * MB


@pytest.mark.parametrize("region", [binary_lds_region, binary_separate_region])
def test_binary_sweep_holds_bounded_blocks(region):
    # the README fixture at resolution 81: the blocked passes hold at most
    # BLOCK_CELLS pairs at a time, while one unblocked array over the
    # resolution^3 (cell, alpha) pairs would take 4 MiB
    problem = BinaryProblem((0.05, 0.1), (0.2, 0.1), 1)
    assert traced_peak(lambda: region(problem, 81)) <= 2 * MB
