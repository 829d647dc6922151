"""Monte Carlo validation of uncoded transmission, Gaussian and binary.

Random numbers come from numpy's PCG64 generator.  Samples are drawn in
fixed-size batches; the stream for (receiver k, batch j) is seeded with
SeedSequence(seed, spawn_key=(k, j)), and batch statistics are reduced in
batch-index order, so results are bit-identical regardless of how many
worker threads execute the batches.

All batches of all receivers of one simulation run on one pool.  Each batch
is walked in pieces of at most BLOCK_CELLS samples; each worker allocates its
float64 piece buffers once, and every piece draws into them with ``out=`` and
does its arithmetic in place, in the order of the elementwise expressions it
implements.  Piece sums are added in piece order.  An uncoded Gaussian piece
draws its source, then the channel noise Z_v, then the side-information
noise Z_y.  An uncoded binary piece draws only the flips of the observation
that its decoder uses; a PCG64 ``random`` double takes one 64-bit draw, so
the pieces are the draws of one batch-long call.
"""

from __future__ import annotations

import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import BLOCK_CELLS, BinaryProblem, GaussianProblem, require_bandwidth_match

BATCH_SPAN = 1 << 18


def _require_int(name: str, value, least: int):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """Sample budget and master seed for one simulation run."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        _require_int("samples", self.samples, 1)
        _require_int("seed", self.seed, 0)


@dataclass(frozen=True)
class MCEstimate:
    """Empirical per-receiver distortions with standard errors."""

    mean: tuple
    stderr: tuple
    samples: int

    def within(self, target, n_stderr: float = 4.0) -> bool:
        return all(
            abs(m - t) <= n_stderr * max(s, 1e-300)
            for m, t, s in zip(self.mean, target, self.stderr)
        )


def _batches(samples: int):
    start = 0
    index = 0
    while start < samples:
        yield index, min(BATCH_SPAN, samples - start)
        start += BATCH_SPAN
        index += 1


def _rng(seed: int, stream: int, batch: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream, batch))))


def _reduce_batches(cfg: SimConfig, piece_fns, buffers: int, threads: int = 1) -> MCEstimate:
    """Estimate of every stream, all batches of all streams on one pool.

    piece_fns[k](rng, work) returns (total, total_sq) of one piece of a batch
    of stream k, drawn from the batch's stream into and computed in ``work``:
    ``buffers`` float64 views of the running worker's own BLOCK_CELLS-long
    buffers, cut to the piece length.  Piece sums are added in piece order
    and batch sums are reduced in batch order.
    """
    batches = list(_batches(cfg.samples))
    jobs = [(k, index, n) for k in range(len(piece_fns)) for index, n in batches]
    local = threading.local()

    def run(job):
        k, index, n = job
        work = getattr(local, "work", None)
        if work is None:
            work = local.work = [np.empty(min(BLOCK_CELLS, cfg.samples)) for _ in range(buffers)]
        rng = _rng(cfg.seed, k, index)
        total = total_sq = 0.0
        for lo in range(0, n, BLOCK_CELLS):
            part, part_sq = piece_fns[k](rng, [b[:n - lo] for b in work])
            total += part
            total_sq += part_sq
        return total, total_sq

    workers = min(threads, len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, jobs))
    else:
        parts = [run(job) for job in jobs]
    n = cfg.samples
    means, errs = [], []
    for start in range(0, len(parts), len(batches)):
        stream = parts[start:start + len(batches)]
        mean = math.fsum(p[0] for p in stream) / n
        var = max(0.0, math.fsum(p[1] for p in stream) / n - mean * mean)
        means.append(mean)
        errs.append(math.sqrt(var / n))
    return MCEstimate(mean=tuple(means), stderr=tuple(errs), samples=n)


def _square_sums(se) -> tuple:
    """(sum of se**2, sum of se**4), squaring se in place."""
    np.square(se, out=se)
    total = float(se.sum())
    return total, float(np.square(se, out=se).sum())


def simulate_uncoded_gaussian(
    problem: GaussianProblem, cfg: SimConfig, threads: int = 1
) -> MCEstimate:
    """Empirical squared error of uncoded transmission with the linear MMSE decoder.

    Transmits sqrt(P) X; receiver k estimates X from the channel output and
    its side information with the analytic combiner
    (sqrt(P) N_k V + rho_k W_k Y) / (P N_k + W_k).
    """
    require_bandwidth_match(problem, "uncoded")
    P = problem.power
    piece_fns = []
    for W, N in zip(problem.noise_vars, problem.sideinfo_vars):
        rho = math.sqrt(1.0 - N)
        det = P * N + W
        a = math.sqrt(P) * N / det
        b = rho * W / det

        def piece(rng, work, W=W, N=N, rho=rho, a=a, b=b):
            # x = X, v = sqrt(P) X + sqrt(W) Z_v, y = rho X + sqrt(N) Z_y,
            # se = (x - (a v + b y)) ** 2; z holds Z_v, then Z_y
            x, v, y, z = work
            rng.standard_normal(out=x)
            np.multiply(math.sqrt(P), x, out=v)
            v += np.multiply(math.sqrt(W), rng.standard_normal(out=z), out=z)
            np.multiply(rho, x, out=y)
            y += np.multiply(math.sqrt(N), rng.standard_normal(out=z), out=z)
            v *= a
            y *= b
            v += y
            return _square_sums(np.subtract(x, v, out=x))

        piece_fns.append(piece)
    return _reduce_batches(cfg, piece_fns, 4, threads)  # x, v, y and z pieces


def simulate_uncoded_binary(
    problem: BinaryProblem, cfg: SimConfig, threads: int = 1
) -> MCEstimate:
    """Empirical Hamming distortion of uncoded transmission.

    The decoder outputs the channel output when p_k <= beta_k and the side
    information otherwise, matching the maximum-likelihood rule.
    """
    require_bandwidth_match(problem, "uncoded")
    piece_fns = []
    for p, beta in zip(problem.crossovers, problem.sideinfo_crossovers):

        def piece(rng, work, p=p, beta=beta):
            # x ^ e differs from x exactly where e is set, so the decoder errs
            # where the flip of its chosen observation is set; neither x nor
            # the flips of the other observation are drawn
            (u,) = work
            rng.random(out=u)  # flips of v when p <= beta, of y otherwise
            errors = float(np.count_nonzero(np.less(u, min(p, beta), out=u)))
            return errors, errors  # exact: counts stay below 2**53; err^2 == err

        piece_fns.append(piece)
    return _reduce_batches(cfg, piece_fns, 1, threads)

