"""Monte Carlo validation of uncoded transmission, Gaussian and binary.

Random numbers come from numpy's PCG64 generator.  Samples are drawn in
fixed-size batches; the stream for (receiver k, batch j) is seeded with
SeedSequence(seed, spawn_key=(k, j)), and batch statistics are reduced in
batch-index order, so results are bit-identical regardless of how many
worker threads execute the batches.

All batches of all receivers of one simulation run on one pool.  Each
worker allocates its float64 work buffers once, each of them batch-long
(min(BATCH_SPAN, samples)) or a BLOCK_CELLS scratch piece, and every batch
draws into them with ``out=`` and does its arithmetic in place, in the order
of the elementwise expressions it implements.  The uncoded Gaussian batch
holds the source and one channel output batch-long and draws each noise
vector piece by piece, in stream order, into two scratch pieces: a PCG64
``standard_normal`` of doubles keeps no state between calls, so the pieces
are the draws of one batch-long call.  The uncoded binary batch draws only
the flips of the observation that its decoder uses.
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


def _reduce_batches(cfg: SimConfig, batch_fns, lengths, threads: int = 1) -> MCEstimate:
    """Estimate of every stream, all batches of all streams on one pool.

    batch_fns[k](rng, work) returns (total, total_sq) of one batch of stream
    k, drawn into and computed in ``work``: one float64 array per entry of
    ``lengths``, a view of the running worker's own buffer of that length
    cut to at most the batch length.  Batch sums are reduced in batch order.
    """
    span = min(BATCH_SPAN, cfg.samples)
    batches = list(_batches(cfg.samples))
    jobs = [(k, index, n) for k in range(len(batch_fns)) for index, n in batches]
    local = threading.local()

    def run(job):
        k, index, n = job
        work = getattr(local, "work", None)
        if work is None:
            work = local.work = [np.empty(min(length, span)) for length in lengths]
        return batch_fns[k](_rng(cfg.seed, k, index), [b[:n] for b in work])

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
    batch_fns = []
    for W, N in zip(problem.noise_vars, problem.sideinfo_vars):
        rho = math.sqrt(1.0 - N)
        det = P * N + W
        a = math.sqrt(P) * N / det
        b = rho * W / det

        def batch(rng, work, W=W, N=N, rho=rho, a=a, b=b):
            # x = X, v = sqrt(P) X + sqrt(W) Z_v, y = rho X + sqrt(N) Z_y,
            # se = (x - (a v + b y)) ** 2; Z_v and Z_y are drawn in pieces
            # of the scratch length, y one piece at a time
            x, v, y, z = work
            rng.standard_normal(out=x)
            np.multiply(math.sqrt(P), x, out=v)
            pieces = [slice(lo, lo + z.size) for lo in range(0, x.size, z.size)]
            for piece in pieces:
                zp = z[:v[piece].size]
                v[piece] += np.multiply(math.sqrt(W), rng.standard_normal(out=zp), out=zp)
            for piece in pieces:
                vp = v[piece]
                zp, yp = z[:vp.size], y[:vp.size]
                np.multiply(rho, x[piece], out=yp)
                yp += np.multiply(math.sqrt(N), rng.standard_normal(out=zp), out=zp)
                vp *= a
                yp *= b
                vp += yp
            return _square_sums(np.subtract(x, v, out=x))

        batch_fns.append(batch)
    lengths = (BATCH_SPAN, BATCH_SPAN, BLOCK_CELLS, BLOCK_CELLS)  # x, v, y and z pieces
    return _reduce_batches(cfg, batch_fns, lengths, threads)


def simulate_uncoded_binary(
    problem: BinaryProblem, cfg: SimConfig, threads: int = 1
) -> MCEstimate:
    """Empirical Hamming distortion of uncoded transmission.

    The decoder outputs the channel output when p_k <= beta_k and the side
    information otherwise, matching the maximum-likelihood rule.
    """
    require_bandwidth_match(problem, "uncoded")
    batch_fns = []
    for p, beta in zip(problem.crossovers, problem.sideinfo_crossovers):

        def batch(rng, work, p=p, beta=beta):
            # x ^ e differs from x exactly where e is set, so the decoder errs
            # where the flip of its chosen observation is set; neither x nor
            # the flips of the other observation are drawn
            (u,) = work
            rng.random(out=u)  # flips of v when p <= beta, of y otherwise
            errors = float(np.count_nonzero(np.less(u, min(p, beta), out=u)))
            return errors, errors  # exact: counts stay below 2**53; err^2 == err

        batch_fns.append(batch)
    return _reduce_batches(cfg, batch_fns, (BATCH_SPAN,), threads)

