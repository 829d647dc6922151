"""Monte Carlo validation of the physically simulable strategies.

Random numbers come from numpy's PCG64 generator.  Samples are drawn in
fixed-size batches; the stream for (receiver k, batch j) is seeded with
SeedSequence(seed, spawn_key=(k, j)), and batch statistics are reduced in
batch-index order, so results are bit-identical regardless of how many
worker threads execute the batches.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import BinaryProblem, GaussianProblem, validate_problem

BATCH_SPAN = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """Sample budget and master seed for one simulation run."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


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


def _reduce_batches(cfg: SimConfig, stream: int, batch_fn, threads: int = 1):
    """Sum (total, total_sq, n) over batches in batch order; batch_fn(rng, n)."""
    jobs = list(_batches(cfg.samples))

    def run(job):
        index, n = job
        return batch_fn(_rng(cfg.seed, stream, index), n)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, jobs))
    else:
        parts = [run(job) for job in jobs]
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    n = cfg.samples
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    return mean, math.sqrt(var / n)


def simulate_uncoded_gaussian(
    problem: GaussianProblem, cfg: SimConfig, threads: int = 1
) -> MCEstimate:
    """Empirical squared error of uncoded transmission with the linear MMSE decoder.

    Transmits sqrt(P) X; receiver k estimates X from the channel output and
    its side information with the analytic combiner
    (sqrt(P) N_k V + rho_k W_k Y) / (P N_k + W_k).
    """
    validate_problem(problem)
    if problem.kappa != 1:
        raise ValueError("uncoded requires bandwidth match (kappa = 1), got "
                         f"kappa = {problem.kappa}")
    P = problem.power
    means, errs = [], []
    for k, (W, N) in enumerate(zip(problem.noise_vars, problem.sideinfo_vars)):
        rho = math.sqrt(1.0 - N)
        det = P * N + W
        a = math.sqrt(P) * N / det
        b = rho * W / det

        def batch(rng, n, W=W, N=N, rho=rho, a=a, b=b):
            x = rng.standard_normal(n)
            v = math.sqrt(P) * x + math.sqrt(W) * rng.standard_normal(n)
            y = rho * x + math.sqrt(N) * rng.standard_normal(n)
            se = (x - (a * v + b * y)) ** 2
            return float(se.sum()), float((se * se).sum())

        mean, err = _reduce_batches(cfg, k, batch, threads)
        means.append(mean)
        errs.append(err)
    return MCEstimate(mean=tuple(means), stderr=tuple(errs), samples=cfg.samples)


def simulate_uncoded_binary(
    problem: BinaryProblem, cfg: SimConfig, threads: int = 1
) -> MCEstimate:
    """Empirical Hamming distortion of uncoded transmission.

    The decoder outputs the channel output when p_k <= beta_k and the side
    information otherwise, matching the maximum-likelihood rule.
    """
    validate_problem(problem)
    if problem.kappa != 1:
        raise ValueError("uncoded requires bandwidth match (kappa = 1), got "
                         f"kappa = {problem.kappa}")
    means, errs = [], []
    for k, (p, beta) in enumerate(zip(problem.crossovers, problem.sideinfo_crossovers)):
        use_channel = p <= beta

        def batch(rng, n, p=p, beta=beta, use_channel=use_channel):
            x = rng.integers(0, 2, size=n, dtype=np.int8)
            v = x ^ (rng.random(n) < p)
            y = x ^ (rng.random(n) < beta)
            xhat = v if use_channel else y
            errors = float(np.count_nonzero(xhat != x))  # exact: counts stay below 2**53
            return errors, errors  # err^2 == err for 0/1 values

        mean, err = _reduce_batches(cfg, k, batch, threads)
        means.append(mean)
        errs.append(err)
    return MCEstimate(mean=tuple(means), stderr=tuple(errs), samples=cfg.samples)


def simulate_gaussian_wz_estimator(
    N: float, S_var: float, cfg: SimConfig, threads: int = 1
) -> MCEstimate:
    """Empirical MSE of the linear combiner on the backward test channel.

    Draws X = Z + S with independent Gaussian Z and S (variance of S is
    S_var, source variance 1) and side information Y = rho X + noise of
    variance N, then applies the combiner
    (N Z + rho S_var Y) / (1 - (1 - N)(1 - S_var)).
    The closed-form target is N / (1 - N + N / S_var).
    """
    if not 0.0 < N <= 1.0:
        raise ValueError(f"N must lie in (0, 1], got {N}")
    if not 0.0 < S_var <= 1.0:
        raise ValueError(f"S_var must lie in (0, 1], got {S_var}")
    rho = math.sqrt(1.0 - N)
    zv = 1.0 - S_var
    denom = 1.0 - rho * rho * zv

    def batch(rng, n):
        z = math.sqrt(zv) * rng.standard_normal(n)
        s = math.sqrt(S_var) * rng.standard_normal(n)
        x = z + s
        y = rho * x + math.sqrt(N) * rng.standard_normal(n)
        xhat = (N * z + rho * S_var * y) / denom
        se = (x - xhat) ** 2
        return float(se.sum()), float((se * se).sum())

    mean, err = _reduce_batches(cfg, 0, batch, threads)
    return MCEstimate(mean=(mean,), stderr=(err,), samples=cfg.samples)
