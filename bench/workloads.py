"""The benchmark's workloads: seeded problem files and the CLI jobs run on them.

Every workload takes the workload seed.  From it the problem files are drawn
(the README fixtures are always included), and the program sees only those
files and the argv of each job.  Seeded problems are drawn as a Latin
hypercube over the parameter ranges: each parameter of the SEEDED_* problems
falls in a different equal-width stratum of its range, and the kappa values
are balanced.  A run therefore always covers the whole range, so the amount
of work changes little from seed to seed while the inputs do change.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

BINARY_FIXTURE = {"kind": "binary", "p": [0.05, 0.1], "beta": [0.2, 0.1], "kappa": "1"}
GAUSSIAN_FIXTURE = {"kind": "gaussian", "P": 1.0, "W": [1.0, 0.5], "N": [0.8, 0.4], "kappa": "1"}

SEEDED_BINARY = 8
SEEDED_GAUSSIAN = 4
BINARY_RANGES = ((0.01, 0.3), (0.01, 0.3), (0.05, 0.45), (0.05, 0.45))  # p_1, p_2, beta_1, beta_2
GAUSSIAN_RANGES = ((0.5, 4.0), (0.25, 4.0), (0.25, 4.0), (0.1, 1.0), (0.1, 1.0))  # P, W_k, N_k

LAYERED_RESOLUTION = 15
SEPARATE_RESOLUTION = 27
GAUSSIAN_RESOLUTION = 1001


def _latin_hypercube(rng: random.Random, count: int, ranges) -> list:
    """count points; along every axis each point lies in its own stratum."""
    columns = []
    for lo, hi in ranges:
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([round(lo + (hi - lo) * (s + rng.random()) / count, 6) for s in strata])
    return [list(row) for row in zip(*columns)]


def binary_problems(seed: int) -> dict:
    """{file stem: problem dict}: the fixture plus SEEDED_BINARY seeded problems."""
    rng = random.Random(f"binary:{seed}")
    kappas = ["1", "1/2"] * (SEEDED_BINARY // 2) + ["1"] * (SEEDED_BINARY % 2)
    rng.shuffle(kappas)
    problems = {"fixture": dict(BINARY_FIXTURE)}
    for i, (p1, p2, b1, b2) in enumerate(_latin_hypercube(rng, SEEDED_BINARY, BINARY_RANGES)):
        problems[f"seeded-{i}"] = {"kind": "binary", "p": [p1, p2], "beta": [b1, b2],
                                   "kappa": kappas[i]}
    return problems


def gaussian_problems(seed: int) -> dict:
    """{file stem: problem dict}: the fixture plus SEEDED_GAUSSIAN seeded problems."""
    rng = random.Random(f"gaussian:{seed}")
    problems = {"fixture": dict(GAUSSIAN_FIXTURE)}
    for i, (P, w1, w2, n1, n2) in enumerate(
        _latin_hypercube(rng, SEEDED_GAUSSIAN, GAUSSIAN_RANGES)
    ):
        problems[f"seeded-{i}"] = {"kind": "gaussian", "P": P, "W": [w1, w2], "N": [n1, n2],
                                   "kappa": "1"}
    return problems


@dataclass(frozen=True)
class Job:
    """One call of wzbc.cli.main.  For compare jobs, `problem` is the problem
    dict as the CLI sees it (kappa override applied) and `schemes` the CSVs
    that must appear in `out`."""

    name: str
    argv: tuple
    problem: dict | None = None
    schemes: tuple = ()
    out: str | None = None


def compare_job(name, path, problem, schemes, resolution, seed, out_root, kappa=None):
    out = os.path.join(out_root, name)
    argv = ["compare", "--problem", path, "--schemes", ",".join(schemes),
            "--resolution", str(resolution), "--out", out, "--seed", str(seed)]
    seen = dict(problem)
    if kappa is not None:
        argv += ["--kappa-override", kappa]
        seen["kappa"] = kappa
    # the CLI always emits the converse
    return Job(name, tuple(argv), seen, tuple(dict.fromkeys(("converse",) + tuple(schemes))), out)


def _validate(suite, seed):
    return Job(f"validate-{suite}", ("validate", "--suite", suite, "--seed", str(seed)))


def _binary_jobs(schemes, resolution):
    def build(seed, files, out_root):
        jobs = []
        for stem, (path, problem) in files.items():
            uncoded = "lds" in schemes and problem["kappa"] == "1"
            use = list(schemes) + (["uncoded"] if uncoded else [])
            jobs.append(compare_job(f"compare-{stem}", path, problem, use, resolution, seed,
                                    out_root))
        return jobs
    return build


def _gaussian_jobs(seed, files, out_root):
    """Every problem at kappa 1; the fixture also with --kappa-override 1/2.

    The kappa = 1/2 envelope of a seeded problem costs from 1x to 2x that of
    the fixture depending on the draw, so only the fixture takes that path and
    wall_s stays steady from seed to seed.
    """
    jobs = []
    for stem, (path, problem) in files.items():
        jobs.append(compare_job(f"compare-{stem}", path, problem,
                             ["converse", "uncoded", "cds", "lds", "separate", "scheme3"],
                             GAUSSIAN_RESOLUTION, seed, out_root))
        if stem == "fixture":
            jobs.append(compare_job(f"compare-{stem}-kappa-1_2", path, problem,
                                 ["converse", "cds", "lds", "separate", "scheme3"],
                                 GAUSSIAN_RESOLUTION, seed, out_root, kappa="1/2"))
    return jobs + [_validate("gaussian-oracle", seed), _validate("gaussian-ordering", seed)]


def _oracle_jobs(seed, files, out_root):
    return [_validate(s, seed) for s in ("binary-oracle", "dmc-consistency", "mc-uncoded")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    problems: Callable  # seed -> {stem: problem dict}
    jobs: Callable  # (seed, {stem: (path, problem)}, out_root) -> [Job]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "binary-layered",
            "binary compare with the layered sweep: binary, optimize envelope calls and "
            "infotheory scalar kernels do the work",
            1, binary_problems,
            _binary_jobs(("converse", "cds", "lds", "separate"), LAYERED_RESOLUTION),
        ),
        Workload(
            "binary-separate",
            "binary compare without the layered sweep: the separate-coding theta x q_b loop "
            "does the work; layered-sweep changes must not move it",
            1, binary_problems,
            _binary_jobs(("converse", "cds", "separate"), SEPARATE_RESOLUTION),
        ),
        Workload(
            "gaussian-envelope",
            "Gaussian compare at resolution 1001 (kappa 1, fixture also 1/2) plus two suites: few "
            "huge envelope calls and the 1M-cell parametric cloud that sets peak memory",
            1, gaussian_problems, _gaussian_jobs,
        ),
        Workload(
            "oracles",
            "validate suites binary-oracle, dmc-consistency and mc-uncoded: the only work for "
            "mcsim threads, dmc and mutual_information",
            2, lambda seed: {}, _oracle_jobs,
        ),
    )
}


def write_problems(workload: Workload, seed: int, directory: str) -> dict:
    """Write the workload's problem files; returns {stem: (path, problem dict)}."""
    os.makedirs(directory, exist_ok=True)
    files = {}
    for stem, problem in workload.problems(seed).items():
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh, sort_keys=True)
            fh.write("\n")
        files[stem] = (path, problem)
    return files
