"""Metamorphic invariants of ``compare`` across problems.

Relabelling: swapping receivers 1 and 2 in the problem file gives the same
rows with the columns swapped, byte for byte, for every scheme.  The problems
have no exact ties between the receivers, which would let a tie-break pick the
other receiver.
"""

import json

import numpy as np
import pytest

from wzbc.cli import main

GAUSSIAN_SCHEMES = "converse,uncoded,cds,lds,separate,scheme3"
BINARY_SCHEMES = "converse,uncoded,cds,lds,separate"


def gaussian_problems():
    """The two fixtures and six seeded problems."""
    problems = [
        {"kind": "gaussian", "P": 1.0, "W": [1.0, 0.5], "N": [0.8, 0.4]},
        {"kind": "gaussian", "P": 1.0, "W": [2.0, 0.5], "N": [0.3, 0.9]},
    ]
    rng = np.random.default_rng(13)
    for _ in range(6):
        problems.append({
            "kind": "gaussian",
            "P": float(rng.uniform(0.5, 4)),
            "W": rng.uniform(0.25, 4, 2).tolist(),
            "N": rng.uniform(0.1, 1, 2).tolist(),
        })
    return problems


def binary_problems():
    """The fixture and six seeded problems, half of them at kappa 1/2."""
    problems = [{"kind": "binary", "p": [0.05, 0.1], "beta": [0.2, 0.1], "kappa": "1"}]
    rng = np.random.default_rng(13)
    for i in range(6):
        problems.append({
            "kind": "binary",
            "p": rng.uniform(0.01, 0.3, 2).tolist(),
            "beta": rng.uniform(0.05, 0.45, 2).tolist(),
            "kappa": ("1", "1/2")[i % 2],
        })
    return problems


def swapped(problem):
    """The problem with receivers 1 and 2 exchanged."""
    return {k: v[::-1] if isinstance(v, list) else v for k, v in problem.items()}


def compare_csvs(tmp_path, name, problem, schemes, resolution):
    """{file name: data lines} of one in-process compare run."""
    directory = tmp_path / name
    directory.mkdir()
    path = directory / "problem.json"
    path.write_text(json.dumps(problem))
    out = directory / "out"
    assert main(["compare", "--problem", str(path), "--schemes", schemes,
                 "--resolution", str(resolution), "--out", str(out)]) == 0
    return {
        csv.name: [line for line in csv.read_text().splitlines() if not line.startswith("#")]
        for csv in sorted(out.glob("*.csv"))
    }


def assert_relabelled(tmp_path, problem, schemes, resolution):
    plain = compare_csvs(tmp_path, "plain", problem, schemes, resolution)
    relabelled = compare_csvs(tmp_path, "relabelled", swapped(problem), schemes, resolution)
    assert plain.keys() == relabelled.keys()
    assert "lds.csv" in plain
    for name, lines in plain.items():
        swapped_lines = [",".join(line.split(",")[::-1]) for line in lines]
        assert sorted(swapped_lines) == sorted(relabelled[name]), name


@pytest.mark.parametrize("kappa", ["1", "1/2", "2"])
@pytest.mark.parametrize("index", range(8))
def test_gaussian_relabelling_swaps_the_columns(tmp_path, index, kappa):
    problem = dict(gaussian_problems()[index], kappa=kappa)
    assert_relabelled(tmp_path, problem, GAUSSIAN_SCHEMES, 41)


@pytest.mark.parametrize("index", range(7))
def test_binary_relabelling_swaps_the_columns(tmp_path, index):
    assert_relabelled(tmp_path, binary_problems()[index], BINARY_SCHEMES, 21)
