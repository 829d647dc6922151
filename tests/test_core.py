import ast
import dataclasses
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import wzbc
from wzbc.core import (
    BinaryProblem,
    BoundsViolation,
    DistortionPoint,
    GaussianProblem,
    InvalidProblem,
    RateTriple,
    RoleAssignment,
    load_problem,
    parse_kappa,
    problem_from_dict,
    require_within_bounds,
    validate_problem,
)


def test_valid_gaussian_problem_passes():
    p = GaussianProblem(power=1, noise_vars=[1, 0.5], sideinfo_vars=[0.8, 0.4], kappa=1)
    assert validate_problem(p) is p


def test_zero_power_rejected():
    with pytest.raises(InvalidProblem, match="power must be positive"):
        GaussianProblem(power=0, noise_vars=[1, 0.5], sideinfo_vars=[0.8, 0.4])


def test_binary_crossover_above_half_rejected():
    with pytest.raises(InvalidProblem, match="crossover exceeds 1/2"):
        BinaryProblem(crossovers=[0.6, 0.1], sideinfo_crossovers=[0.2, 0.1])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("noise_vars", [0.0, 0.5]),
        ("sideinfo_vars", [0.8, 0.0]),
        ("sideinfo_vars", [0.8, 1.2]),
        ("kappa", Fraction(-1, 2)),
        ("power", NAN),
        ("power", INF),
        ("power", -INF),
        ("power", None),
        ("noise_vars", [1.0, NAN]),
        ("noise_vars", [INF, 0.5]),
        ("noise_vars", [-INF, 0.5]),
        ("noise_vars", [1.0, None]),
        ("noise_vars", 5),
        ("noise_vars", [1.0]),
        ("sideinfo_vars", [0.8, NAN]),
        ("sideinfo_vars", [INF, 0.4]),
        ("sideinfo_vars", [None, 0.4]),
        ("sideinfo_vars", [0.8, 0.4, 0.5]),
        ("kappa", None),
        ("kappa", "1e400"),
        ("kappa", "1e-400"),
    ],
)
def test_gaussian_invariant_violations(field, value):
    kwargs = dict(power=1, noise_vars=[1, 0.5], sideinfo_vars=[0.8, 0.4], kappa=1)
    kwargs[field] = value
    with pytest.raises(InvalidProblem, match=rf"\b{field}\b"):
        GaussianProblem(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("crossovers", [-0.1, 0.1]),
        ("crossovers", [0.05, 0.6]),
        ("crossovers", [NAN, 0.1]),
        ("crossovers", [0.05, INF]),
        ("crossovers", [-INF, 0.1]),
        ("crossovers", [None, 0.1]),
        ("crossovers", 0.1),
        ("crossovers", [0.1]),
        ("sideinfo_crossovers", [0.2, -0.1]),
        ("sideinfo_crossovers", [0.51, 0.1]),
        ("sideinfo_crossovers", [0.2, NAN]),
        ("sideinfo_crossovers", [0.2, None]),
        ("sideinfo_crossovers", "ab"),
        ("sideinfo_crossovers", [0.2]),
        ("kappa", 0),
        ("kappa", "1e400"),
        ("kappa", "1e-400"),
    ],
)
def test_binary_invariant_violations(field, value):
    kwargs = dict(crossovers=[0.05, 0.1], sideinfo_crossovers=[0.2, 0.1], kappa=1)
    kwargs[field] = value
    with pytest.raises(InvalidProblem, match=rf"\b{field}\b"):
        BinaryProblem(**kwargs)


def test_crossover_messages():
    for value, message in ((-0.1, "crossover must be nonnegative"),
                           (NAN, "crossover must lie in \\[0, 1/2\\]")):
        with pytest.raises(InvalidProblem, match=message):
            BinaryProblem(crossovers=[0.05, 0.1], sideinfo_crossovers=[value, 0.1])


def test_replace_checks_the_invariants_again():
    p = GaussianProblem(power=1, noise_vars=[1, 0.5], sideinfo_vars=[0.8, 0.4])
    with pytest.raises(InvalidProblem, match="power must be positive"):
        dataclasses.replace(p, power=0)
    half = dataclasses.replace(p, kappa="1/2")
    assert half.kappa == Fraction(1, 2) and half.noise_vars == p.noise_vars


def test_validation_is_idempotent():
    p = BinaryProblem(crossovers=[0.05, 0.1], sideinfo_crossovers=[0.2, 0.1], kappa="1/2")
    assert validate_problem(validate_problem(p)) is p
    with pytest.raises(InvalidProblem, match="not a problem instance"):
        validate_problem({"kind": "binary"})


def test_kappa_parsing():
    assert parse_kappa("1/2") == Fraction(1, 2)
    assert parse_kappa(3) == Fraction(3)
    assert parse_kappa("2") == Fraction(2)
    assert parse_kappa(2.0) == Fraction(2)
    with pytest.raises(InvalidProblem):
        parse_kappa(0.3)  # non-integer floats are ambiguous, must be given as a string
    with pytest.raises(InvalidProblem):
        parse_kappa("abc")


def test_kappa_one_is_exact():
    p = GaussianProblem(power=1, noise_vars=[1, 0.5], sideinfo_vars=[0.8, 0.4], kappa="3/3")
    assert p.kappa == 1


def test_role_assignment_invariants():
    a = RoleAssignment(common_receiver=1, refinement_receiver=2)
    assert (a.c, a.r) == (0, 1)
    with pytest.raises(InvalidProblem):
        RoleAssignment(common_receiver=1, refinement_receiver=1)
    with pytest.raises(InvalidProblem):
        RoleAssignment(common_receiver=0, refinement_receiver=2)


def test_problems_reject_any_receiver_count_but_two():
    gaussian = GaussianProblem(power=1, noise_vars=[1, 0.5], sideinfo_vars=[0.8, 0.4])
    binary = BinaryProblem(crossovers=[0.05, 0.1], sideinfo_crossovers=[0.2, 0.1])
    for count in (1, 3):
        W, N = [1, 0.5, 2][:count], [0.8, 0.4, 0.5][:count]
        p, beta = [0.05, 0.1, 0.2][:count], [0.2, 0.1, 0.3][:count]
        builds = [
            lambda: GaussianProblem(power=1, noise_vars=W, sideinfo_vars=N),
            lambda: BinaryProblem(crossovers=p, sideinfo_crossovers=beta),
            lambda: problem_from_dict({"kind": "gaussian", "P": 1, "W": W, "N": N}),
            lambda: problem_from_dict({"kind": "binary", "p": p, "beta": beta}),
            lambda: dataclasses.replace(gaussian, noise_vars=W, sideinfo_vars=N),
            lambda: dataclasses.replace(binary, crossovers=p, sideinfo_crossovers=beta),
        ]
        for build in builds:
            with pytest.raises(InvalidProblem, match="exactly 2 receivers"):
                build()


def test_rate_triple_clamp():
    t = RateTriple(0.5, -0.2, 0.1)
    c = t.clamp()
    assert c.as_tuple() == (0.5, 0.0, 0.1)
    assert c.clamped
    boundary = RateTriple(-1e-15, 0.2, 0.1).clamp()
    assert boundary.as_tuple() == (0.0, 0.2, 0.1)
    assert not boundary.clamped  # epsilon-level noise is not material clamping
    assert not RateTriple(0.1, 0.2, 0.3).clamp().clamped


def test_distortion_point_bounds():
    p = GaussianProblem(power=1, noise_vars=[1, 0.5], sideinfo_vars=[0.8, 0.4])
    require_within_bounds(p, DistortionPoint(D=(0.4, 0.3), scheme="x").D)
    for D in [(0.9, 0.3), (-0.1, 0.3)]:
        with pytest.raises(BoundsViolation, match="D1"):
            require_within_bounds(p, DistortionPoint(D=D, scheme="x").D)


def test_require_within_bounds_raises_named_error():
    p = BinaryProblem(crossovers=(0.05, 0.1), sideinfo_crossovers=(0.2, 0.1))
    require_within_bounds(p, (0.2, 0.0))
    require_within_bounds(p, (np.array([0.0, 0.2]), np.array([0.1, -1e-13])))
    for D in [(0.3, 0.05), (0.1, float("nan")), (np.array([0.1, 0.1]), np.array([0.0, -0.01]))]:
        with pytest.raises(BoundsViolation, match="outside"):
            require_within_bounds(p, D)


def test_problem_json_round_trip(tmp_path):
    for data in (
        {"kind": "gaussian", "P": 1.0, "W": [1, 0.5], "N": [0.8, 0.4], "kappa": "1"},
        {"kind": "binary", "p": [0.05, 0.1], "beta": [0.2, 0.1], "kappa": "1/2"},
    ):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        problem = load_problem(path)
        assert validate_problem(problem) is problem
    assert problem_from_dict(
        {"kind": "gaussian", "P": 1, "W": [1, 1], "N": [1, 1], "kappa": 2}
    ).kappa == 2
    with pytest.raises(InvalidProblem):
        problem_from_dict({"kind": "laplace"})
    with pytest.raises(InvalidProblem):
        problem_from_dict({"kind": "gaussian", "P": 1, "W": [1, 1]})
    with pytest.raises(InvalidProblem, match="must be a JSON object, got list"):
        problem_from_dict([1, 2])


def test_library_code_has_no_assert():
    # python -O strips assert statements, so a runtime invariant must be an explicit raise
    modules = sorted(pathlib.Path(wzbc.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{module.name}: assert at lines {lines}"
