"""Problem definitions and shared result types.

Conventions baked into the Gaussian problem: the source and every side
information variable have unit variance, so ``sideinfo_vars[k]`` is both the
noise variance of the virtual side channel and the MMSE of estimating the
source from side information k.  The bandwidth ratio kappa (channel uses per
source symbol) is stored as an exact rational so that the bandwidth-matched
case kappa == 1 can be gated exactly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np


RATE_CLAMP_EPS = 1e-12  # rates below -RATE_CLAMP_EPS are materially negative
# elements per block of a blocked grid pass: bounds its working arrays to a
# few hundred kilobytes
BLOCK_CELLS = 2**14


class InvalidProblem(ValueError):
    """A problem definition violates one of its invariants."""


class BoundsViolation(AssertionError):
    """A scheme produced a distortion outside [0, N_k] (Gaussian) or [0, beta_k] (binary)."""


def parse_kappa(value) -> Fraction:
    """Parse a bandwidth ratio given as Fraction, int, or a "num/den" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidProblem(f"kappa string not parseable as a rational: {value!r}") from exc
    if isinstance(value, float) and value.is_integer():
        return Fraction(int(value))
    raise InvalidProblem(
        f"kappa must be a rational ('num/den' string, integer, or Fraction), got {value!r}"
    )


def _number(name: str, value) -> float:
    """float(value), or InvalidProblem naming the field."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidProblem(f"{name} must be a number, got {value!r}") from exc


def _numbers(name: str, values) -> tuple:
    """A list of numbers as a tuple of floats, or InvalidProblem naming the field."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise InvalidProblem(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_number(f"{name}[{k}]", v) for k, v in enumerate(values))


def _set_receiver_fields(problem, channel: str, sideinfo: str) -> None:
    """Convert two per-receiver fields to tuples of floats of one common
    length, exactly two."""
    first, second = (_numbers(name, getattr(problem, name)) for name in (channel, sideinfo))
    if len(first) != 2:
        raise InvalidProblem(f"need exactly 2 receivers ({channel}={first})")
    if len(first) != len(second):
        raise InvalidProblem(
            f"{channel} and {sideinfo} must have the same length "
            f"({len(first)} vs {len(second)})"
        )
    object.__setattr__(problem, channel, first)
    object.__setattr__(problem, sideinfo, second)


def _set_kappa(problem) -> None:
    kappa = parse_kappa(problem.kappa)
    if not kappa > 0:
        raise InvalidProblem(f"kappa must be positive (kappa={kappa})")
    try:
        value = float(kappa)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise InvalidProblem(
            f"kappa must have a finite, nonzero float value (kappa={problem.kappa!r})"
        )
    object.__setattr__(problem, "kappa", kappa)


@dataclass(frozen=True)
class GaussianProblem:
    """Quadratic Gaussian broadcast problem.

    power           -- channel input power constraint P
    noise_vars      -- channel noise variance W_k per receiver
    sideinfo_vars   -- MMSE N_k of estimating the unit-variance source from
                       side information k; the correlation is sqrt(1 - N_k)
    kappa           -- channel uses per source symbol

    Construction, also through ``dataclasses.replace``, checks every
    invariant: P and every W_k positive and finite, 0 < N_k <= 1, kappa > 0
    with a finite, nonzero float value, and exactly two receivers.  The
    first violation raises InvalidProblem naming the field and its value.
    """

    power: float
    noise_vars: tuple
    sideinfo_vars: tuple
    kappa: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "power", _number("power", self.power))
        _set_receiver_fields(self, "noise_vars", "sideinfo_vars")
        _set_kappa(self)
        if not 0 < self.power < math.inf:
            raise InvalidProblem(f"power must be positive and finite (power={self.power})")
        for k, w in enumerate(self.noise_vars):
            if not 0 < w < math.inf:
                raise InvalidProblem(
                    f"noise variance must be positive and finite (noise_vars[{k}]={w})"
                )
        for k, n in enumerate(self.sideinfo_vars):
            if not 0 < n <= 1:
                raise InvalidProblem(
                    f"side-information MMSE must lie in (0, 1] (sideinfo_vars[{k}]={n})"
                )


@dataclass(frozen=True)
class BinaryProblem:
    """Binary Hamming broadcast problem.

    crossovers          -- BSC transition probability p_k per receiver
    sideinfo_crossovers -- crossover beta_k of the virtual side channel
    kappa               -- channel uses per source symbol

    Construction, also through ``dataclasses.replace``, checks every
    invariant: p_k and beta_k in [0, 1/2], kappa > 0 with a finite, nonzero
    float value, and exactly two receivers.  The first violation raises
    InvalidProblem naming the field and its value.
    """

    crossovers: tuple
    sideinfo_crossovers: tuple
    kappa: Fraction = Fraction(1)

    def __post_init__(self):
        _set_receiver_fields(self, "crossovers", "sideinfo_crossovers")
        _set_kappa(self)
        for name in ("crossovers", "sideinfo_crossovers"):
            for k, p in enumerate(getattr(self, name)):
                if not 0 <= p <= 0.5:
                    why = ("must be nonnegative" if p < 0 else "exceeds 1/2" if p > 0.5
                           else "must lie in [0, 1/2]")
                    raise InvalidProblem(f"crossover {why} ({name}[{k}]={p})")


Problem = Union[GaussianProblem, BinaryProblem]


def validate_problem(problem: Problem) -> Problem:
    """Return a problem instance unchanged; raise InvalidProblem for anything else.

    Problem types check their invariants when constructed, so this is only a
    type check, and idempotent.
    """
    if isinstance(problem, (GaussianProblem, BinaryProblem)):
        return problem
    raise InvalidProblem(f"not a problem instance: {problem!r}")


def require_bandwidth_match(problem: Problem, what: str) -> None:
    """Raise ValueError unless kappa == 1: what is defined only at bandwidth match."""
    if problem.kappa != 1:
        raise ValueError(
            f"{what} requires bandwidth match (kappa = 1), got kappa = {problem.kappa}"
        )


def bad_good_labels(channel, sideinfo) -> tuple:
    """0-based (bad, good) receiver indices of two receivers for separate coding.

    channel and sideinfo hold one parameter per receiver, larger meaning
    worse: noise variances W_k or crossovers p_k, and side-information MMSEs
    N_k or crossovers beta_k.  The bad receiver has the larger channel
    parameter; equal channel parameters label the receiver with the smaller
    side-information parameter as good (receiver 2 when those tie as well).
    """
    c1, c2 = channel
    if c1 > c2:
        return 0, 1
    if c2 > c1:
        return 1, 0
    s1, s2 = sideinfo
    return (0, 1) if s2 <= s1 else (1, 0)


@dataclass(frozen=True)
class RoleAssignment:
    """Which receiver decodes only the common layer (c) and which also decodes
    the refinement layer (r).  Indices are 1-based."""

    common_receiver: int
    refinement_receiver: int

    def __post_init__(self):
        if self.common_receiver == self.refinement_receiver:
            raise InvalidProblem("common and refinement receivers must be distinct")
        if {self.common_receiver, self.refinement_receiver} != {1, 2}:
            raise InvalidProblem(
                "role assignment indices must be {1, 2}, got "
                f"({self.common_receiver}, {self.refinement_receiver})"
            )

    @property
    def c(self) -> int:
        """0-based index of the common-layer receiver."""
        return self.common_receiver - 1

    @property
    def r(self) -> int:
        """0-based index of the refinement receiver."""
        return self.refinement_receiver - 1


@dataclass(frozen=True)
class RateTriple:
    """(R_cc, R_cr, R_rr): common layer to receiver c, common layer to
    receiver r, refinement layer to receiver r.  Units (per source symbol or
    per channel use) are set by the producing operation.  The ``wzbc.dmc``
    evaluators fill the fields with arrays for a batch; ``clamp`` is a policy
    for scalar fields only."""

    R_cc: float
    R_cr: float
    R_rr: float
    clamped: bool = False

    def clamp(self, eps: float = RATE_CLAMP_EPS) -> "RateTriple":
        """Clamp negative components to 0.

        Values below -eps are materially negative and set the clamped flag;
        values in [-eps, 0) are floating-point boundary noise and are snapped
        to 0 unflagged (sweeps skip flagged points, so boundary cells such as
        the zero-rate corner must not be flagged).
        """
        vals = (self.R_cc, self.R_cr, self.R_rr)
        if min(vals) >= 0.0:
            return self
        flagged = min(vals) < -eps
        return RateTriple(*(max(0.0, v) for v in vals), clamped=flagged)

    def as_tuple(self):
        return (self.R_cc, self.R_cr, self.R_rr)


@dataclass(frozen=True)
class DistortionPoint:
    """A per-receiver distortion tuple together with the scheme and the
    parameters that generated it."""

    D: tuple
    scheme: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "D", tuple(float(d) for d in self.D))


def _distortion_caps(problem: Problem) -> tuple:
    """Zero-rate distortion of each receiver: N_k (Gaussian) or beta_k (binary)."""
    if isinstance(problem, GaussianProblem):
        return problem.sideinfo_vars
    return problem.sideinfo_crossovers


def _inside(d, upper, slack):
    """-slack <= d <= upper + slack, elementwise for arrays (NaN is outside)."""
    return (d >= -slack) & (d <= upper + slack)


def require_within_bounds(problem: Problem, D, slack: float = 1e-12) -> None:
    """Raise BoundsViolation unless every D_k lies in [0, N_k] or [0, beta_k] up to slack.

    D holds one entry per receiver, a scalar or an array whose every cell is
    checked.  Unlike an assert, the check also runs under ``python -O``.
    """
    for k, (d, u) in enumerate(zip(D, _distortion_caps(problem))):
        inside = _inside(d, u, slack)
        if not np.all(inside):
            bad = float(np.asarray(d, dtype=float)[~np.asarray(inside)].flat[0])
            raise BoundsViolation(f"D{k + 1} = {bad!r} lies outside [0, {u!r}] (slack {slack:g})")


@dataclass(frozen=True)
class TradeoffCurve:
    """The vertices of a lower convex envelope of distortion points, sorted
    by D1 and strictly decreasing in D2."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def d1(self):
        return [p.D[0] for p in self.points]

    def d2(self):
        return [p.D[1] for p in self.points]


def problem_from_dict(data: Mapping) -> Problem:
    """Build a problem from its JSON dictionary form.

    Gaussian: {"kind": "gaussian", "P": .., "W": [..], "N": [..], "kappa": "1"}
    Binary:   {"kind": "binary", "p": [..], "beta": [..], "kappa": "1/2"}
    """
    if not isinstance(data, Mapping):
        raise InvalidProblem(f"a problem must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    kappa = data.get("kappa", 1)
    try:
        if kind == "gaussian":
            return GaussianProblem(
                power=data["P"], noise_vars=data["W"], sideinfo_vars=data["N"], kappa=kappa
            )
        if kind == "binary":
            return BinaryProblem(
                crossovers=data["p"], sideinfo_crossovers=data["beta"], kappa=kappa
            )
    except KeyError as exc:
        raise InvalidProblem(f"{kind} problem missing field {exc}") from exc
    raise InvalidProblem(f'problem "kind" must be "gaussian" or "binary", got {kind!r}')


def load_problem(path) -> Problem:
    """Load and validate a problem from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))
