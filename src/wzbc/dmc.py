"""Generic finite-alphabet rate evaluators: the layered scheme's rate triple
(``lds_rate_triple``) and plain superposition's (``scheme1_rate_triple``),
against which the ``dmc-consistency`` suite checks the binary closed forms.

Inputs are an explicit joint distribution over the named auxiliary and input
variables (T, U_c, U_r, U, and any further variable, which the evaluators
marginalize out) together with the two channel conditionals p(V_c|U) and
p(V_r|U).  Every evaluator verifies the Markov structure its rate expressions
require numerically (conditional mutual information below 1e-9) instead of
trusting the caller.  Rates are returned unclamped; clamping is a consumer
policy.

Everything here is batch-native.  The joint may carry leading batch axes (see
``JointDistribution``) and each channel has shape (..., |U|, |V_k|); the
channel batch axes broadcast against the joint's.  A batch is evaluated by
the same code as a single instance: rates come back as arrays of the batch
shape (floats when there are no batch axes), every check holds per element,
and one failing element makes the whole call raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import RateTriple, parse_kappa
from .infotheory import JointDistribution, mutual_information

MARKOV_TOL = 1e-9


class MarkovChainViolation(ValueError):
    """A required Markov chain fails its numerical conditional-independence check."""


@dataclass(frozen=True)
class SchemeInputs:
    """Joint distribution of the code variables plus the broadcast channel.

    channel_to_common / channel_to_refinement are row-stochastic arrays of
    shape (..., |U|, |V_k|) giving p(V_k | U); their leading axes must
    broadcast against the joint's batch shape.
    """

    joint: JointDistribution
    channel_to_common: np.ndarray
    channel_to_refinement: np.ndarray
    kappa: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "kappa", parse_kappa(self.kappa))
        u_size = self.joint.pmf.shape[self.joint.axis("U")]
        batch_shapes = [self.joint.batch_shape]
        for name, ch in (
            ("channel_to_common", self.channel_to_common),
            ("channel_to_refinement", self.channel_to_refinement),
        ):
            arr = np.asarray(ch, dtype=float)
            if arr.ndim < 2 or arr.shape[-2] != u_size:
                raise ValueError(
                    f"{name} must have shape (..., |U|={u_size}, outputs), got {arr.shape}"
                )
            # written so that NaN entries fail
            if not ((arr >= 0).all() and (np.abs(arr.sum(axis=-1) - 1.0) <= 1e-12).all()):
                raise ValueError(f"{name} rows must be pmfs summing to 1")
            batch_shapes.append(arr.shape[:-2])
            object.__setattr__(self, name, arr)
        try:
            np.broadcast_shapes(*batch_shapes)
        except ValueError:
            raise ValueError(
                f"batch shapes of the joint and the channels do not broadcast: {batch_shapes}"
            ) from None


def extend_with_outputs(inputs: SchemeInputs) -> JointDistribution:
    """Joint over the input variables plus the channel outputs V_c and V_r.

    The outputs are conditionally independent given U, which is enough for
    the marginal rate expressions evaluated here.  The channels' batch axes
    broadcast against the joint's.
    """
    joint = inputs.joint
    p = np.moveaxis(joint.pmf, joint.axis("U"), -1)
    others = (1,) * (len(joint.names) - 1)  # the non-U variables sit before U

    def aligned(ch):
        return ch.reshape(ch.shape[:-2] + others + ch.shape[-2:])

    ext = (
        p[..., :, None, None]
        * aligned(inputs.channel_to_common)[..., :, :, None]
        * aligned(inputs.channel_to_refinement)[..., :, None, :]
    )
    names = tuple(n for n in joint.names if n != "U") + ("U", "V_c", "V_r")
    return JointDistribution(names, ext)


def _require_markov(joint, a, b, given, label):
    worst = np.max(mutual_information(joint, a, b, given))
    if worst > MARKOV_TOL:
        raise MarkovChainViolation(
            f"Markov chain {label} violated: conditional mutual information = {worst:.3e}"
        )


def lds_rate_triple(inputs: SchemeInputs) -> RateTriple:
    """Layered-scheme rate triple
    (kappa [I(T;V_c) - I(T;U_r)], kappa [I(T;V_r) - I(T;U_r)], kappa I(U_r; T,V_r)).
    """
    ext = extend_with_outputs(inputs)
    _require_markov(ext, ("T",), ("V_c", "V_r"), ("U_c", "U_r"), "T-(U_r,U_c)-(V_r,V_c)")
    _require_markov(ext, ("U_c", "U_r"), ("V_c", "V_r"), ("U",), "(U_r,U_c)-U-(V_r,V_c)")
    kappa = float(inputs.kappa)
    i_t_ur = mutual_information(ext, ("T",), ("U_r",))
    return RateTriple(
        kappa * (mutual_information(ext, ("T",), ("V_c",)) - i_t_ur),
        kappa * (mutual_information(ext, ("T",), ("V_r",)) - i_t_ur),
        kappa * mutual_information(ext, ("U_r",), ("T", "V_r")),
    )


def scheme1_rate_triple(inputs: SchemeInputs) -> RateTriple:
    """Superposition-without-precoding rate triple
    (kappa I(U_c;V_c), kappa I(U_c;V_r), kappa I(U;V_r|U_c))."""
    ext = extend_with_outputs(inputs)
    _require_markov(ext, ("U_c",), ("V_c", "V_r"), ("U",), "U_c-U-(V_c,V_r)")
    kappa = float(inputs.kappa)
    return RateTriple(
        kappa * mutual_information(ext, ("U_c",), ("V_c",)),
        kappa * mutual_information(ext, ("U_c",), ("V_r",)),
        kappa * mutual_information(ext, ("U",), ("V_r",), ("U_c",)),
    )


def bsc_matrix(p) -> np.ndarray:
    """Binary symmetric channel transition matrices, shape p.shape + (2, 2)."""
    p = np.asarray(p, dtype=float)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError(f"crossover must lie in [0, 1], got {p}")
    q = 1.0 - p
    return np.stack([np.stack([q, p], axis=-1), np.stack([p, q], axis=-1)], axis=-2)


def binary_superposition_inputs(
    p_c,
    p_r,
    gamma_c,
    gamma_r,
    t_choice: str = "uc",
    kappa=1,
) -> SchemeInputs:
    """Binary layered instantiation: independent U_c ~ Ber(gamma_c) and
    U_r ~ Ber(gamma_r), channel input U = U_c xor U_r, and T = U_c ("uc") or
    T = U_c xor U_r ("xor"): a joint over (T, U_c, U_r, U) with 4 nonzero
    cells per element.

    The gammas broadcast into the joint's batch shape and the crossovers into
    the channels' batch shapes.
    """
    if t_choice not in ("uc", "xor"):
        raise ValueError(f't_choice must be "uc" or "xor", got {t_choice!r}')
    g_c = np.asarray(gamma_c, dtype=float)
    g_r = np.asarray(gamma_r, dtype=float)
    w = (
        np.stack([1.0 - g_c, g_c], axis=-1)[..., :, None]
        * np.stack([1.0 - g_r, g_r], axis=-1)[..., None, :]
    )  # (..., u_c, u_r)
    uc = np.array([0, 0, 1, 1])
    ur = np.array([0, 1, 0, 1])
    u = uc ^ ur
    t = uc if t_choice == "uc" else u
    pmf = np.zeros(w.shape[:-2] + (2, 2, 2, 2))  # axes (..., T, U_c, U_r, U)
    pmf[..., t, uc, ur, u] = w[..., uc, ur]
    joint = JointDistribution(("T", "U_c", "U_r", "U"), pmf)
    return SchemeInputs(joint, bsc_matrix(p_c), bsc_matrix(p_r), kappa)
