"""Distortion tradeoff regions for lossy broadcast with receiver side information.

Library surface: problem types and schemes for the quadratic Gaussian and
binary Hamming cases, a finite-alphabet engine for the layered and plain
superposition rate triples, envelope utilities, and Monte Carlo simulators of
uncoded transmission.  The ``wzbc`` command-line tool wraps the library for
curve generation and validation runs.
"""

from .core import (
    BinaryProblem,
    BoundsViolation,
    DistortionPoint,
    GaussianProblem,
    InvalidProblem,
    RateTriple,
    RoleAssignment,
    TradeoffCurve,
    load_problem,
    problem_from_dict,
    validate_problem,
)
from .infotheory import (
    JointDistribution,
    binary_convolution,
    binary_entropy,
    mutual_information,
    wz_rate_kernel,
)
from .gaussian import (
    GaussianLdsParams,
    choose_refinement_receiver,
    gaussian_capacity,
    gaussian_cds,
    gaussian_lds_channel_rates,
    gaussian_lds_closed_form,
    gaussian_lds_curve,
    gaussian_lds_distortions,
    gaussian_scheme3_closed_form,
    gaussian_separate_closed_form,
    gaussian_trivial_converse,
    gaussian_uncoded,
    gaussian_wz_distortion,
)
from .binary import (
    BinaryChannelParams,
    BinarySourceParams,
    TChoice,
    binary_cds_region,
    binary_lds_channel_rates,
    binary_lds_region,
    binary_lds_source_rates,
    binary_separate_region,
    binary_uncoded,
    binary_wz_distortion,
)
from .dmc import (
    MarkovChainViolation,
    SchemeInputs,
    lds_rate_triple,
    scheme1_rate_triple,
)
from .optimize import lower_convex_envelope
from .mcsim import (
    MCEstimate,
    SimConfig,
    simulate_uncoded_binary,
    simulate_uncoded_gaussian,
)

__version__ = "0.1.0"
