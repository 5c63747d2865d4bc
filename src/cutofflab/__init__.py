"""Exact mixing-time and cutoff diagnostics for finite Markov chains.

The package computes, without simulation, the three standard distances to
stationarity (worst-case total variation, separation, pairwise dbar) under
three time parametrizations (discrete powers, delta-lazy powers, and the
continuous-time semigroup), exact mixing times by monotone search, spectra
of reversible kernels, birth-death identities (passage times, strong
stationary times, corner separation), family scans for cutoff trends, and a
verification suite for the inequalities that relate all of these.
"""
from .chain import Chain, as_probability_vector, load_chain
from .distances import (
    DistanceCurve,
    DistanceQuery,
    continuous_distribution,
    distance,
    distance_curve,
    mixing_time,
    step_distribution,
    total_variation,
)
from .errors import (
    BadDelta,
    BadEpsilon,
    BadFamily,
    BadShape,
    ChainError,
    LengthMismatch,
    NoConvergence,
    NonIntegerTime,
    NotBirthDeath,
    NotIrreducible,
    NotReversible,
    NotStochastic,
    NumericalFailure,
    TolTooLoose,
)
from .spectral import (
    SpectralSummary,
    beta_delta,
    detailed_balance_residual,
    eigen_summary,
    tridiagonal_eigenvalues,
)
from .birth_death import (
    PassageReport,
    StationaryTimeSummary,
    corner_separation,
    hitting_time_bound,
    passage_time,
    sep_bounds,
    sst_tail,
    stationary_time_summary,
)
from .families import (
    BoundEntry,
    BoundReport,
    FamilyReport,
    FamilySpec,
    SizeRecord,
    family_scan,
    generate,
    load_family,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "as_probability_vector",
    "continuous_distribution",
    "load_chain",
    "step_distribution",
    "DistanceCurve",
    "DistanceQuery",
    "distance",
    "distance_curve",
    "mixing_time",
    "total_variation",
    "ChainError",
    "BadDelta",
    "BadEpsilon",
    "BadFamily",
    "BadShape",
    "LengthMismatch",
    "NoConvergence",
    "NonIntegerTime",
    "NotBirthDeath",
    "NotIrreducible",
    "NotReversible",
    "NotStochastic",
    "NumericalFailure",
    "TolTooLoose",
    "SpectralSummary",
    "beta_delta",
    "detailed_balance_residual",
    "eigen_summary",
    "tridiagonal_eigenvalues",
    "PassageReport",
    "StationaryTimeSummary",
    "corner_separation",
    "hitting_time_bound",
    "passage_time",
    "sep_bounds",
    "sst_tail",
    "stationary_time_summary",
    "BoundEntry",
    "BoundReport",
    "FamilyReport",
    "FamilySpec",
    "SizeRecord",
    "family_scan",
    "generate",
    "load_family",
    "verify_bounds",
]
