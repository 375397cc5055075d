"""Euler factors of genus 2 curves at odd primes of almost good reduction."""

from .clusterclassify import ClusterType, PNormalized, p_normalize, which_type
from .errors import (
    AmbiguousOrder,
    BadWitness,
    DegreeError,
    FieldTooLarge,
    G2Error,
    GoodReduction,
    HasseViolation,
    InexactDivision,
    NonResidue,
    NotAlmostGood,
    NotOddPrime,
    NotSquarefree,
    Unsupported,
)
from .eulercore import (
    EulerInput,
    LPoly2,
    RunStats,
    euler_factor,
    euler_factor_with_stats,
    validate_lpoly2,
)
from .genus1 import (
    DEFAULT_NAIVE_LIMIT,
    Genus1Model,
    LPoly1,
    count_points_naive,
    group_order_bsgs,
    lpoly1,
    quartic_jacobian,
    quartic_to_cubic,
)
from .modarith import Fp, Fp2, QuadOrder, find_nonsquare, legendre, sqrt_mod_p

__version__ = "0.1.0"

__all__ = [
    "AmbiguousOrder",
    "BadWitness",
    "ClusterType",
    "DEFAULT_NAIVE_LIMIT",
    "DegreeError",
    "EulerInput",
    "FieldTooLarge",
    "Fp",
    "Fp2",
    "G2Error",
    "Genus1Model",
    "GoodReduction",
    "HasseViolation",
    "InexactDivision",
    "LPoly1",
    "LPoly2",
    "NonResidue",
    "NotAlmostGood",
    "NotOddPrime",
    "NotSquarefree",
    "PNormalized",
    "QuadOrder",
    "RunStats",
    "Unsupported",
    "count_points_naive",
    "euler_factor",
    "euler_factor_with_stats",
    "find_nonsquare",
    "group_order_bsgs",
    "legendre",
    "lpoly1",
    "p_normalize",
    "quartic_jacobian",
    "quartic_to_cubic",
    "sqrt_mod_p",
    "validate_lpoly2",
    "which_type",
]
