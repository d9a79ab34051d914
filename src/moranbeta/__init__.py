"""Exact verification and error certificates for the Beta approximation
of the two-allele Moran model's stationary law."""

from .distance import gap_h, kolmogorov, wasserstein
from .model import LatticeDistribution, ModelParams, stationary_ratio_product
from .moments import moment_recursion
from .special import ConvergenceError, log_beta, log_gamma
from .stein import (
    SteinReport,
    c_constant,
    e_abs_s,
    k_constant,
    lower_bound,
    stein_report,
    third_moment_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "LatticeDistribution",
    "ModelParams",
    "SteinReport",
    "c_constant",
    "e_abs_s",
    "gap_h",
    "k_constant",
    "kolmogorov",
    "log_beta",
    "log_gamma",
    "lower_bound",
    "moment_recursion",
    "stationary_ratio_product",
    "stein_report",
    "third_moment_ratio",
    "wasserstein",
]
