"""Exact verification and error certificates for the Beta approximation
of the two-allele Moran model's stationary law."""

from .beta import BetaParams
from .distance import gap_h, kolmogorov, wasserstein
from .model import (
    LatticeDistribution,
    ModelParams,
    sample_stationary,
    simulate_chain,
    stationary_ratio_product,
)
from .moments import moment_recursion
from .special import ConvergenceError, log_beta, log_gamma, reg_inc_beta
from .stein import (
    BoundCertificate,
    SteinReport,
    bound_certificate,
    c_constant,
    e_abs_s,
    k_constant,
    lower_bound,
    s_remainder,
    stein_report,
    third_moment_ratio,
    upper_bound_assembled,
    verify_condition_1,
    verify_condition_2,
)

__version__ = "0.1.0"

__all__ = [
    "BetaParams",
    "BoundCertificate",
    "ConvergenceError",
    "LatticeDistribution",
    "ModelParams",
    "SteinReport",
    "bound_certificate",
    "c_constant",
    "e_abs_s",
    "gap_h",
    "k_constant",
    "kolmogorov",
    "log_beta",
    "log_gamma",
    "lower_bound",
    "moment_recursion",
    "reg_inc_beta",
    "s_remainder",
    "sample_stationary",
    "simulate_chain",
    "stationary_ratio_product",
    "stein_report",
    "third_moment_ratio",
    "upper_bound_assembled",
    "verify_condition_1",
    "verify_condition_2",
    "wasserstein",
]
