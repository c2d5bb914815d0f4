"""Contraction constants of discrete joints and the outer bounds they imply.

The package computes the strong-data-processing contraction constant of a
finite joint distribution in both directions, the rate-distortion functions
of its marginals, and combines them into checkable outer bounds for
two-terminal source coding, CEO-style many-agent coding, and common
randomness generation.  A Gaussian module supplies the closed-form
comparison curves.  All rates and entropies are in bits.
"""

from .bounds import (
    BoundReport,
    CeoQuery,
    CommonRandomnessQuery,
    RateDistortionTuple,
    ceo_bound_check,
    coupled_rate_check,
    cr_ratio_bound,
    full_report,
    independent_coding_penalty,
    sum_rate_bound,
)
from .errors import (
    ConvergenceError,
    DegenerateRatioError,
    DimensionMismatchError,
    InfeasibleDistortionError,
    ProbabilityError,
)
from .gaussian import (
    FigureRow,
    figure_data,
    gaussian_rho_star,
    quantized_gaussian_joint,
    rows_to_csv,
)
from .probability import (
    Channel,
    Distribution,
    JointDistribution,
    conditional,
    kl_divergence,
    marginals,
    mutual_information,
    tensor_product,
)
from .rate_distortion import (
    DistortionMatrix,
    RdCurve,
    RdPoint,
    binary_hamming_rd,
    blahut_arimoto,
    rd_at_distortion,
    rd_curve,
)
from .sdpi import (
    SdpiConfig,
    SdpiResult,
    divergence_ratio,
    maximal_correlation,
    rho_star,
    sstar,
    verify_sdpi_inequality,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CeoQuery",
    "Channel",
    "CommonRandomnessQuery",
    "ConvergenceError",
    "DegenerateRatioError",
    "DimensionMismatchError",
    "Distribution",
    "DistortionMatrix",
    "FigureRow",
    "InfeasibleDistortionError",
    "JointDistribution",
    "ProbabilityError",
    "RateDistortionTuple",
    "RdCurve",
    "RdPoint",
    "SdpiConfig",
    "SdpiResult",
    "binary_hamming_rd",
    "blahut_arimoto",
    "ceo_bound_check",
    "conditional",
    "coupled_rate_check",
    "cr_ratio_bound",
    "divergence_ratio",
    "figure_data",
    "full_report",
    "gaussian_rho_star",
    "independent_coding_penalty",
    "kl_divergence",
    "marginals",
    "maximal_correlation",
    "mutual_information",
    "quantized_gaussian_joint",
    "rd_at_distortion",
    "rd_curve",
    "rho_star",
    "rows_to_csv",
    "sstar",
    "sum_rate_bound",
    "tensor_product",
    "verify_sdpi_inequality",
]
