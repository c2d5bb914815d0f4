"""Contraction constants of discrete joints and the outer bounds they imply.

The package computes the strong-data-processing contraction constant of a
finite joint distribution in both directions, the rate-distortion functions
of its marginals, and combines them into checkable outer bounds for
two-terminal source coding, CEO-style many-agent coding, and common
randomness generation.  A Gaussian module supplies the closed-form
comparison curves.  All rates and entropies are in bits.
"""

from types import ModuleType as _ModuleType

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
    rho_star,
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
    sstar,
    verify_sdpi_inequality,
)

__version__ = "0.1.0"

# The public API is every name imported above: the submodules that the
# imports bind on the package are not part of it.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
