"""Mixed-type multiple orthogonal polynomials for scaled modified Bessel
weights: linear forms, recurrences, limiting forms, Mellin-Barnes
representations, and the correlation kernel of the coupled product model."""

from .errors import (BmopError, CapExceeded, DimensionError, DomainError,
                     DoubleOverflow, NonConvergence, PoleError, PrecisionLossWarning,
                     SymmetryViolation)
from .precision import DOUBLE, EXTENDED, LogValue, PrecisionConfig, from_env
from .specfun import Params, bessel_i, bessel_k, omega, rho
from .mopoly import count_sign_changes, normalization_c, p_coeffs, p_eval, q_coeffs, q_eval
from .lommel import PolyPair, a_polys, b_polys
from .quad import BiorthReport, QuadConfig, biorth_matrix, moment_closed
from .recurrence import (RecurrenceCoeffs, p_forward, p_recurrence_coeffs,
                         q_forward, q_recurrence_coeffs)
from .asymptotics import (laguerre_monic, mehler_heine_limit, p_at_zero,
                          p_limit_large_b, q_limit_large_a, q_limit_small_a)
from .mellin import mb_integrate, meijer_g203, p_mellin_eval, rho_mellin
from .rmt import (CoupledModel, DensityReport, KernelSpec, SampleBatch,
                  density_compare, kernel_eval, kernel_trace, sample_coupled)
from .verify import PRESETS, run_suite

__version__ = "0.1.0"

__all__ = [
    "BmopError", "CapExceeded", "DimensionError", "DomainError", "DoubleOverflow",
    "NonConvergence", "PoleError", "PrecisionLossWarning", "SymmetryViolation",
    "DOUBLE", "EXTENDED", "LogValue", "PrecisionConfig", "from_env",
    "Params", "bessel_i", "bessel_k", "omega", "rho",
    "PolyPair", "a_polys", "b_polys", "count_sign_changes", "normalization_c",
    "p_coeffs", "p_eval", "q_coeffs", "q_eval",
    "BiorthReport", "QuadConfig", "biorth_matrix", "moment_closed",
    "RecurrenceCoeffs", "p_forward", "p_recurrence_coeffs", "q_forward",
    "q_recurrence_coeffs",
    "laguerre_monic", "mehler_heine_limit", "p_at_zero", "p_limit_large_b",
    "q_limit_large_a", "q_limit_small_a",
    "mb_integrate", "meijer_g203", "p_mellin_eval", "rho_mellin",
    "CoupledModel", "DensityReport", "KernelSpec", "SampleBatch",
    "density_compare", "kernel_eval", "kernel_trace", "sample_coupled",
    "PRESETS", "run_suite",
    "__version__",
]
