"""Precision bounds for multiparameter quantum estimation.

Computes the three scalar bounds on the weighted mean square error of
locally unbiased measurements — the generalized Helstrom bound, the
D-matrix bound, and the Holevo bound — on finite-dimensional models and
Gaussian shift models, and provides POVM audits against the matrix
Cramér-Rao inequalities.  c_h is c_d on D-invariant models; otherwise
Newton's method on its minimax dual certifies it, or a semidefinite
program assembled in the state's eigenbasis solves for it.
"""

from .bounds import ClosedFormBounds, c_d, c_gs, sandwich
from .exceptions import (
    InfeasibleModel,
    KernelBlockDerivative,
    ModelError,
    NonHermitianDerivative,
    NotDensityMatrix,
    NotLocallyUnbiased,
    RankDeficientDbeta,
    ResidualTooLarge,
    UnphysicalCovariance,
    VerificationFailed,
)
from .gaussian import (
    GaussianShiftModel,
    gaussian_fim,
    gaussian_qfim,
    half_qfim_check,
    load_gaussian_model,
    symplectic_form,
    validate_cm,
)
from .holevo import HolevoSolution, solve, verify_solution
from .model import (
    QuantumModel,
    fixture,
    load_model,
    save_model,
    validate,
)
from .povm import (
    DiscretePovm,
    MeasurementReport,
    born_probs,
    error_covariance,
    influence_operators,
    load_povm,
    matrix_crb_check,
    measurement_report,
    validate_povm,
)
from .sld import ModelAnalysis, analyze

__version__ = "0.1.0"
