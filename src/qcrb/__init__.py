"""Precision bounds for multiparameter quantum estimation.

Computes the three scalar bounds on the weighted mean square error of
locally unbiased measurements — the generalized Helstrom bound, the
D-matrix bound, and the Holevo bound (by semidefinite programming, or as
the D-matrix bound on D-invariant models) — on
finite-dimensional models and Gaussian shift models, and provides POVM
audits against the matrix Cramér-Rao inequalities.
"""

from .bounds import ClosedFormBounds, c_d, c_gs, sandwich
from .exceptions import (
    IllDefinedFim,
    InfeasibleModel,
    KernelBlockDerivative,
    ModelError,
    NonHermitianDerivative,
    NotDensityMatrix,
    NotLocallyUnbiased,
    RankDeficientDbeta,
    ResidualTooLarge,
    VerificationFailed,
)
from .gaussian import (
    GaussianMeasurement,
    GaussianShiftModel,
    gaussian_fim,
    gaussian_qfim,
    half_qfim_check,
    load_gaussian_model,
    save_gaussian_model,
    symplectic_form,
    validate_cm,
)
from .holevo import HolevoSolution, solve, verify_solution
from .model import (
    FIXTURE_NAMES,
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
    check_local_unbiasedness,
    error_covariance,
    influence_operators,
    load_povm,
    matrix_crb_check,
    measurement_report,
    povm_fim,
    save_povm,
    validate_povm,
)
from .sld import ModelAnalysis, analyze, infeasible_columns

__version__ = "0.1.0"
