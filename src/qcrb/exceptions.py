"""Typed errors raised across the package."""

from __future__ import annotations

__all__ = [
    "ModelError",
    "NotDensityMatrix",
    "NonHermitianDerivative",
    "RankDeficientDbeta",
    "KernelBlockDerivative",
    "ResidualTooLarge",
    "InfeasibleModel",
    "IllDefinedFim",
    "NotLocallyUnbiased",
    "VerificationFailed",
]


class ModelError(ValueError):
    """Base class for model / measurement validation failures."""


class NotDensityMatrix(ModelError):
    """rho is not Hermitian, PSD and unit-trace within tolerance."""


class NonHermitianDerivative(ModelError):
    """Some derivative of rho is not Hermitian and traceless."""


class RankDeficientDbeta(ModelError):
    """The p×q derivative matrix of the target map does not have rank q."""


class KernelBlockDerivative(ModelError):
    """A derivative has content in the kernel×kernel block of rho.

    The symmetric-logarithmic-derivative equation has no solution there
    and the fixed-rank assumption is violated.
    """


class ResidualTooLarge(ModelError):
    """A Lyapunov solve left a residual above tolerance; ``support_rank`` is
    the rank of rho's support it was solved on."""

    def __init__(self, message: str, support_rank: int | None = None):
        super().__init__(message)
        self.support_rank = support_rank


class InfeasibleModel(ModelError):
    """Some target component is not estimable: the influence-operator
    constraint set is empty (a column of dbeta leaves the range of the
    information matrix)."""

    def __init__(self, message: str, bad_columns: list[int] | None = None):
        super().__init__(message)
        self.bad_columns = bad_columns or []


class IllDefinedFim(ModelError):
    """A zero-probability outcome carries a nonzero probability derivative."""


class NotLocallyUnbiased(ModelError):
    """POVM/estimate pair fails the local unbiasedness conditions."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class VerificationFailed(RuntimeError):
    """An optimal solver solution failed an independent recheck."""
