"""Closed-form precision bounds from one model analysis.

Everything here is a finite formula in J⁺ read off a
:class:`~qcrb.sld.ModelAnalysis`: the generalized Helstrom bound and the
D-matrix upper bound on the Holevo bound, together with the two-sided
comparison c_gs ≤ c_d ≤ 2 c_gs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import VerificationFailed
from .sld import ModelAnalysis

__all__ = ["ClosedFormBounds", "c_gs", "c_d", "sandwich"]


@dataclass(frozen=True)
class ClosedFormBounds:
    """The closed-form bounds c_gs and c_d at one model point."""

    c_gs: float
    c_d: float


def c_gs(analysis: ModelAnalysis) -> float:
    """Generalized Helstrom bound tr[W (dbeta)ᵀ J⁺ dbeta]."""
    model = analysis.model
    v_eff = model.dbeta.T @ analysis.qfim_pinv @ model.dbeta
    return float(np.trace(model.weight @ v_eff))


def c_d(analysis: ModelAnalysis) -> float:
    """D-matrix bound c_gs + ‖√W (dbeta)ᵀ J⁺ D J⁺ dbeta √W‖₁."""
    proj = analysis.qfim_pinv @ analysis.model.dbeta  # (p, q)
    root_w = analysis.root_weight
    skew = proj.T @ analysis.dmat @ proj
    return c_gs(analysis) + linalg.trace_norm(root_w @ skew @ root_w)


def sandwich(analysis: ModelAnalysis) -> ClosedFormBounds:
    """Compute c_gs and c_d and check c_gs ≤ c_d ≤ 2 c_gs.

    The check allows 1e-9 relative to max(1, c_gs), so that roundoff on a
    weak signal's large bounds passes; a real violation raises
    :class:`VerificationFailed`.  A c_d that passes above 2 c_gs is
    returned as 2 c_gs: ‖√W Im Z √W‖₁ ≤ tr W Re Z for Z = Z(X_eff) ⪰ 0, so
    the excess is roundoff (pure states, where c_d = 2 c_gs, show it).
    """
    gs = c_gs(analysis)
    d = c_d(analysis)
    slack = 1e-9 * max(1.0, gs)
    if not (gs <= d + slack and d <= 2 * gs + slack):
        raise VerificationFailed(f"bound ordering violated: c_gs={gs!r}, c_d={d!r}")
    return ClosedFormBounds(c_gs=gs, c_d=min(d, 2 * gs))
