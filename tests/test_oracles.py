"""Solver-free oracles: inequalities and identities that c_gs, c_h and c_d obey exactly.

None of the reference values below comes from the SDP: the RLD bound is a
closed form of the model, and the n-copy identity compares the bounds of
a model with those of its own two copies.
"""

import dataclasses

import numpy as np
import pytest

from qcrb import linalg
from qcrb.bounds import sandwich
from qcrb.holevo import D_INVARIANT, DUAL, SDP, solve
from qcrb.model import fixture
from qcrb.sdp import OPTIMAL
from qcrb.sld import analyze
from _support import psd_sqrt, random_model

#: Solver tolerance of every c_h below, so that its bracket sits far inside the oracles' tolerances.
SOLVE_TOL = 1e-11


def bounds_of(model):
    """(c_gs, c_h, c_d, c_h_method) of ``model``, c_h solved to ``SOLVE_TOL``."""
    analysis = analyze(model)
    closed = sandwich(analysis)
    sol = solve(analysis, closed, tol=SOLVE_TOL)
    assert sol.status == OPTIMAL
    return closed.c_gs, sol.c_h, closed.c_d, sol.method


def rld_bound(model) -> float:
    """c_r = tr W Re V + ‖√W Im V √W‖₁ with V = ∂βᵀ J̃⁻¹ ∂β, J̃_jk = tr(∂_jρ ρ⁻¹ ∂_kρ): the
    right-logarithmic-derivative bound of a full-rank ρ (Yuen and Lax, IEEE Trans. Inf.
    Theory 19, 740 (1973)), a lower bound on c_h."""
    rho_inv = np.linalg.inv(model.rho)
    rld_info = np.einsum("jab,bc,kca->jk", model.drho, rho_inv, model.drho)
    v = model.dbeta.T @ np.linalg.solve(rld_info, model.dbeta)
    root_w = psd_sqrt(model.weight)
    return float(np.trace(model.weight @ v.real)) + linalg.trace_norm(root_w @ v.imag @ root_w)


def rld_models():
    """60 full-rank models: (d, p) cycling over (2, 3), (3, 2), (3, 3), (4, 3), q = 1 + s mod p,
    a random weight on odd seeds s."""
    shapes = [(2, 3), (3, 2), (3, 3), (4, 3)]
    for s in range(60):
        d, p = shapes[s % 4]
        yield random_model(np.random.default_rng(s), d, p, 1 + s % p, weighted=s % 2 == 1)


def test_rld_bound_lies_below_c_h():
    # the largest (c_r − c_h)/c_h measured on these models is 6.6e-14
    rel_tol = 1e-10
    methods = set()
    for model in rld_models():
        _, c_h, _, method = bounds_of(model)
        methods.add(method)
        assert rld_bound(model) <= c_h * (1 + rel_tol), model.label
    assert methods == {D_INVARIANT, DUAL, SDP}


def two_copies(model):
    """ρ⊗ρ with derivatives ∂_jρ⊗ρ + ρ⊗∂_jρ, and the same ∂β and W."""
    rho = np.asarray(model.rho, dtype=complex)
    drho = np.array([np.kron(dj, rho) + np.kron(rho, dj) for dj in model.drho])
    return dataclasses.replace(model, dim=model.dim ** 2, rho=np.kron(rho, rho), drho=drho)


def n_copy_models():
    """12 models at d ≤ 3: four D-invariant fixtures, five random q = 2 models that the dual
    closes, and three that reach the SDP, a q = 1 model and two rank-2 q = 3 hand-backs."""
    models = [fixture("qubit_xy_at_z", [0.3]), fixture("qubit_bloch", [0.1, 0.2, 0.3]),
              fixture("classical_diagonal", [0.2, 0.3]), fixture("pure_qubit_angles", [0.7, 0.4])]
    models += [random_model(np.random.default_rng(s), 3, 3, 2, weighted=s % 2 == 1) for s in range(4)]
    models += [random_model(np.random.default_rng(4), 3, 2, 2, weighted=True), fixture("random_full_rank", [3, 3, 2, 1])]
    return models + [random_model(np.random.default_rng(s), 3, 3, 3, rank=2) for s in (8, 9)]


@pytest.mark.parametrize("index", range(12))
def test_two_copies_halve_every_bound(index):
    # measured on these models: 1.1e-12 on c_h, 7.3e-15 on c_gs and c_d
    c_h_tol, closed_form_tol = 1e-9, 1e-12
    model = n_copy_models()[index]
    c_gs, c_h, c_d, method = bounds_of(model)
    pair_gs, pair_h, pair_d, pair_method = bounds_of(two_copies(model))
    assert pair_method == method
    assert 2 * pair_gs == pytest.approx(c_gs, rel=closed_form_tol)
    assert 2 * pair_d == pytest.approx(c_d, rel=closed_form_tol)
    assert 2 * pair_h == pytest.approx(c_h, rel=c_h_tol)


def test_two_copy_models_cover_every_route():
    assert [bounds_of(model)[3] for model in n_copy_models()] == [D_INVARIANT] * 4 + [DUAL] * 5 + [SDP] * 3
