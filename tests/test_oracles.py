"""Solver-free oracles: inequalities and identities that c_gs, c_h and c_d obey exactly.

None of the reference values below comes from the SDP: the RLD bound is a
closed form of the model, and the n-copy, compression and reparametrization
identities compare the bounds of a model with those of a model built from it.
"""

import dataclasses

import numpy as np
import pytest

from qcrb import linalg
from qcrb.bounds import sandwich
from qcrb.holevo import D_INVARIANT, DUAL, SDP, solve
from qcrb.model import fixture, validate
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


def compressed(model):
    """The model on S = supp ρ + Σ_j range(∂_jρ P), P the projector onto supp ρ: QᴴρQ and Qᴴ∂_jρQ
    with Q an orthonormal basis of S.  ∂_jρ vanishes on ker ρ × ker ρ, so ∂_jρ = QQᴴ∂_jρQQᴴ and
    influence operators can be restricted to S: the three bounds do not change."""
    vals, vecs = np.linalg.eigh(model.rho)
    support = vecs[:, vals > 1e-10 * vals.max()]
    u, svals, _ = np.linalg.svd(np.hstack([support] + [dj @ support for dj in model.drho]), full_matrices=False)
    basis = u[:, svals > 1e-10 * svals.max()]
    return dataclasses.replace(model, dim=basis.shape[1], rho=basis.conj().T @ model.rho @ basis,
                               drho=np.array([basis.conj().T @ dj @ basis for dj in model.drho]))


def compression_models():
    """24 models at p = 3: d = 5 + s mod 3, rank 1 + s mod 2, q = 1 + s mod 3, a random weight on even s."""
    for s in range(24):
        yield random_model(np.random.default_rng(200 + s), 5 + s % 3, 3, 1 + s % 3, rank=1 + s % 2,
                           weighted=s % 2 == 0)


def test_compression_to_the_support_span_keeps_every_bound():
    # the largest relative deviation measured on these models is 5.4e-15
    rel_tol = 1e-12
    methods, dims = [], []
    for model in compression_models():
        small = compressed(model)
        validate(small)
        c_gs, c_h, c_d, method = bounds_of(model)
        small_gs, small_h, small_d, small_method = bounds_of(small)
        assert small_method == method, model.label
        for got, want in ((small_gs, c_gs), (small_h, c_h), (small_d, c_d)):
            assert got == pytest.approx(want, rel=rel_tol), model.label
        methods.append(method)
        dims.append((model.dim, small.dim))
    assert methods.count(SDP) == 8 and methods.count(DUAL) == 16
    assert all(small == 4 for d, small in dims[::2])  # a pure state: p + 1 = 4 dimensions


def reparametrized(model, t, r):
    """θ = Tφ, then targets β′ = R⁻¹β: ∂ρ′_k = Σ_j T_jk ∂_jρ, ∂β′ = Tᵀ∂βR and W′ = R⁻¹WR⁻ᵀ."""
    r_inv = np.linalg.inv(r)
    weight = r_inv @ model.weight @ r_inv.T
    return dataclasses.replace(model, drho=np.einsum("jk,jab->kab", t, model.drho), dbeta=t.T @ model.dbeta @ r,
                               weight=(weight + weight.T) / 2)


def test_reparametrization_keeps_every_bound():
    # measured on these 20 models: 2.1e-13 on c_gs and c_d, 3.5e-12 on c_h
    closed_form_tol, c_h_tol = 1e-11, 1e-9
    methods = []
    for s in range(20):
        rng = np.random.default_rng(100 + s)
        q = 2 + s % 2
        model = random_model(rng, 3 + s % 2, 3, q, rank=1 if s % 3 == 0 else None, weighted=s % 2 == 1)
        other = reparametrized(model, rng.normal(size=(3, 3)) + 2 * np.eye(3), rng.normal(size=(q, q)) + 2 * np.eye(q))
        validate(other)
        c_gs, c_h, c_d, method = bounds_of(model)
        other_gs, other_h, other_d, other_method = bounds_of(other)
        assert other_method == method, s
        assert other_gs == pytest.approx(c_gs, rel=closed_form_tol), s
        assert other_d == pytest.approx(c_d, rel=closed_form_tol), s
        assert other_h == pytest.approx(c_h, rel=c_h_tol), s
        methods.append(method)
    assert methods.count(DUAL) == 15 and methods.count(SDP) == 5
