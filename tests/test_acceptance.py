"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, in the assertions; nothing is calibrated
at runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from qcrb import linalg
from qcrb.bounds import c_d, c_gs, sandwich
from qcrb.cli import main
from qcrb.gaussian import GaussianMeasurement, GaussianShiftModel, gaussian_qfim, half_qfim_check
from qcrb.holevo import solve
from qcrb.model import fixture
from qcrb.povm import error_covariance, matrix_crb_check, measurement_report
from qcrb.sld import analyze, infeasible_columns
from _support import (
    belavkin_grishanin_gap,
    direct_holevo_oracle,
    locally_unbiased_povm,
    random_model,
    random_physical_cm,
    random_weight,
    weighted_tracenorm_check,
)


@contextmanager
def report(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def solve_bounds(model):
    analysis = analyze(model)
    gs = c_gs(analysis)
    dd = c_d(analysis)
    sol = solve(analysis, sandwich(analysis), tol=1e-9)
    return gs, sol, dd


def normalize_scale(model):
    """Rescale the weight so c_gs = 1.

    The absolute chain tolerances of the criteria (1e-7 on the ordering,
    1e-8 on the gap) presume O(1) bound values; all three bounds scale
    linearly in W, so this loses no generality.
    """
    import dataclasses

    scale = c_gs(analyze(model))
    return dataclasses.replace(model, weight=model.weight / scale)


def sample_model(rng):
    d = int(rng.choice([2, 3, 4]))
    rank = d if rng.random() < 0.7 else int(rng.integers(max(1, d - 1), d))
    # independent derivatives live in a ((d²-1) - (d-rank)²)-dimensional space
    max_p = d * d - 1 - (d - rank) ** 2
    p = int(rng.integers(1, min(4, max_p) + 1))
    q = int(rng.integers(1, p + 1))
    singular = bool(rng.random() < 0.25 and q < p and p >= 2)
    m = random_model(rng, d, p, q, rank=None if rank == d else rank,
                     singular_j=singular, weighted=True)
    return normalize_scale(m)


def test_criterion_1_sandwich_chain():
    with report("1 (sandwich chain on 200 randomized feasible models)"):
        rng = np.random.default_rng(20240501)
        start = time.monotonic()
        for _ in range(200):
            m = sample_model(rng)
            gs, sol, dd = solve_bounds(m)
            assert sol.status == "Optimal", m.label
            assert sol.duality_gap <= 1e-8, m.label
            assert gs - 1e-7 <= sol.c_h, (m.label, gs, sol.c_h)
            assert sol.c_h <= dd + 1e-7, (m.label, sol.c_h, dd)
            assert dd <= 2 * gs + 1e-7, (m.label, dd, gs)
        elapsed = time.monotonic() - start
        assert elapsed <= 300, f"runtime {elapsed:.1f}s exceeds 5 minutes"


def test_criterion_2_scalar_collapse():
    with report("2 (scalar collapse on 100 q=1 models)"):
        rng = np.random.default_rng(20240502)
        for _ in range(100):
            d = int(rng.choice([2, 3, 4]))
            p = int(rng.integers(1, min(5, d * d)))
            m = normalize_scale(random_model(rng, d, p, q=1, weighted=True))
            gs, sol, _ = solve_bounds(m)
            assert sol.status == "Optimal"
            assert abs(sol.c_h - gs) <= 1e-6, (m.label, sol.c_h, gs)


def test_criterion_3_pure_state_saturation():
    with report("3 (pure-state saturation on 20 random pure qubit models)"):
        rng = np.random.default_rng(20240503)
        for _ in range(20):
            theta = float(rng.uniform(0.3, np.pi - 0.3))
            phi = float(rng.uniform(0.0, 2 * np.pi))
            m = fixture("pure_qubit_angles", [theta, phi])
            gs, sol, dd = solve_bounds(m)
            assert sol.status == "Optimal"
            assert abs(sol.c_h / gs - 2.0) <= 1e-4, (theta, phi, sol.c_h / gs)
            assert abs(dd / gs - 2.0) <= 1e-8, (theta, phi, dd / gs)


def test_criterion_4_gaussian_half_qfim():
    with report("4 (Gaussian half-QFIM identity on 100 random shift models)"):
        rng = np.random.default_rng(20240504)
        done = 0
        while done < 100:
            k = int(rng.integers(1, 5))
            p = int(rng.integers(1, 7))
            model = GaussianShiftModel(
                modes=k,
                djacobian=rng.normal(size=(2 * k, p)),
                cm=random_physical_cm(rng, k),
                mean=rng.normal(size=2 * k),
            )
            f_half, qfim, dev = half_qfim_check(model)
            assert dev <= 1e-10, (k, p, dev)
            q = int(rng.integers(1, min(p, 2 * k) + 1))
            dbeta = qfim @ rng.normal(size=(p, q))
            svals = np.linalg.svd(dbeta, compute_uv=False)
            if svals.min() <= 1e-6 * svals.max():
                continue
            dbeta /= svals.max()
            w = random_weight(rng, q)
            chained = float(np.trace(w @ dbeta.T @ linalg.pseudoinverse(f_half) @ dbeta))
            two_gs = 2.0 * float(np.trace(w @ dbeta.T @ linalg.pseudoinverse(qfim) @ dbeta))
            assert abs(chained - two_gs) <= 1e-9, (k, p, q, chained, two_gs)
            done += 1


def test_criterion_5_fixture_values():
    with report("5 (closed-form fixture values)"):
        for z in (0.0, 0.25, 0.5, 0.75, 0.9):
            m = fixture("qubit_xy_at_z", [z])
            analysis = analyze(m)
            assert abs(c_gs(analysis) - 2.0) <= 1e-9, z
            assert abs(c_d(analysis) - (2 + 2 * abs(z))) <= 1e-9, z
        vacuum = GaussianShiftModel(modes=1, djacobian=np.eye(2), cm=np.eye(2), mean=np.zeros(2))
        assert np.abs(gaussian_qfim(vacuum) - 2 * np.eye(2)).max() <= 1e-12
        from qcrb.gaussian import gaussian_fim

        het = gaussian_fim(vacuum, GaussianMeasurement(cm_m=np.eye(2)))
        assert np.abs(het - np.eye(2)).max() <= 1e-12


def test_criterion_6_oracle_equivalence():
    with report("6 (SDP vs direct nonsmooth minimization on 20 qubit models)"):
        rng = np.random.default_rng(20240506)
        for trial in range(20):
            m = normalize_scale(random_model(rng, d=2, p=2, q=2, weighted=True))
            _, sol, _ = solve_bounds(m)
            assert sol.status == "Optimal"
            oracle = direct_holevo_oracle(m, rng)
            assert abs(sol.c_h - oracle) <= 1e-5, (trial, sol.c_h, oracle)


def test_criterion_7_matrix_crbs():
    with report("7 (matrix CRBs on 100 locally unbiased POVM/model pairs)"):
        rng = np.random.default_rng(20240507)
        done = 0
        while done < 100:
            d = int(rng.integers(2, 4))
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, p + 1))
            m = normalize_scale(random_model(rng, d, p, q, weighted=True))
            beta = rng.normal(size=q)
            povm = locally_unbiased_povm(rng, m, beta)
            if povm is None:
                continue
            dv_min, dz_min = matrix_crb_check(measurement_report(povm, m, beta), m)
            assert dv_min >= -1e-9, (d, p, q, dv_min)
            assert dz_min >= -1e-9, (d, p, q, dz_min)
            sigma = error_covariance(povm, m.rho, beta)
            _, sol, _ = solve_bounds(m)
            assert sol.status == "Optimal"
            assert float(np.trace(m.weight @ sigma)) >= sol.c_h - 1e-6, (d, p, q)
            done += 1


def test_criterion_8_matrix_inequalities():
    with report("8 (Belavkin-Grishanin and weighted trace-norm inequalities, 1000 each)"):
        rng = np.random.default_rng(20240508)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert belavkin_grishanin_gap(g @ g.conj().T) >= -1e-9
        for _ in range(1000):
            d = int(rng.integers(2, 8))
            g = rng.normal(size=(d, d))
            a = rng.normal(size=(d, d))
            lhs, rhs = weighted_tracenorm_check(g @ g.T, a - a.T)
            assert lhs <= rhs + 1e-9


def test_criterion_9_feasibility_oracle():
    with report("9 (feasibility predicate vs least-squares oracle, 200 instances)"):
        rng = np.random.default_rng(20240509)
        disagreements = 0
        for _ in range(200):
            p = int(rng.integers(2, 7))
            rank = int(rng.integers(1, p))
            g = rng.normal(size=(p, rank))
            j = g @ g.T
            q = int(rng.integers(1, 4))
            dbeta = j @ rng.normal(size=(p, q))
            if rng.random() < 0.5:
                kernel = np.linalg.svd(j)[0][:, rank:]
                shift = kernel @ rng.normal(size=(kernel.shape[1], q))
                shift *= 10.0 ** rng.integers(-2, 3) / max(np.abs(shift).max(), 1e-300)
                dbeta = dbeta + shift
            predicate = not infeasible_columns(j, linalg.pseudoinverse(j), dbeta)
            sol, *_ = np.linalg.lstsq(j, dbeta, rcond=None)
            oracle = bool(np.abs(j @ sol - dbeta).max() <= 1e-8)
            disagreements += predicate != oracle
        assert disagreements == 0


def test_criterion_10_determinism(tmp_path, capsys):
    with report("10 (byte-identical CLI reports across runs)"):
        model_path = tmp_path / "seeded.json"
        assert main(["fixtures", "--emit", "random_full_rank", "--seed", "17",
                     "--params", "3,3,2", "--out", str(model_path)]) == 0
        capsys.readouterr()

        outputs = []
        for _ in range(2):
            assert main(["bounds", str(model_path), "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])

        sweeps = []
        for _ in range(2):
            assert main(["sweep", "qubit_xy_at_z", "0:0.9:10"]) == 0
            sweeps.append(capsys.readouterr().out)
        assert sweeps[0] == sweeps[1]

        cmd = [sys.executable, "-m", "qcrb.cli", "bounds", str(model_path), "--format", "json"]
        r1 = subprocess.run(cmd, capture_output=True, check=True)
        r2 = subprocess.run(cmd, capture_output=True, check=True)
        assert r1.stdout == r2.stdout
