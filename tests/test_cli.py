import contextlib
import copy
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb import bounds, cli, gaussian, holevo, linalg, sld
from qcrb import povm as povm_mod
from qcrb.cli import main
from qcrb.exceptions import (InfeasibleModel, NotLocallyUnbiased, ResidualTooLarge, UnphysicalCovariance,
                             VerificationFailed)
from qcrb.gaussian import GaussianShiftModel, gaussian_model_to_dict, save_gaussian_model
from qcrb.model import QuantumModel, fixture, model_to_dict, save_model, write_json
from qcrb.povm import DiscretePovm, save_povm
from _support import locally_unbiased_povm, random_model, rotated_weight, singular_weight_models

SZ = np.diag([1.0, -1.0]).astype(complex)


def count_calls(monkeypatch, module, names):
    """Wrap each named function of ``module`` to count its calls; returns the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def xy_model_file(tmp_path):
    path = tmp_path / "xy.json"
    save_model(fixture("qubit_xy_at_z", [0.5]), path)
    return str(path)


@pytest.fixture
def sdp_model_file(tmp_path):
    """A q = 1 model that is not D-invariant, so ``bounds`` runs the SDP."""
    path = tmp_path / "d3q1.json"
    save_model(fixture("random_full_rank", [3, 3, 2, 1]), path)
    return str(path)


@pytest.fixture
def dual_model_file(tmp_path):
    """A q = 2 model that is not D-invariant, so ``bounds`` maximizes the dual."""
    path = tmp_path / "d3.json"
    save_model(fixture("random_full_rank", [3, 3, 2, 2]), path)
    return str(path)


@pytest.fixture
def vacuum_file(tmp_path):
    path = tmp_path / "vac.json"
    save_gaussian_model(
        GaussianShiftModel(modes=1, djacobian=np.eye(2), cm=np.eye(2),
                           mean=np.zeros(2), label="vacuum displacement"),
        path,
    )
    return str(path)


class TestBounds:
    def test_text_report(self, xy_model_file, capsys):
        assert main(["bounds", xy_model_file]) == 0
        out = capsys.readouterr().out
        assert "c_gs <= c_h <= c_d <= 2*c_gs" in out
        assert "2.0000000000000000e+00" in out

    def test_json_report_values(self, xy_model_file, capsys):
        assert main(["bounds", xy_model_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert report["c_gs"] == pytest.approx(2.0, abs=1e-9)
        assert report["c_d"] == pytest.approx(3.0, abs=1e-9)
        assert 2.0 - 1e-7 <= report["c_h"] <= 3.0 + 1e-7
        assert report["two_c_gs"] == pytest.approx(4.0, abs=1e-9)
        assert report["duality_gap"] <= 1e-8
        assert report["solver_status"] == "Optimal"
        assert report["tolerances"]["sdp_gap"] == 1e-8

    def test_timings_cover_every_stage(self, xy_model_file, capsys):
        assert main(["bounds", xy_model_file, "--format", "json", "--timings"]) == 0
        captured = capsys.readouterr()
        assert set(json.loads(captured.out)["timings"]) == {"closed_forms_s", "sdp_s", "verify_s"}
        assert main(["bounds", xy_model_file, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert "timings" not in json.loads(captured.out)
        assert "verify_s=" in captured.err

    def test_d_invariant_short_cut_reported(self, xy_model_file, dual_model_file, sdp_model_file, capsys):
        assert main(["bounds", xy_model_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c_h_method"] == "d_invariant" and report["iterations"] == 0
        assert report["c_gs"] <= report["c_h"] == report["c_d"] <= report["two_c_gs"]
        assert main(["bounds", xy_model_file]) == 0
        assert "solver: Optimal after 0 iterations (c_h_method d_invariant), " in capsys.readouterr().out
        assert main(["bounds", dual_model_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c_h_method"] == "dual" and report["iterations"] > 0
        assert report["duality_gap"] <= report["tolerances"]["sdp_gap"]
        assert main(["bounds", dual_model_file]) == 0
        assert " iterations (c_h_method dual), " in capsys.readouterr().out
        assert main(["bounds", sdp_model_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c_h_method"] == "sdp" and report["iterations"] > 0
        assert main(["bounds", sdp_model_file]) == 0
        assert "c_h_method" not in capsys.readouterr().out

    def test_weak_signal_pure_qubit(self, tmp_path, capsys):
        """∂ρ × 1e-6 scales every bound by 1e12; the D-invariant short cut
        needs no SDP, which does not survive that scale."""
        model = fixture("pure_qubit_angles", [1.4025641025641025, 0.3])
        path = tmp_path / "weak.json"
        save_model(QuantumModel(dim=2, rho=model.rho, drho=model.drho * 1e-6, dbeta=model.dbeta,
                                weight=model.weight), path)
        assert main(["bounds", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c_h_method"] == "d_invariant" and report["verified"] is True
        assert report["c_h"] == report["c_d"] == pytest.approx(4e12, rel=1e-12)

    @pytest.mark.parametrize("params", [[3, 3, 2, 2], [1, 2, 2, 2], [3, 4, 3, 2]])
    def test_weak_signal_takes_the_dual(self, params, tmp_path, capsys):
        """∂ρ × 1e-6 scales every bound by 1e12.  These models are not
        D-invariant; the dual's Newton steps and its relative bracket do not
        depend on the scale."""
        model = fixture("random_full_rank", params)
        reports = []
        for scale in (1.0, 1e-6):
            path = tmp_path / f"weak{scale}.json"
            save_model(QuantumModel(dim=model.dim, rho=model.rho, drho=model.drho * scale,
                                    dbeta=model.dbeta, weight=model.weight), path)
            assert main(["bounds", str(path), "--format", "json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        strong, weak = reports
        assert weak["c_h_method"] == "dual" and weak["verified"] is True
        assert weak["duality_gap"] <= 1e-8
        assert weak["c_h"] == pytest.approx(1e12 * strong["c_h"], rel=1e-8)

    def test_coarse_rank_tol_named(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_model(fixture("random_full_rank", [3, 8, 3, 3]), path)
        assert main(["bounds", str(path), "--rank-tol", "0.999"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: SLD equation for parameter 0")
        assert "(rank_tol 0.999 kept support rank 1 of 8)" in err

    def test_strong_signal_residual_names_no_cut(self, tmp_path, capsys):
        """drho × 1e8 on a full-rank state: the SLD residual is roundoff
        proportional to |drho|, and no eigenvalue of rho was dropped."""
        model = fixture("random_full_rank", [3, 3, 2, 2])
        path = tmp_path / "strong.json"
        save_model(dataclasses.replace(model, drho=model.drho * 1e8), path)
        assert main(["bounds", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: SLD equation for parameter 0 left residual ")
        assert "(support rank 3 of 3, no eigenvalue dropped; max|drho[0]| = " in captured.err
        assert "rank_tol" not in captured.err and "rank-tol" not in captured.err

    @pytest.mark.parametrize("rank_tol", ["1e-4", "1e-3"])
    def test_rank_tol_dropping_signal_keeps_every_constraint(self, rank_tol, tmp_path, capsys):
        """drho[2] nearly a combination of the others puts J's eigenvalues at
        8.8e-6 : 0.16 : 1, with dbeta on the top two eigenvectors.  A rank_tol
        that drops the smallest still leaves the model on the dual, which is
        built on J's range above roundoff and so keeps every drho_j: c_h is
        unchanged."""
        model = fixture("random_full_rank", [3, 3, 3, 2])
        drho = np.array(model.drho)
        drho[2] = 0.7 * drho[0] - 0.4 * drho[1] + 1e-2 * drho[2]
        model = dataclasses.replace(model, drho=drho)
        j_vals, j_vecs = np.linalg.eigh(sld.analyze(model).qfim)
        assert j_vals[0] / j_vals[-1] == pytest.approx(8.8e-6, rel=0.01)
        path = tmp_path / "near.json"
        save_model(dataclasses.replace(model, dbeta=j_vecs[:, 1:]), path)
        reports = []
        for extra in ([], ["--rank-tol", rank_tol]):
            assert main(["bounds", str(path), "--format", "json", "--tol", "1e-12", *extra]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        default, cut = reports
        assert default["c_h_method"] == "dual"
        assert cut["c_h_method"] == "dual" and cut["verified"] is True
        assert cut["c_h"] == pytest.approx(default["c_h"], rel=1e-10)

    def test_include_x_opt(self, xy_model_file, capsys):
        assert main(["bounds", xy_model_file, "--format", "json", "--include-x-opt"]) == 0
        report = json.loads(capsys.readouterr().out)
        coeffs = np.array(report["x_opt_coefficients"])
        assert coeffs.shape == (2, 4)

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["bounds", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["bounds", str(path)]) == 1

    def test_non_utf8_file_named_exit_1(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(model_to_dict(fixture("qubit_xy_at_z", [0.5]))).encode("utf-16-le"))
        assert main(["bounds", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {path}: ")

    def test_invalid_model_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "rho": [[[1.0, 0.0], [0.9, 0.0]],
                                                      [[0.0, 0.0], [0.0, 0.0]]],
                                    "drho": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]],
                                    "dbeta": [[1.0]]}))
        assert main(["bounds", str(path)]) == 1

    def test_infeasible_exit_2_names_column(self, tmp_path, capsys):
        # two proportional derivatives -> singular J; dbeta off the range
        rho = np.eye(2, dtype=complex) / 2
        drho = np.array([SZ / 2, SZ / 4])
        model = QuantumModel(dim=2, rho=rho, drho=drho,
                             dbeta=np.array([[1.0], [0.0]]), weight=np.eye(1))
        path = tmp_path / "singular.json"
        save_model(model, path)
        assert main(["bounds", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not estimable" in err
        assert "[0]" in err

    def test_solver_failure_exit_3(self, sdp_model_file, capsys):
        assert main(["bounds", sdp_model_file, "--max-iter", "1"]) == 3
        assert "solver failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "check-povm", "sweep"])
    def test_solver_failure_reported_alike(self, command, sdp_model_file, tmp_path, capsys):
        """Every command that solves names the status, iterations and gap of a failed solve."""
        model = fixture("random_full_rank", [3, 3, 2, 1])
        rng = np.random.default_rng(0)
        povm = None
        while povm is None:
            povm = locally_unbiased_povm(rng, model, np.zeros(1))
        ppath = tmp_path / "povm.json"
        save_povm(povm, ppath)
        argv = {"bounds": ["bounds", sdp_model_file],
                "check-povm": ["check-povm", str(ppath), sdp_model_file],
                "sweep": ["sweep", "random_full_rank", "3", "--fixed", "3,2,1"]}[command]
        assert main(argv + ["--max-iter", "1"]) == 3
        err = capsys.readouterr().err.splitlines()
        failure = [line for line in err if line.startswith("solver failed")]
        assert len(failure) == 1
        assert "status MaxIterations after 1 iterations (gap " in failure[0]

    def test_dual_hands_over_after_max_iter(self, dual_model_file, capsys):
        """The dual needs two Newton steps here; with one allowed the model
        goes to the SDP under the same cap, which stops it too."""
        assert main(["bounds", dual_model_file, "--max-iter", "1", "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert "solver failed: status MaxIterations after 1 iterations" in captured.err
        assert json.loads(captured.out)["c_h_method"] == "sdp"
        assert main(["bounds", dual_model_file, "--max-iter", "2", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["c_h_method"], report["iterations"]) == ("dual", 2)

    @pytest.mark.parametrize("flag, value", [
        ("--max-iter", "-1"),
        ("--tol", "nan"),
        ("--tol", "-1"),
        ("--tol", "1e-300"),  # below machine epsilon: no gap that small is reachable
        ("--rank-tol", "nan"),
        ("--rank-tol", "2"),
        ("--rank-tol", "-1"),
    ])
    def test_rejects_invalid_solver_flag(self, xy_model_file, flag, value, capsys):
        assert main(["bounds", xy_model_file, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {flag} must be") and value in captured.err

    def test_numerical_trouble_reason_reported(self, sdp_model_file, monkeypatch, capsys):
        class NegativeSchur(holevo.EpigraphOperator):
            def schur(self, g):
                return -np.eye(self.n)

        monkeypatch.setattr(holevo, "EpigraphOperator", NegativeSchur)
        assert main(["bounds", sdp_model_file]) == 3
        assert "NumericalTrouble (Schur Cholesky failed after regularisation)" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("rho", lambda data: data["rho"][1][1].__setitem__(0, float("nan"))),
        ("drho", lambda data: data["drho"][0][0][1].__setitem__(1, float("inf"))),
        ("dbeta", lambda data: data["dbeta"][0].__setitem__(0, float("nan"))),
        ("weight", lambda data: data["weight"][0].__setitem__(0, float("-inf"))),
        ("dim", lambda data: data.__setitem__("dim", True)),
        ("dbeta", lambda data: data.__setitem__("dbeta", [[True, 0.0], [0.0, 1.0]])),
    ], ids=["nan-rho", "inf-drho", "nan-dbeta", "inf-weight", "bool-dim", "bool-dbeta"])
    def test_rejects_non_numbers_at_load(self, field, edit, tmp_path, capsys):
        data = model_to_dict(fixture("qubit_xy_at_z", [0.5]))
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["bounds", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}: {field}" in err
        assert "kernel-block" not in err

    def test_rejects_huge_derivatives(self, tmp_path, capsys, recwarn):
        # 1e300 overflows only in Z(L); 1e308 already in the SLD solve
        for entry in (1e300, 1e308):
            data = model_to_dict(fixture("qubit_xy_at_z", [0.5]))
            data["drho"][0][0][1] = data["drho"][0][1][0] = [entry, 0.0]
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(data))
            assert main(["bounds", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith("error: drho: ") and "information matrix" in err and "not finite" in err
            assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_bound_ordering_violation_exit_3(self, xy_model_file, monkeypatch, capsys):
        monkeypatch.setattr(bounds, "c_d", lambda analysis: 2 * bounds.c_gs(analysis) * (1 + 1e-6))
        assert main(["bounds", xy_model_file]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("verification failed: bound ordering violated")

    def test_analyses_each_model_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "d4.json"
        save_model(fixture("random_full_rank", [3, 4, 3, 2]), path)
        linalg_calls = count_calls(monkeypatch, linalg, ["pseudoinverse", "trace_norm"])
        sld_calls = count_calls(monkeypatch, sld, ["information", "decide_qfim"])
        assert main(["bounds", str(path)]) == 0
        # trace norms: one in c_d, one in the verification's nonsmooth objective;
        # J⁺ comes from the one decision on J
        assert linalg_calls == {"pseudoinverse": 0, "trace_norm": 2}
        assert sld_calls == {"information": 1, "decide_qfim": 1}

    def test_rho_hermitized_once(self, tmp_path, monkeypatch, capsys):
        """``QuantumModel.rho_eig`` Hermitizes rho; ``validate`` only checks it."""
        model = fixture("random_full_rank", [3, 4, 3, 2])
        path = tmp_path / "d4.json"
        save_model(model, path)
        hermitize, on_rho = linalg.hermitian_part, []

        def spy(a):
            on_rho.append(np.array_equal(a, model.rho))
            return hermitize(a)

        monkeypatch.setattr(linalg, "hermitian_part", spy)
        assert main(["bounds", str(path)]) == 0
        assert on_rho.count(True) == 1


def bounds_report(model, tmp_path, capsys, *extra):
    """The JSON report of ``qcrb bounds`` on ``model``, which must exit 0."""
    path = tmp_path / "w.json"
    save_model(model, path)
    code = main(["bounds", str(path), "--format", "json", *extra])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestNearSingularWeight:
    """W's small eigenvalue ε lies above the weight factor's roundoff cut
    q·eps·λ_max (4.4e-16 here), so W is positive definite and takes the
    D-invariant short cut or the dual, never the SDP, which does not
    survive it."""

    MODELS = [random_model(np.random.default_rng(s), 3, 2, 2) for s in range(1, 21)]
    ANGLES = np.random.default_rng(0).uniform(0, np.pi, size=60)  # ε-major

    @staticmethod
    def report(model, eps, angle, tmp_path, capsys, *extra):
        return bounds_report(dataclasses.replace(model, weight=rotated_weight(eps, angle)), tmp_path, capsys, *extra)

    @pytest.mark.parametrize("k, eps", enumerate([5e-13, 1e-14, 1e-15]))
    def test_random_models_verify(self, k, eps, tmp_path, capsys):
        for model, angle in zip(self.MODELS, self.ANGLES[20 * k:]):
            assert self.report(model, eps, angle, tmp_path, capsys)["verified"] is True

    @pytest.mark.parametrize("tol", ["1e-10", "1e-11", "1e-12"])
    def test_random_models_verify_at_a_tight_tol(self, tol, tmp_path, capsys):
        """The dual solves in W's eigenframe, where each column of ξ carries
        roundoff on its own scale √w, so its minimizer ξR⁺ stays unbiased at
        a tight ``--tol``; ξW^-½ in the original frame magnified the roundoff
        by up to 1/√ε (seed 2 at ε = 1e-15 and angle 41)."""
        for k, eps in enumerate([5e-13, 1e-14, 1e-15]):
            for model, angle in zip(self.MODELS, self.ANGLES[20 * k:]):
                assert self.report(model, eps, angle, tmp_path, capsys, "--tol", tol)["verified"] is True

    @pytest.mark.parametrize("eps", [1e-12, 5e-13, 1e-14, 1e-15])
    @pytest.mark.parametrize("angle", [0.0, 0.7])
    def test_d_invariant_c_h_is_c_d(self, angle, eps, tmp_path, capsys):
        report = self.report(fixture("qubit_xy_at_z", [0.5]), eps, angle, tmp_path, capsys)
        assert report["verified"] is True and report["c_h"] == report["c_d"]

    def test_no_jump_at_1e_12(self, tmp_path, capsys):
        """c_h is continuous as ε falls through 1e-12, where W used to leave
        the dual for the SDP."""
        for model, angle in zip(self.MODELS, self.ANGLES):
            above, below = (self.report(model, eps, angle, tmp_path, capsys)["c_h"]
                            for eps in (1.001e-12, 0.999e-12))
            assert below == pytest.approx(above, rel=1e-9)


class TestSingularWeight:
    """A singular W is solved on range(W) through its factor R, on every
    route: the short cut, the dual, and the SDP that q = 1 and dual
    hand-backs reach."""

    def test_rank_deficient_weights_match_the_reduced_model(self, tmp_path, capsys):
        for full, reduced, _ in singular_weight_models():
            report = bounds_report(full, tmp_path, capsys)
            assert report["verified"] is True and report["c_h_method"] == "dual"
            exact = bounds_report(reduced, tmp_path, capsys, "--tol", "1e-12")["c_h"]
            assert report["c_h"] == pytest.approx(exact, rel=1e-8)

    def test_eigenvalue_at_the_cut_takes_the_short_cut(self, tmp_path, capsys):
        """The rotated eigenvalue 5e-16 lands on the cut q·eps = 4.4e-16."""
        model = dataclasses.replace(fixture("qubit_xy_at_z", [0.5]), weight=rotated_weight(5e-16, 0.7))
        report = bounds_report(model, tmp_path, capsys)
        assert report["c_h_method"] == "d_invariant" and report["c_h"] == report["c_d"]

    def test_zero_weight(self, tmp_path, capsys):
        """W = 0 leaves the dual no target (q′ = 0): c_h = 0."""
        model = dataclasses.replace(fixture("random_full_rank", [3, 3, 3, 2]), weight=np.zeros((2, 2)))
        report = bounds_report(model, tmp_path, capsys)
        assert report["verified"] is True and report["c_h"] == 0.0

    def test_zero_weight_at_one_target(self, tmp_path, capsys):
        """q = 1 with W = 0 reaches the SDP with no target on range(W): c_h = 0, no iteration."""
        model = dataclasses.replace(fixture("random_full_rank", [3, 3, 2, 1]), weight=np.zeros((1, 1)))
        report = bounds_report(model, tmp_path, capsys)
        assert report["verified"] is True and report["c_h_method"] == "sdp"
        assert (report["c_h"], report["iterations"]) == (0.0, 0)

    def test_rotated_singular_weight_hand_back(self, tmp_path, capsys):
        """``random_full_rank`` 16,3,3,3 with W = (Q diag(1, 0) Qᵀ) ⊕ 1, Q the
        0.7-rad rotation: the dual hands it to the SDP, which solves it on
        range(W).  Reading W itself, the SDP ended NumericalTrouble (exit 3)."""
        weight = np.eye(3)
        weight[:2, :2] = rotated_weight(0.0, 0.7)
        report = bounds_report(dataclasses.replace(fixture("random_full_rank", [16, 3, 3, 3]), weight=weight),
                               tmp_path, capsys)
        assert report["verified"] is True and report["c_h_method"] == "sdp"
        assert report["c_h"] <= report["c_d"]


class TestGaussian:
    def test_vacuum_report(self, vacuum_file, capsys):
        assert main(["gaussian", vacuum_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(report["qfim"], 2 * np.eye(2))
        assert np.allclose(report["fim"], np.eye(2))
        assert report["half_qfim_deviation"] <= 1e-12
        # chained bound: tr[(F half)^+] = 1 = 2 * tr[J^+] / ... and 2*c_gs = 2*tr(J^-1) = 1
        assert report["chained_scalar_bound"] == pytest.approx(report["two_c_gs"], abs=1e-9)
        assert report["two_c_gs"] == pytest.approx(2.0 * 1.0, abs=1e-9)

    def test_information_matrices_computed_once(self, vacuum_file, monkeypatch, capsys):
        calls = count_calls(monkeypatch, gaussian, ["gaussian_qfim", "gaussian_fim"])
        assert main(["gaussian", vacuum_file]) == 0
        assert calls == {"gaussian_qfim": 1, "gaussian_fim": 1}

    def test_small_signal_keeps_relative_rank_tol(self, tmp_path, capsys):
        # J = 2e-12·I is full rank: --rank-tol is relative to its largest eigenvalue
        path = tmp_path / "weak.json"
        save_gaussian_model(
            GaussianShiftModel(modes=1, djacobian=1e-6 * np.eye(2), cm=np.eye(2),
                               mean=np.zeros(2), label="weak displacement"),
            path,
        )
        assert main(["gaussian", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["two_c_gs"] == pytest.approx(2e12, rel=1e-9)
        assert report["chained_scalar_bound"] == pytest.approx(2e12, rel=1e-9)

    def test_unphysical_cm_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_gaussian_model(
            GaussianShiftModel(modes=1, djacobian=np.eye(2), cm=0.5 * np.eye(2),
                               mean=np.zeros(2)),
            path,
        )
        assert main(["gaussian", str(path)]) == 2
        assert "unphysical" in capsys.readouterr().err

    def test_measurement_cm_flag(self, vacuum_file, tmp_path, capsys):
        meas_path = tmp_path / "meas.json"
        meas_path.write_text(json.dumps({"cm": [[2.0, 0.0], [0.0, 2.0]]}))
        assert main(["gaussian", vacuum_file, "--measurement-cm", str(meas_path),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(report["fim"], 2 / 3 * np.eye(2))

    def test_homodyne_limit_still_dominated(self, vacuum_file, tmp_path, capsys):
        meas_path = tmp_path / "meas.json"
        meas_path.write_text(json.dumps({"cm": [[100.0, 0.0], [0.0, 0.01]]}))
        assert main(["gaussian", vacuum_file, "--measurement-cm", str(meas_path),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        gap = np.array(report["qfim"]) - np.array(report["fim"])
        assert np.linalg.eigvalsh(gap).min() > -1e-9

    @pytest.mark.parametrize("fields, message", [
        ({"mean": 10**400}, "mean: expected a list of numbers"),
        ({"mean": {}}, "mean: expected a list of numbers"),
        ({"mean": [10**400, 0.0]}, "mean[0]: expected a finite number, got inf"),
        ({"mean": [0.0, True]}, "mean[1]: expected a number, got True"),
        ({"mean": [math.nan, 0.0]}, "mean[0]: expected a finite number, got nan"),
        ({"weight": [[1.0, 2.0]]}, "weight has shape (1, 2), expected (2, 2)"),  # q = p = 2: dbeta omitted
        ({"djacobian": [[1.0], [0.0]], "weight": [[-1.0]]},
         "weight is not positive semidefinite (min eigenvalue -1.000e+00)"),
        ({"label": 5}, "label: expected a string"),
        ({"cm": [[1.0, 0.1], [0.0, 1.0]]}, "cm: covariance matrix must be symmetric"),
        ({"djacobian": [[1.0], [0.0]], "dbeta": [[]]}, "dbeta must have full column rank 0; singular values []"),
        ({"djacobian": [[1.0], [0.0]], "dbeta": [[1.0, 1.0]]},
         "dbeta must have full column rank 2; singular values [1.414]"),
        ({"djacobian": [[], []]}, "djacobian: expected one column per parameter, got none"),
    ], ids=["mean-overflow", "mean-object", "mean-entry-overflow", "mean-bool", "mean-nan", "weight-not-qxq",
            "weight-negative", "label-int", "cm-asymmetric", "dbeta-no-columns", "dbeta-rank-deficient",
            "djacobian-no-columns"])
    def test_bad_field_exits_1_naming_the_file(self, fields, message, tmp_path, capsys):
        path = tmp_path / "g.json"
        write_json({"modes": 1, "cm": [[1.0, 0.0], [0.0, 1.0]], "djacobian": [[1.0, 0.0], [0.0, 1.0]], **fields},
                   path)
        assert main(["gaussian", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_weight_message_is_the_model_files(self, tmp_path, capsys):
        doc = model_to_dict(fixture("qubit_xy_at_z", [0.5]))
        doc["weight"] = [[1.0, 2.0]]
        path = tmp_path / "m.json"
        write_json(doc, path)
        assert main(["bounds", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: weight has shape (1, 2), expected (2, 2)\n"

    def test_asymmetric_measurement_cm_names_the_file(self, vacuum_file, tmp_path, capsys):
        meas_path = tmp_path / "meas.json"
        write_json({"cm": [[2.0, 0.5], [0.0, 2.0]]}, meas_path)
        assert main(["gaussian", vacuum_file, "--measurement-cm", str(meas_path)]) == 1
        assert capsys.readouterr().err == f"error: {meas_path}: cm: covariance matrix must be symmetric\n"

    def test_squeezed_p_displacement(self, tmp_path, capsys):
        """det σ = 1 and σ's eigenvalues 1e7 and 1e-7: a physical state, J = 2/1e-7."""
        path = tmp_path / "g.json"
        write_json({"modes": 1, "cm": [[1e7, 0.0], [0.0, 1e-7]], "djacobian": [[0.0], [1.0]]}, path)
        assert main(["gaussian", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        j = report["qfim"][0][0]
        assert j == pytest.approx(2e7, rel=1e-12)
        assert report["half_qfim_deviation"] <= 1e-12 * j

    def test_squeezed_two_quadratures_keep_rank_tol(self, tmp_path, capsys):
        """J = diag(2e-7, 2e7): the x target is cut at the default --rank-tol, kept at 1e-15."""
        path = tmp_path / "g.json"
        write_json({"modes": 1, "cm": [[1e7, 0.0], [0.0, 1e-7]], "djacobian": [[1.0, 0.0], [0.0, 1.0]]}, path)
        assert main(["gaussian", str(path), "--format", "json"]) == 2
        assert "not estimable" in capsys.readouterr().err
        assert main(["gaussian", str(path), "--format", "json", "--rank-tol", "1e-15"]) == 0
        assert json.loads(capsys.readouterr().out)["two_c_gs"] == pytest.approx(1e7 + 1e-7, rel=1e-12)

    def test_cm_without_cholesky_factor_exits_2_naming_the_file(self, tmp_path, capsys):
        """σ + iΩ ⪰ −CM_TOL passes, but σ has the eigenvalue −5e-11."""
        path = tmp_path / "g.json"
        write_json({"modes": 1, "cm": [[1e12, 0.0], [0.0, -5e-11]], "djacobian": [[1.0], [0.0]]}, path)
        assert main(["gaussian", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"unphysical covariance matrix: {path}: sigma has no Cholesky factor\n"

    def test_sum_without_cholesky_factor_names_the_measurement(self, tmp_path, capsys):
        """Both matrices pass the physicality test; σ + σ_m has the eigenvalue −4e-11."""
        path, meas_path = tmp_path / "g.json", tmp_path / "meas.json"
        write_json({"modes": 1, "cm": [[1e11, 0.0], [0.0, 1e-11]], "djacobian": [[1.0], [0.0]]}, path)
        write_json({"cm": [[1e12, 0.0], [0.0, -5e-11]]}, meas_path)
        assert main(["gaussian", str(path), "--measurement-cm", str(meas_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"unphysical covariance matrix: {meas_path}: sigma + sigma_m has no Cholesky factor\n"

    def test_j_decided_once(self, tmp_path, monkeypatch, capsys):
        """One decision on J per run, estimable or not; F's pseudoinverse is the one other cut."""
        for djacobian, code in (([[0.0], [1.0]], 0), ([[1.0, 0.0], [0.0, 0.0]], 2)):
            path = tmp_path / "g.json"
            write_json({"modes": 1, "cm": [[1.0, 0.0], [0.0, 1.0]], "djacobian": djacobian}, path)
            cli_calls = count_calls(monkeypatch, cli, ["decide_qfim"])
            linalg_calls = count_calls(monkeypatch, linalg, ["pseudoinverse", "symmetric_eigh"])
            assert main(["gaussian", str(path)]) == code
            assert cli_calls == {"decide_qfim": 1}
            assert linalg_calls == ({"pseudoinverse": 1, "symmetric_eigh": 2} if code == 0
                                    else {"pseudoinverse": 0, "symmetric_eigh": 1})
            if code == 2:
                assert "not estimable" in capsys.readouterr().err

    def test_non_estimable_target_exits_2(self, tmp_path, capsys):
        """J = diag(2, 0): the second target component has no finite bound."""
        path = tmp_path / "g.json"
        write_json({"modes": 1, "cm": [[1.0, 0.0], [0.0, 1.0]], "djacobian": [[1.0, 0.0], [0.0, 0.0]]}, path)
        assert main(["gaussian", str(path), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("infeasible model: beta component(s) [1] are not estimable "
                                "(dbeta column outside range of J)\n")

    @pytest.mark.parametrize("name, sigma, sigma_m", [
        ("sigma", 0.5, 1.0),  # the state's σ + iΩ has eigenvalue −0.5
        ("sigma_m", 1.0, 0.5),
    ])
    def test_unphysical_cm_names_its_file(self, name, sigma, sigma_m, tmp_path, capsys):
        path, meas_path = tmp_path / "g.json", tmp_path / "meas.json"
        write_json({"modes": 1, "cm": [[sigma, 0.0], [0.0, sigma]], "djacobian": [[1.0], [0.0]]}, path)
        write_json({"cm": [[sigma_m, 0.0], [0.0, sigma_m]]}, meas_path)
        assert main(["gaussian", str(path), "--measurement-cm", str(meas_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        named = path if name == "sigma" else meas_path
        assert captured.err == f"unphysical covariance matrix: {named}: {name} + i*Omega has negative eigenvalues\n"

    @pytest.mark.parametrize("flag, value", [("--tol", "1e-3"), ("--max-iter", "0")])
    def test_no_solver_flags(self, vacuum_file, flag, value, capsys):
        """`gaussian` solves nothing: a solver flag is a usage error, not a flag read by no one."""
        assert main(["gaussian", vacuum_file, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {flag} {value}\n"
        with pytest.raises(SystemExit):
            main(["gaussian", "--help"])
        assert flag not in capsys.readouterr().out.replace("--rank-tol", "")

    @pytest.mark.parametrize("value", ["2", "-1", "nan"])
    def test_rank_tol_range_checked(self, vacuum_file, value, capsys):
        assert main(["gaussian", vacuum_file, "--rank-tol", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: --rank-tol must be")


class TestCheckPovm:
    def make_files(self, tmp_path, estimates=((1.0,), (-1.0,))):
        model = QuantumModel(
            dim=2, rho=np.eye(2, dtype=complex) / 2, drho=np.array([SZ / 2]),
            dbeta=np.array([[1.0]]), weight=np.eye(1), label="z family",
        )
        mpath = tmp_path / "model.json"
        save_model(model, mpath)
        povm = DiscretePovm(
            elements=np.array([np.diag([1.0, 0.0]).astype(complex),
                               np.diag([0.0, 1.0]).astype(complex)]),
            estimates=np.array(estimates),
        )
        ppath = tmp_path / "povm.json"
        save_povm(povm, ppath)
        return str(ppath), str(mpath)

    def test_efficient_measurement_equality(self, tmp_path, capsys):
        ppath, mpath = self.make_files(tmp_path)
        assert main(["check-povm", ppath, mpath, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tr_w_sigma"] == pytest.approx(1.0, abs=1e-9)
        assert report["c_gs"] == pytest.approx(1.0, abs=1e-9)
        assert report["c_h"] == pytest.approx(1.0, abs=1e-7)
        assert report["c_h_method"] == "d_invariant"  # a commuting model: 𝒟L = 0
        assert report["min_eig_sigma_minus_v"] == pytest.approx(0.0, abs=1e-9)
        assert report["min_eig_sigma_minus_z"] == pytest.approx(0.0, abs=1e-9)

    def test_biased_exit_2(self, tmp_path, capsys):
        ppath, mpath = self.make_files(tmp_path, estimates=((2.0,), (-2.0,)))
        assert main(["check-povm", ppath, mpath]) == 2
        assert "not locally unbiased" in capsys.readouterr().err

    def test_measurement_work_done_once(self, tmp_path, monkeypatch, capsys):
        ppath, mpath = self.make_files(tmp_path)
        calls = count_calls(monkeypatch, povm_mod, ["influence_operators", "born_probs", "unbiasedness_residual",
                                                    "error_covariance", "povm_fim", "check_local_unbiasedness"])
        assert main(["check-povm", ppath, mpath]) == 0
        # Σ takes the one probability vector; no classical information matrix is formed
        assert calls == {"influence_operators": 1, "born_probs": 1, "unbiasedness_residual": 1,
                         "error_covariance": 1, "povm_fim": 0, "check_local_unbiasedness": 0}

    def test_povm_validated_once(self, tmp_path, monkeypatch, capsys):
        ppath, mpath = self.make_files(tmp_path)
        calls = count_calls(monkeypatch, povm_mod, ["validate_povm"])
        assert main(["check-povm", ppath, mpath]) == 0
        assert calls == {"validate_povm": 1}  # by load_povm, at the file boundary

    @staticmethod
    def low_probability_files(tmp_path, unbiased):
        """Pure qubit |0⟩ with ∂ρ = σ_x/2 (c_gs = 1) and a POVM whose outcome 0 has
        probability 1e-16 but derivative 1e-8; the estimates are locally unbiased,
        or the biased (5, 5)."""
        model = QuantumModel(
            dim=2, rho=np.diag([1.0, 0.0]).astype(complex),
            drho=np.array([[[0.0, 0.5], [0.5, 0.0]]], dtype=complex),
            dbeta=np.array([[1.0]]), weight=np.eye(1),
        )
        mpath = tmp_path / "model.json"
        save_model(model, mpath)
        v = np.array([1e-8, np.sqrt(1 - 1e-16)])
        element = np.outer(v, v).astype(complex)
        p0, dp0 = element[0, 0].real, element[0, 1].real
        e0 = 1 / (dp0 * (1 + p0 / (1 - p0)))
        estimates = [[e0], [-e0 * p0 / (1 - p0)]] if unbiased else [[5.0], [5.0]]
        ppath = tmp_path / "povm.json"
        save_povm(DiscretePovm(elements=np.array([element, np.eye(2) - element]),
                               estimates=np.array(estimates)), ppath)
        return str(ppath), str(mpath)

    def test_low_probability_outcome_unbiased_is_optimal(self, tmp_path, capsys):
        # the classical information matrix, which no report prints, is not formed
        assert main(["check-povm", *self.low_probability_files(tmp_path, True), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c_gs"] == pytest.approx(1.0, abs=1e-12)
        assert abs(report["tr_w_sigma"] - report["c_gs"]) <= 1e-12

    def test_low_probability_outcome_biased_exits_2(self, tmp_path, capsys):
        assert main(["check-povm", *self.low_probability_files(tmp_path, False)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not locally unbiased" in err

    def test_dimension_mismatch_exit_1(self, tmp_path, capsys):
        _, mpath = self.make_files(tmp_path)
        povm = DiscretePovm(elements=np.array([np.eye(3, dtype=complex)]), estimates=np.zeros((1, 1)))
        ppath = tmp_path / "povm3.json"
        save_povm(povm, ppath)
        assert main(["check-povm", str(ppath), mpath]) == 1
        err = capsys.readouterr().err
        assert "POVM dimension 3 does not match model dimension 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("elements", [5, True, None, math.nan, math.inf, -math.inf],
                             ids=["int", "bool", "null", "nan", "inf", "-inf"])
    def test_elements_not_a_list_exits_1(self, elements, tmp_path, capsys):
        ppath, mpath = self.make_files(tmp_path)
        with open(ppath, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["elements"] = elements
        write_json(doc, ppath)  # NaN and Infinity tokens for the non-finite floats
        assert main(["check-povm", ppath, mpath]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ppath}: elements: expected a non-empty list of matrices\n"

    def test_invalid_povm_names_the_file(self, tmp_path, capsys):
        _, mpath = self.make_files(tmp_path)
        ppath = tmp_path / "half.json"
        save_povm(DiscretePovm(elements=np.array([np.eye(2, dtype=complex) / 2]), estimates=np.zeros((1, 1))), ppath)
        assert main(["check-povm", str(ppath), mpath]) == 1
        assert capsys.readouterr().err == (f"error: {ppath}: POVM elements sum deviates from identity "
                                           "by 5.000e-01\n")

    def test_estimates_columns_must_match_q(self, tmp_path, capsys):
        ppath, mpath = self.make_files(tmp_path, estimates=((1.0, 0.0), (-1.0, 0.0)))
        assert main(["check-povm", ppath, mpath]) == 1
        assert capsys.readouterr().err == f"error: {ppath}: estimates: 2 column(s), expected the model's q = 1\n"


class TestSweep:
    def test_csv_matches_closed_form(self, capsys):
        assert main(["sweep", "qubit_xy_at_z", "0,0.25,0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "param,c_gs,c_h,c_d,two_c_gs,gap"
        for line, z in zip(lines[1:], (0.0, 0.25, 0.5)):
            vals = [float(x) for x in line.split(",")]
            assert vals[0] == pytest.approx(z)
            assert vals[1] == pytest.approx(2.0, abs=1e-9)
            assert vals[3] == pytest.approx(2 + 2 * z, abs=1e-9)
            assert vals[4] == pytest.approx(4.0, abs=1e-9)

    def test_z_zero_row_collapses(self, capsys):
        assert main(["sweep", "qubit_xy_at_z", "0"]) == 0
        vals = [float(x) for x in capsys.readouterr().out.strip().splitlines()[1].split(",")]
        assert vals[1] == pytest.approx(vals[2], abs=1e-7)  # c_gs == c_h
        assert vals[1] == pytest.approx(vals[3], abs=1e-9)  # c_gs == c_d

    def test_pure_state_rows_print_ordered_floats(self, capsys):
        """Every row is D-invariant, so c_h = c_d; c_d = 2·c_gs on pure states,
        and a c_d that rounds above 2·c_gs (the second row) is printed as it."""
        assert main(["sweep", "pure_qubit_angles", "0.4:2.7:5", "--fixed", "0.3"]) == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            _, gs, h, d, two_gs, gap = (float(x) for x in line.split(","))
            assert gs <= h == d <= two_gs and gap == 0.0

    def test_grid_syntax(self, capsys):
        assert main(["sweep", "qubit_xy_at_z", "0:0.8:5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6

    def test_unknown_fixture(self, capsys):
        assert main(["sweep", "nope", "0,1"]) == 1
        assert "unknown fixture" in capsys.readouterr().err


class TestExitCodes:
    """One table in ``main`` maps each error class to one exit code,
    whichever subcommand raises it."""

    @pytest.fixture
    def argv(self, request, tmp_path):
        model = QuantumModel(
            dim=2, rho=np.eye(2, dtype=complex) / 2, drho=np.array([SZ / 2]),
            dbeta=np.array([[1.0]]), weight=np.eye(1),
        )
        mpath = tmp_path / "model.json"
        save_model(model, mpath)
        ppath = tmp_path / "povm.json"
        save_povm(DiscretePovm(elements=np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex),
                               estimates=np.array([[1.0], [-1.0]])), ppath)
        return {
            "bounds": ["bounds", str(mpath)],
            "check-povm": ["check-povm", str(ppath), str(mpath)],
            "sweep": ["sweep", "qubit_xy_at_z", "0,0.5"],
        }[request.param]

    @pytest.mark.parametrize("argv", ["bounds", "check-povm", "sweep"], indirect=True)
    @pytest.mark.parametrize("error, code", [
        (ResidualTooLarge("planted residual"), 1),
        (ValueError("planted value"), 1),
        (OSError("planted file"), 1),
        (InfeasibleModel("planted infeasible", bad_columns=[0]), 2),
        (NotLocallyUnbiased("planted bias"), 2),
        (np.linalg.LinAlgError("planted linear algebra"), 1),  # a ValueError, as every untyped input error
        (VerificationFailed("planted verification"), 3),
        (UnphysicalCovariance("planted covariance"), 2),
    ])
    def test_same_code_everywhere(self, argv, error, code, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(holevo, "solve", fail)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(error) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("top", ["5", "null", "true", "[1]", '"x"'])
    @pytest.mark.parametrize("kind", ["model", "povm", "gaussian", "measurement-cm"])
    def test_non_object_json_exits_1(self, kind, top, tmp_path, vacuum_file, capsys):
        """An input file whose top level is not a JSON object is named, not a traceback."""
        bad = tmp_path / "bad.json"
        bad.write_text(top + "\n")
        model = tmp_path / "model.json"
        save_model(fixture("qubit_xy_at_z", [0.5]), model)
        argv = {"model": ["bounds", str(bad)],
                "povm": ["check-povm", str(bad), str(model)],
                "gaussian": ["gaussian", str(bad)],
                "measurement-cm": ["gaussian", vacuum_file, "--measurement-cm", str(bad)]}[kind]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {bad}: expected a JSON object at the top level, got ")


#: What a mutation puts in place of a node of a model file: bools, a string,
#: null, NaN and ±Infinity tokens, integers beyond the float range, pairs of
#: the wrong length, a nested list, an empty list and an object.
BAD_NODES = (True, False, "1.5", None, math.nan, math.inf, -math.inf, 10**400, -(10**400),
             [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [], {})


@st.composite
def mutated_files(draw, base):
    """The input file ``base`` with one node replaced by one of
    :data:`BAD_NODES`, one list element dropped (ragged rows, short pairs, a
    missing matrix or row) or one key deleted."""
    doc = copy.deepcopy(base)
    kind = draw(st.sampled_from(["replace", "drop", "delete"]))
    key = draw(st.sampled_from(sorted(doc)))
    if kind == "delete":
        del doc[key]
        return doc
    parent = doc
    while isinstance(parent[key], list) and parent[key] and draw(st.booleans()):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    if kind == "drop" and isinstance(parent[key], list) and parent[key]:
        del parent[key][draw(st.integers(0, len(parent[key]) - 1))]
    else:
        parent[key] = draw(st.sampled_from(BAD_NODES))
    return doc


#: A valid dual-route model file (d = 3, q = 2).
MODEL_DOC = model_to_dict(fixture("random_full_rank", [3, 3, 2, 2]))
#: A valid q = 1 qubit model file and a locally unbiased two-outcome POVM file for it.
POVM_MODEL_DOC = model_to_dict(QuantumModel(dim=2, rho=np.eye(2, dtype=complex) / 2, drho=np.array([SZ / 2]),
                                            dbeta=np.array([[1.0]]), weight=np.eye(1)))
POVM_DOC = {"dim": 2, "elements": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                                   [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
            "estimates": [[1.0], [-1.0]]}
#: A valid Gaussian model file with every optional field, and a measurement-CM file for it.
GAUSSIAN_DOC = gaussian_model_to_dict(GaussianShiftModel(
    modes=1, djacobian=np.eye(2), cm=np.eye(2), mean=np.zeros(2), dbeta=np.eye(2), weight=np.eye(2),
    label="vacuum displacement"))
MEASUREMENT_DOC = {"cm": [[2.0, 0.0], [0.0, 2.0]]}


def run_on_file(doc, argv):
    """``main`` on ``argv``, "{tmp}" in it standing for a temporary directory
    that holds ``doc`` as input.json, the model of :data:`POVM_DOC` as
    model.json and :data:`GAUSSIAN_DOC` as gaussian.json; returns the exit
    code, stdout, stderr and the path of input.json."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/input.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))  # NaN and Infinity tokens for the non-finite floats
        write_json(POVM_MODEL_DOC, f"{tmp}/model.json")
        write_json(GAUSSIAN_DOC, f"{tmp}/gaussian.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(tmp=tmp) for arg in argv])
    return code, out.getvalue(), err.getvalue(), path


class TestFuzzedModelFile:
    """Mutated input files through ``main``: every run ends in a documented
    exit code, and a rejected file is named on one stderr line, never a
    traceback."""

    @staticmethod
    def check(code, out, err, path):
        assert code in (0, 1, 2)
        if code:
            assert out == ""
            assert err.count("\n") == 1 and path in err, err
            assert "Traceback" not in err

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(doc=mutated_files(MODEL_DOC), fmt=st.sampled_from(["text", "json"]))
    def test_exit_code_and_one_named_line(self, doc, fmt):
        self.check(*run_on_file(doc, ["bounds", "{tmp}/input.json", "--format", fmt]))

    @pytest.mark.parametrize("base, argv", [
        (POVM_DOC, ["check-povm", "{tmp}/input.json", "{tmp}/model.json"]),
        (GAUSSIAN_DOC, ["gaussian", "{tmp}/input.json"]),
        (MEASUREMENT_DOC, ["gaussian", "{tmp}/gaussian.json", "--measurement-cm", "{tmp}/input.json"]),
    ], ids=["povm", "gaussian", "measurement-cm"])
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(data=st.data(), fmt=st.sampled_from(["text", "json"]))
    def test_other_input_files(self, base, argv, data, fmt):
        self.check(*run_on_file(data.draw(mutated_files(base)), argv + ["--format", fmt]))


class TestParser:
    """One parser, built at import, serves every ``main`` call of a process."""

    def test_calls_in_one_process_match_a_fresh_parser(self, dual_model_file, tmp_path, monkeypatch, capsys):
        ppath, mpath = TestCheckPovm().make_files(tmp_path)
        sequence = [
            ["bounds", dual_model_file, "--tol", "1e-6", "--format", "json"],
            ["bounds", dual_model_file],
            ["sweep", "qubit_xy_at_z", "0:0.9:3"],
            ["fixtures", "--emit", "qubit_bloch", "--params", "-0.3,0.1,0.2"],
            ["bounds", dual_model_file, "--tol", "abc"],
            ["check-povm", ppath, mpath, "--format", "json"],
            ["bounds", dual_model_file, "--format", "json"],
        ]
        shared = []
        for argv in sequence:
            code = main(argv)
            shared.append((code, capsys.readouterr().out))
        for argv, (code, out) in zip(sequence, shared):
            with monkeypatch.context() as m:
                m.setattr(cli, "PARSER", cli.build_parser())
                assert (main(argv), capsys.readouterr().out) == (code, out), argv
        assert [code for code, _ in shared] == [0, 0, 0, 0, 1, 0, 0]
        first, last = json.loads(shared[0][1]), json.loads(shared[-1][1])
        assert first["tolerances"]["sdp_gap"] == 1e-6
        assert last["tolerances"] == {"sdp_gap": 1e-8, "max_iter": 200, "rank_tol": 1e-10}

    def test_dispatch_looked_up_at_call_time(self, xy_model_file, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args.model) or 7)
        assert main(["bounds", xy_model_file]) == 7
        assert seen == [xy_model_file]
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "m.json", "--tol", "abc"], "error: argument --tol: invalid float value: 'abc'\n"),
        (["bounds", "m.json", "--max-iter", "1.5"], "error: argument --max-iter: invalid int value: '1.5'\n"),
        (["bounds", "m.json", "--format", "xml"], None),
        (["bounds", "m.json", "--tol"], "error: argument --tol: expected one argument\n"),
        (["bounds", "m.json", "--frobnicate"], "error: unrecognized arguments: --frobnicate\n"),
        (["bounds"], "error: the following arguments are required: model\n"),
        ([], "error: the following arguments are required: command\n"),
        (["frobnicate"], None),
    ], ids=["bad-float", "bad-int", "bad-choice", "missing-value", "unknown-flag", "missing-argument",
            "no-command", "unknown-command"])
    def test_usage_error_exits_1_on_one_line(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "usage:" not in captured.err
        if message is not None:
            assert captured.err == message

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--help"])
        assert info.value.code == 0
        assert "usage: qcrb bounds" in capsys.readouterr().out


class TestFixturesCommand:
    def test_listing(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        for name in ("qubit_bloch", "qubit_xy_at_z", "pure_qubit_angles",
                     "classical_diagonal", "random_full_rank"):
            assert name in out

    def test_emit_to_file(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["fixtures", "--emit", "qubit_xy_at_z", "--params", "0.3",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert main(["bounds", str(out)]) == 0

    def test_emit_negative_params(self, tmp_path, capsys):
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main(["fixtures", "--emit", "qubit_bloch", "--params", "-0.3,0.1,0.2",
                     "--out", str(spaced)]) == 0
        assert main(["fixtures", "--emit", "qubit_bloch", "--params=-0.3,0.1,0.2",
                     "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_emit_seeded_random(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["fixtures", "--emit", "random_full_rank", "--seed", "5",
                     "--out", str(out)]) == 0
        assert main(["bounds", str(out)]) == 0


class TestDeterminism:
    def run_capture(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_bounds_json_byte_identical(self, xy_model_file, capsys):
        code1, out1 = self.run_capture(["bounds", xy_model_file, "--format", "json"], capsys)
        code2, out2 = self.run_capture(["bounds", xy_model_file, "--format", "json"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_sweep_byte_identical(self, capsys):
        _, out1 = self.run_capture(["sweep", "qubit_xy_at_z", "0:0.9:4"], capsys)
        _, out2 = self.run_capture(["sweep", "qubit_xy_at_z", "0:0.9:4"], capsys)
        assert out1 == out2

    def test_seeded_fixture_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["fixtures", "--emit", "random_full_rank", "--seed", "11",
                     "--params", "3,2,2", "--out", str(path)]) == 0
        capsys.readouterr()
        _, out1 = self.run_capture(["bounds", str(path), "--format", "json"], capsys)
        _, out2 = self.run_capture(["bounds", str(path), "--format", "json"], capsys)
        assert out1 == out2

    def test_entry_point_subprocess(self, xy_model_file):
        cmd = [sys.executable, "-m", "qcrb.cli", "bounds", xy_model_file, "--format", "json"]
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        json.loads(r1.stdout)
