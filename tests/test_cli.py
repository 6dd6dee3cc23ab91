import json
import subprocess
import sys

import numpy as np
import pytest

from qcrb import bounds, gaussian, holevo, linalg, sld
from qcrb import povm as povm_mod
from qcrb.cli import main
from qcrb.exceptions import (
    IllDefinedFim,
    InfeasibleModel,
    NotLocallyUnbiased,
    ResidualTooLarge,
    VerificationFailed,
)
from qcrb.gaussian import GaussianShiftModel, save_gaussian_model
from qcrb.model import QuantumModel, fixture, model_to_dict, save_model
from qcrb.povm import DiscretePovm, save_povm

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
    """A model that is not D-invariant, so ``bounds`` runs the SDP."""
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

    def test_d_invariant_short_cut_reported(self, xy_model_file, sdp_model_file, capsys):
        assert main(["bounds", xy_model_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c_h_method"] == "d_invariant" and report["iterations"] == 0
        assert report["c_gs"] <= report["c_h"] == report["c_d"] <= report["two_c_gs"]
        assert main(["bounds", xy_model_file]) == 0
        assert "solver: Optimal after 0 iterations (c_h_method d_invariant), " in capsys.readouterr().out
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

    def test_coarse_rank_tol_named(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_model(fixture("random_full_rank", [3, 8, 3, 3]), path)
        assert main(["bounds", str(path), "--rank-tol", "0.999"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: SLD equation for parameter 0")
        assert "(--rank-tol 0.999 kept support rank 1 of 8)" in err

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
        sld_calls = count_calls(monkeypatch, sld, ["information"])
        assert main(["bounds", str(path)]) == 0
        # trace norms: one in c_d, one in the verification's nonsmooth objective
        assert linalg_calls == {"pseudoinverse": 1, "trace_norm": 2}
        assert sld_calls == {"information": 1}


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
        # Σ and the FIM come from the one probability vector of the report
        assert calls == {"influence_operators": 1, "born_probs": 1, "unbiasedness_residual": 1,
                         "error_covariance": 0, "povm_fim": 0, "check_local_unbiasedness": 0}

    def test_ill_defined_fim_reported_before_bias(self, tmp_path, capsys):
        # pure state; outcome 0 has probability ~1e-16 but derivative ~1e-8, and
        # the estimates are biased as well
        model = QuantumModel(
            dim=2, rho=np.diag([1.0, 0.0]).astype(complex),
            drho=np.array([[[0.0, 0.5], [0.5, 0.0]]], dtype=complex),
            dbeta=np.array([[1.0]]), weight=np.eye(1),
        )
        mpath = tmp_path / "model.json"
        save_model(model, mpath)
        v = np.array([1e-8, 1.0]) / np.hypot(1e-8, 1.0)
        element = np.outer(v, v).astype(complex)
        ppath = tmp_path / "povm.json"
        save_povm(DiscretePovm(elements=np.array([element, np.eye(2) - element]),
                               estimates=np.array([[5.0], [5.0]])), ppath)
        assert main(["check-povm", str(ppath), str(mpath)]) == 2
        err = capsys.readouterr().err
        assert "outcome 0 has probability" in err
        assert "not locally unbiased" not in err

    def test_dimension_mismatch_exit_1(self, tmp_path, capsys):
        _, mpath = self.make_files(tmp_path)
        povm = DiscretePovm(elements=np.array([np.eye(3, dtype=complex)]), estimates=np.zeros((1, 1)))
        ppath = tmp_path / "povm3.json"
        save_povm(povm, ppath)
        assert main(["check-povm", str(ppath), mpath]) == 1
        err = capsys.readouterr().err
        assert "POVM dimension 3 does not match model dimension 2" in err
        assert "Traceback" not in err


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
        (IllDefinedFim("planted fim"), 2),
        (VerificationFailed("planted verification"), 3),
    ])
    def test_same_code_everywhere(self, argv, error, code, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(holevo, "solve", fail)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(error) in err
        assert "Traceback" not in err


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
