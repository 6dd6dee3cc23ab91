import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcrb import linalg
from qcrb.exceptions import (
    KernelBlockDerivative,
    ModelError,
    NonHermitianDerivative,
    NotDensityMatrix,
    RankDeficientDbeta,
)
from qcrb.model import (
    FIXTURES,
    TRACE_TOL,
    QuantumModel,
    _pairs_to_complex_matrix,
    _real_matrix,
    fixture,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    validate,
)
from qcrb.sld import analyze
from _support import random_hermitian, random_model

SZ = np.diag([1.0, -1.0]).astype(complex)


def simple_qubit(**overrides):
    fields = dict(
        dim=2,
        rho=np.eye(2, dtype=complex) / 2,
        drho=np.array([SZ / 2]),
        dbeta=np.array([[1.0]]),
        weight=np.array([[1.0]]),
    )
    fields.update(overrides)
    return QuantumModel(**fields)


class TestValidate:
    def test_valid_qubit(self):
        m = simple_qubit()
        assert validate(m) is None
        analysis = analyze(m)
        assert analysis.support.sum() == 2
        assert analysis.eigvals.min() == pytest.approx(0.5)

    def test_rejects_nonunit_trace(self):
        with pytest.raises(NotDensityMatrix, match="Tr rho"):
            validate(simple_qubit(rho=np.eye(2, dtype=complex)))

    def test_rejects_nonhermitian_rho(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotDensityMatrix):
            validate(simple_qubit(rho=bad))

    def test_rejects_negative_rho(self):
        with pytest.raises(NotDensityMatrix, match="negative eigenvalue"):
            validate(simple_qubit(rho=np.diag([1.5, -0.5]).astype(complex)))

    def test_rejects_traceful_derivative(self):
        with pytest.raises(NonHermitianDerivative, match="trace"):
            validate(simple_qubit(drho=np.array([np.eye(2, dtype=complex)])))

    def test_rejects_nonhermitian_derivative(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitianDerivative):
            validate(simple_qubit(drho=np.array([bad])))

    @pytest.mark.parametrize("faults", [
        {1: "skew", 2: "trace"}, {0: "trace", 3: "skew"}, {2: "skew+trace"}, {3: "trace"},
        {1: "nan+trace"}, {0: "large+skew"},
    ])
    def test_names_first_bad_derivative(self, faults):
        """The checks of every drho[j], made at once, name the first bad j with
        the message of the per-matrix checks they replace."""
        rng = np.random.default_rng(14)
        drho = np.array([random_hermitian(rng, 3) for _ in range(4)])
        drho -= np.trace(drho, axis1=1, axis2=2).real[:, None, None] / 3 * np.eye(3)
        for j, fault in faults.items():
            if "large" in fault:
                drho[j] *= 1e6
            if "skew" in fault:
                drho[j, 0, 1] += 1e-3 * max(1.0, np.abs(drho[j]).max())
            if "trace" in fault:
                drho[j, 2, 2] += 0.25
            if "nan" in fault:
                drho[j, 0, 1] = drho[j, 1, 0] = np.nan
        expected = None
        for j, dj in enumerate(drho):  # the per-matrix loop
            try:
                linalg.require_hermitian(dj, f"drho[{j}]")
            except ValueError as exc:
                expected = str(exc)
                break
            dtr = np.trace(dj)
            if abs(dtr) > TRACE_TOL * max(1.0, np.abs(dj).max()):
                expected = f"drho[{j}] has trace {dtr!r}, expected 0 (unit-trace family)"
                break
        model = simple_qubit(dim=3, rho=np.eye(3, dtype=complex) / 3, drho=drho,
                             dbeta=np.eye(4, 1), weight=np.eye(1))
        with pytest.raises(NonHermitianDerivative) as err:
            validate(model)
        assert str(err.value) == expected

    def test_kernel_block_derivative(self):
        # rank-1 state whose derivative grows the kernel eigenvalue: the
        # support is a rank decision, so analyze rejects it, with its rank_tol
        model = simple_qubit(
            rho=np.diag([1.0, 0.0]).astype(complex),
            drho=np.array([np.diag([-1.0, 1.0]).astype(complex)]),
        )
        validate(model)
        with pytest.raises(KernelBlockDerivative):
            analyze(model)

    def test_rank_deficient_dbeta(self):
        with pytest.raises(RankDeficientDbeta):
            validate(simple_qubit(dbeta=np.array([[0.0]])))

    def test_more_targets_than_parameters(self):
        # p = 1, q = 2: a 1×2 dbeta has one singular value and rank 1 < q
        with pytest.raises(RankDeficientDbeta, match=r"full column rank 2; singular values \[1.414\]"):
            validate(simple_qubit(dbeta=np.array([[1.0, 1.0]]), weight=np.eye(2)))

    def test_rejects_non_psd_weight(self):
        with pytest.raises(ModelError):
            validate(simple_qubit(weight=np.array([[-1.0]])))

    def test_rank_one_valid_model(self):
        # pure state with a support/cross-block derivative is fine
        m = fixture("pure_qubit_angles", [1.1, 0.4])
        validate(m)
        assert analyze(m).support.sum() == 1

    def test_totality_on_fuzzed_inputs(self):
        # validate never crashes: the rank of a valid model's rho, or a typed ModelError
        rng = np.random.default_rng(99)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            shape_rho = (d + rng.integers(0, 2), d)
            rho = rng.normal(size=shape_rho) + 1j * rng.normal(size=shape_rho)
            p = int(rng.integers(1, 3))
            drho = rng.normal(size=(p, d, d)) + 1j * rng.normal(size=(p, d, d))
            dbeta = rng.normal(size=(p + rng.integers(0, 2), rng.integers(1, 3)))
            weight = rng.normal(size=(rng.integers(1, 3), rng.integers(1, 3)))
            m = QuantumModel(dim=d, rho=rho, drho=drho, dbeta=dbeta, weight=weight)
            try:
                validate(m)
                assert 0 < analyze(m).support.sum() <= d
            except ModelError:
                pass


class TestSerialization:
    def test_minimal_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        m = simple_qubit()
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.dim == 2
        assert loaded.drho.shape == (1, 2, 2)
        assert loaded.dbeta.shape == (1, 1)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for k in range(10):
            m = random_model(rng, d=int(rng.integers(2, 5)), p=2, q=2, weighted=True)
            path = tmp_path / f"m{k}.json"
            save_model(m, path)
            loaded = load_model(path)
            assert np.array_equal(loaded.rho, m.rho)
            assert np.array_equal(loaded.drho, m.drho)
            assert np.array_equal(loaded.dbeta, m.dbeta)
            assert np.array_equal(loaded.weight, m.weight)

    def test_load_rejects_nonhermitian_rho(self, tmp_path):
        data = model_to_dict(simple_qubit())
        data["rho"][0][1] = [0.5, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(NotDensityMatrix):
            load_model(path)

    def test_load_reports_field_context(self, tmp_path):
        data = model_to_dict(simple_qubit())
        data["rho"][0][0] = "oops"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"rho\[0\]\[0\]"):
            load_model(path)

    def test_load_reports_json_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ValueError, match="line 2"):
            load_model(path)

    def test_rectangular_dbeta_accepted(self):
        m = model_from_dict(
            {
                "dim": 2,
                "rho": model_to_dict(simple_qubit())["rho"],
                "drho": [model_to_dict(simple_qubit())["drho"][0]] * 3,
                "dbeta": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            }
        )
        assert m.dbeta.shape == (3, 2)
        assert m.weight.shape == (2, 2)  # identity default

    def test_missing_field(self):
        with pytest.raises(ValueError, match="dim"):
            model_from_dict({"rho": []})

    def test_load_names_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(json.dumps(model_to_dict(simple_qubit())).encode("utf-16"))  # starts ff fe
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: not UTF-8 text: ")
        assert "\n" not in str(info.value)


BIG = "1" + "0" * 400  # a JSON integer beyond the float range


class TestDecoder:
    """Matrices of the model file: one decoder for [re, im] pairs and for reals."""

    def test_matches_entrywise_construction(self):
        rng = np.random.default_rng(5)
        specials = [0, -0.0, 5e-324, -3e-310, 1e308, -1e308, 2**53 + 1, 10**20, -(2**63) - 1]

        def entry():
            if rng.random() < 0.4:
                return specials[rng.integers(len(specials))]
            return int(rng.integers(-10**6, 10**6)) if rng.random() < 0.3 else float(rng.normal())

        for _ in range(200):
            rows, cols = (int(n) for n in rng.integers(1, 6, 2))
            pairs = [[[entry(), entry()] for _ in range(cols)] for _ in range(rows)]
            reals = [[entry() for _ in range(cols)] for _ in range(rows)]
            # the reference: one Python complex, or float, per entry
            want_c = np.array([[complex(float(re), float(im)) for re, im in row] for row in pairs])
            want_r = np.array([[float(x) for x in row] for row in reals])
            got_c, got_r = _pairs_to_complex_matrix(pairs, "rho"), _real_matrix(reals, "dbeta")
            assert got_c.dtype == complex and got_c.shape == want_c.shape
            assert got_c.tobytes() == want_c.tobytes()
            assert got_r.dtype == float and got_r.tobytes() == want_r.tobytes()

    # (where in the qubit_xy_at_z model file, the JSON text put there, the message
    # the entry-by-entry decoder gave, which the file's reader keeps byte for byte)
    @pytest.mark.parametrize("path, raw, message", [
    (('rho', 1, 0, 0), 'true', 'rho[1][0]: expected a number, got True'),
    (('rho', 1, 0, 0), 'false', 'rho[1][0]: expected a number, got False'),
    (('rho', 1, 0, 0), '"0.5"', "rho[1][0]: expected a number, got '0.5'"),
    (('rho', 1, 0, 0), 'null', 'rho[1][0]: expected a number, got None'),
    (('rho', 1, 0, 0), 'NaN', 'rho[1][0]: expected a finite number, got nan'),
    (('rho', 1, 0, 0), 'Infinity', 'rho[1][0]: expected a finite number, got inf'),
    (('rho', 1, 0, 0), '-Infinity', 'rho[1][0]: expected a finite number, got -inf'),
    (('rho', 1, 0, 0), '1e400', 'rho[1][0]: expected a finite number, got inf'),
    (('rho', 1, 0, 0), '-1e400', 'rho[1][0]: expected a finite number, got -inf'),
    (('rho', 1, 0, 0), BIG, 'rho[1][0]: expected a finite number, got inf'),
    (('rho', 1, 0, 0), "-" + BIG, 'rho[1][0]: expected a finite number, got inf'),
    (('rho', 1, 0, 0), '[1]', 'rho[1][0]: expected a number, got [1]'),
    (('rho', 1, 0, 0), '{}', 'rho[1][0]: expected a number, got {}'),
    (('rho', 1, 0, 1), 'true', 'rho[1][0]: expected a number, got True'),
    (('rho', 1, 0, 1), BIG, 'rho[1][0]: expected a finite number, got inf'),
    (('rho', 1, 0), '[0.5]', 'rho[1][0]: expected an [re, im] pair'),
    (('rho', 1, 0), '[0.5, 0, 0]', 'rho[1][0]: expected an [re, im] pair'),
    (('rho', 1, 0), '0.5', 'rho[1][0]: expected an [re, im] pair'),
    (('rho', 1, 0), 'null', 'rho[1][0]: expected an [re, im] pair'),
    (('rho', 1, 0), '[]', 'rho[1][0]: expected an [re, im] pair'),
    (('rho', 1), '5', 'rho[1]: expected a list of [re, im] pairs'),
    (('rho', 1), '[[0.5, 0]]', 'rho: ragged rows'),
    (('rho', 1), '[]', 'rho: ragged rows'),
    (('rho', 1), 'null', 'rho[1]: expected a list of [re, im] pairs'),
    (('rho',), '[]', 'rho: expected a non-empty list of rows'),
    (('rho',), '5', 'rho: expected a non-empty list of rows'),
    (('rho',), 'null', 'rho: expected a non-empty list of rows'),
    (('rho',), '"x"', 'rho: expected a non-empty list of rows'),
    (('rho',), '[[]]', 'rho: shape (1, 0) does not match dim=2'),
    (('rho',), '[[[0.5, 0], [NaN, 0]], [[0, 0]]]', 'rho[0][1]: expected a finite number, got nan'),
    (('rho',), '[[[0.5, 0], ["x", 0]], 5]', "rho[0][1]: expected a number, got 'x'"),
    (('rho',), '[[[0.5, 0], [0, 0]], [[0, 0], [0.5]]]', 'rho[1][1]: expected an [re, im] pair'),
    (('drho', 0, 0, 1, 1), 'NaN', 'drho[0][0][1]: expected a finite number, got nan'),
    (('drho', 0, 0, 1, 1), '1e400', 'drho[0][0][1]: expected a finite number, got inf'),
    (('drho', 0, 0, 1, 1), 'false', 'drho[0][0][1]: expected a number, got False'),
    (('dbeta', 0, 0), 'true', 'dbeta[0][0]: expected a number, got True'),
    (('dbeta', 0, 0), '"x"', "dbeta[0][0]: expected a number, got 'x'"),
    (('dbeta', 0, 0), 'null', 'dbeta[0][0]: expected a number, got None'),
    (('dbeta', 0, 0), 'NaN', 'dbeta[0][0]: expected a finite number, got nan'),
    (('dbeta', 0, 0), '1e400', 'dbeta[0][0]: expected a finite number, got inf'),
    (('dbeta', 0, 0), BIG, 'dbeta[0][0]: expected a finite number, got inf'),
    (('dbeta', 0, 0), '[1]', 'dbeta[0][0]: expected a number, got [1]'),
    (('dbeta',), '5', 'dbeta: expected a matrix, got ndim=0'),
    (('dbeta',), '"x"', 'dbeta: expected a rectangular real matrix'),
    (('dbeta',), 'null', 'dbeta: expected a matrix, got ndim=0'),
    (('dbeta',), '[1, 2]', 'dbeta: expected a matrix, got ndim=1'),
    (('dbeta',), '[[1, 0], [0]]', 'dbeta: expected a rectangular real matrix'),
    (('dbeta',), '[]', 'dbeta: expected a matrix, got ndim=1'),
    (('dbeta',), '[[1, 0], 2]', 'dbeta: expected a rectangular real matrix'),
    (('dbeta',), '[[1, NaN], [0]]', 'dbeta[0][1]: expected a finite number, got nan'),
    (('dbeta',), '{}', 'dbeta: expected a rectangular real matrix'),
    (('weight', 1, 1), '-Infinity', 'weight[1][1]: expected a finite number, got -inf'),
    (('weight', 0), '[1, true]', 'weight[0][1]: expected a number, got True'),
    ])
    def test_malformed_entry_messages(self, path, raw, message):
        data = model_to_dict(fixture("qubit_xy_at_z", [0.5]))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@"
        text = json.dumps(data).replace('"@"', raw)
        with pytest.raises(ValueError) as info:
            model_from_dict(json.loads(text))
        assert str(info.value) == message

    @pytest.mark.parametrize("raw", [f"[{BIG}]", BIG, f"[[1], -{BIG}]"])
    def test_huge_integer_outside_rows_is_named(self, raw):
        data = json.loads(json.dumps(model_to_dict(fixture("qubit_xy_at_z", [0.5]))).replace(
            '"dbeta": [[1.0, 0.0], [0.0, 1.0]]', f'"dbeta": {raw}'))
        with pytest.raises(ValueError, match=r"^dbeta: expected a"):
            model_from_dict(data)


class TestFixtures:
    def test_qubit_xy_at_z(self):
        m = fixture("qubit_xy_at_z", [0.5])
        assert_allclose(np.linalg.eigvalsh(m.rho), [0.25, 0.75], atol=1e-12)
        assert m.drho.shape == (2, 2, 2)
        assert_allclose(m.dbeta, np.eye(2))
        validate(m)

    @pytest.mark.parametrize("z", [-0.99, 0.0, 0.7])
    def test_qubit_xy_valid_range(self, z):
        m = fixture("qubit_xy_at_z", [z])
        assert np.trace(m.rho).real == pytest.approx(1.0)
        validate(m)

    def test_qubit_xy_rejects_unit_z(self):
        with pytest.raises(ValueError, match="range|< 1"):
            fixture("qubit_xy_at_z", [1.0])

    def test_classical_diagonal_commutes(self):
        m = fixture("classical_diagonal", [0.2, 0.3])
        for dj in m.drho:
            assert np.abs(m.rho @ dj - dj @ m.rho).max() < 1e-14
        validate(m)

    def test_pure_qubit_is_rank_one(self):
        m = fixture("pure_qubit_angles", [0.9, 2.0])
        vals = np.linalg.eigvalsh(m.rho)
        assert_allclose(sorted(vals), [0.0, 1.0], atol=1e-12)
        validate(m)

    def test_pure_qubit_rejects_pole(self):
        with pytest.raises(ValueError, match="pole"):
            fixture("pure_qubit_angles", [0.0, 1.0])

    def test_qubit_bloch(self):
        m = fixture("qubit_bloch", [0.1, 0.2, 0.3])
        validate(m)
        assert m.n_params == 3

    def test_qubit_bloch_rejects_unit_radius(self):
        with pytest.raises(ValueError):
            fixture("qubit_bloch", [1.0, 0.0, 0.0])

    def test_random_full_rank_deterministic(self):
        a = fixture("random_full_rank", [42])
        b = fixture("random_full_rank", [42])
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.drho, b.drho)
        assert np.array_equal(a.dbeta, b.dbeta)
        c = fixture("random_full_rank", [43])
        assert not np.array_equal(a.rho, c.rho)
        validate(a)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture("nope", [1.0])
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture("nope", [np.inf])  # the name is judged before its parameters

    def test_random_full_rank_integral_floats(self):
        """A seed, d, p or q given as a float of integral value is that integer."""
        a, b = fixture("random_full_rank", [11, 3, 2, 2]), fixture("random_full_rank", [11.0, 3.0, 2.0, 2.0])
        assert a.label == b.label == "random_full_rank(seed=11, d=3, p=2, q=2)"
        assert np.array_equal(a.rho, b.rho) and np.array_equal(a.dbeta, b.dbeta)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_all_fixtures_validate(self, name):
        params = {
            "qubit_bloch": [0.2, -0.1, 0.4],
            "qubit_xy_at_z": [0.3],
            "pure_qubit_angles": [1.2, 0.5],
            "classical_diagonal": [0.25, 0.25],
            "random_full_rank": [7],
        }[name]
        validate(fixture(name, params))
