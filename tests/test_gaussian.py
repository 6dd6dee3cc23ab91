import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcrb.exceptions import RankDeficientDbeta, UnphysicalCovariance
from qcrb.gaussian import (
    GaussianShiftModel,
    gaussian_fim,
    gaussian_qfim,
    gaussian_model_from_dict,
    half_qfim_check,
    load_gaussian_model,
    load_measurement,
    symplectic_form,
    validate_cm,
)
from qcrb.model import QuantumModel, load_model, save_model, write_json
from _support import generaldyne_logdensity, random_physical_cm


def vacuum_model(k=1, djacobian=None):
    dj = np.eye(2 * k) if djacobian is None else djacobian
    return GaussianShiftModel(modes=k, djacobian=dj, cm=np.eye(2 * k), mean=np.zeros(2 * k))


class TestSymplecticForm:
    def test_single_mode(self):
        assert_allclose(symplectic_form(1), [[0, 1], [-1, 0]])

    def test_two_modes_block_structure(self):
        omega = symplectic_form(2)
        assert omega.shape == (4, 4)
        assert_allclose(omega[:2, :2], [[0, 1], [-1, 0]])
        assert_allclose(omega[2:, 2:], [[0, 1], [-1, 0]])
        assert np.abs(omega[:2, 2:]).max() == 0

    def test_orthogonality(self):
        omega = symplectic_form(3)
        assert_allclose(omega @ omega.T, np.eye(6), atol=1e-15)
        assert_allclose(omega.T, -omega)
        assert_allclose(omega @ omega, -np.eye(6))

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestValidateCm:
    def test_vacuum_physical(self):
        assert validate_cm(np.eye(2), 1)

    def test_below_vacuum_unphysical(self):
        assert not validate_cm(0.5 * np.eye(2), 1)

    @pytest.mark.parametrize("r", [-1.5, 0.0, 0.7, 2.0])
    def test_squeezed_is_physical(self, r):
        assert validate_cm(np.diag([np.exp(2 * r), np.exp(-2 * r)]), 1)

    def test_random_constructions_physical(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            assert validate_cm(random_physical_cm(rng, k), k)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            validate_cm(np.eye(2), 2)


class TestInformationMatrices:
    def test_vacuum_heterodyne(self):
        f = gaussian_fim(vacuum_model(), np.eye(2))
        assert_allclose(f, np.eye(2), atol=1e-12)

    def test_thermal_heterodyne(self):
        n = 2.0
        model = GaussianShiftModel(modes=1, djacobian=np.eye(2),
                                   cm=(2 * n + 1) * np.eye(2), mean=np.zeros(2))
        f = gaussian_fim(model, np.eye(2))
        assert_allclose(f, np.eye(2) / (n + 1), atol=1e-12)

    def test_zero_jacobian(self):
        model = vacuum_model(djacobian=np.zeros((2, 2)))
        f = gaussian_fim(model, np.eye(2))
        assert_allclose(f, np.zeros((2, 2)), atol=1e-15)

    def test_vacuum_qfim(self):
        assert_allclose(gaussian_qfim(vacuum_model()), 2 * np.eye(2), atol=1e-12)

    def test_thermal_qfim(self):
        n = 1.5
        model = GaussianShiftModel(modes=1, djacobian=np.eye(2),
                                   cm=(2 * n + 1) * np.eye(2), mean=np.zeros(2))
        assert_allclose(gaussian_qfim(model), 2 / (2 * n + 1) * np.eye(2), atol=1e-12)

    def test_single_displacement_parameter(self):
        model = vacuum_model(djacobian=np.array([[1.0], [0.0]]))
        assert_allclose(gaussian_qfim(model), [[2.0]], atol=1e-12)

    def test_fim_dominated_by_qfim(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            model = GaussianShiftModel(
                modes=k, djacobian=rng.normal(size=(2 * k, int(rng.integers(1, 5)))),
                cm=random_physical_cm(rng, k), mean=rng.normal(size=2 * k),
            )
            cm_m = random_physical_cm(rng, k)
            gap = gaussian_qfim(model) - gaussian_fim(model, cm_m)
            assert np.linalg.eigvalsh(gap).min() > -1e-9

    def test_fim_monotone_in_measurement_noise(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            k = int(rng.integers(1, 3))
            model = GaussianShiftModel(
                modes=k, djacobian=rng.normal(size=(2 * k, 2)),
                cm=random_physical_cm(rng, k), mean=np.zeros(2 * k),
            )
            cm1 = random_physical_cm(rng, k)
            g = rng.normal(size=(2 * k, 2 * k))
            cm2 = cm1 + g @ g.T  # noisier measurement
            f1 = gaussian_fim(model, cm1)
            f2 = gaussian_fim(model, cm2)
            assert np.linalg.eigvalsh(f1 - f2).min() > -1e-9


class TestHalfQfim:
    def test_vacuum(self):
        f, j, dev = half_qfim_check(vacuum_model())
        assert_allclose(f, np.eye(2), atol=1e-12)
        assert_allclose(j, 2 * np.eye(2), atol=1e-12)
        assert dev <= 1e-12

    def test_thermal(self):
        n = 3.0
        model = GaussianShiftModel(modes=1, djacobian=np.eye(2),
                                   cm=(2 * n + 1) * np.eye(2), mean=np.zeros(2))
        f, j, dev = half_qfim_check(model)
        assert_allclose(f, np.eye(2) / 7, atol=1e-12)
        assert dev <= 1e-12

    def test_random_models(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            p = int(rng.integers(1, 7))
            model = GaussianShiftModel(
                modes=k, djacobian=rng.normal(size=(2 * k, p)),
                cm=random_physical_cm(rng, k), mean=rng.normal(size=2 * k),
            )
            _, _, dev = half_qfim_check(model)
            assert dev <= 1e-10


class TestGeneraldyneDensity:
    def test_peak_value(self):
        model = vacuum_model()
        cm_m = np.eye(2)
        total = 2 * np.eye(2)
        expected = -np.log(np.pi * np.sqrt(np.linalg.det(total)))
        assert generaldyne_logdensity(np.zeros(2), model, cm_m) == pytest.approx(expected)

    def test_unit_offset(self):
        model = vacuum_model()
        cm_m = np.eye(2)
        got = generaldyne_logdensity(np.array([1.0, 0.0]), model, cm_m)
        assert got == pytest.approx(np.log(np.exp(-0.5) / (2 * np.pi)))

    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(4)
        model = GaussianShiftModel(modes=1, djacobian=np.eye(2),
                                   cm=random_physical_cm(rng, 1, noisy=False),
                                   mean=np.array([0.3, -0.2]))
        cm_m = np.eye(2)
        xs = np.linspace(-8, 8, 401)
        grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
        dens = np.empty_like(grid_x)
        for i in range(xs.size):
            for j in range(xs.size):
                dens[i, j] = np.exp(
                    generaldyne_logdensity(
                        np.array([grid_x[i, j] + 0.3, grid_y[i, j] - 0.2]), model, cm_m
                    )
                )
        total = np.trapezoid(np.trapezoid(dens, xs, axis=1), xs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_score_quadrature_matches_fim(self):
        # empirical information from the outcome density vs closed form
        rng = np.random.default_rng(5)
        model = GaussianShiftModel(modes=1, djacobian=np.array([[1.0, 0.0], [0.5, 1.0]]),
                                   cm=np.diag([1.5, 0.8]), mean=np.zeros(2))
        cm_m = np.eye(2)
        total = model.cm + cm_m
        inv_total = np.linalg.inv(total)
        xs = np.linspace(-9, 9, 361)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)  # (n, n, 2)
        dev = grid.reshape(-1, 2)
        probs = np.array([np.exp(generaldyne_logdensity(r, model, cm_m)) for r in dev])
        scores = 2.0 * dev @ inv_total @ model.djacobian  # (N, p)
        outer = scores[:, :, None] * scores[:, None, :] * probs[:, None, None]
        fim_emp = np.trapezoid(
            np.trapezoid(outer.reshape(xs.size, xs.size, 2, 2), xs, axis=1), xs, axis=0
        )
        assert_allclose(fim_emp, gaussian_fim(model, cm_m), atol=1e-4)


class TestGaussianSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        model = GaussianShiftModel(
            modes=2, djacobian=rng.normal(size=(4, 3)), cm=random_physical_cm(rng, 2),
            mean=rng.normal(size=4), dbeta=rng.normal(size=(3, 2)),
            weight=np.eye(2), label="roundtrip",
        )
        path = tmp_path / "g.json"
        write_json({"modes": model.modes, "cm": model.cm.tolist(), "djacobian": model.djacobian.tolist(),
                    "mean": model.mean.tolist(), "dbeta": model.dbeta.tolist(), "weight": model.weight.tolist(),
                    "label": model.label}, path)
        loaded = load_gaussian_model(path)
        assert np.array_equal(loaded.cm, model.cm)
        assert np.array_equal(loaded.djacobian, model.djacobian)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.dbeta, model.dbeta)
        assert loaded.label == "roundtrip"

    def test_defaults(self):
        model = gaussian_model_from_dict(
            {"modes": 1, "cm": [[1.0, 0.0], [0.0, 1.0]], "djacobian": [[1.0], [0.0]]}
        )
        assert_allclose(model.mean, np.zeros(2))
        assert model.dbeta is None
        assert_allclose(model.dbeta_or_default(), np.eye(1))
        assert_allclose(model.weight_or_default(), np.eye(1))

    def test_shape_error(self):
        with pytest.raises(ValueError, match="cm"):
            gaussian_model_from_dict({"modes": 2, "cm": [[1.0]], "djacobian": [[1.0]]})

    def test_measurement_is_its_matrix(self, tmp_path):
        """σ_m loads as the checked array that gaussian_fim takes, with no wrapper around it."""
        rng = np.random.default_rng(7)
        cm_m = random_physical_cm(rng, 2)
        path = tmp_path / "meas.json"
        write_json({"cm": cm_m.tolist()}, path)
        loaded = load_measurement(path, 2)
        assert isinstance(loaded, np.ndarray) and np.array_equal(loaded, cm_m)
        model = GaussianShiftModel(modes=2, djacobian=rng.normal(size=(4, 2)), cm=random_physical_cm(rng, 2),
                                   mean=np.zeros(4))
        assert np.array_equal(gaussian_fim(model, loaded), gaussian_fim(model, cm_m))


class TestInputContract:
    """A loader raises the typed error of the check that failed, its message led by the file."""

    @pytest.mark.parametrize("dbeta, message", [
        ([[1.0, 1.0]], "dbeta must have full column rank 2; singular values [1.414]"),
        ([[1.0], [0.0]], "dbeta has shape (2, 1), expected (1, q)"),
    ], ids=["rank-deficient", "rows-not-p"])
    def test_dbeta_alike_from_every_loader(self, dbeta, message, tmp_path):
        """p = 1 in both files: the one dbeta check raises one class with one message."""
        gpath, mpath = tmp_path / "g.json", tmp_path / "m.json"
        write_json({"modes": 1, "cm": [[1.0, 0.0], [0.0, 1.0]], "djacobian": [[1.0], [0.0]], "dbeta": dbeta}, gpath)
        q = len(dbeta[0])
        save_model(QuantumModel(dim=2, rho=np.diag([0.75, 0.25]).astype(complex),
                                drho=np.array([np.diag([0.5, -0.5]).astype(complex)]),
                                dbeta=np.array(dbeta), weight=np.eye(q)), mpath)
        for load, path in ((load_model, mpath), (load_gaussian_model, gpath)):
            with pytest.raises(RankDeficientDbeta) as info:
                load(path)
            assert str(info.value) == f"{path}: {message}"

    def test_unphysical_state_and_measurement(self, tmp_path):
        gpath, mpath = tmp_path / "g.json", tmp_path / "meas.json"
        write_json({"modes": 1, "cm": [[0.5, 0.0], [0.0, 0.5]], "djacobian": [[1.0], [0.0]]}, gpath)
        write_json({"cm": [[0.5, 0.0], [0.0, 0.5]]}, mpath)
        with pytest.raises(UnphysicalCovariance) as info:
            load_gaussian_model(gpath)
        assert str(info.value) == f"{gpath}: sigma + i*Omega has negative eigenvalues"
        with pytest.raises(UnphysicalCovariance) as info:
            load_measurement(mpath, 1)
        assert str(info.value) == f"{mpath}: sigma_m + i*Omega has negative eigenvalues"

    def test_no_cholesky_factor(self, tmp_path):
        """σ + iΩ ⪰ −CM_TOL lets the loader accept σ, whose eigenvalue −5e-11 leaves it without a
        Cholesky factor.  The information functions read no file: their message names the matrix,
        and ``qcrb gaussian`` adds the file."""
        path = tmp_path / "g.json"
        write_json({"modes": 1, "cm": [[1e12, 0.0], [0.0, -5e-11]], "djacobian": [[1.0], [0.0]]}, path)
        model = load_gaussian_model(path)
        with pytest.raises(UnphysicalCovariance, match=r"^sigma has no Cholesky factor$"):
            gaussian_qfim(model)
        with pytest.raises(UnphysicalCovariance, match=r"^sigma \+ sigma_m has no Cholesky factor$"):
            gaussian_fim(model, model.cm)
