"""State construction, validation, Pauli expectations, and state files."""

import json

import numpy as np
import pytest

from bellkit import qstate as qs
from bellkit.corrtensor import compute_tensor
from oracles import random_density, tensor_by_traces


class TestMakeGhz:
    def test_two_qubits(self):
        state = qs.make_ghz(2)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    def test_three_qubits(self):
        state = qs.make_ghz(3)
        assert state.amplitudes[0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert state.amplitudes[7] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert np.all(state.amplitudes[1:7] == 0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            qs.make_ghz(1)

    def test_cap_named_in_error(self):
        with pytest.raises(ValueError, match="10"):
            qs.make_ghz(11)


class TestMakeNoisyGhz:
    def test_pure_noise(self):
        rho = qs.make_noisy_ghz(2, 0.0)
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_no_noise(self):
        rho = qs.make_noisy_ghz(2, 1.0)
        ghz = qs.make_ghz(2)
        assert np.allclose(rho.matrix, ghz.projector().matrix, atol=1e-15)

    def test_three_qubit_spectrum(self):
        rho = qs.make_noisy_ghz(3, 0.5)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        # GHZ projector commutes with the identity: eigenvalues are
        # v + (1-v)/8 once and (1-v)/8 seven times
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs[0] == pytest.approx(0.0625, abs=1e-12)
        assert eigs[-1] == pytest.approx(0.5625, abs=1e-12)

    def test_mixture_identity(self):
        for n in (2, 3, 4):
            for v in (0.0, 0.3, 1.0):
                rho = qs.make_noisy_ghz(n, v)
                ghz = qs.make_ghz(n).projector().matrix
                ref = v * ghz + (1 - v) * np.eye(2**n) / 2**n
                assert np.max(np.abs(rho.matrix - ref)) < 1e-12

    def test_bad_visibility(self):
        with pytest.raises(ValueError):
            qs.make_noisy_ghz(2, 1.2)
        with pytest.raises(ValueError):
            qs.make_noisy_ghz(2, -0.1)


class TestMakeWerner:
    def test_pure_noise(self):
        assert np.allclose(qs.make_werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)

    def test_singlet_anticorrelations(self):
        t = compute_tensor(qs.make_werner(1.0)).values
        for j in (1, 2, 3):
            assert t[j, j] == pytest.approx(-1.0, abs=1e-12)

    def test_half_visibility_tensor(self):
        t = compute_tensor(qs.make_werner(0.5)).values
        for j in (1, 2, 3):
            assert t[j, j] == pytest.approx(-0.5, abs=1e-12)
        assert t[1, 2] == pytest.approx(0.0, abs=1e-12)

    def test_bad_visibility(self):
        with pytest.raises(ValueError):
            qs.make_werner(2.0)


class TestMakeProduct:
    """Product states as DensityMatrix(n, product_matrix(blochs))."""

    def test_single_up(self):
        rho = qs.DensityMatrix(1, qs.product_matrix([(0, 0, 1)]))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_up_down(self):
        rho = qs.DensityMatrix(2, qs.product_matrix([(0, 0, 1), (0, 0, -1)]))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_plus_plus_correlations(self):
        t = compute_tensor(qs.DensityMatrix(2, qs.product_matrix([(1, 0, 0), (1, 0, 0)]))).values
        assert t[1, 1] == pytest.approx(1.0, abs=1e-12)
        for idx in ((2, 2), (3, 3), (1, 2), (2, 1), (2, 3)):
            assert t[idx] == pytest.approx(0.0, abs=1e-12)

    def test_matches_kronecker(self):
        sigma = [
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ]
        rng = np.random.default_rng(11)
        for _ in range(20):
            blochs = rng.normal(size=(3, 3))
            blochs *= rng.uniform(0, 1, size=(3, 1)) / np.linalg.norm(
                blochs, axis=1, keepdims=True
            )
            rho = qs.DensityMatrix(3, qs.product_matrix(blochs))
            qubits = [0.5 * (np.eye(2) + sum(c * s for c, s in zip(b, sigma))) for b in blochs]
            ref = np.kron(np.kron(qubits[0], qubits[1]), qubits[2])
            assert np.max(np.abs(rho.matrix - ref)) < 1e-12


class TestPauliExpectation:
    """Pauli expectations Tr(rho sigma_J) as compute_tensor(rho).values[J]."""

    def test_white_noise_proper_strings_vanish(self):
        t = compute_tensor(qs.DensityMatrix(2, np.eye(4) / 4)).values
        for idx in ((1, 1), (2, 3), (3, 3), (1, 0), (0, 2)):
            assert t[idx] == pytest.approx(0.0, abs=1e-12)

    def test_ghz3_xxx(self):
        # <xxx> on (|000> + |111>)/sqrt(2): both basis terms map onto each
        # other with coefficient +1, so the expectation is exactly 1
        t = compute_tensor(qs.make_ghz(3).projector()).values
        assert t[1, 1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_identity_string_is_trace(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            t = compute_tensor(random_density(n, rng)).values
            assert t[(0,) * n] == pytest.approx(1.0, abs=1e-12)

    def test_bounded_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            t = compute_tensor(random_density(n, rng)).values
            idx = tuple(rng.integers(0, 4, size=n))
            assert -1 - 1e-10 <= t[idx] <= 1 + 1e-10


class TestInvariants:
    def test_density_matrix_rejects_non_hermitian(self):
        mat = np.eye(4) / 4
        mat = mat.astype(complex)
        mat[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            qs.DensityMatrix(2, mat)

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            qs.DensityMatrix(2, np.eye(4) / 2)

    def test_density_matrix_rejects_negative(self):
        mat = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            qs.DensityMatrix(2, mat)

    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            qs.StateVector(1, np.array([1.0, 1.0]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            qs.StateVector(1, [np.nan, 0.0])
        with pytest.raises(ValueError, match="Hermitian"):
            qs.DensityMatrix(1, [[np.nan, 0.0], [0.0, 0.0]])

    def test_state_vector_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            qs.StateVector(2, np.array([1.0, 0.0]))


def haar_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPositivity:
    """DensityMatrix validation certifies positivity with a Cholesky factor
    of rho + 1e-10 I; the eigenvalue criterion it stands for is
    eigvalsh(rho)[0] >= -1e-10."""

    @pytest.mark.parametrize("lam_min", [-1e-9, -2e-10, -5e-11, 0.0])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_verdict_matches_eigenvalue_criterion(self, n, lam_min):
        rng = np.random.default_rng(1000 * n + 7)
        dim = 2**n
        rest = rng.random(dim - 1) + 0.1
        lam = np.concatenate([[lam_min], rest * (1.0 - lam_min) / rest.sum()])
        u = haar_unitary(dim, rng)
        mat = (u * lam) @ u.conj().T
        mat = (mat + mat.conj().T) / 2
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig >= -1e-10:
            qs.DensityMatrix(n, mat)
        else:
            message = f"matrix not positive: min eigenvalue = {min_eig:g}"
            with pytest.raises(ValueError) as info:
                qs.DensityMatrix(n, mat)
            assert str(info.value) == message
        assert (min_eig >= -1e-10) == (lam_min > -1e-10)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pure_projectors_certified_without_eigenvalues(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        # a normalized complex Gaussian vector is Haar-random
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = qs.StateVector(n, amps / np.linalg.norm(amps))

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a valid state")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        rho = state.projector()
        assert rho.n_qubits == n

    def test_input_left_unchanged(self):
        mat = np.eye(4, dtype=complex) / 4
        before = mat.copy()
        qs.DensityMatrix(2, mat)
        assert mat.tobytes() == before.tobytes()


def reference_measurement_basis(direction):
    """The eigenbasis of n . sigma as one scalar computation per direction."""
    nx, ny, nz = direction
    assert abs(np.sqrt(nx * nx + ny * ny + nz * nz) - 1.0) <= 1e-12
    theta = np.arccos(np.clip(nz, -1.0, 1.0))
    phi = np.arctan2(ny, nx)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ph = np.exp(1j * phi)
    return np.array([[c, -s], [s * ph, c * ph]])


class TestMeasurementBasis:
    def directions(self):
        rng = np.random.default_rng(21)
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        angles = np.linspace(0.0, 2 * np.pi, 33)
        circles = [
            np.stack([np.cos(angles), np.sin(angles), 0 * angles], axis=1),
            np.stack([np.cos(angles), 0 * angles, np.sin(angles)], axis=1),
        ]
        return np.vstack([dirs, *circles, np.eye(3), -np.eye(3)])

    def test_bit_equal_to_scalar_formula(self):
        dirs = self.directions()
        expected = np.array([reference_measurement_basis(d) for d in dirs])
        for k in (1, 2, 3, 10):
            batched = np.concatenate(
                [qs._measurement_bases(dirs[i : i + k]) for i in range(0, len(dirs), k)]
            )
            assert batched.tobytes() == expected.tobytes()

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit 3-vector"):
            qs.measurement_distribution(qs.make_ghz(2), [[1, 0, 0], [0.5, 0, 0]])


class TestUnitDirections:
    """One fail-closed check: every direction must be a finite unit 3-vector."""

    @pytest.mark.parametrize(
        "bad, norm",
        [([np.nan, 0, 0], "nan"), ([np.inf, 0, 0], "inf"), ([1e300, 1e300, 0], "inf"),
         ([0, 0, 1 + 1e-9], "1.000000001")],
    )
    def test_check_unit_vector(self, bad, norm):
        with pytest.raises(ValueError, match=f"unit 3-vector, got norm {norm}"):
            qs._check_unit_rows(np.asarray(bad, float)[None])

    def test_names_first_bad_row(self):
        dirs = np.array([[1.0, 0, 0], [0, 0.5, 0], [np.nan, 0, 0]])
        with pytest.raises(ValueError, match="unit 3-vector, got norm 0.5$"):
            qs.measurement_distribution(qs.make_ghz(3), dirs)
        dirs[1] = [0, 1, 0]
        with pytest.raises(ValueError, match="unit 3-vector, got norm nan$"):
            qs.measurement_distribution(qs.make_ghz(3), dirs)

    def test_one_check_per_distribution(self, monkeypatch):
        calls = []
        check = qs._check_unit_rows
        monkeypatch.setattr(qs, "_check_unit_rows", lambda d: calls.append(d.shape) or check(d))
        qs.measurement_distribution(qs.make_ghz(4), np.tile([0.0, 0.0, 1.0], (4, 1)))
        assert calls == [(4, 3)]


class TestMeasurementDistribution:
    def test_phi_plus_xx_perfectly_correlated(self):
        probs = qs.measurement_distribution(qs.make_ghz(2), [[1, 0, 0], [1, 0, 0]])
        assert probs[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert probs[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert probs[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_vector_and_matrix_paths_agree(self):
        rng = np.random.default_rng(9)
        state = qs.make_ghz(3)
        for _ in range(10):
            dirs = rng.normal(size=(3, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            p_vec = qs.measurement_distribution(state, dirs)
            p_mat = qs.measurement_distribution(state.projector(), dirs)
            assert np.max(np.abs(p_vec - p_mat)) < 1e-12

    def test_matches_correlation(self):
        # contraction of outcome signs against the joint distribution must
        # reproduce the Pauli expectation of the measured product observable
        rng = np.random.default_rng(13)
        rho = random_density(2, rng)
        expected = tensor_by_traces(rho)
        signs = np.array([1.0, -1.0])
        for idx in ((1, 1), (2, 3), (3, 2)):
            dirs = np.eye(3)[[idx[0] - 1, idx[1] - 1]]
            probs = qs.measurement_distribution(rho, dirs)
            corr = float(np.einsum("ab,a,b->", probs, signs, signs))
            assert corr == pytest.approx(expected[idx], abs=1e-10)


    @staticmethod
    def unvalidated(diag):
        rho = object.__new__(qs.DensityMatrix)
        object.__setattr__(rho, "n_qubits", 1)
        object.__setattr__(rho, "matrix", np.diag(diag).astype(complex))
        return rho

    def test_negative_probability_raises(self):
        # a non-positive matrix that skipped validation
        rho = self.unvalidated([1.5, -0.5])
        with pytest.raises(qs.NumericalIntegrityError, match="negative Born probability"):
            qs.measurement_distribution(rho, [(0, 0, 1)])

    def test_rounding_residue_clipped(self):
        rho = self.unvalidated([1.0 + 1e-12, -1e-12])
        probs = qs.measurement_distribution(rho, [(0, 0, 1)])
        assert probs.tolist() == [1.0, 0.0]


class TestStateJson:
    def test_pure_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        qs.save_state(path, qs.make_ghz(3))
        loaded = qs.load_state(path)
        assert isinstance(loaded, qs.StateVector)
        assert np.allclose(loaded.amplitudes, qs.make_ghz(3).amplitudes, atol=1e-15)

    def test_mixed_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        qs.save_state(path, qs.make_werner(0.4))
        loaded = qs.load_state(path)
        assert isinstance(loaded, qs.DensityMatrix)
        assert np.allclose(loaded.matrix, qs.make_werner(0.4).matrix, atol=1e-15)

    def test_exact_field_names(self):
        doc = qs.state_to_json(qs.make_ghz(2))
        assert set(doc) == {"n_qubits", "kind", "data"}
        assert doc["kind"] == "pure"
        assert doc["n_qubits"] == 2
        assert doc["data"][0] == [pytest.approx(1 / np.sqrt(2)), 0.0]

    def test_bad_documents_name_the_field(self):
        good = qs.state_to_json(qs.make_ghz(2))
        for field, value in (
            ("n_qubits", "two"),
            ("kind", "purely"),
            ("data", 3),
        ):
            doc = dict(good)
            doc[field] = value
            with pytest.raises(ValueError, match=field):
                qs.state_from_json(doc)
        doc = dict(good)
        doc["data"] = good["data"][:-1]
        with pytest.raises(ValueError, match="data"):
            qs.state_from_json(doc)
        doc = dict(good)
        doc["data"] = good["data"][:-1] + [[0.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match=r"data\[3\]"):
            qs.state_from_json(doc)

    @pytest.mark.parametrize("n", [-1, 0, 11, 10**9])
    def test_n_qubits_out_of_range(self, n):
        doc = qs.state_to_json(qs.make_ghz(2))
        doc["n_qubits"] = n
        with pytest.raises(ValueError, match=r"'n_qubits' must be in \[1, 10\]"):
            qs.state_from_json(doc)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="kind"):
            qs.state_from_json({"n_qubits": 1, "data": [[1.0, 0.0], [0.0, 0.0]]})

    @pytest.mark.parametrize(
        "text",
        [
            '{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, NaN]]}',
            '{"n_qubits": 1, "kind": "mixed", "data": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}',
            '{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [Infinity, 0]]}',
            '{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 1e400]]}',
            '{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [1%s, 0]]}' % ("0" * 400),
        ],
        ids=["nan-pure", "nan-mixed", "inf", "1e400", "400-digit-int"],
    )
    def test_non_finite_entries_name_the_index(self, text):
        with pytest.raises(ValueError, match=r"'data\[[01]\]' must be a finite"):
            qs.state_from_json(json.loads(text))
