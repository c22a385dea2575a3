"""State construction, validation, Pauli expectations, and state files."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

from bellkit import qstate as qs
from bellkit.commcomplex import make_mod4_task, mod4_settings
from bellkit.corrtensor import compute_tensor
from born_reference import reference_born_table
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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bitwise_equal_to_kron_chain(self, n):
        # the broadcast outer product forms np.kron's single products
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            blochs = rng.normal(size=(n, 3))
            blochs /= np.linalg.norm(blochs, axis=1, keepdims=True)
            ref = np.array([[1.0 + 0j]])
            for b in blochs:
                p = qs.PAULI
                ref = np.kron(ref, 0.5 * (p[0] + b[0] * p[1] + b[1] * p[2] + b[2] * p[3]))
            mat = qs.product_matrix(blochs)
            assert mat.shape == ref.shape
            assert mat.tobytes() == ref.tobytes()


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

        def no_factor(*args, **kwargs):
            raise AssertionError("a state valid by construction was factored")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_factor)
        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        rho = state.projector()
        assert rho.n_qubits == n
        if n == 10:
            assert qs.make_noisy_ghz(10, 0.5).n_qubits == 10

    def test_input_left_unchanged(self):
        mat = np.eye(4, dtype=complex) / 4
        before = mat.copy()
        qs.DensityMatrix(2, mat)
        assert mat.tobytes() == before.tobytes()

    @staticmethod
    def near_matrix(lam_min, n=3):
        """A Hermitian unit-trace matrix whose smallest eigenvalue is about
        lam_min."""
        rng = np.random.default_rng(4242)
        dim = 2**n
        rest = rng.random(dim - 1) + 0.1
        lam = np.concatenate([[lam_min], rest * (1.0 - lam_min) / rest.sum()])
        u = haar_unitary(dim, rng)
        mat = (u * lam) @ u.conj().T
        return (mat + mat.conj().T) / 2

    @pytest.mark.parametrize("lam_min", [0.01, -2e-10])
    @pytest.mark.parametrize("writeable", [True, False])
    def test_caller_matrix_never_written(self, lam_min, writeable, monkeypatch):
        """DensityMatrix shifts a copy of a caller's matrix, never the matrix
        itself, and keeps a read-only array of its own."""
        mat = self.near_matrix(lam_min)
        mat.setflags(write=writeable)
        before = mat.tobytes()
        cholesky = np.linalg.cholesky

        def checked_cholesky(a):
            assert mat.tobytes() == before and not np.shares_memory(a, mat)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", checked_cholesky)
        if lam_min < 0:
            with pytest.raises(ValueError, match="matrix not positive"):
                qs.DensityMatrix(3, mat)
        else:
            rho = qs.DensityMatrix(3, mat)
            assert not rho.matrix.flags.writeable
            assert not np.shares_memory(rho.matrix, mat)
            assert rho.matrix.tobytes() == before
        assert mat.tobytes() == before and mat.flags.writeable == writeable

    @staticmethod
    def load_matrix(path, mat):
        pairs = np.stack([mat.real, mat.imag], axis=-1).reshape(-1, 2).tolist()
        path.write_text(json.dumps({"n_qubits": 3, "kind": "mixed", "data": pairs}))
        return qs.load_state(path)

    def test_loaded_matrix_rejected_as_its_copy_is(self, tmp_path):
        """A loaded matrix is shifted in place for its Cholesky test; its
        diagonal is restored before eigvalsh, so the smallest eigenvalue in
        the message is the one a copy of the matrix gives."""
        mat = self.near_matrix(-2e-10)
        with pytest.raises(ValueError) as expected:
            qs.DensityMatrix(3, mat.copy())
        assert str(expected.value).startswith("matrix not positive: min eigenvalue = ")
        with pytest.raises(ValueError) as loaded:
            self.load_matrix(tmp_path / "mixed.json", mat)
        assert str(loaded.value) == str(expected.value)

    def test_loaded_matrix_restored_when_cholesky_fails(self, tmp_path, monkeypatch):
        """When the factorization fails, eigvalsh decides, and an accepted
        matrix is kept bit for bit as the file gave it.  Populations far
        below the 1e-10 shift do not come back from subtracting it."""

        def failing(a):
            raise np.linalg.LinAlgError("not positive definite")

        tiny = np.arange(1, 8) * 1.1e-12
        mat = np.diag(np.concatenate([[1.0 - tiny.sum()], tiny])).astype(complex)
        assert np.any((tiny + 1e-10) - 1e-10 != tiny)
        monkeypatch.setattr(np.linalg, "cholesky", failing)
        rho = self.load_matrix(tmp_path / "mixed.json", mat)
        assert rho.matrix.tobytes() == mat.tobytes()


def _outcome(build):
    """The matrix bytes of the DensityMatrix that build() returns, or the
    message of the ValueError it raises."""
    try:
        return build().matrix.tobytes()
    except ValueError as exc:
        return str(exc)


# Sigma |a|^2 = 0.999999999999: StateVector accepts it, its projector's
# trace misses 1 by more than 1e-12.
OFF_TRACE_AMPLITUDES = [
    (-0.2677445961427941 - 0.9598299797380929j),
    (0.07217185182866134 - 0.0427839343086392j),
]


@hs.composite
def near_unit_vectors(draw):
    """A Haar-random amplitude vector on 1..5 qubits whose squared norm is
    1 + delta, |delta| <= 1e-12, or within 1e-15 of the StateVector
    tolerance, where the norm and the projector's trace, rounded
    differently, can fall on either side of it."""
    n = draw(hs.integers(1, 5))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    edge = draw(hs.sampled_from([0.0, -1e-12, 1e-12]))
    delta = edge + draw(hs.floats(-1e-15, 1e-15) if edge else hs.floats(-1e-12, 1e-12))
    return amps / np.linalg.norm(amps) * np.sqrt(1.0 + delta)


class TestTrustedPaths:
    """make_noisy_ghz and StateVector.projector build their DensityMatrix
    without the full validation: only the trace is checked.  Their results
    must be exactly what the full validation accepts."""

    @given(hs.integers(2, 8), hs.floats(0.0, 1.0))
    @example(2, -0.0)
    @example(5, 0.0)
    @example(8, 1.0)
    @example(10, 0.5)
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    def test_noisy_ghz_passes_full_validation(self, n, v):
        rho = qs.make_noisy_ghz(n, v)
        dim = 2**n
        ghz = np.zeros(dim, dtype=complex)
        ghz[0] = ghz[-1] = 1.0 / np.sqrt(2.0)
        expected = v * np.outer(ghz, ghz.conj()) + (1.0 - v) / dim * np.eye(dim)
        assert rho.matrix.tobytes() == expected.tobytes()
        assert type(rho.n_qubits) is int and not rho.matrix.flags.writeable
        assert qs.DensityMatrix(n, rho.matrix).matrix.tobytes() == expected.tobytes()

    @given(near_unit_vectors())
    @example(np.array(OFF_TRACE_AMPLITUDES))
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    def test_projector_raises_exactly_when_full_validation_does(self, amps):
        try:
            state = qs.StateVector(amps.size.bit_length() - 1, amps)
        except ValueError:
            assume(False)
        a = state.amplitudes
        full = _outcome(lambda: qs.DensityMatrix(state.n_qubits, np.outer(a, a.conj())))
        assert _outcome(state.projector) == full

    def test_off_trace_projector_raises(self):
        state = qs.StateVector(1, OFF_TRACE_AMPLITUDES)
        with pytest.raises(ValueError) as info:
            state.projector()
        assert str(info.value) == (
            "trace must be 1, got (0.9999999999989999-1.5811045672737672e-17j)"
        )


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
        check, bases = qs._check_unit_rows, qs._measurement_bases
        monkeypatch.setattr(qs, "_check_unit_rows", lambda d: calls.append(d.shape) or check(d))
        monkeypatch.setattr(
            qs, "_measurement_bases", lambda d: calls.append(("bases", d.shape)) or bases(d)
        )
        qs.measurement_distribution(qs.make_ghz(4), np.tile([0.0, 0.0, 1.0], (4, 1)))
        assert calls == [(4, 3), ("bases", (4, 3))]
        calls.clear()
        qs.measurement_distribution(qs.make_ghz(4), np.tile([0.0, 0.0, 1.0], (2, 3, 4, 1)))
        assert calls == [(2, 3, 4, 3), ("bases", (24, 3))]


class TestMeasurementDistribution:
    def test_phi_plus_xx_perfectly_correlated(self):
        probs = qs.measurement_distribution(qs.make_ghz(2), [[1, 0, 0], [1, 0, 0]])
        assert probs[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert probs[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert probs[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_a_non_state(self):
        message = "^expected StateVector or DensityMatrix, got <class 'str'>$"
        with pytest.raises(TypeError, match=message):
            qs.measurement_distribution("x", [(0, 0, 1)])

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


class TestStackedSettings:
    """A stack of settings, shape (..., N, 3), gives one table per setting."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tables_equal_per_setting_calls(self, n):
        rng = np.random.default_rng(40 + n)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        pure = qs.StateVector(n, amps / np.linalg.norm(amps))
        for state in (pure, random_density(n, rng)):
            for stack in ((5,), (2, 2)):
                dirs = rng.normal(size=stack + (n, 3))
                dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
                tables = qs.measurement_distribution(state, dirs)
                assert tables.shape == stack + (2,) * n
                for idx in np.ndindex(stack):
                    single = qs.measurement_distribution(state, dirs[idx])
                    assert tables[idx].tobytes() == single.tobytes()

    @pytest.mark.parametrize("shape", [(), (3,), (3, 2), (4, 3), (2, 3, 4), (5, 2, 3)])
    def test_shape_message(self, shape):
        message = f"^need 3 directions of 3 components, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            qs.measurement_distribution(qs.make_ghz(3), np.zeros(shape))


class TestBornReference:
    """Tables are bitwise equal to the two-branch chain in born_reference.

    The mixed chain keeps each qubit's diagonal as soon as both its sides
    are contracted, so its tensordots run on smaller operands than the
    reference's; equal bits rest on BLAS giving the same 2-term sums."""

    @staticmethod
    def directions(n, rng):
        """Random, in-plane and axis-aligned settings, and a (2, 2) stack."""
        rand = rng.normal(size=(n, 3))
        angles = rng.uniform(-np.pi, np.pi, size=n)
        axes = np.eye(3)[rng.integers(0, 3, size=n)] * rng.choice([-1.0, 1.0], size=(n, 1))
        stack = rng.normal(size=(2, 2, n, 3))
        return [
            rand / np.linalg.norm(rand, axis=-1, keepdims=True),
            np.stack([np.cos(angles), np.sin(angles), np.zeros(n)], -1),
            axes,
            stack / np.linalg.norm(stack, axis=-1, keepdims=True),
        ]

    @staticmethod
    def assert_matches_reference(state, dirs):
        tables = qs.measurement_distribution(state, dirs)
        bases = qs._measurement_bases(dirs.reshape(-1, 3)).reshape(-1, state.n_qubits, 2, 2)
        per_setting = tables.reshape((-1,) + (2,) * state.n_qubits)
        for table, basis in zip(per_setting, bases):
            assert table.tobytes() == reference_born_table(state, basis).tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bitwise_equal_to_two_branch_chain(self, n):
        rng = np.random.default_rng(70 + n)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        pure = qs.StateVector(n, amps / np.linalg.norm(amps))
        states = [pure, pure.projector(), random_density(n, rng)]
        if n >= 2:
            states += [qs.make_noisy_ghz(n, v) for v in (0.0, 0.6, 1.0)]
        for state in states:
            for dirs in self.directions(n, rng):
                self.assert_matches_reference(state, dirs)

    def test_noisy_ghz_at_ten_qubits(self):
        rng = np.random.default_rng(80)
        self.assert_matches_reference(qs.make_noisy_ghz(10, 0.6), self.directions(10, rng)[0])


class TestPrefixWalk:
    """A stack's settings share the steps of their common basis prefix, yet
    each table stays bitwise equal to the chain run for its setting alone."""

    @staticmethod
    def mod4_stack(n):
        """The settings of the mod-4 protocol at every support point, in
        support order."""
        support = np.flatnonzero(make_mod4_task(n).support)
        bits = (support[:, None] >> np.arange(n - 1, -1, -1)) & 1
        return mod4_settings(n)[np.arange(n), bits]

    @staticmethod
    def states(n, rng):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        return [
            qs.make_ghz(n),
            qs.make_noisy_ghz(n, 0.6),
            qs.StateVector(n, amps / np.linalg.norm(amps)),
            random_density(n, rng),
        ]

    @staticmethod
    def random_dirs(shape, rng):
        dirs = rng.normal(size=shape + (3,))
        return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_mod4_support_stacks(self, n):
        rng = np.random.default_rng(90 + n)
        dirs = self.mod4_stack(n)
        for state in self.states(n, rng):
            TestBornReference.assert_matches_reference(state, dirs)

    def test_duplicate_settings(self):
        rng = np.random.default_rng(95)
        base = self.random_dirs((3, 4), rng)
        dirs = base[[0, 1, 0, 2, 1, 0]]
        for state in self.states(4, rng):
            TestBornReference.assert_matches_reference(state, dirs)

    def test_interleaved_prefixes(self):
        # stack order jumps between prefixes, so it is not the walk's order
        rng = np.random.default_rng(96)
        dirs = self.mod4_stack(5)[np.arange(16).reshape(2, 8).T.ravel()]
        assert not np.array_equal(dirs[0, 0], dirs[1, 0])
        assert np.array_equal(dirs[0, 0], dirs[2, 0])
        for state in self.states(5, rng):
            TestBornReference.assert_matches_reference(state, dirs)

    def test_no_shared_prefix(self):
        rng = np.random.default_rng(97)
        dirs = self.random_dirs((6, 4), rng)
        for state in self.states(4, rng):
            TestBornReference.assert_matches_reference(state, dirs)

    @pytest.mark.parametrize("state", [qs.make_ghz(3), qs.make_noisy_ghz(3, 0.5)])
    def test_empty_stack(self, state):
        tables = qs.measurement_distribution(state, np.zeros((0, 3, 3)))
        assert tables.shape == (0, 2, 2, 2)
        assert tables.dtype == float

    def test_first_negative_table_in_stack_order_raises(self):
        # diag(1.5, -0.2, 0.1, -0.4), unvalidated: zx has the negative entry
        # -0.15 and xz -0.3.  The walk reaches xz (shares x with row 0) first.
        rho = object.__new__(qs.DensityMatrix)
        object.__setattr__(rho, "n_qubits", 2)
        object.__setattr__(rho, "matrix", np.diag([1.5, -0.2, 0.1, -0.4]).astype(complex))
        x, z = (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)
        stack = np.array([[x, x], [z, x], [x, z]])
        with pytest.raises(qs.NumericalIntegrityError) as single:
            qs.measurement_distribution(rho, stack[1])
        with pytest.raises(qs.NumericalIntegrityError) as stacked:
            qs.measurement_distribution(rho, stack)
        assert str(stacked.value) == str(single.value) == "negative Born probability -0.15"

    def test_tensordot_count_on_the_ghz_mod4_stack(self, monkeypatch):
        # 2 + 4 + ... + 512 prefixes on qubits 1..9, and 512 on qubit 10
        # (its basis follows from the parity); a chain per setting runs 5120
        calls = []
        tensordot = np.tensordot

        def counting(*args, **kwargs):
            calls.append(None)
            return tensordot(*args, **kwargs)

        monkeypatch.setattr(np, "tensordot", counting)
        tables = qs.measurement_distribution(qs.make_ghz(10), self.mod4_stack(10))
        assert tables.shape == (512,) + (2,) * 10
        assert len(calls) == 1534


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
