"""Correlation tensor extraction, contraction, and maximization."""

import io

import numpy as np
import pytest

from ascent_reference import reference_ascend, reference_random_starts
from bellkit import corrtensor as ct
from bellkit import qstate as qs
from contraction_reference import reference_correlation_function, reference_tensor_to_density
from oracles import random_density, random_rotation, tensor_by_traces


def white_noise(n):
    return qs.DensityMatrix(n, np.eye(2**n) / 2**n)


class TestComputeTensor:
    def test_white_noise(self):
        t = ct.compute_tensor(white_noise(3))
        assert t.values[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        vals = t.values.copy()
        vals[0, 0, 0] = 0.0
        assert np.max(np.abs(vals)) < 1e-12

    def test_werner_proper_block(self):
        for v in (0.3, 0.7):
            t = ct.compute_tensor(qs.make_werner(v))
            assert np.allclose(np.diag(t.proper.reshape(3, 3)), [-v, -v, -v], atol=1e-12)
            off = t.proper - np.diag(np.diag(t.proper))
            assert np.max(np.abs(off)) < 1e-12
            # single-party components vanish
            assert np.max(np.abs(t.values[0, 1:])) < 1e-12
            assert np.max(np.abs(t.values[1:, 0])) < 1e-12

    def test_noisy_ghz_inplane_sum(self):
        for n in (2, 3, 4, 5, 6):
            for v in (0.25, 0.8):
                t = ct.compute_tensor(qs.make_noisy_ghz(n, v))
                inplane = t.values[(slice(1, 3),) * n]
                assert np.sum(inplane**2) == pytest.approx(
                    v**2 * 2 ** (n - 1), abs=1e-10
                )

    def test_matches_operator_traces(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            rho = random_density(int(rng.integers(2, 4)), rng)
            t = ct.compute_tensor(rho)
            assert np.max(np.abs(t.values - tensor_by_traces(rho))) < 1e-12

    def test_matches_pauli_expectation_componentwise(self):
        rng = np.random.default_rng(22)
        rho = random_density(3, rng)
        t = ct.compute_tensor(rho)
        expected = tensor_by_traces(rho)
        for idx in [(0, 0, 0), (1, 2, 3), (2, 2, 2), (3, 0, 1), (2, 1, 0)]:
            assert t.values[idx] == pytest.approx(expected[idx], abs=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            rho = random_density(int(rng.integers(2, 4)), rng)
            back = reference_tensor_to_density(ct.compute_tensor(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10

    def test_imaginary_residue_raises(self):
        # a non-Hermitian matrix that skipped validation: T_x = 0.5j
        rho = object.__new__(qs.DensityMatrix)
        object.__setattr__(rho, "n_qubits", 1)
        object.__setattr__(rho, "matrix", np.array([[0.5, 0.5j], [0.0, 0.5]]))
        with pytest.raises(qs.NumericalIntegrityError, match="imaginary"):
            ct.compute_tensor(rho)

    def test_component_range_enforced(self):
        with pytest.raises(ValueError, match="out of"):
            vals = np.zeros((4, 4))
            vals[0, 0] = 1.0
            vals[1, 1] = 1.5
            ct.CorrelationTensor(2, vals)


class TestCorrelationFunction:
    """The proper components contracted with one unit direction per party."""

    def test_singlet_same_axis(self):
        t = ct.compute_tensor(qs.make_werner(1.0))
        z = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert reference_correlation_function(t, z) == pytest.approx(-1.0, abs=1e-12)

    def test_ghz3_all_x(self):
        t = ct.compute_tensor(qs.make_ghz(3).projector())
        assert reference_correlation_function(t, np.eye(3)[[0, 0, 0]]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rotated_axes_match_direct_expectation(self):
        # frame-axis contraction vs the expectation of rotated observables
        rng = np.random.default_rng(32)
        rho = random_density(2, rng)
        t = ct.compute_tensor(rho)
        for _ in range(10):
            dirs = rng.normal(size=(2, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            op = np.kron(
                sum(dirs[0][i] * qs.PAULI[i + 1] for i in range(3)),
                sum(dirs[1][i] * qs.PAULI[i + 1] for i in range(3)),
            )
            direct = np.trace(rho.matrix @ op).real
            assert reference_correlation_function(t, dirs) == pytest.approx(direct, abs=1e-10)

    def test_tensor_rejects_nan(self):
        with pytest.raises(ValueError, match="out of"):
            ct.CorrelationTensor(1, [np.nan] * 4)


class TestTensorDot:
    def test_singlet_norm(self):
        t = ct.compute_tensor(qs.make_werner(1.0))
        assert ct.tensor_dot(t, t) == pytest.approx(3.0, abs=1e-12)

    def test_white_noise_orthogonal_to_everything(self):
        wn = ct.compute_tensor(white_noise(2))
        t = ct.compute_tensor(qs.make_werner(0.9))
        assert ct.tensor_dot(wn, t) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_ghz_full_sum_at_least_inplane(self):
        for v in (0.2, 0.9):
            t = ct.compute_tensor(qs.make_noisy_ghz(3, v))
            assert ct.tensor_dot(t, t) >= 4 * v**2 - 1e-12

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(41)
        rhos = [random_density(2, rng) for _ in range(3)]
        ts = [ct.compute_tensor(r) for r in rhos]
        assert ct.tensor_dot(ts[0], ts[1]) == pytest.approx(
            ct.tensor_dot(ts[1], ts[0]), abs=1e-12
        )
        # bilinearity through convex mixtures of states
        for lam in (0.25, 0.6):
            mix = qs.DensityMatrix(
                2, lam * rhos[0].matrix + (1 - lam) * rhos[1].matrix
            )
            mixed = ct.compute_tensor(mix)
            expected = lam * ct.tensor_dot(ts[0], ts[2]) + (1 - lam) * ct.tensor_dot(
                ts[1], ts[2]
            )
            assert ct.tensor_dot(mixed, ts[2]) == pytest.approx(expected, abs=1e-10)

    def test_party_mismatch(self):
        a = ct.compute_tensor(qs.make_werner(0.5))
        b = ct.compute_tensor(white_noise(3))
        with pytest.raises(ValueError, match="mismatch"):
            ct.tensor_dot(a, b)


class TestInplaneNormSq:
    def test_noisy_ghz_law(self):
        for n in range(2, 7):
            frame = ct.xy_frame(n)
            for v in (0.1, 0.5, 0.9):
                t = ct.compute_tensor(qs.make_noisy_ghz(n, v))
                assert ct.inplane_norm_sq(t, frame) == pytest.approx(
                    v**2 * 2 ** (n - 1), abs=1e-9
                )

    def test_aligned_product_state_vanishes(self):
        t = ct.compute_tensor(qs.DensityMatrix(3, qs.product_matrix([(0, 0, 1)] * 3)))
        assert ct.inplane_norm_sq(t, ct.xy_frame(3)) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_xy(self):
        t = ct.compute_tensor(qs.make_werner(1.0))
        assert ct.inplane_norm_sq(t, ct.xy_frame(2)) == pytest.approx(2.0, abs=1e-12)

    def test_three_axis_frame_rejected(self):
        t = ct.compute_tensor(qs.make_werner(1.0))
        full = ct.LocalFrame(np.broadcast_to(np.eye(3), (2, 3, 3)).copy())
        with pytest.raises(ValueError, match="2 axes"):
            ct.inplane_norm_sq(t, full)

    def test_frame_invariance_under_inplane_rotation(self):
        # the in-plane sum of squares is invariant under rotations of the
        # two axes inside their plane
        t = ct.compute_tensor(qs.make_noisy_ghz(3, 0.7))
        base = ct.inplane_norm_sq(t, ct.xy_frame(3))
        rng = np.random.default_rng(51)
        for _ in range(5):
            axes = np.zeros((3, 2, 3))
            for k in range(3):
                a = rng.uniform(0, 2 * np.pi)
                axes[k, 0] = [np.cos(a), np.sin(a), 0.0]
                axes[k, 1] = [-np.sin(a), np.cos(a), 0.0]
            rotated = ct.inplane_norm_sq(t, ct.LocalFrame(axes))
            assert rotated == pytest.approx(base, abs=1e-10)


class TestLocalFrame:
    def test_rejects_non_orthonormal(self):
        axes = np.zeros((1, 2, 3))
        axes[0, 0] = [1.0, 0.0, 0.0]
        axes[0, 1] = [1.0, 1e-6, 0.0]
        with pytest.raises(ValueError, match="orthonormal"):
            ct.LocalFrame(axes)

    def test_rejects_zero_parties(self):
        with pytest.raises(ValueError, match=r"^n_parties must be in \[1, 10\], got 0$"):
            ct.LocalFrame(np.zeros((0, 2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        axes = np.array(ct.xy_frame(2).axes)
        axes[1, 1, 2] = bad
        with pytest.raises(ValueError, match="unit 3-vector"):
            ct.LocalFrame(axes)


class TestMaxProductValue:
    def test_noisy_ghz_both_modes(self):
        for n in (2, 3, 4):
            for v in (0.3, 0.8):
                t = ct.compute_tensor(qs.make_noisy_ghz(n, v))
                full = ct.max_product_value(t)
                planes = ct.max_product_value(t, frame=ct.xy_frame(n))
                assert full.value == pytest.approx(v, abs=1e-9)
                assert planes.value == pytest.approx(v, abs=1e-9)
                assert full.converged and planes.converged

    def test_werner_full(self):
        for v in (0.2, 0.6, 1.0):
            t = ct.compute_tensor(qs.make_werner(v))
            assert ct.max_product_value(t).value == pytest.approx(v, abs=1e-10)

    def test_white_noise(self):
        t = ct.compute_tensor(white_noise(3))
        assert ct.max_product_value(t).value == pytest.approx(0.0, abs=1e-12)

    def test_value_attained_by_reported_directions(self):
        rng = np.random.default_rng(61)
        t = ct.compute_tensor(random_density(3, rng))
        res = ct.max_product_value(t)
        assert reference_correlation_function(t, res.directions) == pytest.approx(
            res.value, abs=1e-10
        )

    def test_ordering_full_planes_component(self):
        rng = np.random.default_rng(62)
        frame = ct.xy_frame(2)
        for _ in range(10):
            t = ct.compute_tensor(random_density(2, rng))
            full = ct.max_product_value(t).value
            planes = ct.max_product_value(t, frame=frame).value
            inplane_top = float(np.max(np.abs(t.values[1:3, 1:3])))
            assert full >= planes - 1e-10
            assert planes >= inplane_top - 1e-10
            assert full >= float(np.max(np.abs(t.proper))) - 1e-10

    def test_two_qubit_svd_oracle(self):
        rng = np.random.default_rng(63)
        for _ in range(60):
            t = ct.compute_tensor(random_density(2, rng))
            top_singular = float(np.linalg.svd(t.proper, compute_uv=False)[0])
            assert ct.max_product_value(t).value == pytest.approx(
                top_singular, abs=1e-9
            )

    def test_seed_determinism(self):
        rng = np.random.default_rng(64)
        t = ct.compute_tensor(random_density(3, rng))
        a = ct.max_product_value(t, seed=5)
        b = ct.max_product_value(t, seed=5)
        assert a.value == b.value
        assert np.array_equal(a.directions, b.directions)


def rotated_frame(n, rng):
    """A two-axis frame with a random rotation per party."""
    return ct.LocalFrame(np.stack([random_rotation(rng)[:2] for _ in range(n)]))


class TestAscentMatchesReference:
    """The prefix-sharing sweep and the batched start projection are
    bitwise equal to the from-scratch versions in ascent_reference.py."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("dim", (3, 4))
    @pytest.mark.parametrize("frame_kind", ("none", "xy", "rotated"))
    def test_bitwise_equal(self, n, dim, frame_kind):
        rng = np.random.default_rng(1000 * n + 10 * dim + len(frame_kind))
        frame = {
            "none": None,
            "xy": ct.xy_frame(n),
            "rotated": rotated_frame(n, rng),
        }[frame_kind]
        restarts = 8 if n <= 5 else 3
        for seed in (0, 7):
            w = rng.normal(size=(dim,) * n)
            starts = ct._random_starts(n, seed, restarts, frame)
            assert np.array_equal(
                starts, reference_random_starts(n, seed, restarts, frame)
            )
            ref = reference_ascend(w, starts.copy(), frame)
            new = ct._ascend(w, starts, frame)
            assert new.value == ref.value
            assert np.array_equal(new.directions, ref.directions)
            assert new.converged == ref.converged

    def test_max_product_value_on_states(self, monkeypatch):
        rng = np.random.default_rng(65)
        cases = []
        for n in (2, 3, 4):
            t = ct.compute_tensor(random_density(n, rng))
            for frame in (None, ct.xy_frame(n), rotated_frame(n, rng)):
                cases.append((t, frame, ct.max_product_value(t, frame=frame, seed=3)))
        monkeypatch.setattr(ct, "_random_starts", reference_random_starts)
        monkeypatch.setattr(ct, "_ascend", reference_ascend)
        for t, frame, res in cases:
            ref = ct.max_product_value(t, frame=frame, seed=3)
            assert res.value == ref.value
            assert np.array_equal(res.directions, ref.directions)
            assert res.converged == ref.converged


class TestCsvExport:
    def test_header_and_rows(self):
        t = ct.compute_tensor(qs.make_werner(1.0))
        buf = io.StringIO()
        ct.tensor_to_csv(t, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "j1,j2,value"
        assert len(lines) == 1 + 16
        assert lines[1].startswith("0,0,")
        # row order is C order over index tuples; (1, 1) is row 1*4+1+1
        row = lines[1 + 4 + 1].split(",")
        assert row[:2] == ["1", "1"]
        assert float(row[2]) == pytest.approx(-1.0, abs=1e-12)

    def test_values_parse_back(self):
        t = ct.compute_tensor(qs.make_noisy_ghz(2, 0.37))
        buf = io.StringIO()
        ct.tensor_to_csv(t, buf)
        lines = buf.getvalue().strip().splitlines()[1:]
        parsed = np.array([float(line.split(",")[-1]) for line in lines])
        assert np.max(np.abs(parsed - t.values.reshape(-1))) == 0.0
