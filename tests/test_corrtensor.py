"""Correlation tensor extraction, contraction, and maximization."""

import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ascent_reference import reference_ascend, reference_contract, reference_random_starts
from bellkit import bellcheck as bc
from bellkit import corrtensor as ct
from bellkit import qstate as qs
from bellkit import septest as st
from contraction_reference import reference_correlation_function, reference_tensor_to_density
from io_reference import reference_tensor_to_csv
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
    def test_three_axis_frame_rejected(self):
        full = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
        with pytest.raises(
            ValueError, match=r"^axes must have shape \(n_parties, 2, 3\), got \(2, 3, 3\)$"
        ):
            ct.LocalFrame(full)

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


def reference_max_product_value(t, frame=None, seed=0):
    """max_product_value before the in-plane form: the reference ascent on
    the (3,)*N proper tensor, projected into the frame planes, from the
    reference starts plus the same axis start."""
    n = t.n_qubits
    if frame is None:
        best_idx = np.unravel_index(np.argmax(np.abs(t.proper)), t.proper.shape)
        axis_start = np.eye(3)[list(best_idx)]
    else:
        comps = ct.frame_components(t, frame)
        best_idx = np.unravel_index(np.argmax(np.abs(comps)), comps.shape)
        axis_start = frame.axes[np.arange(n), list(best_idx)]
    starts = reference_random_starts(n, seed, ct.DEFAULT_RESTARTS, frame)
    return reference_ascend(t.proper, np.concatenate([starts, axis_start[None]]), frame)


def assert_same_maximum(t, res, ref, frame):
    """Bitwise for no frame and the xy frame, where the (2,)*N frame
    components are exact picks of the proper tensor.  Other frames' components
    are sums of products, so the value agrees within rounding, and rounding
    may pick another restart whose directions attain the same maximum (with
    the signs of two parties flipped, say); those directions are checked to
    lie in the planes and to attain the value."""
    assert res.converged == ref.converged
    if frame is None or np.array_equal(frame.axes, ct.xy_frame(frame.n_parties).axes):
        assert res.value == ref.value
        assert np.array_equal(res.directions, ref.directions)
        return
    assert abs(res.value - ref.value) <= 1e-12
    # unit vectors whose frame components are unit too lie in the planes
    assert np.max(np.abs(np.linalg.norm(res.directions, axis=1) - 1.0)) <= 1e-12
    in_plane = np.einsum("kaj,kj->ka", frame.axes, res.directions)
    assert np.max(np.abs(np.linalg.norm(in_plane, axis=1) - 1.0)) <= 1e-12
    assert abs(reference_correlation_function(t, res.directions) - res.value) <= 1e-12


class TestAscentMatchesReference:
    """The prefix-sharing sweep, the batched starts and the in-plane ascent
    on the frame components match the from-scratch versions in
    ascent_reference.py."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("dim", (3, 4))
    @pytest.mark.parametrize("frame_kind", ("none", "xy", "rotated"))
    def test_bitwise_equal(self, n, dim, frame_kind):
        rng = np.random.default_rng(1000 * n + 10 * dim + len(frame_kind))
        if frame_kind == "none":
            restarts = 8 if n <= 5 else 3
            for seed in (0, 7):
                w = rng.normal(size=(dim,) * n)
                starts = ct._random_starts(n, seed, restarts)
                assert np.array_equal(starts, reference_random_starts(n, seed, restarts))
                ref = reference_ascend(w, starts.copy())
                new = ct._ascend(w, starts)
                assert new.value == ref.value
                assert np.array_equal(new.directions, ref.directions)
                assert new.converged == ref.converged
            return
        # _ascend takes no frame: the frame cases go through max_product_value,
        # on a random tensor (dim 3) or a random mixed state's tensor (dim 4)
        frame = ct.xy_frame(n) if frame_kind == "xy" else rotated_frame(n, rng)
        if dim == 3:
            t = ct.CorrelationTensor(n, rng.uniform(-1.0, 1.0, size=(4,) * n))
        else:
            t = ct.compute_tensor(random_density(n, rng))
        for seed in (0, 7):
            res = ct.max_product_value(t, frame=frame, seed=seed)
            assert_same_maximum(t, res, reference_max_product_value(t, frame, seed), frame)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bitwise_equal_on_plane_forms(self, n):
        rng = np.random.default_rng(3000 + n)
        restarts = 8 if n <= 5 else 3
        for seed in (0, 7):
            w = rng.normal(size=(2,) * n)
            starts = ct._random_starts(n, seed, restarts, 2)
            # the x, y parts of the reference's xy-plane starts, bit for bit
            xy = reference_random_starts(n, seed, restarts, ct.xy_frame(n))
            assert np.array_equal(starts, xy[:, :, :2])
            ref = reference_ascend(w, starts.copy())
            new = ct._ascend(w, starts)
            assert new.value == ref.value
            assert np.array_equal(new.directions, ref.directions)
            assert new.converged == ref.converged

    def test_bitwise_equal_when_some_gradients_vanish(self):
        # w = a x e_z x c: a restart whose party-2 start is e_x has a zero
        # gradient for party 1 and keeps that direction for a step
        rng = np.random.default_rng(4000)
        a, c = rng.normal(size=(2, 3))
        w = np.einsum("i,j,k->ijk", a, np.eye(3)[2], c)
        starts = ct._random_starts(3, 0, 4)
        starts[1, 1] = np.eye(3)[0]
        norms = np.linalg.norm(reference_contract(w, starts, free=0), axis=1)
        assert norms[1] == 0.0 and np.all(np.delete(norms, 1) > 0.0)
        ref = reference_ascend(w, starts.copy())
        new = ct._ascend(w, starts)
        assert new.value == ref.value
        assert np.array_equal(new.directions, ref.directions)
        assert new.converged == ref.converged

    def test_max_product_value_on_states(self):
        rng = np.random.default_rng(65)
        for n in (2, 3, 4):
            t = ct.compute_tensor(random_density(n, rng))
            for frame in (None, ct.xy_frame(n), rotated_frame(n, rng)):
                res = ct.max_product_value(t, frame=frame, seed=3)
                assert_same_maximum(t, res, reference_max_product_value(t, frame, 3), frame)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rotational_report_on_noisy_ghz(self, n, monkeypatch):
        # V = 0 has an all-zero in-plane block: signed zeros throughout
        frame = ct.xy_frame(n)
        cases = [
            (ct.compute_tensor(qs.make_noisy_ghz(n, v)), seed)
            for v in (0.0, 0.02, 0.3, 0.6, 1.0)
            for seed in (0, 7)
        ]
        new = [repr(bc.rotational_test(t, frame, seed)) for t, seed in cases]
        for t, seed in cases:
            res = ct.max_product_value(t, frame=frame, seed=seed)
            ref = reference_max_product_value(t, frame, seed)
            assert np.array_equal(res.directions, ref.directions)
        monkeypatch.setattr(bc, "max_product_value", reference_max_product_value)
        assert new == [repr(bc.rotational_test(t, frame, seed)) for t, seed in cases]


NUMPY_INTS = (np.uint8, np.uint16, np.uint32, np.uint64, np.int8, np.int16, np.int32, np.int64)

# every seed form SeedSequence takes as entropy
seeds = (
    hs.integers(0, 2**300)
    | hs.sampled_from(NUMPY_INTS).flatmap(lambda t: hs.integers(0, np.iinfo(t).max).map(t))
    | hs.booleans()
    | hs.lists(hs.integers(0, 2**70), max_size=8)
    | hs.recursive(hs.integers(0, 2**40), lambda c: hs.lists(c, max_size=3), max_leaves=8)
    | hs.lists(hs.integers(0, 2**32 - 1), max_size=9).map(lambda v: np.array(v, dtype=np.uint32))
)


def numpy_words(seed, r):
    return np.random.SeedSequence(entropy=seed, spawn_key=(r,)).generate_state(4, np.uint64)


class TestRestartStreams:
    """_random_starts derives every restart's PCG64 seed words in one pass;
    restart r still draws NumPy's own (seed, r) stream."""

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds)
    def test_words_match_numpy(self, seed):
        words = ct._spawn_words(seed, 33)
        assert words.shape == (33, 4)
        for r in range(33):
            assert np.array_equal(words[r], numpy_words(seed, r))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=hs.integers(1, 4))
    def test_starts_match_reference(self, seed, n):
        starts = ct._random_starts(n, seed, 9)
        assert np.array_equal(starts, reference_random_starts(n, seed, 9))
        xy = reference_random_starts(n, seed, 9, ct.xy_frame(n))
        assert np.array_equal(ct._random_starts(n, seed, 9, 2), xy[:, :, :2])

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_bad_seed_errors_unchanged(self, seed):
        # what the first per-restart SeedSequence raised before
        with pytest.raises(Exception) as before:
            np.random.SeedSequence(entropy=seed, spawn_key=(0,))
        t = ct.compute_tensor(qs.make_noisy_ghz(3, 0.5))
        calls = (
            lambda: ct.max_product_value(t, seed=seed),
            lambda: ct.max_product_value(t, frame=ct.xy_frame(3), seed=seed),
            lambda: st.identifier_check(qs.make_noisy_ghz(3, 0.5), st.identity_proper_metric(3), seed),
        )
        for call in calls:
            with pytest.raises(type(before.value)) as now:
                call()
            assert str(now.value) == str(before.value)

    @pytest.mark.parametrize(
        "seed",
        [2**32 - 1, 2**32, 2**64 - 1, [2**32 - 1] * 6, np.full(5, 2**32 - 1, dtype=np.uint32)],
    )
    def test_wraparound_raises_no_warning(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = ct._spawn_words(seed, 33)
            ct._random_starts(2, seed, 4)
        for r in (0, 1, 32):
            assert np.array_equal(words[r], numpy_words(seed, r))

    def test_import_leaves_numpy_random_unloaded(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = "import sys, bellkit, bellkit.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout == "False\n"


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

    def test_streams_quarter_size_writes(self):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        t = ct.compute_tensor(random_density(8, np.random.default_rng(8)))
        fh, ref = Recorder(), io.StringIO()
        ct.tensor_to_csv(t, fh)
        reference_tensor_to_csv(t, ref)
        assert "".join(fh.writes) == ref.getvalue()
        # no write holds more than a quarter of the 4^8 rows plus one
        assert max(w.count("\r\n") for w in fh.writes) <= 4**8 // 4 + 1
