"""Tensor-norm separability test and metric-operator identifiers."""

import json

import numpy as np
import pytest

from bellkit import corrtensor as ct
from bellkit import qstate as qs
from bellkit import septest as st
from io_reference import reference_metric_to_json
from oracles import ppt_min_eigenvalue, random_density


def bisect_flag(flag_at, lo, hi, steps=40):
    """Boundary of a monotone boolean function of one parameter."""
    assert not flag_at(lo) and flag_at(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if flag_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSeparabilityCheck:
    def test_werner_values(self):
        rep = st.separability_check(qs.make_werner(0.5))
        assert rep.norm_sq == pytest.approx(0.75, abs=1e-10)
        assert rep.t_max == pytest.approx(0.5, abs=1e-9)
        assert rep.entangled_detected
        assert rep.margin == pytest.approx(0.25, abs=1e-9)
        assert rep.converged

    def test_werner_boundary_one_third(self):
        boundary = bisect_flag(
            lambda v: st.separability_check(qs.make_werner(v)).entangled_detected,
            0.0,
            1.0,
        )
        assert boundary == pytest.approx(1 / 3, abs=1e-6)

    def test_werner_agrees_with_partial_transpose(self):
        # coarse grid here; the acceptance suite runs step 0.001
        for v in np.arange(0.0, 1.0001, 0.02):
            rho = qs.make_werner(float(v))
            detected = st.separability_check(rho).entangled_detected
            npt = ppt_min_eigenvalue(rho) < -1e-10
            if abs(v - 1 / 3) > 1e-3:
                assert detected == npt, v

    def test_product_states_not_detected(self):
        rng = np.random.default_rng(111)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            blochs = rng.normal(size=(n, 3))
            blochs /= np.linalg.norm(blochs, axis=1, keepdims=True)
            rep = st.separability_check(qs.DensityMatrix(n, qs.product_matrix(blochs)))
            assert rep.margin <= 1e-9
            assert not rep.entangled_detected

    def test_ghz3_detected(self):
        rep = st.separability_check(qs.make_noisy_ghz(3, 1.0))
        assert rep.norm_sq == pytest.approx(4.0, abs=1e-9)
        assert rep.t_max == pytest.approx(1.0, abs=1e-9)
        assert rep.entangled_detected

    def test_detection_monotone_in_visibility(self):
        # margin(v) = 4v^2 - v dips below zero before rising, so the raw
        # margin is not monotone near v = 0; the verdict is, and the margin
        # is nondecreasing everywhere past the detection boundary
        detected_before = False
        previous_margin = -np.inf
        for v in np.arange(0.0, 1.0001, 0.01):
            rep = st.separability_check(qs.make_noisy_ghz(3, float(v)))
            if detected_before:
                assert rep.entangled_detected
            detected_before = rep.entangled_detected
            if v >= 0.25:
                assert rep.margin >= previous_margin - 1e-9
                previous_margin = rep.margin


class TestRandomSeparable:
    def test_single_term_is_pure_product(self):
        rho = st.random_separable(2, k_terms=1, seed=5)
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(eigs[:-1])) < 1e-10

    def test_never_detected(self):
        for i in range(40):
            rho = st.random_separable(2 + i % 3, k_terms=1 + i % 5, seed=200 + i)
            rep = st.separability_check(rho)
            assert not rep.entangled_detected
            assert rep.margin <= 1e-9

    def test_ppt_on_two_qubits(self):
        for i in range(30):
            rho = st.random_separable(2, k_terms=1 + i % 6, seed=300 + i)
            assert ppt_min_eigenvalue(rho) >= -1e-10

    def test_arguments(self):
        with pytest.raises(ValueError):
            st.random_separable(2, k_terms=0, seed=1)


class TestMetricOperators:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_metric_weights(self, n):
        w = st.identity_proper_metric(n).weights.reshape((4,) * n)
        expected = np.all(np.indices((4,) * n) != 0, axis=0).astype(float)
        assert w.tobytes() == expected.tobytes()

    def test_identity_metric_reduces_to_tensor_norm(self):
        metric = st.identity_proper_metric(2)
        for v in (0.1, 0.34, 0.8):
            rho = qs.make_werner(v)
            sep = st.separability_check(rho)
            ident = st.identifier_check(rho, metric)
            assert ident.rhs == pytest.approx(sep.norm_sq, abs=1e-10)
            assert ident.lhs_max == pytest.approx(sep.t_max, abs=1e-7)
            assert ident.detected == sep.entangled_detected

    def test_identity_metric_on_noisy_ghz(self):
        metric = st.identity_proper_metric(3)
        for v in (0.3, 0.6, 1.0):
            rho = qs.make_noisy_ghz(3, v)
            sep = st.separability_check(rho)
            ident = st.identifier_check(rho, metric)
            assert abs(
                (ident.rhs - ident.lhs_max) - sep.margin
            ) < 1e-7

    def test_zero_metric_never_detects(self):
        metric = st.DiagonalMetric(2, np.zeros(16))
        rep = st.identifier_check(qs.make_werner(1.0), metric)
        assert rep.rhs == 0.0
        assert rep.lhs_max == pytest.approx(0.0, abs=1e-12)
        assert not rep.detected

    def test_rank_one_ghz_direction_detects_high_visibility(self):
        # weight concentrated on a single generalized tensor coordinate:
        # the direction of the pure-state tensor itself
        direction = ct.compute_tensor(qs.make_ghz(3).projector())
        metric = st.rank_one_metric(direction)
        assert st.identifier_check(qs.make_noisy_ghz(3, 0.9), metric).detected
        assert st.identifier_check(qs.make_noisy_ghz(3, 1.0), metric).detected
        assert not st.identifier_check(qs.make_noisy_ghz(3, 0.2), metric).detected

    def test_rank_one_metric_sound_on_separable(self):
        direction = ct.compute_tensor(qs.make_ghz(3).projector())
        metric = st.rank_one_metric(direction)
        for i in range(25):
            rho = st.random_separable(3, k_terms=1 + i % 4, seed=400 + i)
            assert not st.identifier_check(rho, metric).detected

    def test_axis_coordinate_weight_cannot_detect(self):
        # product states reach |T_J| = 1 on any single axis coordinate, so
        # a metric supported there never fires, even on the singlet
        w = np.zeros((4, 4))
        w[3, 3] = 1.0
        metric = st.DiagonalMetric(2, w.reshape(-1))
        assert not st.identifier_check(qs.make_werner(1.0), metric).detected

    def test_non_negative_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            st.DiagonalMetric(2, -np.ones(16))
        bad = -np.eye(16)
        with pytest.raises(ValueError, match="non-negative"):
            st.DenseMetric(2, bad)
        asym = np.zeros((16, 16))
        asym[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            st.DenseMetric(2, asym)

    def test_dense_rejection_message(self):
        bad = np.diag([1.0, 0.5, -0.25, 0.0])
        with pytest.raises(ValueError) as info:
            st.DenseMetric(1, bad)
        assert str(info.value) == "metric not non-negative: min eigenvalue -0.25"
        # within the tolerance: accepted
        st.DenseMetric(1, np.diag([1.0, 0.5, -5e-11, 0.0]))
        with pytest.raises(ValueError, match="min eigenvalue -2e-10"):
            st.DenseMetric(1, np.diag([1.0, 0.5, -2e-10, 0.0]))

    @pytest.mark.parametrize("writeable", [True, False])
    def test_dense_metric_copies_after_its_check(self, writeable, monkeypatch):
        """The positivity check shifts a copy of the caller's matrix; the
        matrix itself is never written, and the metric keeps a read-only
        copy of its own."""
        rng = np.random.default_rng(17)
        g = rng.normal(size=(16, 16))
        m = g @ g.T
        m.setflags(write=writeable)
        before = m.tobytes()
        cholesky = np.linalg.cholesky

        def checked_cholesky(a):
            assert m.tobytes() == before and not np.shares_memory(a, m)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", checked_cholesky)
        metric = st.DenseMetric(2, m)
        assert m.tobytes() == before and m.flags.writeable == writeable
        assert not metric.matrix.flags.writeable
        assert not np.shares_memory(metric.matrix, m)
        assert metric.matrix.tobytes() == before

    def test_dimension_mismatch(self):
        metric = st.identity_proper_metric(3)
        with pytest.raises(ValueError):
            st.identifier_check(qs.make_werner(0.5), metric)

    def test_json_round_trip(self, tmp_path):
        diag = st.identity_proper_metric(2)
        doc = reference_metric_to_json(diag)
        assert doc["kind"] == "diagonal"
        back = st.metric_from_json(doc, 2)
        assert np.array_equal(back.weights, diag.weights)

        dense = st.rank_one_metric(ct.compute_tensor(qs.make_werner(1.0)))
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(reference_metric_to_json(dense)))
        loaded = st.load_metric(path, 2)
        assert np.max(np.abs(loaded.matrix - dense.matrix)) < 1e-15

    def test_json_validation(self):
        with pytest.raises(ValueError, match="kind"):
            st.metric_from_json({"weights": [1.0]}, 1)
        with pytest.raises(ValueError, match="weights"):
            st.metric_from_json({"kind": "diagonal"}, 1)

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "diagonal", "weights": {"a": 1}}',
            '{"kind": "diagonal", "weights": [null, 1, 1, 1]}',
            '{"kind": "diagonal", "weights": ["1", 1, 1, 1]}',
            '{"kind": "diagonal", "weights": [true, false, true, true]}',
            '{"kind": "diagonal", "weights": [true, 1, 1.5, 1]}',
            '{"kind": "diagonal", "weights": [NaN, 1, 1, 1]}',
            '{"kind": "diagonal", "weights": [1e400, 1, 1, 1]}',
            '{"kind": "diagonal", "weights": [1%s, 1, 1, 1]}' % ("0" * 400),
            '{"kind": "dense", "matrix": [[1, 0, 0, 0], [0, 1, 0], [0], []]}',
            '{"kind": "dense", "matrix": [[1, 0, 0, 0], 1, 1, 1]}',
            '{"kind": "dense", "matrix": [[Infinity, 0, 0, 0], [0, 1, 0, 0], '
            '[0, 0, 1, 0], [0, 0, 0, 1]]}',
            '{"kind": "dense", "matrix": "identity"}',
        ],
        ids=[
            "dict", "null", "string", "bool", "bool-among-numbers", "nan", "1e400", "400-digit-int",
            "ragged", "list-among-numbers", "inf", "not-a-list",
        ],
    )
    def test_json_rejects_non_numeric_entries(self, text):
        doc = json.loads(text)
        field = "weights" if doc["kind"] == "diagonal" else "matrix"
        with pytest.raises(ValueError, match=f"field '{field}' must hold finite numbers"):
            st.metric_from_json(doc, 1)

    def test_nan_rejected_in_code(self):
        with pytest.raises(ValueError, match="non-negative"):
            st.DiagonalMetric(1, [np.nan, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="symmetric"):
            st.DenseMetric(1, np.full((4, 4), np.nan))


def reference_product_ascent(w, seed, restarts, tol=1e-12, max_sweeps=500):
    """The identifier's former private ascent, kept verbatim as the
    reference: maximize <u_1 x ... x u_N, w> over u_k = (1, b_k), |b_k| = 1.

    Returns (value, converged) for the best restart.
    """
    n = w.ndim
    blochs = np.empty((restarts, n, 3))
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        v = rng.normal(size=(n, 3))
        blochs[r] = v / np.linalg.norm(v, axis=1, keepdims=True)

    def u_vectors(b):
        u = np.empty((b.shape[0], n, 4))
        u[:, :, 0] = 1.0
        u[:, :, 1:] = b
        return u

    def objective(b):
        out = np.broadcast_to(w, (b.shape[0],) + w.shape)
        u = u_vectors(b)
        for m in range(n):
            out = np.einsum("ri...,ri->r...", out, u[:, m, :])
        return out

    values = objective(blochs)
    converged = np.zeros(restarts, dtype=bool)
    for _ in range(max_sweeps):
        for k in range(n):
            u = u_vectors(blochs)
            out = np.broadcast_to(w, (restarts,) + w.shape)
            out = np.moveaxis(out, 1 + k, -1)
            for m in [m for m in range(n) if m != k]:
                out = np.einsum("ri...,ri->r...", out, u[:, m, :])
            grad = out[:, 1:]
            norms = np.linalg.norm(grad, axis=1)
            ok = norms > 1e-300
            blochs[ok, k, :] = grad[ok] / norms[ok, None]
        new_values = objective(blochs)
        converged = np.abs(new_values - values) < tol
        values = new_values
        if converged.all():
            break
    best = int(np.argmax(values))
    return float(values[best]), bool(converged[best])


class TestIdentifierMatchesReferenceAscent:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["identity_proper", "rank_one"])
    def test_bit_identical(self, n, kind):
        rng = np.random.default_rng(900 + n)
        for trial in range(4):
            rho = random_density(n, rng)
            t = ct.compute_tensor(rho)
            if kind == "identity_proper":
                metric = st.identity_proper_metric(n)
            else:
                metric = st.rank_one_metric(ct.compute_tensor(random_density(n, rng)))
            seed = 10 * n + trial
            rep = st.identifier_check(rho, metric, seed=seed)
            w = metric.apply(t.values.reshape(-1)).reshape(t.values.shape)
            hi, conv_hi = reference_product_ascent(w, seed, ct.DEFAULT_RESTARTS)
            lo, conv_lo = reference_product_ascent(-w, seed, ct.DEFAULT_RESTARTS)
            assert rep.lhs_max == max(hi, lo)
            assert rep.converged == (conv_hi and conv_lo)


class TestSoundnessSample:
    def test_no_false_positives_small_sample(self):
        # module-level spot check; the acceptance suite runs 1000 states
        metric_cache = {}
        for i in range(60):
            n = 2 + i % 3
            rho = st.random_separable(n, k_terms=1 + i % 4, seed=500 + i)
            assert not st.separability_check(rho).entangled_detected
            if n not in metric_cache:
                metric_cache[n] = st.identity_proper_metric(n)
            assert not st.identifier_check(rho, metric_cache[n]).detected
