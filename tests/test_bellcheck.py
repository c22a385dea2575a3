"""Bell tests: deterministic lemma, probability-form value, in-plane bound."""

from itertools import product

import numpy as np
import pytest

from bellkit import bellcheck as bc
from bellkit import corrtensor as ct
from bellkit import qstate as qs
from bellkit import septest as st
from oracles import rotation_matrix, su2_from_rotation


def lemma_value(a1, a2, b1, b2):
    """The sweep's entry for one assignment, in product((-1, 1), repeat=4) order."""
    index = list(product((-1, 1), repeat=4)).index((a1, a2, b1, b2))
    return bc.lr_lemma_exhaustive().values[index]


class TestLemma:
    def test_all_plus_one(self):
        assert lemma_value(1, 1, 1, 1) == -2

    def test_value_zero_example(self):
        # first proposition true, exactly one of the negatives true
        assert lemma_value(a1=1, a2=-1, b1=-1, b2=1) == 0

    def test_exhaustive_sweep(self):
        rec = bc.lr_lemma_exhaustive()
        assert rec.max_value == 0
        assert len(rec.values) == 16
        assert all(v <= 0 for v in rec.values)
        assert rec.max_count == rec.values.count(0) > 0


class TestChshProbabilityValue:
    def test_preset_reaches_quantum_value(self):
        rho, a_dirs, b_dirs = bc.chsh_optimal_configuration()
        report = bc.chsh_probability_value(rho, a_dirs, b_dirs)
        assert report.b_value == pytest.approx(np.sqrt(2) - 1, abs=1e-9)
        assert report.violated
        assert report.bound == 0.0
        # one array call of inplane_direction gives every angle the bits of
        # its own scalar call
        edges = [0.0, np.pi / 4, -np.pi / 4, np.pi / 2, np.pi, 1e-300, 1e300, -1e300]
        angles = np.concatenate([edges, np.random.default_rng(70).uniform(-10, 10, 1992)])
        stacked = bc.inplane_direction(angles.reshape(1000, 2))
        assert stacked.shape == (1000, 2, 3)
        for angle, row in zip(angles, stacked.reshape(-1, 3)):
            assert row.tobytes() == bc.inplane_direction(float(angle)).tobytes()
        preset = [(0.0, np.pi / 2), (3 * np.pi / 4, np.pi / 4)]
        for dirs, pair in zip((a_dirs, b_dirs), preset):
            assert dirs.tobytes() == np.array([bc.inplane_direction(a) for a in pair]).tobytes()

    def test_product_state_never_violates(self):
        rho = qs.DensityMatrix(2, qs.product_matrix([(0, 0, 1), (0, 0, 1)]))
        rng = np.random.default_rng(71)
        for _ in range(100):
            dirs = rng.normal(size=(4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            report = bc.chsh_probability_value(rho, dirs[:2], dirs[2:])
            assert report.b_value <= 1e-10
            assert not report.violated

    def test_white_noise(self):
        rho = qs.DensityMatrix(2, np.eye(4) / 4)
        _, a_dirs, b_dirs = bc.chsh_optimal_configuration()
        report = bc.chsh_probability_value(rho, a_dirs, b_dirs)
        assert report.b_value == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(report.equality_probabilities, 0.5, atol=1e-12)

    def test_invariant_under_global_rotation(self):
        rho, a_dirs, b_dirs = bc.chsh_optimal_configuration()
        base = bc.chsh_probability_value(rho, a_dirs, b_dirs).b_value
        rng = np.random.default_rng(72)
        for _ in range(5):
            axis = rng.normal(size=3)
            angle = rng.uniform(0, 2 * np.pi)
            r = rotation_matrix(axis, angle)
            u = su2_from_rotation(axis, angle)
            uu = np.kron(u, u)
            rotated = qs.DensityMatrix(2, uu @ rho.matrix @ uu.conj().T)
            value = bc.chsh_probability_value(
                rotated, a_dirs @ r.T, b_dirs @ r.T
            ).b_value
            assert value == pytest.approx(base, abs=1e-9)

    def test_no_signaling(self):
        # marginal at A must not depend on B's setting; compare against the
        # partial-trace prediction as well
        rng = np.random.default_rng(73)
        rho = qs.make_noisy_ghz(2, 0.8)
        a_dir = np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)])
        marginals = []
        for _ in range(4):
            b_dir = rng.normal(size=3)
            b_dir /= np.linalg.norm(b_dir)
            probs = qs.measurement_distribution(rho, np.array([a_dir, b_dir]))
            marginals.append(float(probs[0].sum()))
        assert np.ptp(marginals) < 1e-10
        reduced = np.einsum("ajbj->ab", rho.matrix.reshape(2, 2, 2, 2))  # trace out B
        sigma_a = sum(a_dir[i] * qs.PAULI[i + 1] for i in range(3))
        expected = 0.5 * (1 + np.trace(reduced @ sigma_a).real)
        assert marginals[0] == pytest.approx(expected, abs=1e-10)

    def test_names_the_first_bad_norm_of_the_pair_loop(self):
        # the per-pair Born calls checked (A_1, B_1), (A_1, B_2), (A_2, B_1), (A_2, B_2)
        rng = np.random.default_rng(74)
        rho = qs.make_noisy_ghz(2, 0.8)
        for _ in range(30):
            dirs = rng.normal(size=(4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            bad = rng.random(4) < 0.4
            dirs[bad] *= rng.uniform(0.5, 1.5, size=(bad.sum(), 1))
            if not bad.any():
                continue
            a_dirs, b_dirs = dirs[:2], dirs[2:]
            expected = None
            for m, n in product(range(2), repeat=2):
                try:
                    qs.measurement_distribution(rho, [a_dirs[m], b_dirs[n]])
                except ValueError as exc:
                    expected = str(exc)
                    break
            with pytest.raises(ValueError) as info:
                bc.chsh_probability_value(rho, a_dirs, b_dirs)
            assert str(info.value) == expected

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError, match="two-qubit"):
            bc.chsh_probability_value(
                qs.make_noisy_ghz(3, 1.0), np.eye(3)[:2], np.eye(3)[:2]
            )


class TestRotationalTest:
    def test_pure_ghz3(self):
        t = ct.compute_tensor(qs.make_ghz(3).projector())
        report = bc.rotational_test(t, ct.xy_frame(3))
        assert report.s_value == pytest.approx(4.0, abs=1e-9)
        assert report.e_max == pytest.approx(1.0, abs=1e-9)
        assert report.bound == pytest.approx((4 / np.pi) ** 3, abs=1e-6)
        assert report.violated
        assert report.converged

    def test_white_noise_not_violated(self):
        t = ct.compute_tensor(qs.DensityMatrix(3, np.eye(8) / 8))
        report = bc.rotational_test(t, ct.xy_frame(3))
        assert report.s_value == pytest.approx(0.0, abs=1e-12)
        assert not report.violated

    def test_flag_matches_analytic_threshold_on_grid(self):
        # full 0.001 grid for N = 2..6; no analytic threshold falls within
        # optimizer slack of a grid point, so the flags must agree exactly
        for n in (2, 3, 4, 5, 6):
            frame = ct.xy_frame(n)
            threshold = 2 * (2 / np.pi) ** n
            for v in np.arange(0.0, 1.0005, 0.001):
                t = ct.compute_tensor(qs.make_noisy_ghz(n, float(v)))
                report = bc.rotational_test(t, frame)
                assert report.violated == (v > threshold), (n, v)

    def test_separable_states_never_flagged(self):
        for i in range(60):
            n = 2 + i % 3
            rho = st.random_separable(n, k_terms=1 + i % 4, seed=900 + i)
            t = ct.compute_tensor(rho)
            report = bc.rotational_test(t, ct.xy_frame(n))
            assert not report.violated, (i, report)


class TestThresholds:
    def test_two_parties(self):
        th = bc.ghz_thresholds(2)
        assert th["standard"] == pytest.approx(2 ** (-0.5), abs=1e-12)
        assert th["rotational"] == pytest.approx(8 / np.pi**2, abs=1e-12)

    def test_four_parties_crossover(self):
        th = bc.ghz_thresholds(4)
        assert th["standard"] == pytest.approx(0.35355339, abs=1e-7)
        assert th["rotational"] == pytest.approx(0.32851143, abs=1e-7)
        assert th["rotational"] < th["standard"]

    def test_rotational_stricter_from_four_on(self):
        for n in range(4, 21):
            th = bc.ghz_thresholds(n)
            assert th["rotational"] < th["standard"]
        for n in (2, 3):
            th = bc.ghz_thresholds(n)
            assert th["rotational"] > th["standard"]

    def test_rows_and_csv(self):
        rows = bc.threshold_rows(2, 6)
        assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
        assert rows[2]["rotational_smaller"] is True
        assert rows[0]["rotational_smaller"] is False
        import io

        buf = io.StringIO()
        bc.write_threshold_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,standard_threshold,rotational_threshold,rotational_smaller"
        assert len(lines) == 6
        assert lines[2].startswith("3,0.5,")

    def test_bad_range(self):
        with pytest.raises(ValueError):
            bc.threshold_rows(6, 2)
        with pytest.raises(ValueError):
            bc.threshold_rows(1, 5)
        with pytest.raises(ValueError):
            bc.threshold_rows(2, 21)
