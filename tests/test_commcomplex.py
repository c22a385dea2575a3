"""Task definitions, classical strategy search, and protocol simulations."""

import numpy as np
import pytest

from bellkit import commcomplex as cc
from bellkit import qstate as qs
from bellkit.corrtensor import compute_tensor
from contraction_reference import reference_signed_sum
from oracles import tree_protocol_optimum


def support_tuples(task):
    """The promise inputs as bit tuples, in C order."""
    return [tuple(x) for x in np.argwhere(task.support).tolist()]


class TestMod4Task:
    def test_three_party_values(self):
        task = cc.make_mod4_task(3)
        assert task.f[0, 1, 1] == -1.0  # sum 2 -> cos(pi)
        assert task.support[0, 1, 1]
        assert task.p_prime[0, 1, 1] == pytest.approx(0.25)
        assert not task.support[0, 0, 1]  # odd sum excluded
        assert task.p_prime[0, 0, 1] == 0.0

    def test_two_party_support(self):
        task = cc.make_mod4_task(2)
        assert support_tuples(task) == [(0, 0), (1, 1)]
        assert task.f[0, 0] == 1.0 and task.f[1, 1] == -1.0
        assert task.p_prime[0, 0] == task.p_prime[1, 1] == 0.5

    def test_weights_normalized(self):
        for n in range(2, 9):
            task = cc.make_mod4_task(n)
            assert task.p_prime.sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            cc.make_mod4_task(1)
        f = np.ones((2, 2))
        p = np.full((2, 2), 0.3)
        with pytest.raises(ValueError, match="sum to 1"):
            cc.TaskSpec(2, f, p, np.ones((2, 2), dtype=bool))

    @pytest.mark.parametrize(
        "field, on_support, message",
        [
            ("f", True, r"f must be \+1 or -1"),
            pytest.param("p_prime", True, "^p_prime must be non-negative, got nan$",
                         id="p_prime-True-p_prime must be non-negative"),
            pytest.param("p_prime", False, "^p_prime must be non-negative, got nan$",
                         id="p_prime-False-p_prime must be non-negative"),
        ],
    )
    def test_nan_is_rejected(self, field, on_support, message):
        # the mod-4 task on 2 partners: support (0, 0) and (1, 1)
        task = cc.make_mod4_task(2)
        arrays = {"f": task.f.copy(), "p_prime": task.p_prime.copy()}
        arrays[field][(0, 0) if on_support else (0, 1)] = np.nan
        with pytest.raises(ValueError, match=message):
            cc.TaskSpec(2, arrays["f"], arrays["p_prime"], task.support)

    def test_nan_f_off_support_is_ignored(self):
        base = cc.make_mod4_task(3)
        task = cc.TaskSpec(3, np.where(base.support, base.f, np.nan), base.p_prime, base.support)
        assert np.array_equal(task.g, base.g)
        opt, ref = cc.classical_optimum(task), cc.classical_optimum(base)
        assert (opt.f_star, opt.index) == (ref.f_star, ref.index)


def strategy_fidelity(task, signs):
    """F of one sign assignment, read from the exhaustive fidelity table."""
    codes = tuple(2 * int(c[0] < 0) + int(c[1] < 0) for c in np.asarray(signs))
    return float(cc._all_strategy_fidelities(task)[codes])


class TestReducedFidelity:
    def test_all_plus_strategy_two_parties(self):
        task = cc.make_mod4_task(2)
        assert strategy_fidelity(task, np.ones((2, 2))) == pytest.approx(0.0, abs=1e-15)

    def test_three_party_bound(self):
        task = cc.make_mod4_task(3)
        for idx in range(4**3):
            strat = cc.ClassicalStrategy.from_index(3, idx)
            assert abs(strategy_fidelity(task, strat.signs)) <= 0.5 + 1e-15

    def test_single_support_point(self):
        f = np.zeros((2, 2))
        f[1, 0] = -1.0
        p = np.zeros((2, 2))
        p[1, 0] = 1.0
        support = p > 0
        task = cc.TaskSpec(2, f, p, support)
        signs = np.array([[1, -1], [1, 1]])  # c1(1) c2(0) = -1 matches f
        assert strategy_fidelity(task, signs) == 1.0

    def test_multilinear_flip_identity(self):
        # flipping one sign changes F by exactly twice the affected terms
        rng = np.random.default_rng(81)
        task = cc.make_mod4_task(4)
        for _ in range(20):
            signs = 1 - 2 * rng.integers(0, 2, size=(4, 2))
            k = int(rng.integers(0, 4))
            bit = int(rng.integers(0, 2))
            flipped = signs.copy()
            flipped[k, bit] *= -1
            f0 = strategy_fidelity(task, signs)
            f1 = strategy_fidelity(task, flipped)
            affected = 0.0
            for x in support_tuples(task):
                if x[k] != bit:
                    continue
                prod = 1
                for m, b in enumerate(x):
                    prod *= int(signs[m, b])
                affected += task.g[x] * prod
            assert f1 - f0 == pytest.approx(-2 * affected, abs=1e-12)


class TestClassicalOptimum:
    def test_mod4_matches_closed_form(self):
        expected = {2: 1.0, 3: 0.5, 4: 0.5, 5: 0.25, 6: 0.25}
        for n, bound in expected.items():
            opt = cc.classical_optimum(cc.make_mod4_task(n))
            assert opt.f_star == bound
            assert cc.mod4_classical_bound(n) == bound

    def test_reported_strategy_attains_value(self):
        for n in (2, 3, 4, 5):
            task = cc.make_mod4_task(n)
            opt = cc.classical_optimum(task)
            assert abs(reference_signed_sum(task.g, opt.strategy.signs)) == pytest.approx(
                opt.f_star, abs=1e-15
            )

    def test_first_lexicographic_maximizer(self):
        task = cc.make_mod4_task(3)
        opt = cc.classical_optimum(task)
        for idx in range(opt.index):
            strat = cc.ClassicalStrategy.from_index(3, idx)
            assert abs(reference_signed_sum(task.g, strat.signs)) < opt.f_star

    def test_strategy_index_round_trip(self):
        # flat index i of the exhaustive fidelities is the strategy from_index decodes
        task = cc.make_mod4_task(3)
        fid = cc._all_strategy_fidelities(task).reshape(-1)
        for idx in range(4**3):
            strat = cc.ClassicalStrategy.from_index(3, idx)
            assert reference_signed_sum(task.g, strat.signs) == fid[idx]

    def test_chsh_game_bound(self):
        assert cc.classical_optimum(cc.make_chsh_game()).f_star == 0.5

    def test_party_cap_names_the_fallback(self):
        with pytest.raises(ValueError, match="mod4_classical_bound"):
            cc.classical_optimum(cc.make_mod4_task(13))


class TestQuantumFidelity:
    def test_ghz_mod4_is_perfect(self):
        for n in range(2, 7):
            task = cc.make_mod4_task(n)
            value = cc.quantum_fidelity_analytic(
                task, qs.make_ghz(n), cc.mod4_settings(n)
            )
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_quantum_over_classical_ratio(self):
        for n in range(2, 7):
            task = cc.make_mod4_task(n)
            quantum = cc.quantum_fidelity_analytic(
                task, qs.make_ghz(n), cc.mod4_settings(n)
            )
            k = n // 2 if n % 2 == 0 else (n + 1) // 2
            ratio = quantum / cc.classical_optimum(task).f_star
            assert ratio == pytest.approx(2.0 ** (k - 1), abs=1e-9)

    def test_chsh_game_per_pair_success(self):
        # correct-answer probability is 1/2 + sqrt(2)/4 on every input pair
        task = cc.make_chsh_game()
        settings = cc.chsh_game_settings()
        tensor = compute_tensor(qs.make_ghz(2).projector())
        for x1 in (0, 1):
            for x2 in (0, 1):
                dirs = np.array([settings[0, x1], settings[1, x2]])
                corr = float(np.einsum("ij,i,j->", tensor.proper, *dirs))
                success = (1 + task.f[x1, x2] * corr) / 2
                assert success == pytest.approx(0.5 + np.sqrt(2) / 4, abs=1e-12)

    def test_white_noise_gives_zero(self):
        task = cc.make_mod4_task(3)
        rho = qs.DensityMatrix(3, np.eye(8) / 8)
        value = cc.quantum_fidelity_analytic(task, rho, cc.mod4_settings(3))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_settings_validation(self):
        task = cc.make_mod4_task(3)
        with pytest.raises(ValueError, match="shape"):
            cc.quantum_fidelity_analytic(task, qs.make_ghz(3), np.zeros((2, 2, 3)))

    def test_non_finite_setting(self):
        task = cc.make_mod4_task(3)
        for bad in (np.nan, np.inf):
            settings = cc.mod4_settings(3)
            settings[2, 1, 0] = bad
            with pytest.raises(ValueError, match="unit 3-vector, got norm"):
                cc.quantum_fidelity_analytic(task, qs.make_ghz(3), settings)
            with pytest.raises(ValueError, match="unit 3-vector, got norm"):
                cc.run_entangled_protocol(task, qs.make_ghz(3), settings, 10, seed=0)


class TestEntangledProtocol:
    def test_mod4_ghz_always_correct(self):
        task = cc.make_mod4_task(3)
        result = cc.run_entangled_protocol(
            task, qs.make_ghz(3), cc.mod4_settings(3), 100000, seed=1
        )
        # fidelity 1 means the answer equals the target on every trial
        assert result.fidelity == 1.0
        assert result.success_prob == 1.0
        assert result.stderr == 0.0
        assert result.trials == 100000

    def test_two_and_four_partners_exact(self):
        for n in (2, 4):
            task = cc.make_mod4_task(n)
            result = cc.run_entangled_protocol(
                task, qs.make_ghz(n), cc.mod4_settings(n), 500, seed=2
            )
            assert result == cc.ProtocolResult(
                fidelity=1.0, success_prob=1.0, trials=500, stderr=0.0
            )

    def test_white_noise_statistics(self):
        task = cc.make_mod4_task(3)
        rho = qs.DensityMatrix(3, np.eye(8) / 8)
        result = cc.run_entangled_protocol(task, rho, cc.mod4_settings(3), 20000, seed=3)
        assert abs(result.fidelity) < 3 * result.stderr

    def test_monte_carlo_matches_analytic(self):
        rng = np.random.default_rng(91)
        task = cc.make_mod4_task(3)
        state = qs.make_ghz(3)
        for trial in range(20):
            settings = rng.normal(size=(3, 2, 3))
            settings /= np.linalg.norm(settings, axis=2, keepdims=True)
            analytic = cc.quantum_fidelity_analytic(task, state, settings)
            result = cc.run_entangled_protocol(
                task, state, settings, 100000, seed=1000 + trial
            )
            assert abs(result.fidelity - analytic) < 4 * max(result.stderr, 1e-4)

    def test_seed_determinism(self):
        task = cc.make_mod4_task(3)
        a = cc.run_entangled_protocol(task, qs.make_ghz(3), cc.mod4_settings(3), 1000, seed=7)
        b = cc.run_entangled_protocol(task, qs.make_ghz(3), cc.mod4_settings(3), 1000, seed=7)
        assert a == b

    def test_trials_validation(self):
        task = cc.make_mod4_task(2)
        with pytest.raises(ValueError, match="trials"):
            cc.run_entangled_protocol(task, qs.make_ghz(2), cc.mod4_settings(2), 0, seed=0)


def reference_draw(task, trials, seed):
    """Input draw with support tuples and per-tuple lookups."""
    support = support_tuples(task)
    weights = np.array([task.p_prime[x] for x in support])
    rng = np.random.default_rng(seed)
    x_idx = rng.choice(len(support), size=trials, p=weights)
    z_bits = rng.integers(0, 2, size=(trials, task.n_parties))
    f_vals = np.array([task.f[x] for x in support])[x_idx]
    targets = f_vals * (1 - 2 * (z_bits.sum(axis=1) % 2))
    return support, x_idx, z_bits, targets, rng


def reference_entangled_protocol(task, state, settings, trials, seed):
    """run_entangled_protocol with one boolean mask per support tuple."""
    n = task.n_parties
    s = np.asarray(settings, dtype=float)
    support, x_idx, z_bits, targets, rng = reference_draw(task, trials, seed)
    outcome_idx = np.empty(trials, dtype=int)
    for i, x in enumerate(support):
        mask = x_idx == i
        count = int(mask.sum())
        if count == 0:
            continue
        probs = qs.measurement_distribution(state, s[np.arange(n), list(x)]).reshape(-1)
        outcome_idx[mask] = rng.choice(probs.size, size=count, p=probs)
    gamma = 1 - 2 * ((outcome_idx[:, None] >> (n - 1 - np.arange(n))) & 1)
    y = 1 - 2 * z_bits
    messages = y[:, : n - 1] * gamma[:, : n - 1]
    answers = y[:, n - 1] * gamma[:, n - 1] * np.prod(messages, axis=1)
    return cc._make_result((targets * answers).astype(float))


def reference_sequential_protocol(task, trials, seed):
    support, x_idx, z_bits, targets, rng = reference_draw(task, trials, seed)
    x_bits = np.array(support)[x_idx]
    phases = np.pi * z_bits + (np.pi / 2) * x_bits
    amp1 = np.exp(1j * phases.sum(axis=1))
    p_plus = np.clip((1.0 + amp1.real) / 2.0, 0.0, 1.0)
    answers = np.where(rng.random(trials) < p_plus, 1, -1)
    return cc._make_result((targets * answers).astype(float))


class TestProtocolsMatchReference:
    """The protocols draw and group with arrays; results are equal to the
    tuple-and-mask reference."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_entangled_mod4(self, n):
        rng = np.random.default_rng(50 + n)
        task = cc.make_mod4_task(n)
        settings = rng.normal(size=(n, 2, 3))
        settings /= np.linalg.norm(settings, axis=2, keepdims=True)
        for state, trials in (
            (qs.make_ghz(n), 3000),
            (qs.make_noisy_ghz(n, 0.7), 3000),
            (qs.make_ghz(n), 5),  # most support points never drawn
        ):
            for sets in (cc.mod4_settings(n), settings):
                expected = reference_entangled_protocol(task, state, sets, trials, seed=n)
                assert cc.run_entangled_protocol(task, state, sets, trials, seed=n) == expected

    def test_entangled_chsh_game(self):
        task = cc.make_chsh_game()
        state = qs.make_werner(0.9)
        settings = cc.chsh_game_settings()
        for seed in range(5):
            expected = reference_entangled_protocol(task, state, settings, 2000, seed)
            assert cc.run_entangled_protocol(task, state, settings, 2000, seed) == expected

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_sequential(self, n):
        task = cc.make_mod4_task(n)
        for seed in range(3):
            expected = reference_sequential_protocol(task, 700, seed)
            assert cc.run_sequential_protocol(task, 700, seed) == expected


class TestSequentialProtocol:
    def test_deterministic_correctness(self):
        for n in range(2, 9):
            task = cc.make_mod4_task(n)
            result = cc.run_sequential_protocol(task, 10000, seed=n)
            assert result.fidelity == 1.0
            assert result.stderr == 0.0
            assert result.trials == 10000

    def test_rejects_other_tasks(self):
        with pytest.raises(cc.UnsupportedTaskError):
            cc.run_sequential_protocol(cc.make_chsh_game(), 10, seed=0)

    def test_seed_determinism(self):
        task = cc.make_mod4_task(4)
        assert cc.run_sequential_protocol(task, 500, seed=5) == cc.run_sequential_protocol(
            task, 500, seed=5
        )


class TestChshGame:
    def test_target_formula(self):
        assert cc.chsh_game_target(0, 0) == pytest.approx(0.85355339, abs=1e-8)
        assert cc.chsh_game_target(0, 1) == pytest.approx(0.85355339, abs=1e-8)
        assert cc.chsh_game_target(1, 0) == pytest.approx(0.85355339, abs=1e-8)
        assert cc.chsh_game_target(1, 1) == pytest.approx(0.14644661, abs=1e-8)

    def test_simulated_frequencies_match_targets(self):
        trials = 100000
        freq = cc.chsh_game_equality_frequencies(trials, seed=17)
        for x1 in (0, 1):
            for x2 in (0, 1):
                target = cc.chsh_game_target(x1, x2)
                sigma = np.sqrt(target * (1 - target) / trials)
                assert abs(freq[x1, x2] - target) < 3 * sigma, (x1, x2)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            cc.chsh_game_target(2, 0)


class TestTreeOracle:
    def test_reduced_form_matches_tree_search(self):
        # the one-bit-message reduction is exact: exhaustive search over
        # explicit communication trees gives the same optimum
        t2 = cc.make_mod4_task(2)
        assert cc.classical_optimum(t2).f_star == pytest.approx(
            tree_protocol_optimum(t2, "chain"), abs=1e-12
        )
        t3 = cc.make_mod4_task(3)
        best3 = cc.classical_optimum(t3).f_star
        assert best3 == pytest.approx(tree_protocol_optimum(t3, "star"), abs=1e-12)
        assert best3 == pytest.approx(tree_protocol_optimum(t3, "chain"), abs=1e-12)
        game = cc.make_chsh_game()
        assert cc.classical_optimum(game).f_star == pytest.approx(
            tree_protocol_optimum(game, "chain"), abs=1e-12
        )
