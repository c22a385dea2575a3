"""Task definitions, classical strategy search, and protocol simulations."""

import tracemalloc

import numpy as np
import pytest

from bellkit import commcomplex as cc
from bellkit import qstate as qs
from bellkit.corrtensor import compute_tensor
from contraction_reference import (
    reference_all_strategy_fidelities,
    reference_mod4_arrays,
    reference_signed_sum,
    reference_strategy_signs,
)
from entangled_reference import per_group_choice_protocol
from oracles import tree_protocol_optimum
from sequential_reference import whole_array_sequential_protocol


def traced_peak(fn, *args, **kwargs):
    """The tracemalloc peak, in bytes, of one call fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_the_sum_loop_builder(self, n):
        task = cc.make_mod4_task(n)
        f, support, p_prime = reference_mod4_arrays(n)
        assert np.array_equal(task.support, support)
        assert task.p_prime.tobytes() == p_prime.tobytes()
        assert task.f[support].tobytes() == f[support].tobytes()

    def test_support_is_the_read_only_promise(self):
        task = cc.make_chsh_game()
        assert task.support.all() and not task.support.flags.writeable
        task = cc.TaskSpec(3, np.ones((2,) * 3), np.eye(8)[5].reshape((2,) * 3))
        assert np.argwhere(task.support).tolist() == [[1, 0, 1]]
        assert not task.support.flags.writeable

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
            cc.TaskSpec(2, f, p)

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
            cc.TaskSpec(2, arrays["f"], arrays["p_prime"])

    def test_nan_f_off_support_is_ignored(self):
        base = cc.make_mod4_task(3)
        task = cc.TaskSpec(3, np.where(base.support, base.f, np.nan), base.p_prime)
        assert np.array_equal(task.g, base.g)
        opt, ref = cc.classical_optimum(task), cc.classical_optimum(base)
        assert (opt.f_star, opt.index) == (ref.f_star, ref.index)


def strategy_fidelity(task, signs):
    """F of one sign assignment, read from the exhaustive fidelity table."""
    codes = tuple(2 * int(c[0] < 0) + int(c[1] < 0) for c in np.asarray(signs))
    return float(reference_all_strategy_fidelities(task)[codes])


class TestReducedFidelity:
    def test_all_plus_strategy_two_parties(self):
        task = cc.make_mod4_task(2)
        assert strategy_fidelity(task, np.ones((2, 2))) == pytest.approx(0.0, abs=1e-15)

    def test_three_party_bound(self):
        task = cc.make_mod4_task(3)
        for idx in range(4**3):
            signs = reference_strategy_signs(3, idx)
            assert abs(strategy_fidelity(task, signs)) <= 0.5 + 1e-15

    def test_single_support_point(self):
        f = np.zeros((2, 2))
        f[1, 0] = -1.0
        p = np.zeros((2, 2))
        p[1, 0] = 1.0
        task = cc.TaskSpec(2, f, p)
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
            assert abs(reference_signed_sum(task.g, opt.signs)) == pytest.approx(
                opt.f_star, abs=1e-15
            )

    def test_first_lexicographic_maximizer(self):
        task = cc.make_mod4_task(3)
        opt = cc.classical_optimum(task)
        for idx in range(opt.index):
            signs = reference_strategy_signs(3, idx)
            assert abs(reference_signed_sum(task.g, signs)) < opt.f_star

    def test_strategy_index_round_trip(self):
        # flat index i of the exhaustive fidelities is the strategy
        # reference_strategy_signs decodes
        task = cc.make_mod4_task(3)
        fid = reference_all_strategy_fidelities(task).reshape(-1)
        for idx in range(4**3):
            signs = reference_strategy_signs(3, idx)
            assert reference_signed_sum(task.g, signs) == fid[idx]

    def test_chsh_game_bound(self):
        assert cc.classical_optimum(cc.make_chsh_game()).f_star == 0.5

    @pytest.mark.parametrize("n", range(13, 21))
    def test_mod4_beyond_twelve_parties(self, n):
        assert cc.classical_optimum(cc.make_mod4_task(n)).f_star == cc.mod4_classical_bound(n)

    def test_memory_at_twelve_parties(self):
        # the search over all 4^12 assignments held about 300 MB
        task = cc.make_mod4_task(12)
        tracemalloc.start()
        try:
            cc.classical_optimum(task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
        cases = []
        for trial in range(20):
            settings = rng.normal(size=(3, 2, 3))
            settings /= np.linalg.norm(settings, axis=2, keepdims=True)
            cases.append((cc.make_mod4_task(3), qs.make_ghz(3), settings, 100000, 1000 + trial))
        # a mixed state above N = 7
        noisy = qs.make_noisy_ghz(8, 0.6)
        cases.append((cc.make_mod4_task(8), noisy, cc.mod4_settings(8), 20000, 8))
        for task, state, settings, trials, seed in cases:
            analytic = cc.quantum_fidelity_analytic(task, state, settings)
            result = cc.run_entangled_protocol(task, state, settings, trials, seed=seed)
            assert abs(result.fidelity - analytic) < 4 * max(result.stderr, 1e-4)

    def test_one_born_call_per_run(self, monkeypatch):
        calls = []
        born = cc.measurement_distribution
        monkeypatch.setattr(
            cc, "measurement_distribution", lambda s, d: calls.append(np.shape(d)) or born(s, d)
        )
        for n, trials in ((5, 1000), (5, 3), (2, 1)):
            calls.clear()
            task = cc.make_mod4_task(n)
            cc.run_entangled_protocol(task, qs.make_ghz(n), cc.mod4_settings(n), trials, seed=3)
            drawn = np.unique(cc._draw_inputs(task, trials, seed=3)[0]).size
            assert calls == [(drawn, n, 3)]

    def test_seed_determinism(self):
        task = cc.make_mod4_task(3)
        a = cc.run_entangled_protocol(task, qs.make_ghz(3), cc.mod4_settings(3), 1000, seed=7)
        b = cc.run_entangled_protocol(task, qs.make_ghz(3), cc.mod4_settings(3), 1000, seed=7)
        assert a == b

    def test_peak_below_one_and_a_half_z_draws(self):
        # with the z bits held for the whole run it peaked at about 1.95 draws
        task, ghz, settings = cc.make_mod4_task(10), qs.make_ghz(10), cc.mod4_settings(10)
        z_bytes = 10**5 * 10 * 8  # the (trials, N) int64 z draw
        peak = traced_peak(cc.run_entangled_protocol, task, ghz, settings, 10**5, seed=3)
        assert peak < 1.5 * z_bytes

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


class TestProtocolsMatchPerGroupChoice:
    """The entangled protocol gives the results of one Generator.choice call
    per drawn group, at sizes the per-support-point reference cannot reach.
    A GHZ run with mod-4 settings scores 1 whatever is drawn, so the noisy
    state and random settings are what make the draws visible."""

    @pytest.mark.parametrize("n", [8, 10])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_mod4(self, n, noisy):
        task = cc.make_mod4_task(n)
        state = qs.make_noisy_ghz(n, 0.6) if noisy else qs.make_ghz(n)
        settings = np.random.default_rng(n).normal(size=(n, 2, 3))
        settings /= np.linalg.norm(settings, axis=2, keepdims=True)
        for sets in (cc.mod4_settings(n), settings):
            for seed, trials in ((0, 10**5), (7, 17), (123, 1)):
                expected = per_group_choice_protocol(task, state, sets, trials, seed)
                assert cc.run_entangled_protocol(task, state, sets, trials, seed) == expected


def sampler_cases():
    """(name, (rows, K) probability tables, per-row counts) for the sampler."""
    rng = np.random.default_rng(5)
    random = rng.random((6, 16))
    random /= random.sum(axis=1, keepdims=True)
    z_axis = np.tile([0.0, 0.0, 1.0], (3, 4, 1))  # GHZ along z: exact zeros inside
    ghz = qs.measurement_distribution(qs.make_ghz(4), z_axis).reshape(3, -1)
    even = cc.make_mod4_task(6).p_prime.reshape(1, -1)
    odd = np.where(even > 0, 0.0, 2.0**-5)  # zero at both ends
    return [
        ("random", random, [1, 7, 0, 300, 2, 33]),
        ("ghz-zeros", ghz, [50, 1, 999]),
        ("mod4-even", even, [4001]),
        ("odd-promise", odd, [777]),
        ("one-row", random[:1], [12345]),
        ("equal-counts", random, [500] * 6),
    ]


class TestSample:
    """_sample draws what consecutive per-row Generator.choice calls draw,
    and leaves the generator where they leave it."""

    @pytest.mark.parametrize("name, probs, counts", sampler_cases())
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_matches_choice(self, name, probs, counts, seed):
        ref = np.random.default_rng(seed)
        expected = np.concatenate(
            [ref.choice(len(row), k, p=row) for row, k in zip(probs, counts)]
        )
        rng = np.random.default_rng(seed)
        got = cc._sample(probs, counts, rng)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state  # the z draw stays aligned

    @pytest.mark.parametrize("task", [cc.make_mod4_task(5), cc.make_mod4_task(6)])
    def test_zeros_off_the_promise_draw_the_support_points(self, task):
        # on the full p' the flat steps off the promise are never drawn, so
        # the flat indices are those of a draw on the support alone
        support = np.flatnonzero(task.support)
        ref = np.random.default_rng(11)
        expected = support[ref.choice(support.size, 5000, p=task.p_prime.flat[support])]
        rng = np.random.default_rng(11)
        got = cc._sample(task.p_prime, [5000], rng)
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSequentialProtocol:
    def test_deterministic_correctness(self):
        for n in range(2, 9):
            task = cc.make_mod4_task(n)
            result = cc.run_sequential_protocol(task, 10000, seed=n)
            assert result.fidelity == 1.0
            assert result.stderr == 0.0
            assert result.trials == 10000

    def test_rejects_other_tasks(self):
        message = (
            "^the sequential single-qubit protocol is defined for the "
            "modulo-4 sum task only$"
        )
        with pytest.raises(ValueError, match=message):
            cc.run_sequential_protocol(cc.make_chsh_game(), 10, seed=0)

    @pytest.mark.parametrize("n", (2, 3, 4, 7))
    def test_mod4_check_matches_a_rebuilt_task(self, n):
        # the check reads the task's own arrays; a rebuilt mod4 task
        # decides every variant below the same way
        def rebuilt_says_mod4(task):
            ref = cc.make_mod4_task(task.n_parties)
            return bool(
                np.array_equal(task.support, ref.support)
                and np.allclose(task.p_prime, ref.p_prime)
                and np.array_equal(task.f[task.support], ref.f[ref.support])
            )

        mod4 = cc.make_mod4_task(n)
        flat = np.flatnonzero(mod4.support)
        f_flipped = mod4.f.copy()
        f_flipped.flat[flat[-1]] *= -1
        p_tilted = mod4.p_prime.copy()
        p_tilted.flat[flat[:2]] += (1e-3, -1e-3)
        p_close = mod4.p_prime.copy()
        p_close.flat[flat[:2]] += (1e-12, -1e-12)
        f_odd = np.where(mod4.support, mod4.f, 7.0)  # f off the promise is ignored
        odd = np.where(mod4.support, 0.0, 2.0 ** (1 - n))
        tasks = [
            (mod4, True),
            (cc.TaskSpec(n, f_odd, mod4.p_prime), True),
            (cc.TaskSpec(n, mod4.f, p_close), True),
            (cc.TaskSpec(n, f_flipped, mod4.p_prime), False),
            (cc.TaskSpec(n, mod4.f, p_tilted), False),
            (cc.TaskSpec(n, np.ones((2,) * n), odd), False),
        ]
        for task, is_mod4 in tasks:
            assert rebuilt_says_mod4(task) == is_mod4
            if is_mod4:
                assert cc.run_sequential_protocol(task, 50, seed=1).fidelity == 1.0
            else:
                with pytest.raises(ValueError, match="modulo-4 sum task only$"):
                    cc.run_sequential_protocol(task, 50, seed=1)

    def test_seed_determinism(self):
        task = cc.make_mod4_task(4)
        assert cc.run_sequential_protocol(task, 500, seed=5) == cc.run_sequential_protocol(
            task, 500, seed=5
        )

    @pytest.mark.parametrize("n", [2, 10, 20])
    @pytest.mark.parametrize("trials", [1, 8191, 8192, 8193, 10**5])
    def test_blocks_match_the_whole_array(self, n, trials):
        """The results equal those of the whole (trials, N) arrays, at trial
        counts around the 8192-trial blocks the phases were once built in."""
        task = cc.make_mod4_task(n)
        expected = whole_array_sequential_protocol(task, trials, seed=n)
        assert cc.run_sequential_protocol(task, trials, seed=n) == expected

    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_the_whole_array_at_every_size(self, n):
        task = cc.make_mod4_task(n)
        expected = whole_array_sequential_protocol(task, 20000, seed=100 + n)
        assert cc.run_sequential_protocol(task, 20000, seed=100 + n) == expected

    def test_peak_below_one_and_a_half_z_draws(self):
        # with the z bits held for the whole run it peaked at about 1.8 draws
        z_bytes = 10**5 * 10 * 8  # the (trials, N) int64 z draw
        peak = traced_peak(cc.run_sequential_protocol, cc.make_mod4_task(10), 10**5, seed=3)
        assert peak < 1.5 * z_bytes


def reference_chsh_game_frequencies(trials_per_pair, seed):
    """chsh_game_equality_frequencies with one Born call per input pair."""
    s = cc.chsh_game_settings()
    rng = np.random.default_rng(seed)
    freq = np.empty((2, 2))
    for x1, x2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        probs = qs.measurement_distribution(qs.make_ghz(2), [s[0, x1], s[1, x2]]).reshape(-1)
        idx = rng.choice(4, size=trials_per_pair, p=probs)
        freq[x1, x2] = ((idx == 0) | (idx == 3)).mean()
    return freq


class TestChshGame:
    @pytest.mark.parametrize("trials, seed", [(1, 0), (777, 5), (20000, 17)])
    def test_frequencies_match_reference(self, trials, seed):
        expected = reference_chsh_game_frequencies(trials, seed)
        assert cc.chsh_game_equality_frequencies(trials, seed).tobytes() == expected.tobytes()

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
        with pytest.raises(ValueError, match=r"^x1 must be in \[0, 1\], got 2$"):
            cc.chsh_game_target(2, 0)
        with pytest.raises(ValueError, match=r"^x2 must be in \[0, 1\], got -1$"):
            cc.chsh_game_target(0, -1)
        with pytest.raises(ValueError, match="^x1 must be an integer$"):
            cc.chsh_game_target(True, 1)
        with pytest.raises(ValueError, match="^x2 must be an integer$"):
            cc.chsh_game_target(0, 1.0)


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
