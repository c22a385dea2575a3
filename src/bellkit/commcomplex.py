"""Distributed computation games with N - 1 bits of communication.

A task is T = f(x_1..x_N) (-1)^(z_1+..+z_N) with a promise distribution
p'(x) on the x bits and uniform z bits.  The figure of merit is the
fidelity F = <T A> of the announced answer A; success probability is
(1 + F) / 2.  For one-bit-per-partner protocols the classical optimum
reduces to F = sum_x g(x) prod_n c_n(x_n) with g = f p' and per-party
sign functions c_n, maximized at sign assignments c_n(x_n) = +-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .corrtensor import compute_tensor
from .qstate import _check_count, _check_party_match, _check_unit_rows, _per_party
from .qstate import as_density, make_ghz, measurement_distribution

MAX_EXHAUSTIVE_PARTIES = 12


class UnsupportedTaskError(ValueError):
    """The task does not fit the requested protocol."""


@dataclass(frozen=True)
class TaskSpec:
    """A task function, its promise support, and the input distribution.

    ``f`` and ``p_prime`` are arrays of shape (2,)*n_parties indexed by the
    x bits; ``support`` is the boolean promise mask.  f must be +-1 on the
    support and is ignored elsewhere.
    """

    n_parties: int
    f: np.ndarray
    p_prime: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        n = _check_count(self.n_parties, "n_parties", 2)
        shape = (2,) * n
        f = np.asarray(self.f, dtype=float)
        p = np.asarray(self.p_prime, dtype=float)
        sup = np.asarray(self.support, dtype=bool)
        if f.shape != shape or p.shape != shape or sup.shape != shape:
            raise ValueError(f"f, p_prime and support must all have shape {shape}")
        # every check is written fail-closed, so that NaN is rejected
        bad = p[~(p >= 0)]
        if bad.size:
            raise ValueError(f"p_prime must be non-negative, got {bad[0]}")
        if not np.all(p[~sup] == 0):
            raise ValueError("p_prime must vanish off the promise support")
        total = float(p[sup].sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"p_prime must sum to 1 on the support, got {total!r}")
        if not np.all(np.abs(f[sup]) == 1.0):
            raise ValueError("f must be +1 or -1 on every support tuple")
        for arr in (f, p, sup):
            arr.setflags(write=False)
        object.__setattr__(self, "n_parties", n)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "p_prime", p)
        object.__setattr__(self, "support", sup)

    @property
    def g(self) -> np.ndarray:
        """Weight tensor g = f * p_prime, zero off the support whatever f is
        there (NaN included)."""
        return np.where(self.support, self.f, 0.0) * self.p_prime


def make_mod4_task(n: int) -> TaskSpec:
    """The modulo-4 sum game on n >= 2 partners.

    Promise: sum of the x bits is even.  On the support
    f = cos(pi/2 sum x) = +-1 and p' = 2^(1-n) |f| is uniform.
    """
    n = _check_count(n, "n_parties", 2)
    sums = np.zeros((2,) * n, dtype=int)
    for k in range(n):
        shape = [1] * n
        shape[k] = 2
        sums = sums + np.arange(2).reshape(shape)
    f = np.where(sums % 2 == 0, np.where(sums % 4 == 0, 1.0, -1.0), 0.0)
    support = sums % 2 == 0
    p_prime = np.where(support, 2.0 ** (1 - n), 0.0)
    return TaskSpec(n, f, p_prime, support)


def make_chsh_game() -> TaskSpec:
    """Two-partner game with no promise: f = +1 unless x1 = x2 = 1."""
    f = np.array([[1.0, 1.0], [1.0, -1.0]])
    p_prime = np.full((2, 2), 0.25)
    support = np.ones((2, 2), dtype=bool)
    return TaskSpec(2, f, p_prime, support)


@dataclass(frozen=True)
class ClassicalStrategy:
    """Per-party sign functions c_n: {0,1} -> {-1,+1}, as an (n, 2) array."""

    signs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.signs, dtype=int)
        if s.ndim != 2 or s.shape[1] != 2:
            raise ValueError(f"signs must have shape (n_parties, 2), got {s.shape}")
        if not np.all(np.abs(s) == 1):
            raise ValueError("strategy signs must be +1 or -1")
        s.setflags(write=False)
        object.__setattr__(self, "signs", s)

    @property
    def n_parties(self) -> int:
        return self.signs.shape[0]

    @classmethod
    def from_index(cls, n_parties: int, index: int) -> "ClassicalStrategy":
        """Decode a 2N-bit integer: party 1 in the highest bit pair, within
        a pair input 0 first; bit 0 encodes +1, bit 1 encodes -1."""
        n_parties = _check_count(n_parties, "n_parties", 1)
        index = _check_count(index, "index", 0, 4**n_parties - 1)
        bits = [(index >> (2 * n_parties - 1 - i)) & 1 for i in range(2 * n_parties)]
        signs = 1 - 2 * np.array(bits).reshape(n_parties, 2)
        return cls(signs)


# Rows are the four sign functions on one bit, ordered by their 2-bit code:
# (+1,+1), (+1,-1), (-1,+1), (-1,-1).
_PARTY_STRATEGIES = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)


def _all_strategy_fidelities(task: TaskSpec) -> np.ndarray:
    """Fidelity of every sign assignment, shape (4,)*n, C-ordered so that the
    flat index i is the strategy ClassicalStrategy.from_index(n, i)."""
    # each x_k axis becomes the axis of the 4 sign functions on x_k
    return _per_party(task.g, [_PARTY_STRATEGIES] * task.n_parties)


@dataclass(frozen=True)
class ClassicalOptimum:
    f_star: float
    strategy: ClassicalStrategy
    index: int


def classical_optimum(task: TaskSpec) -> ClassicalOptimum:
    """Exhaustive maximum of |F| over all 4^N sign assignments.

    Returns the first maximizer in lexicographic strategy order.  Raises
    for more than 12 parties; mod4_classical_bound gives the mod-4 task's
    bound in closed form beyond that.
    """
    n = task.n_parties
    if n > MAX_EXHAUSTIVE_PARTIES:
        raise ValueError(
            f"strategy space 4^{n} is too large for exhaustive search "
            f"(cap {MAX_EXHAUSTIVE_PARTIES}); for the mod-4 task use "
            "mod4_classical_bound"
        )
    fid = np.abs(_all_strategy_fidelities(task)).reshape(-1)
    idx = int(np.argmax(fid))
    return ClassicalOptimum(
        f_star=float(fid[idx]),
        strategy=ClassicalStrategy.from_index(n, idx),
        index=idx,
    )


# --- quantum protocols -------------------------------------------------------


def mod4_settings(n: int) -> np.ndarray:
    """In-plane measurement directions at angle (pi/2) x_k per party.

    With the n-qubit GHZ state the product of outcomes equals
    cos(pi/2 sum x) = f on every promise input, so the protocol is exact.
    """
    angles = np.array([[0.0, np.pi / 2]] * _check_count(n, "n_parties", 2))
    out = np.zeros((n, 2, 3))
    out[:, :, 0] = np.cos(angles)
    out[:, :, 1] = np.sin(angles)
    return out


def chsh_game_settings() -> np.ndarray:
    """Directions realizing the equality-probability target of the game:
    party 1 at angle (pi/2) x1 - pi/4, party 2 at (pi/2) x2."""
    angles = np.array([[-np.pi / 4, np.pi / 4], [0.0, np.pi / 2]])
    out = np.zeros((2, 2, 3))
    out[:, :, 0] = np.cos(angles)
    out[:, :, 1] = np.sin(angles)
    return out


def chsh_game_target(x1: int, x2: int) -> float:
    """Equality probability 1/2 + 1/2 cos(-pi/4 + pi/2 (x1 + x2))."""
    if x1 not in (0, 1) or x2 not in (0, 1):
        raise ValueError("inputs must be bits")
    return 0.5 + 0.5 * np.cos(-np.pi / 4 + (np.pi / 2) * (x1 + x2))


def _check_settings(task: TaskSpec, state, settings) -> np.ndarray:
    """The settings as a checked (n_parties, 2, 3) array of unit vectors,
    once the state has the task's party count."""
    _check_party_match("task", task.n_parties, "state", state.n_qubits)
    s = np.asarray(settings, dtype=float)
    if s.shape != (task.n_parties, 2, 3):
        raise ValueError(
            f"settings must have shape ({task.n_parties}, 2, 3), got {s.shape}"
        )
    return _check_unit_rows(s)


def quantum_fidelity_analytic(task: TaskSpec, state, settings) -> float:
    """F = sum_x g(x) E(x), with E(x) = <prod_k n_k(x_k).sigma> for every x
    from one contraction of the correlation tensor with the settings."""
    s = _check_settings(task, state, settings)
    e = _per_party(compute_tensor(as_density(state)).proper, s)
    # f is ignored off the support, so sum only there
    return float(np.sum(task.g[task.support] * e[task.support]))


@dataclass(frozen=True)
class ProtocolResult:
    fidelity: float
    success_prob: float
    trials: int
    stderr: float


def _make_result(scores: np.ndarray) -> ProtocolResult:
    trials = scores.size
    fidelity = float(scores.mean())
    stderr = float(scores.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return ProtocolResult(
        fidelity=fidelity,
        success_prob=(1.0 + fidelity) / 2.0,
        trials=trials,
        stderr=stderr,
    )


def _draw_inputs(task: TaskSpec, trials: int, seed: int) -> tuple:
    """Draw x from the promise, then z uniformly, on one default_rng(seed).

    Returns the flat indices of the support points (C order), the drawn
    positions in that array, the z bits, the targets T = f(x)
    (-1)^(z_1+..+z_N), and the generator, so the caller continues the same
    stream.
    """
    trials = _check_count(trials, "trials", 1)
    support = np.flatnonzero(task.support)
    rng = np.random.default_rng(seed)
    x_idx = rng.choice(support.size, size=trials, p=task.p_prime.reshape(-1)[support])
    z_bits = rng.integers(0, 2, size=(trials, task.n_parties))
    f_vals = task.f.reshape(-1)[support[x_idx]]
    targets = f_vals * (1 - 2 * (z_bits.sum(axis=1) % 2))
    return support, x_idx, z_bits, targets, rng


def _bits(flat: np.ndarray, n: int) -> np.ndarray:
    """The n index bits of flat indices into a (2,)*n array, axis 1 first."""
    return (flat[..., None] >> np.arange(n - 1, -1, -1)) & 1


def run_entangled_protocol(
    task: TaskSpec, state, settings, trials: int, seed: int
) -> ProtocolResult:
    """Monte Carlo run of the shared-state protocol.

    Every trial: draw x from the promise and z uniformly, sample the joint
    outcomes of the local observables n_k(x_k).sigma, have partners 1..N-1
    each send the single bit m_k = y_k gamma_k, and let the last partner
    announce A = y_N gamma_N prod m_k.  The score of a trial is T * A.
    """
    s = _check_settings(task, state, settings)
    n = task.n_parties
    support, x_idx, z_bits, targets, rng = _draw_inputs(task, trials, seed)

    # joint Born distribution is fixed per support point; sample per group,
    # groups in support order, trials in drawn order within a group
    order = np.argsort(x_idx, kind="stable")
    counts = np.bincount(x_idx, minlength=support.size)
    ends = np.cumsum(counts)
    outcome_idx = np.empty(trials, dtype=int)
    for i in np.flatnonzero(counts):
        rows = order[ends[i] - counts[i] : ends[i]]
        dirs = s[np.arange(n), _bits(support[i], n)]
        probs = measurement_distribution(state, dirs).reshape(-1)
        outcome_idx[rows] = rng.choice(probs.size, size=rows.size, p=probs)

    # bit b_k of the outcome index: 0 -> gamma_k = +1 (qubit 1 is the MSB)
    gamma = 1 - 2 * _bits(outcome_idx, n)
    y = 1 - 2 * z_bits
    messages = y[:, : n - 1] * gamma[:, : n - 1]
    assert messages.shape == (trials, n - 1)
    answers = y[:, n - 1] * gamma[:, n - 1] * np.prod(messages, axis=1)
    return _make_result((targets * answers).astype(float))


def _require_mod4(task: TaskSpec) -> None:
    """Structural check that the task is the modulo-4 sum game."""
    ref = make_mod4_task(task.n_parties)
    if (
        not np.array_equal(task.support, ref.support)
        or not np.allclose(task.p_prime, ref.p_prime)
        or not np.array_equal(task.f[task.support], ref.f[ref.support])
    ):
        raise UnsupportedTaskError(
            "the sequential single-qubit protocol is defined for the "
            "modulo-4 sum task only"
        )


def run_sequential_protocol(task: TaskSpec, trials: int, seed: int) -> ProtocolResult:
    """Entanglement-free protocol: one qubit hops through all partners.

    The qubit starts in (|0> + |1>)/sqrt(2); partner k applies the phase
    gate diag(1, exp(i(pi z_k + pi/2 x_k))) and passes it on.  The last
    partner measures in the (|0> +- |1>)/sqrt(2) basis and announces the
    outcome.  On the promise the accumulated phase is a multiple of pi,
    so the answer is always correct.  No classical bits are exchanged.

    The gate set is one minimal choice with this property; any per-party
    unitary producing the same relative phase works equally well.
    """
    _require_mod4(task)
    support, x_idx, z_bits, targets, rng = _draw_inputs(task, trials, seed)
    x_bits = _bits(support[x_idx], task.n_parties)

    phases = np.pi * z_bits + (np.pi / 2) * x_bits
    amp1 = np.exp(1j * phases.sum(axis=1))  # amplitude of |1> after all hops
    p_plus = np.clip((1.0 + amp1.real) / 2.0, 0.0, 1.0)
    answers = np.where(rng.random(trials) < p_plus, 1, -1)
    return _make_result((targets * answers).astype(float))


def chsh_game_equality_frequencies(trials_per_pair: int, seed: int) -> np.ndarray:
    """Simulate the two-partner game; entry [x1, x2] is the observed
    frequency of equal answers, to be compared with chsh_game_target."""
    trials_per_pair = _check_count(trials_per_pair, "trials_per_pair", 1)
    s = chsh_game_settings()
    state = make_ghz(2)
    rng = np.random.default_rng(seed)
    freq = np.empty((2, 2))
    for x1, x2 in product((0, 1), repeat=2):
        dirs = np.array([s[0, x1], s[1, x2]])
        probs = measurement_distribution(state, dirs).reshape(-1)
        idx = rng.choice(4, size=trials_per_pair, p=probs)
        equal = (idx == 0) | (idx == 3)
        freq[x1, x2] = equal.mean()
    return freq


def mod4_classical_bound(n: int) -> float:
    """B(N) = 2^(1-K) with K = N/2 for even N and (N+1)/2 for odd N."""
    n = _check_count(n, "n_parties", 2)
    k = n // 2 if n % 2 == 0 else (n + 1) // 2
    return 2.0 ** (1 - k)
