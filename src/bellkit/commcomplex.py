"""Distributed computation games with N - 1 bits of communication.

A task is T = f(x_1..x_N) (-1)^(z_1+..+z_N) with a promise distribution
p'(x) on the x bits and uniform z bits.  The figure of merit is the
fidelity F = <T A> of the announced answer A; success probability is
(1 + F) / 2.  For one-bit-per-partner protocols the classical optimum
reduces to F = sum_x g(x) prod_n c_n(x_n) with g = f p' and per-party
sign functions c_n, maximized at sign assignments c_n(x_n) = +-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .bellcheck import inplane_direction
from .corrtensor import compute_tensor
from .qstate import _check_count, _check_party_match, _check_unit_rows, _per_party
from .qstate import _check_state, _read_only_copy, make_ghz, measurement_distribution


@dataclass(frozen=True)
class TaskSpec:
    """A task function and the input distribution.

    ``f`` and ``p_prime`` are arrays of shape (2,)*n_parties indexed by the
    x bits.  The promise is where p_prime is positive; ``support`` holds it
    as a read-only boolean mask.  f must be +-1 on the support and is
    ignored elsewhere.
    """

    n_parties: int
    f: np.ndarray
    p_prime: np.ndarray
    support: np.ndarray = field(init=False)

    def __post_init__(self):
        n = _check_count(self.n_parties, "n_parties", 2)
        shape = (2,) * n
        f = _read_only_copy(self.f, float)
        p = _read_only_copy(self.p_prime, float)
        if f.shape != shape or p.shape != shape:
            raise ValueError(f"f and p_prime must both have shape {shape}")
        # every check is written fail-closed, so that NaN is rejected
        bad = p[~(p >= 0)]
        if bad.size:
            raise ValueError(f"p_prime must be non-negative, got {bad[0]}")
        sup = p > 0
        sup.setflags(write=False)
        total = float(p[sup].sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"p_prime must sum to 1 on the support, got {total!r}")
        if not np.all(np.abs(f[sup]) == 1.0):
            raise ValueError("f must be +1 or -1 on every support tuple")
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

    f = cos(pi/2 sum x) is the real part of the product of the per-party
    phases i^(x_k), exact in products of 0, +-1 and +-i: +-1 where the sum
    of the x bits is even (the promise) and zero where it is odd.
    p' = 2^(1-n) |f| is uniform on the promise.
    """
    n = _check_count(n, "n_parties", 2)
    f = reduce(np.kron, [np.array([1, 1j])] * n).real.reshape((2,) * n)
    return TaskSpec(n, f, 2.0 ** (1 - n) * np.abs(f))


def make_chsh_game() -> TaskSpec:
    """Two-partner game with no promise: f = +1 unless x1 = x2 = 1."""
    f = np.array([[1.0, 1.0], [1.0, -1.0]])
    return TaskSpec(2, f, np.full((2, 2), 0.25))


# The two sign functions on one bit with c(0) = +1, by 2-bit code:
# (+1,+1) = 0, (+1,-1) = 1.  Codes 2 and 3 are their negations.
_HALF_STRATEGIES = np.array([[1, 1], [1, -1]], dtype=float)


@dataclass(frozen=True)
class ClassicalOptimum:
    """The largest |F|, and the first sign assignment that reaches it.

    ``signs`` is a read-only int (n_parties, 2) array: row k holds
    c_k(0), c_k(1).  ``index`` is the assignment's position in the
    lexicographic order of all 4^N: party 1 in the highest base-4 digit,
    whose code is 2 [c(0) = -1] + [c(1) = -1].
    """

    f_star: float
    signs: np.ndarray
    index: int


def classical_optimum(task: TaskSpec) -> ClassicalOptimum:
    """Exact maximum of |F| over all 4^N sign assignments.

    Negating one party's sign function negates F, so only the 2^N
    assignments with c_k(0) = +1 are contracted: O(N 2^N) time, O(2^N)
    memory.  Each contraction step rounds a +- b once, so the negated
    assignments would give exactly -F, and every one of them comes later
    in lexicographic order than its twin.  The result is therefore the
    first maximizer in lexicographic strategy order among all 4^N.
    """
    n = task.n_parties
    fid = np.abs(_per_party(task.g, [_HALF_STRATEGIES] * n)).reshape(-1)
    best = int(np.argmax(fid))
    bits = format(best, f"0{n}b")  # party 1 first
    return ClassicalOptimum(
        f_star=float(fid[best]),
        signs=_read_only_copy(_HALF_STRATEGIES[list(map(int, bits))], int),
        index=int(bits, 4),  # party k's bit becomes its code
    )


# --- quantum protocols -------------------------------------------------------


def mod4_settings(n: int) -> np.ndarray:
    """In-plane measurement directions at angle (pi/2) x_k per party.

    With the n-qubit GHZ state the product of outcomes equals
    cos(pi/2 sum x) = f on every promise input, so the protocol is exact.
    """
    angles = np.array([[0.0, np.pi / 2]] * _check_count(n, "n_parties", 2))
    return inplane_direction(angles)


def chsh_game_settings() -> np.ndarray:
    """Directions realizing the equality-probability target of the game:
    party 1 at angle (pi/2) x1 - pi/4, party 2 at (pi/2) x2."""
    angles = np.array([[-np.pi / 4, np.pi / 4], [0.0, np.pi / 2]])
    return inplane_direction(angles)


def chsh_game_target(x1: int, x2: int) -> float:
    """Equality probability 1/2 + 1/2 cos(-pi/4 + pi/2 (x1 + x2))."""
    x1, x2 = _check_count(x1, "x1", 0, 1), _check_count(x2, "x2", 0, 1)
    return 0.5 + 0.5 * np.cos(-np.pi / 4 + (np.pi / 2) * (x1 + x2))


def _check_settings(task: TaskSpec, state, settings) -> np.ndarray:
    """The settings as a checked (n_parties, 2, 3) array of unit vectors,
    once the state has the task's party count."""
    _check_state(state)
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
    e = _per_party(compute_tensor(state).proper, s)
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


def _sample(probs: np.ndarray, counts, rng) -> np.ndarray:
    """counts[i] flat indices drawn from table i of the stack probs, table by
    table, from one rng.random(sum(counts)).  Each table's cdf is inverted as
    Generator.choice inverts its p, less choice's checks of p: the indices
    and the generator's state after are those of one choice call per table.
    A zero entry is a flat step of the cdf, which side="right" never draws."""
    u = rng.random(int(np.sum(counts)))
    ends = np.cumsum(counts)
    out = np.empty(u.size, dtype=np.int64)
    for row, a, b in zip(probs.reshape(len(counts), -1), ends - counts, ends):
        cdf = row.cumsum()
        cdf /= cdf[-1]
        out[a:b] = cdf.searchsorted(u[a:b], side="right")
    return out


def _draw_inputs(task: TaskSpec, trials: int, seed: int) -> tuple:
    """Draw x from the promise, then z uniformly, on one default_rng(seed).

    Returns the drawn x as flat indices (C order), the per-trial sums
    z_1+..+z_N, the targets T = f(x) (-1)^(z_1+..+z_N), and the generator,
    so the caller continues the same stream.  The (trials, N) z bits are
    summed and freed here.
    """
    trials = _check_count(trials, "trials", 1)
    rng = np.random.default_rng(seed)
    x = _sample(task.p_prime, [trials], rng)
    z_sums = rng.integers(0, 2, size=(trials, task.n_parties)).sum(axis=1)
    targets = task.f.reshape(-1)[x] * (1 - 2 * (z_sums % 2))
    return x, z_sums, targets, rng


def _bits(flat: np.ndarray, n: int) -> np.ndarray:
    """The n index bits of flat indices into a (2,)*n array, axis 1 first."""
    return (flat[..., None] >> np.arange(n - 1, -1, -1)) & 1


def _bit_counts(flat: np.ndarray, n: int) -> np.ndarray:
    """The number of set bits among the n index bits of each flat index."""
    return sum((flat >> k) & 1 for k in range(n))


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
    x, z_sums, targets, rng = _draw_inputs(task, trials, seed)

    # joint Born distribution is fixed per support point; sample per group,
    # groups in support order, trials in drawn order within a group
    drawn, counts = np.unique(x, return_counts=True)
    tables = measurement_distribution(state, s[np.arange(n), _bits(drawn, n)])
    outcome_idx = np.empty(trials, dtype=int)
    outcome_idx[np.argsort(x, kind="stable")] = _sample(tables, counts, rng)
    del tables  # 4 MB at N = 10

    # A = prod_k y_k gamma_k with y_k = (-1)^z_k and gamma_k = (-1)^(bit k of
    # the outcome index), so A is -1 to the z sum plus the index's bit count
    answers = 1 - 2 * ((z_sums + _bit_counts(outcome_idx, n)) & 1)
    return _make_result((targets * answers).astype(float))


def _require_mod4(task: TaskSpec) -> None:
    """Structural check that the task is the modulo-4 sum game: the promise
    is the even-parity inputs, p' = 2^(1-n) on it and f = cos(pi/2 sum x)
    there, read from the task's own arrays."""
    n = task.n_parties
    x_sum = reduce(np.add.outer, [np.arange(2)] * n)
    even = x_sum % 2 == 0
    if (
        not np.array_equal(task.support, even)
        or not np.allclose(task.p_prime[even], 2.0 ** (1 - n))
        or not np.array_equal(task.f[even], np.where(x_sum[even] % 4 == 0, 1.0, -1.0))
    ):
        raise ValueError(
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
    x, z_sums, targets, rng = _draw_inputs(task, trials, seed)
    x_sums = _bit_counts(x, task.n_parties)
    # amplitude of |1> after all hops, whose phases add up
    amp1 = np.exp(1j * (np.pi * z_sums + (np.pi / 2) * x_sums))
    p_plus = np.clip((1.0 + amp1.real) / 2.0, 0.0, 1.0)
    answers = np.where(rng.random(trials) < p_plus, 1, -1)
    return _make_result((targets * answers).astype(float))


def chsh_game_equality_frequencies(trials_per_pair: int, seed: int) -> np.ndarray:
    """Simulate the two-partner game; entry [x1, x2] is the observed
    frequency of equal answers, to be compared with chsh_game_target."""
    trials_per_pair = _check_count(trials_per_pair, "trials_per_pair", 1)
    s = chsh_game_settings()
    x = _bits(np.arange(4), 2)  # the input pairs (x1, x2) in C order
    tables = measurement_distribution(make_ghz(2), s[np.arange(2), x])
    idx = _sample(tables, [trials_per_pair] * 4, np.random.default_rng(seed))
    return ((idx == 0) | (idx == 3)).reshape(2, 2, trials_per_pair).mean(axis=2)


def mod4_classical_bound(n: int) -> float:
    """B(N) = 2^(1-K) with K = N/2 for even N and (N+1)/2 for odd N."""
    n = _check_count(n, "n_parties", 2)
    k = n // 2 if n % 2 == 0 else (n + 1) // 2
    return 2.0 ** (1 - k)
