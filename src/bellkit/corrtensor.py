"""Generalized correlation tensors and their rank-1 maximization.

A state rho on N qubits decomposes as
    rho = 2^-N sum_{j1..jN} T_{j1..jN} sigma_{j1} x ... x sigma_{jN},
with T_{j1..jN} = Tr(rho sigma_{j1} x ... x sigma_{jN}) and index 0 the
identity.  "Proper" components are those with every index in 1..3; they
carry the N-party correlations contracted here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .qstate import MAX_QUBITS, DensityMatrix, NumericalIntegrityError, StateVector
from .qstate import _PAULI_PAIRS, _check_count, _check_party_match, _check_unit_rows
from .qstate import _pair_axes, _per_party, _read_only_copy, as_density

DEFAULT_RESTARTS = 32
DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 500


@dataclass(frozen=True)
class CorrelationTensor:
    """Real array of 4^N expectation values, shape (4,)*N, C-ordered.

    Takes over ``values``: a float array is frozen in place, not copied,
    because compute_tensor hands over the strided real part of its
    contraction and a copy would change the bits of the ascent run on it.
    """

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        n = _check_count(self.n_qubits, "n_qubits", 1, MAX_QUBITS)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (4,) * n:
            raise ValueError(f"values must have shape {(4,) * n}, got {vals.shape}")
        top = float(np.max(np.abs(vals)))
        if not top <= 1.0 + 1e-10:  # fail-closed: NaN is rejected
            raise ValueError(f"tensor component out of [-1, 1]: max |T| = {top!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "values", vals)

    @property
    def proper(self) -> np.ndarray:
        """View of the components with all indices in 1..3, shape (3,)*N."""
        return self.values[(slice(1, 4),) * self.n_qubits]


@dataclass(frozen=True)
class LocalFrame:
    """Per-party orthonormal measurement axes spanning each party's plane."""

    axes: np.ndarray  # shape (n_parties, 2, 3)

    def __post_init__(self):
        ax = _read_only_copy(self.axes, float)
        if ax.ndim != 3 or ax.shape[1:] != (2, 3):
            raise ValueError(f"axes must have shape (n_parties, 2, 3), got {ax.shape}")
        _check_count(ax.shape[0], "n_parties", 1, MAX_QUBITS)
        _check_unit_rows(ax)  # finite unit axes; the Gram test adds orthogonality
        gram = np.einsum("kaK,kbK->kab", ax, ax)
        err = float(np.max(np.abs(gram - np.eye(2))))
        if not err <= 1e-12:
            raise ValueError(f"axes not orthonormal: max Gram deviation {err:g}")
        object.__setattr__(self, "axes", ax)

    @property
    def n_parties(self) -> int:
        return self.axes.shape[0]


def xy_frame(n_parties: int) -> LocalFrame:
    """The standard frame with axes x, y for every party; one shared
    LocalFrame per count, which is frozen with read-only axes."""
    return _xy_frame(_check_count(n_parties, "n_parties", 1, MAX_QUBITS))


@functools.cache
def _xy_frame(n: int) -> LocalFrame:
    ax = np.zeros((n, 2, 3))
    ax[:, 0, 0] = 1.0
    ax[:, 1, 1] = 1.0
    return LocalFrame(ax)


def compute_tensor(state: StateVector | DensityMatrix) -> CorrelationTensor:
    """Extract the full correlation tensor of a pure or mixed state.

    Traces the density matrix qubit by qubit against the four Paulis on its
    (row, col) pairs, so the cost is O(N 4^N) instead of 4^N separate
    operator traces.

    The matrix is freed once its pairs are copied, if nothing else holds
    it: a caller's temporary state, or the projector of a pure state.  The
    contraction then holds two matrix sizes at most.
    """
    rho = as_density(state)
    n = rho.n_qubits
    pairs = [_pair_axes(rho.matrix, n)]
    del state, rho
    # handed over, not named: _per_party frees the copy after the first party
    arr = _per_party(pairs.pop(), [_PAULI_PAIRS] * n)
    residue = float(np.max(np.abs(arr.imag)))
    if residue > 1e-8:
        raise NumericalIntegrityError(
            f"correlation tensor has imaginary residue {residue:g}"
        )
    vals = arr.real
    if abs(vals[(0,) * n] - 1.0) > 1e-10:
        raise NumericalIntegrityError(
            f"identity component is {vals[(0,) * n]!r}, expected 1"
        )
    return CorrelationTensor(n, vals)


def tensor_dot(s: CorrelationTensor, q: CorrelationTensor) -> float:
    """Scalar product over proper components only."""
    _check_party_match("tensor", s.n_qubits, "second tensor", q.n_qubits)
    return float(np.sum(s.proper * q.proper))


def frame_components(t: CorrelationTensor, frame: LocalFrame) -> np.ndarray:
    """Tensor components along the frame axes: a (2,)*N array."""
    _check_party_match("tensor", t.n_qubits, "frame", frame.n_parties)
    return _per_party(t.proper, frame.axes)


def inplane_norm_sq(t: CorrelationTensor, frame: LocalFrame) -> float:
    """Sum of squared components over the two frame axes of every party."""
    comps = frame_components(t, frame)
    return float(np.sum(comps**2))


@dataclass(frozen=True)
class MaxProductResult:
    value: float
    directions: np.ndarray  # (N, 3) unit vectors attaining value
    converged: bool


# NumPy's SeedSequence hash constants (NEP 19, numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """init * mult^j mod 2^32 for j = first .. first + count - 1, shape (count, 1)."""
    return np.array(
        [init * pow(mult, j, 1 << 32) % (1 << 32) for j in range(first, first + count)],
        dtype=np.uint32,
    )[:, None]


_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 9)


@functools.cache
def _key_mix(first: int, restarts: int) -> np.ndarray:
    """The spawn keys 0 .. restarts - 1 hashed, times _MIX_R: (4, restarts), read-only."""
    mix = _hash_consts(_INIT_A, _MULT_A, first, 5)
    h = (np.arange(restarts, dtype=np.uint32) ^ mix[:4]) * mix[1:]
    h ^= h >> 16
    h *= _MIX_R
    h.setflags(write=False)
    return h


def _spawn_words(seed, restarts: int) -> np.ndarray:
    """The words SeedSequence(entropy=seed, spawn_key=(r,)).generate_state(4,
    np.uint64) gives for r = 0 .. restarts - 1 (below 2^32), shape
    (restarts, 4), derived in one pass from SeedSequence(seed).

    That one SeedSequence coerces the seed, with NumPy's own errors.  The
    spawn key r is the last entropy word, so the pool before it is that of
    SeedSequence(seed): NumPy pads short entropy with zero words, as its pool
    fill hashes zeros past the entropy.  Mixing r in takes the hash constants
    after 16 + 4 * max(0, L - 4) hashmix calls, L the entropy's uint32 word
    count; then come the 8 output hashes.  All arithmetic is on uint32
    arrays, which wrap modulo 2^32 like the C code; NumPy scalars would warn
    on overflow.
    """
    from numpy.random.bit_generator import _coerce_to_uint32_array

    ss = np.random.SeedSequence(seed)
    n_words = _coerce_to_uint32_array(ss.entropy).size  # SeedSequence's own coercion
    mixed = ss.pool[:, None] * _MIX_L - _key_mix(16 + 4 * max(0, n_words - 4), restarts)
    mixed ^= mixed >> 16
    out = (mixed[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUT_CONSTS[:8]) * _OUT_CONSTS[1:]
    out ^= out >> 16
    words = out[0::2].astype(np.uint64) | out[1::2].astype(np.uint64) << 32
    return np.ascontiguousarray(words.T)  # PCG64 reads each row's memory as is


@functools.cache
def _fixed_seed_type() -> type:
    """An ISeedSequence that hands each PCG64 the next row of given words;
    numpy.random is imported here, on first use, not with bellkit."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.rows = iter(words)

        def generate_state(self, n_words, dtype=np.uint32):
            return next(self.rows)

    return FixedSeed


def _random_starts(n: int, seed: int, restarts: int, d: int = 3) -> np.ndarray:
    """Unit start directions, shape (restarts, n, d), restart r drawn from
    its own (seed, r) stream: a PCG64 seeded bit for bit as by
    SeedSequence(entropy=seed, spawn_key=(r,)), from _spawn_words.  With
    seed=None the restarts share one fresh entropy: not reproducible."""
    fixed_seed = _fixed_seed_type()(_spawn_words(seed, restarts))
    raw = np.empty((restarts, n, d))
    for row in raw:
        row[...] = np.random.Generator(np.random.PCG64(fixed_seed)).normal(size=row.shape)
    # np.linalg.norm's sum, without its argument handling
    return raw / np.sqrt(np.add.reduce(raw * raw, axis=2, keepdims=True))


def _party_vectors(w: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The vectors w is contracted with: the b_k themselves when w has
    shape (d,)*N, the (1, b_k) when it has shape (d + 1,)*N."""
    if w.shape[0] == dirs.shape[2]:
        return dirs
    u = np.empty(dirs.shape[:2] + (w.shape[0],))
    u[:, :, 0] = 1.0
    u[:, :, 1:] = dirs
    return u


def _ascend(w: np.ndarray, starts: np.ndarray) -> MaxProductResult:
    """Alternating ascent of a multilinear form over unit directions b_k.

    ``starts`` (R, N, d) holds unit d-vectors; ``w`` has shape (d,)*N,
    contracted with the b_k themselves, or (d + 1,)*N, contracted with
    (1, b_k).  The form is linear in each b_k, so the best b_k given the
    others is the normalized gradient: every step is exact and monotone.
    The rows of ``starts`` are updated in place on (d,)*N forms; the best one is returned.

    A sweep shares the contractions with the parties already updated:
    ``pre`` holds w contracted with parties 0..k-1, so party k's gradient
    only contracts parties k+1..N-1, and after the last party ``pre`` is
    the (R,) values.  Every element is the same chain of contractions in
    party order as contracting from scratch, so the results are bitwise
    the same.  Each contraction is one einsum with a party's column view
    ``u[:, m]``; the views are built once and follow the updates of u.
    An einsum's bits depend on the layout only where it sums over the inner
    axis.  Callers' forms have C-ordered axes, so party 0's gradient chain runs
    on a copy with party 0 next to last: the same sums, over outer axes.
    """
    n, d = starts.shape[1:]
    u = _party_vectors(w, starts)
    # views u[:, m], and the b_k in them: each step writes b_k into u
    cols, outs = list(u.swapaxes(0, 1)), list(u[:, :, -d:].swapaxes(0, 1))
    full = w[None]  # einsum broadcasts it over the rows
    # pre has 1 + N - k axes at party k; this moves its axis 1 last
    last = [(0, *range(2, n + 1 - k), 1) for k in range(n)]
    grad0 = full.transpose(last[0])
    if n > 2:  # the same view of a copy of w with party 0 next to last in memory
        grad0 = np.moveaxis(w, 0, -2).copy().swapaxes(-1, -2)[None]
    values = functools.reduce(lambda a, col: np.einsum("ri...,ri->r...", a, col), cols, full)
    for _ in range(DEFAULT_MAX_SWEEPS):
        pre = full
        for k in range(n):
            grad = grad0 if k == 0 else pre.transpose(last[k])
            for col in cols[k + 1 :]:
                grad = np.einsum("ri...,ri->r...", grad, col)
            grad = grad[:, -d:]  # the constant component of (1, b_k) does not move
            norms = np.sqrt(np.add.reduce(grad * grad, axis=1, keepdims=True))
            ok = True if np.minimum.reduce(norms, axis=None) > 1e-300 else norms > 1e-300
            np.divide(grad, norms, out=outs[k], where=ok)  # a zero or NaN norm keeps its row
            pre = np.einsum("ri...,ri->r...", pre, cols[k])
        converged = np.abs(pre - values) < DEFAULT_TOL
        values = pre
        if converged.all():
            break
    best = int(np.argmax(values))
    return MaxProductResult(
        value=float(values[best]),
        directions=u[best, :, -d:].copy(),
        converged=bool(converged[best]),
    )


def _ascents(forms, seed, extra=()) -> list[MaxProductResult]:
    """_ascend on each form from its own copy of the DEFAULT_RESTARTS starts of seed,
    then the (N, d) rows of extra; d is the axis length, 3 on (4,)*N forms (_party_vectors)."""
    n, d = forms[0].ndim, min(forms[0].shape[0], 3)
    starts = [_random_starts(n, seed, DEFAULT_RESTARTS, d), np.reshape(extra, (-1, n, d))]
    return [_ascend(w, np.concatenate(starts)) for w in forms]


def max_product_value(
    t: CorrelationTensor, frame: LocalFrame | None = None, seed: int = 0
) -> MaxProductResult:
    """Maximize the correlation function over unit product directions.

    With ``frame=None`` each party ranges over all of 3-space; with a
    frame each party is restricted to its plane, and the ascent runs on the
    (2,)*N frame components with unit 2-vectors c_k, mapped back as
    b_k = c_k . axes_k.  Alternating ascent: the optimal vector for one
    party given the others is the normalized partial contraction, so every
    step is exact and monotone.  The DEFAULT_RESTARTS restarts are seeded
    from (seed, restart index); one extra start sits on the axes of the
    largest-magnitude component so the result is never below max |T| under
    the same restriction.

    Only the value is canonical: when several direction lists attain the
    maximum, the reported one depends on the seed.
    """
    w = t.proper if frame is None else frame_components(t, frame)
    best_idx = np.unravel_index(np.argmax(np.abs(w)), w.shape)
    (res,) = _ascents([w], seed, extra=np.eye(w.shape[0])[list(best_idx)])
    if frame is None:
        return res
    return replace(res, directions=np.einsum("ka,kaj->kj", res.directions, frame.axes))


def tensor_to_csv(t: CorrelationTensor, fh) -> None:
    """Write one row per index tuple in C order: columns j1..jN then the value."""
    n = t.n_qubits
    lead = min(2, n)  # index columns fixed per block: 4^lead blocks
    # The rows of one block as one %-template with a %r (float.__repr__) per
    # value: one C-level format call encodes 4^(N-lead) values.  Each pass
    # prepends an index column that varies slower than those there: C order.
    rows = "%r"
    for _ in range(n - lead):
        rows = "\r\n".join(d + "," + rows.replace("\r\n", "\r\n" + d + ",") for d in "0123")
    fh.write(",".join([f"j{k}" for k in range(1, n + 1)] + ["value"]) + "\r\n")
    prefixes = map(",".join, itertools.product("0123", repeat=lead))
    for prefix, values in zip(prefixes, t.values.reshape(4**lead, -1)):
        chunk = prefix + "," + rows.replace("\r\n", "\r\n" + prefix + ",") + "\r\n"
        fh.write(chunk % tuple(values.tolist()))
