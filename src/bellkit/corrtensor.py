"""Generalized correlation tensors and their rank-1 maximization.

A state rho on N qubits decomposes as
    rho = 2^-N sum_{j1..jN} T_{j1..jN} sigma_{j1} x ... x sigma_{jN},
with T_{j1..jN} = Tr(rho sigma_{j1} x ... x sigma_{jN}) and index 0 the
identity.  "Proper" components are those with every index in 1..3; they
carry the N-party correlations contracted here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import MAX_QUBITS, DensityMatrix, NumericalIntegrityError
from .qstate import _PAULI_PAIRS, _check_count, _check_party_match, _check_unit_rows
from .qstate import _pair_axes, _per_party

DEFAULT_RESTARTS = 32
DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 500


@dataclass(frozen=True)
class CorrelationTensor:
    """Real array of 4^N expectation values, shape (4,)*N, C-ordered."""

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
    """Per-party orthonormal measurement axes, two or three per party."""

    axes: np.ndarray  # shape (n_parties, n_axes, 3)

    def __post_init__(self):
        ax = np.asarray(self.axes, dtype=float)
        if ax.ndim != 3 or ax.shape[2] != 3 or ax.shape[1] not in (2, 3):
            raise ValueError(
                f"axes must have shape (n_parties, 2 or 3, 3), got {ax.shape}"
            )
        _check_count(ax.shape[0], "n_parties", 1, MAX_QUBITS)
        _check_unit_rows(ax)  # finite unit axes; the Gram test adds orthogonality
        gram = np.einsum("kaK,kbK->kab", ax, ax)
        err = float(np.max(np.abs(gram - np.eye(ax.shape[1]))))
        if not err <= 1e-12:
            raise ValueError(f"axes not orthonormal: max Gram deviation {err:g}")
        ax.setflags(write=False)
        object.__setattr__(self, "axes", ax)

    @property
    def n_parties(self) -> int:
        return self.axes.shape[0]

    @property
    def n_axes(self) -> int:
        return self.axes.shape[1]


def xy_frame(n_parties: int) -> LocalFrame:
    """The standard frame with axes x, y for every party."""
    ax = np.zeros((_check_count(n_parties, "n_parties", 1, MAX_QUBITS), 2, 3))
    ax[:, 0, 0] = 1.0
    ax[:, 1, 1] = 1.0
    return LocalFrame(ax)


def compute_tensor(rho: DensityMatrix) -> CorrelationTensor:
    """Extract the full correlation tensor of a density matrix.

    Traces qubit by qubit against the four Paulis on the matrix's (row,
    col) pairs, so the cost is O(N 4^N) instead of 4^N separate operator
    traces.
    """
    n = rho.n_qubits
    arr = _per_party(_pair_axes(rho.matrix, n), [_PAULI_PAIRS] * n)
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
    """Tensor components along the frame axes: an (n_axes,)*N array."""
    _check_party_match("tensor", t.n_qubits, "frame", frame.n_parties)
    return _per_party(t.proper, frame.axes)


def inplane_norm_sq(t: CorrelationTensor, frame: LocalFrame) -> float:
    """Sum of squared components over the two frame axes of every party."""
    if frame.n_axes != 2:
        raise ValueError(f"frame must have exactly 2 axes per party, got {frame.n_axes}")
    comps = frame_components(t, frame)
    return float(np.sum(comps**2))


@dataclass(frozen=True)
class MaxProductResult:
    value: float
    directions: np.ndarray  # (N, 3) unit vectors attaining value
    converged: bool


def _random_starts(
    n: int, seed: int, restarts: int, frame: LocalFrame | None = None
) -> np.ndarray:
    """Unit start directions, shape (restarts, n, 3), restart r drawn from
    its own (seed, r) stream; inside the frame planes when a frame is given."""
    raw = np.empty((restarts, n, 3 if frame is None else 2))
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        raw[r] = rng.normal(size=raw.shape[1:])
    vecs = raw if frame is None else np.einsum("rka,kaj->rkj", raw, frame.axes)
    return vecs / np.linalg.norm(vecs, axis=2, keepdims=True)


def _contract(out: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Contract the leading party axes of out (R, ...) in order with the
    rows of vecs (R, M, d): axis 1 + m meets vecs[:, m]."""
    for m in range(vecs.shape[1]):
        out = np.einsum("ri...,ri->r...", out, vecs[:, m, :])
    return out


def _party_vectors(w: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The vectors w is contracted with: the b_k themselves when w has
    shape (3,)*N, the (1, b_k) when it has shape (4,)*N."""
    if w.shape[0] == 3:
        return dirs
    u = np.empty(dirs.shape[:2] + (4,))
    u[:, :, 0] = 1.0
    u[:, :, 1:] = dirs
    return u


def _ascend(
    w: np.ndarray, starts: np.ndarray, frame: LocalFrame | None = None
) -> MaxProductResult:
    """Alternating ascent of a multilinear form over unit directions b_k.

    ``w`` has shape (3,)*N, contracted with the b_k themselves, or (4,)*N,
    contracted with (1, b_k).  The form is linear in each b_k, so the best
    b_k given the others is the normalized gradient (projected into the
    party's plane when a frame is given): every step is exact and monotone.
    ``starts`` (R, N, 3) is updated in place; the best row is returned.

    A sweep shares the contractions with the parties already updated:
    ``pre`` holds w contracted with parties 0..k-1, so party k's gradient
    only contracts parties k+1..N-1, and after the last party ``pre`` is
    the (R,) values.  Every element is the same chain of contractions in
    party order as contracting from scratch, so the results are bitwise
    the same.
    """
    dirs = starts
    u = _party_vectors(w, dirs)  # kept in step with dirs below
    full = np.broadcast_to(w, (dirs.shape[0],) + w.shape)
    values = _contract(full, u)
    for _ in range(DEFAULT_MAX_SWEEPS):
        pre = full
        for k in range(dirs.shape[1]):
            # the constant component of (1, b_k) does not move
            grad = _contract(np.moveaxis(pre, 1, -1), u[:, k + 1 :])[:, -3:]
            if frame is not None:
                coef = np.einsum("ri,ai->ra", grad, frame.axes[k])
                grad = np.einsum("ra,ai->ri", coef, frame.axes[k])
            norms = np.linalg.norm(grad, axis=1)
            ok = norms > 1e-300
            dirs[ok, k, :] = grad[ok] / norms[ok, None]
            u[:, k, -3:] = dirs[:, k]
            pre = _contract(pre, u[:, k : k + 1])
        converged = np.abs(pre - values) < DEFAULT_TOL
        values = pre
        if converged.all():
            break
    best = int(np.argmax(values))
    return MaxProductResult(
        value=float(values[best]),
        directions=dirs[best].copy(),
        converged=bool(converged[best]),
    )


def max_product_value(
    t: CorrelationTensor, frame: LocalFrame | None = None, seed: int = 0
) -> MaxProductResult:
    """Maximize the correlation function over unit product directions.

    With ``frame=None`` each party ranges over all of 3-space; with a
    two-axis frame each party is restricted to its plane.  Alternating
    ascent: the optimal vector for one party given the others is the
    normalized partial contraction, so every step is exact and monotone.
    The DEFAULT_RESTARTS restarts are seeded from (seed, restart index);
    one extra start sits on the axes of the largest-magnitude component so
    the result is never below max |T| under the same restriction.

    Only the value is canonical: when several direction lists attain the
    maximum, the reported one depends on the seed.
    """
    n = t.n_qubits
    proper = t.proper
    if frame is None:
        best_idx = np.unravel_index(np.argmax(np.abs(proper)), proper.shape)
        axis_start = np.eye(3)[list(best_idx)]
    else:
        if frame.n_axes != 2:
            raise ValueError("plane restriction needs a frame with 2 axes per party")
        comps = frame_components(t, frame)
        best_idx = np.unravel_index(np.argmax(np.abs(comps)), comps.shape)
        axis_start = frame.axes[np.arange(n), list(best_idx)]
    starts = np.concatenate([_random_starts(n, seed, DEFAULT_RESTARTS, frame), axis_start[None]])
    return _ascend(proper, starts, frame)


def tensor_to_csv(t: CorrelationTensor, fh) -> None:
    """Write one row per index tuple in C order: columns j1..jN then the value."""
    n = t.n_qubits
    # All rows as one %-template with a %r (float.__repr__) per value, so one
    # C-level format call encodes the whole tensor.  Each pass prepends an
    # index column that varies slower than those already there: C order.
    body = "%r\r\n"
    for _ in range(n):
        rows = body[:-2]
        body = "".join(
            d + "," + rows.replace("\r\n", "\r\n" + d + ",") + "\r\n" for d in "0123"
        )
    header = ",".join([f"j{k}" for k in range(1, n + 1)] + ["value"])
    fh.write((header + "\r\n" + body) % tuple(t.values.reshape(-1).tolist()))
