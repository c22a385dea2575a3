"""N-qubit states, local measurements and the JSON state format.

Basis convention: qubit 1 is the most significant bit of the
computational-basis index, so ``np.kron(a, b)`` places ``a`` on qubit 1.
Pauli index convention: 0 = identity, 1/2/3 = x/y/z.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

# Dense 2^N amplitudes / 4^N tensor components stay small up to this cap.
MAX_QUBITS = 10

# Single-qubit Pauli operators, indexed 0..3 (identity, x, y, z).
PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# The same operators against the (row, col) bit pair of one qubit's matrix
# entry, flattened to 2 row + col: [j, 2 r + c] = sigma_j[c, r], so that
# summing rho[r, c] against row j gives Tr(rho sigma_j).
_PAULI_PAIRS = PAULI.transpose(0, 2, 1).reshape(4, 4)


class NumericalIntegrityError(ArithmeticError):
    """A computed quantity is invalid: an imaginary residue, a negative
    probability or an overflow."""


def _is_int(v) -> bool:
    """v is an int or a NumPy integer; bool is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_count(count, name: str, lo: int, hi: int | None = None) -> int:
    """A count (of qubits, parties, terms) or an index as a Python int; a
    ValueError naming ``name`` unless it is an int or a NumPy integer (bool
    is not) in [lo, hi], or at least lo when hi is None."""
    if not _is_int(count):
        raise ValueError(f"{name} must be an integer")
    if hi is None and not lo <= count:
        raise ValueError(f"{name} must be at least {lo}, got {count}")
    if hi is not None and not lo <= count <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {count}")
    return int(count)


def _check_party_match(first: str, n: int, second: str, m: int) -> None:
    """A ValueError unless the two named objects have as many parties."""
    if n != m:
        raise ValueError(f"party count mismatch: {first} has {n}, {second} has {m}")


def _check_visibility(v: float) -> None:
    if not 0.0 <= v <= 1.0:  # fail-closed: NaN is rejected
        raise ValueError(f"visibility must be in [0, 1], got {v}")


@dataclass(frozen=True)
class StateVector:
    """Pure N-qubit state as a dense complex amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _check_count(self.n_qubits, "n_qubits", 1, MAX_QUBITS)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2**n,):
            raise ValueError(
                f"amplitude vector must have length {2**n}, got {amps.shape[0]}"
            )
        with np.errstate(over="ignore"):  # an overflow gives inf, rejected below
            norm_sq = float(np.sum(np.abs(amps) ** 2))
        # tolerance tests are written fail-closed so that NaN is rejected
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def projector(self) -> "DensityMatrix":
        """Return |psi><psi| as a DensityMatrix."""
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.n_qubits, mat)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed N-qubit state: Hermitian, unit-trace, positive 2^N x 2^N matrix."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = _check_count(self.n_qubits, "n_qubits", 1, MAX_QUBITS)
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**n
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got {mat.shape}")
        herm_err = float(np.max(np.abs(mat - mat.conj().T)))
        if not herm_err <= 1e-12:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm_err:g}")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= 1e-12:
            raise ValueError(f"trace must be 1, got {tr!r}")
        _require_positive(mat, "matrix not positive: min eigenvalue = {:g}")
        mat.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def _require_positive(mat: np.ndarray, message: str) -> None:
    """Raise ValueError(message.format(min_eig)) if the Hermitian matrix has
    an eigenvalue below -1e-10.

    A Cholesky factor of mat + 1e-10 I proves there is none, at a fraction of
    the cost of a full eigendecomposition.  Only when the factorization fails
    is the smallest eigenvalue computed, and it decides.
    """
    shifted = mat.copy()
    shifted.reshape(-1)[:: mat.shape[0] + 1] += 1e-10
    try:
        np.linalg.cholesky(shifted)
        return
    except np.linalg.LinAlgError:
        pass
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    if not min_eig >= -1e-10:
        raise ValueError(message.format(min_eig))


def as_density(state) -> DensityMatrix:
    """The density matrix of a state: the projector of a StateVector, a
    DensityMatrix unchanged."""
    return state.projector() if isinstance(state, StateVector) else state


def make_ghz(n: int) -> StateVector:
    """GHZ state (|0...0> + |1...1>)/sqrt(2) on n qubits, 2 <= n <= MAX_QUBITS."""
    n = _check_count(n, "GHZ size", 2, MAX_QUBITS)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(n, amps)


def make_noisy_ghz(n: int, v: float) -> DensityMatrix:
    """Mixture v |GHZ><GHZ| + (1 - v) I / 2^n with visibility v in [0, 1]."""
    _check_visibility(v)
    ghz = make_ghz(n)
    dim = 2**n
    mat = v * np.outer(ghz.amplitudes, ghz.amplitudes.conj())
    mat += (1.0 - v) / dim * np.eye(dim)
    return DensityMatrix(n, mat)


def make_werner(v: float) -> DensityMatrix:
    """Two-qubit mixture v |psi-><psi-| + (1 - v) I / 4.

    The maximally entangled component is the singlet (|01> - |10>)/sqrt(2),
    whose proper correlation tensor is diag(-1, -1, -1).
    """
    _check_visibility(v)
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1.0 / np.sqrt(2.0)
    singlet[2] = -1.0 / np.sqrt(2.0)
    mat = v * np.outer(singlet, singlet.conj()) + (1.0 - v) / 4.0 * np.eye(4)
    return DensityMatrix(2, mat)


def product_matrix(blochs) -> np.ndarray:
    """Kronecker product of (I + b . sigma) / 2 over the Bloch vectors b,
    qubit 1 first.  The norms |b| <= 1 are not checked."""
    mat = np.array([[1.0 + 0j]])
    for b in np.asarray(blochs, dtype=float).reshape(-1, 3):
        qubit = 0.5 * (PAULI[0] + b[0] * PAULI[1] + b[1] * PAULI[2] + b[2] * PAULI[3])
        mat = np.kron(mat, qubit)
    return mat


def _per_party(arr: np.ndarray, mats) -> np.ndarray:
    """Contract one local map per party into arr, party 1 first.

    Each step contracts the leading axis of arr with the last axis of the
    map and appends the map's other axes, so after all parties their axes
    are back in party order.  With arr as the first operand the result is
    C-contiguous in that order; sums over it run in memory order, so their
    bits depend on it.
    """
    for m in mats:
        arr = np.tensordot(arr, m, axes=([0], [m.ndim - 1]))
    return arr


def _pair_axes(mat: np.ndarray, n: int) -> np.ndarray:
    """A 2^n x 2^n matrix as a (4,)*n array: axis k holds qubit k's
    (row, col) bit pair, flattened to 2 row + col."""
    order = [a for k in range(n) for a in (k, n + k)]
    return mat.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)


def _check_unit_rows(dirs: np.ndarray) -> np.ndarray:
    """dirs, a float array of 3-vectors along its last axis, if every one
    has unit norm to 1e-12; otherwise a ValueError naming the first bad
    norm.  Written fail-closed: NaN and infinite entries are rejected."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail below
        norms = np.linalg.norm(dirs, axis=-1)
    bad = ~(np.abs(norms - 1.0) <= 1e-12)
    if bad.any():
        raise ValueError(f"direction must be a unit 3-vector, got norm {float(norms[bad][0])!r}")
    return dirs


def _measurement_bases(dirs: np.ndarray) -> np.ndarray:
    """For every row n of a (k, 3) array of unit vectors, unchecked, the
    unitary whose columns are the +1 / -1 eigenvectors of n . sigma; shape
    (k, 2, 2)."""
    nx, ny, nz = np.ascontiguousarray(dirs.T)
    theta = np.arccos(np.clip(nz, -1.0, 1.0))
    phi = np.arctan2(ny, nx)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ph = np.exp(1j * phi)
    return np.stack([np.stack([c, -s], -1), np.stack([s * ph, c * ph], -1)], -2)


def measurement_distribution(state, directions) -> np.ndarray:
    """Born probabilities for local measurements of n_k . sigma on each qubit.

    Returns an array of shape (2,)*N; index bit 0 along qubit k means
    outcome +1 on that qubit, bit 1 means outcome -1.
    """
    dirs = np.asarray(directions, dtype=float)
    n = state.n_qubits
    if dirs.shape != (n, 3):
        raise ValueError(f"need {n} directions of 3 components, got shape {dirs.shape}")
    basis = _measurement_bases(_check_unit_rows(dirs))
    if isinstance(state, StateVector):
        amp = state.amplitudes.reshape((2,) * n)
        for k in range(n):
            # contract qubit k with U^dag; new axis lands at the end
            amp = np.tensordot(basis[k].conj().T, amp, axes=([1], [k]))
            amp = np.moveaxis(amp, 0, k)
        probs = np.abs(amp) ** 2
    elif isinstance(state, DensityMatrix):
        mat = state.matrix.reshape((2,) * (2 * n))
        for k in range(n):
            mat = np.moveaxis(
                np.tensordot(basis[k].conj().T, mat, axes=([1], [k])), 0, k
            )
            mat = np.moveaxis(
                np.tensordot(mat, basis[k], axes=([n + k], [0])), -1, n + k
            )
        diag = np.einsum(
            "ii->i", mat.reshape((2**n, 2**n))
        )
        probs = diag.real.reshape((2,) * n)
    else:
        raise TypeError(f"expected StateVector or DensityMatrix, got {type(state)!r}")
    low = float(probs.min())
    if not low >= -1e-10:
        raise NumericalIntegrityError(f"negative Born probability {low:g}")
    probs = np.clip(probs, 0.0, None)  # rounding residues only
    return probs / probs.sum()


# --- JSON state format -------------------------------------------------------
#
# { "n_qubits": int, "kind": "pure" | "mixed", "data": [[re, im], ...] }
# "pure": 2^N amplitude pairs; "mixed": 4^N matrix entries in row-major order.


def state_to_json(state) -> dict:
    """Encode a StateVector or DensityMatrix as a JSON-ready dict."""
    if isinstance(state, StateVector):
        flat = state.amplitudes
        kind = "pure"
    elif isinstance(state, DensityMatrix):
        flat = state.matrix.reshape(-1)
        kind = "mixed"
    else:
        raise TypeError(f"expected StateVector or DensityMatrix, got {type(state)!r}")
    data = np.stack([flat.real, flat.imag], axis=1).tolist()
    return {"n_qubits": state.n_qubits, "kind": kind, "data": data}


def _float_array(value):
    """A list of JSON numbers (int or float, not bool), or a list of
    equal-length lists of them, as a float array; None for any other value
    or an integer beyond the float range.  NaN and infinities pass."""
    if not isinstance(value, list):
        return None
    kinds = set(map(type, value))
    widths = set(map(len, value)) if kinds == {list} else set()
    if len(widths) == 1:
        kinds = set(map(type, itertools.chain.from_iterable(value)))
    if not kinds <= {int, float}:
        return None
    try:
        if not widths:
            return np.array(value, dtype=float)
        (width,) = widths
        numbers = itertools.chain.from_iterable(value)
        flat = np.fromiter(numbers, float, count=len(value) * width)
        return flat.reshape(len(value), width)
    except OverflowError:  # an integer beyond the float range
        return None


def state_from_json(obj):
    """Decode the JSON state format; raises ValueError naming the bad field."""
    if not isinstance(obj, dict):
        raise ValueError("state document must be a JSON object")
    for field in ("n_qubits", "kind", "data"):
        if field not in obj:
            raise ValueError(f"missing field '{field}'")
    n = _check_count(obj["n_qubits"], "field 'n_qubits'", 1, MAX_QUBITS)
    kind = obj["kind"]
    if kind not in ("pure", "mixed"):
        raise ValueError("field 'kind' must be 'pure' or 'mixed'")
    data = obj["data"]
    if not isinstance(data, list):
        raise ValueError("field 'data' must be a list of [re, im] pairs")
    expected = 2**n if kind == "pure" else 4**n
    if len(data) != expected:
        raise ValueError(f"field 'data' must have {expected} entries, got {len(data)}")
    bad_pair = "field 'data[{}]' must be a finite [re, im] number pair"
    pairs = _float_array(data)
    if pairs is None or pairs.shape != (expected, 2):
        # some pair fails on its own; name the first one
        for i, pair in enumerate(data):
            row = _float_array(pair)
            if row is None or row.shape != (2,):
                raise ValueError(bad_pair.format(i))
    flat = pairs.view(complex).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ValueError(bad_pair.format(bad[0]))
    # Drop the document before validation allocates: at N = 10 it is several
    # times the size of the matrix.  load_state passes it as a temporary, so
    # these are its last references.
    del obj, data
    if kind == "pure":
        return StateVector(n, flat)
    return DensityMatrix(n, flat.reshape(2**n, 2**n))


def save_state(path, state) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh)
        fh.write("\n")


def _load_json(fh, what: str):
    """json.load(fh), with a ValueError in place of the RecursionError of a
    document that nests too deeply."""
    try:
        return json.load(fh)
    except RecursionError:
        raise ValueError(f"{what} document nests too deeply") from None


def load_state(path):
    with open(path, "r", encoding="utf-8") as fh:
        # no name holds the document, so state_from_json can free it
        return state_from_json(_load_json(fh, "state"))
