"""N-qubit states, local measurements and the JSON state format.

Basis convention: qubit 1 is the most significant bit of the
computational-basis index, so ``np.kron(a, b)`` places ``a`` on qubit 1.
Pauli index convention: 0 = identity, 1/2/3 = x/y/z.
"""

from __future__ import annotations

import itertools
import json
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

# Dense 2^N amplitudes / 4^N tensor components stay small up to this cap.
MAX_QUBITS = 10

# load_state reads a state file forward in blocks of _SLICE_CHARS bytes and
# decodes its "data" array block by block into one array of pairs, so it
# holds neither the file's bytes (52 MB at N = 10) nor one tree of lists for
# the whole array.
_SLICE_CHARS = 1 << 20
_SENTINEL = '"\\u0000"'  # the string "\x00": it stands in for that array while the rest decodes

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


def _check_count(count, name: str, lo: int, hi: int | None = None) -> int:
    """A count (of qubits, parties, terms) or an index as a Python int; a
    ValueError naming ``name`` unless it is an int or a NumPy integer (bool
    is not) in [lo, hi], or at least lo when hi is None."""
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
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


def _read_only_copy(value, dtype) -> np.ndarray:
    """A read-only copy of value as an array of dtype.  Value types hold
    their arrays this way: the caller's array stays writable, and writing
    to it cannot reach an object that has been checked."""
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        amps = _read_only_copy(self.amplitudes, complex).reshape(-1)
        if amps.shape != (2**n,):
            raise ValueError(
                f"amplitude vector must have length {2**n}, got {amps.shape[0]}"
            )
        with np.errstate(over="ignore"):  # an overflow gives inf, rejected below
            norm_sq = float(np.sum(np.abs(amps) ** 2))
        # tolerance tests are written fail-closed so that NaN is rejected
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    def projector(self) -> "DensityMatrix":
        """Return |psi><psi| as a DensityMatrix."""
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return _built_density(self.n_qubits, mat)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed N-qubit state: Hermitian, unit-trace, positive 2^N x 2^N matrix."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = _check_count(self.n_qubits, "n_qubits", 1, MAX_QUBITS)
        # A matrix that state_from_json hands over is only its own: it is
        # checked in place and kept.  A caller's is never written to: its one
        # copy is what the positivity check shifts and what is kept.
        owned = type(self.matrix) is _OwnedMatrix
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**n
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got {mat.shape}")
        herm_err = float(np.max(np.abs(mat - mat.conj().T)))
        if not herm_err <= 1e-12:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm_err:g}")
        _check_trace(mat)
        mat = mat if owned else np.array(mat, order="C")
        _require_positive(mat, "matrix not positive: min eigenvalue = {:g}")
        mat.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "matrix", mat)


class _OwnedMatrix(np.ndarray):
    """The view type of arrays that only the loader holds: the decoded pairs,
    and the matrix DensityMatrix validates in place and keeps uncopied."""


def _check_trace(mat: np.ndarray) -> None:
    tr = complex(np.trace(mat))
    if not abs(tr - 1.0) <= 1e-12:  # fail-closed: NaN is rejected
        raise ValueError(f"trace must be 1, got {tr!r}")


def _built_density(n: int, mat: np.ndarray) -> DensityMatrix:
    """A DensityMatrix of a matrix that is Hermitian and positive by
    construction, on n qubits given as a Python int.  Only the trace is
    checked: it is summed from rounded entries, and a vector that
    StateVector accepts can still miss 1 by more than 1e-12."""
    _check_trace(mat)
    mat.setflags(write=False)
    rho = object.__new__(DensityMatrix)  # skips __post_init__
    object.__setattr__(rho, "n_qubits", n)
    object.__setattr__(rho, "matrix", mat)
    return rho


def _require_positive(mat: np.ndarray, message: str) -> None:
    """Raise ValueError(message.format(min_eig)) if the Hermitian matrix has
    an eigenvalue below -1e-10.

    A Cholesky factor of mat + 1e-10 I proves there is none, at a fraction of
    the cost of a full eigendecomposition.  Only when the factorization fails
    is the smallest eigenvalue computed, and it decides.  The shift goes onto
    the diagonal of mat itself, a C-contiguous matrix the caller owns; that
    diagonal is restored bit for bit from a saved copy before any eigenvalue
    is computed.
    """
    diag = mat.reshape(-1)[:: mat.shape[0] + 1]
    saved = diag.copy()
    diag += 1e-10
    try:
        np.linalg.cholesky(mat)
        return
    except np.linalg.LinAlgError:
        pass
    finally:
        diag[:] = saved
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    if not min_eig >= -1e-10:
        raise ValueError(message.format(min_eig))


def _check_state(state) -> None:
    """A TypeError unless state is a StateVector or a DensityMatrix."""
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise TypeError(f"expected StateVector or DensityMatrix, got {type(state)!r}")


def as_density(state) -> DensityMatrix:
    """The density matrix of a state: the projector of a StateVector, a
    DensityMatrix unchanged."""
    _check_state(state)
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
    return _built_density(ghz.n_qubits, mat)


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
        # np.kron's single products, without its generic set-up
        dim = 2 * mat.shape[0]
        mat = (mat[:, None, :, None] * qubit[None, :, None, :]).reshape(dim, dim)
    return mat


def _per_party(arr: np.ndarray, mats) -> np.ndarray:
    """Contract one local map per party into arr, party 1 first.

    Each step contracts the leading axis of arr with the last axis of the
    map and appends the map's other axes, so after all parties their axes
    are back in party order.  With arr as the first operand the result is
    C-contiguous in that order; sums over it run in memory order, so their
    bits depend on it.

    Each step is the transpose, reshape and np.dot that np.tensordot runs,
    without its argument handling; np.asarray drops subclasses as it does.
    """
    for m in mats:
        arr, m = np.asarray(arr), np.asarray(m)
        shape = arr.shape[1:] + m.shape[:-1]
        arr = np.dot(
            arr.transpose((*range(1, arr.ndim), 0)).reshape(-1, arr.shape[0]),
            m.transpose((m.ndim - 1, *range(m.ndim - 1))).reshape(m.shape[-1], -1),
        ).reshape(shape)
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

    directions is one setting, shape (N, 3), or a stack of them, shape
    (..., N, 3).  The state, the shape and all norms are checked once, and
    the first bad norm in C order is named.  Returns one table per setting,
    shape (...) + (2,)*N; index bit 0 along qubit k means outcome +1 on that
    qubit, bit 1 means outcome -1.  Settings that agree on their first k
    bases share the first k steps of the chain (_walk), and a negative table
    raises once the walk is done, the first in stack order.
    """
    _check_state(state)
    dirs = np.asarray(directions, dtype=float)
    n = state.n_qubits
    if dirs.shape[-2:] != (n, 3):
        raise ValueError(f"need {n} directions of 3 components, got shape {dirs.shape}")
    bases = _measurement_bases(_check_unit_rows(dirs).reshape(-1, 3)).reshape(-1, n, 2, 2)
    pure = isinstance(state, StateVector)
    root = state.amplitudes.reshape((2,) * n) if pure else state.matrix.reshape((2,) * (2 * n))
    out = np.empty(dirs.shape[:-2] + (2,) * n)
    errors = []
    _walk(root, 0, range(len(bases)), bases, pure, out.reshape((-1,) + (2,) * n), errors)
    if errors:
        raise NumericalIntegrityError(min(errors)[1])
    return out


def _walk(arr, k, rows, bases, pure, tables, errors) -> None:
    """Fill tables[r], a view into the output, for every setting r in rows,
    depth-first over the (S, N, 2, 2) bases.  The settings in rows share
    their bases on qubits 0..k-1 and so share arr, the array after step
    k-1; each group that also shares basis k takes step k once.  A negative
    table is not filled; (its first setting, message) goes to errors.

    Step k contracts qubit k's row axis with U_k^dag.  For a density matrix
    it then contracts qubit k's column axis with U_k and keeps the diagonal
    at once: only those entries feed the table.  The earlier qubits are
    diagonal by then, so qubit k's column axis sits at axis n.
    """
    n = bases.shape[1]
    if k == n:
        # on the leaf as it is: the sum's bits follow its memory order
        probs = np.abs(arr) ** 2 if pure else arr.real
        low = float(probs.min())
        if not low >= -1e-10:
            errors.append((rows[0], f"negative Born probability {low:g}"))
            return
        probs = np.clip(probs, 0.0, None)  # rounding residues only
        tables[rows] = probs / probs.sum()
        return
    groups = {}
    for r in rows:
        groups.setdefault(bases[r, k].tobytes(), []).append(r)
    for group in groups.values():
        u = bases[group[0], k]
        # the new axis lands in front; move it back to k
        step = np.moveaxis(np.tensordot(u.conj().T, arr, axes=([1], [k])), 0, k)
        if not pure:
            step = np.moveaxis(np.tensordot(step, u, axes=([n], [0])), -1, n)
            step = np.moveaxis(np.diagonal(step, 0, k, n), -1, k)
        _walk(step, k + 1, group, bases, pure, tables, errors)


# --- JSON state format -------------------------------------------------------
#
# { "n_qubits": int, "kind": "pure" | "mixed", "data": [[re, im], ...] }
# "pure": 2^N amplitude pairs; "mixed": 4^N matrix entries in row-major order.


def state_to_json(state) -> dict:
    """Encode a StateVector or DensityMatrix as a JSON-ready dict."""
    _check_state(state)
    pure = isinstance(state, StateVector)
    flat = state.amplitudes if pure else state.matrix.reshape(-1)
    data = np.stack([flat.real, flat.imag], axis=1).tolist()
    return {"n_qubits": state.n_qubits, "kind": "pure" if pure else "mixed", "data": data}


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
    expected = 2**n if kind == "pure" else 4**n
    data = obj["data"]
    owned = type(data) is _OwnedMatrix  # the pairs load_state decoded
    if not (owned or isinstance(data, list)):
        raise ValueError("field 'data' must be a list of [re, im] pairs")
    if len(data) != expected:
        raise ValueError(f"field 'data' must have {expected} entries, got {len(data)}")
    bad_pair = "field 'data[{}]' must be a finite [re, im] number pair"
    pairs = data if owned else _float_array(data)
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
    # pairs was decoded for this call alone: DensityMatrix may validate and
    # keep it without a copy
    return DensityMatrix(n, flat.reshape(2**n, 2**n).view(_OwnedMatrix))


def save_state(path, state) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh)
        fh.write("\n")


def _load_json(path, what: str):
    """The JSON document in a file read whole as strict UTF-8 text with
    universal newlines, with a ValueError in place of the RecursionError of
    a document that nests too deeply."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} document nests too deeply") from None


def _stream_document(fh):
    """The document in a state file read forward in _SLICE_CHARS blocks, with
    its "data" array as an (m, 2) _OwnedMatrix of pairs; or None.

    The head runs up to the "[" after the first '"data"', searched for in
    each new block only.  The body is decoded up to each block's last "],"
    and the rest carried into the next block, until the list a piece is
    decoded in closes before its last "]", at the array's own "]".  Pairs
    fill one array grown to powers of two up to 4^MAX_QUBITS, the largest
    count a header accepts; past it they are only counted, and the count is
    handed over as a zero-stride view of that length.  Head, _SENTINEL and
    tail must decode to a document that holds _SENTINEL as "data" and
    nowhere else.  Every header and count rule is left to state_from_json.
    A block's lists are freed before its carry is cut, and the next block is
    read before the last is freed: the other orders keep 4 MB and 2.5 MB of
    heap resident at N = 10.  ASCII cuts never split a UTF-8 character,
    pairs are ASCII, and JSON reads \\r as \\n, so a document returned here
    is the one the whole text decodes to."""
    head, key, start = bytearray(), -1, 0
    while not start:
        block = fh.read(_SLICE_CHARS)
        if not block:
            return None
        seen = len(head)
        head += block
        if key < 0:  # '"data"' may span the last block's end
            key = head.find(b'"data"', max(seen - 5, 0))
        start = head.find(b"[", max(key, seen)) + 1 if key >= 0 else 0
    block = head[start:] or fh.read(_SLICE_CHARS)
    del head[start - 1 :]
    pairs, filled, carry, decode = np.empty((0, 2)), 0, b"", json.JSONDecoder().raw_decode
    while True:
        buf = carry + block
        stop = buf.rfind(b"],") + 1 if block else len(buf)
        if stop:
            try:  # UnicodeDecodeError is a ValueError
                rows, at = decode("[" + buf[:stop].decode("utf-8") + "]")
            except (ValueError, RecursionError):
                return None
            rows = _float_array(rows)  # frees the lists
            if rows is None or rows.shape[1:] != (2,):
                return None
            filled += len(rows)
            if filled <= 4**MAX_QUBITS:
                if filled > len(pairs):
                    pairs.resize((1 << (filled - 1).bit_length(), 2), refcheck=False)
                pairs[filled - len(rows) : filled] = rows
            del rows  # freed before the next read, or it can pin 3.5 MB of freed heap
            if at < stop + 2:  # the list closed early, at the array's own "]"
                break
        if not block:
            return None
        carry = buf[stop + 1 :] if stop else buf
        block = fh.read(_SLICE_CHARS)
    try:
        rest = (head + _SENTINEL.encode() + buf[at - 1 :] + fh.read()).decode("utf-8")
        del block, buf, carry  # a long tail decodes without the last block beside it
        doc = json.loads(rest)
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or doc.get("data") != "\x00" or rest.count(_SENTINEL) != 1:
        return None
    if filled > 4**MAX_QUBITS:  # only the count is read: state_from_json rejects it
        pairs = np.broadcast_to(np.zeros(2), (filled, 2))
    doc["data"] = pairs[:filled].view(_OwnedMatrix)
    return doc


def _read_state_document(path):
    """The document in a state file: streamed, or read whole by _load_json.  A
    pipe or a FIFO is opened once and spilled to a temporary file first."""
    with open(path, "rb") as fh:
        if not fh.seekable():
            with tempfile.NamedTemporaryFile() as spill:
                shutil.copyfileobj(fh, spill)
                spill.flush()
                return _read_state_document(spill.name)
        doc = _stream_document(fh)
    return _load_json(path, "state") if doc is None else doc


def load_state(path):
    # no name holds the document, so state_from_json can free it
    return state_from_json(_read_state_document(path))
