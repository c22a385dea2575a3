"""Per-party contraction loops, kept verbatim as test references.

These are the versions that the one per-party contraction in
``bellkit.qstate._per_party`` replaced: each function wrote its own
``tensordot`` loop over the parties, and the analytic game fidelity made
one correlation-function call per support tuple.  Tests require the
package versions to return bitwise-equal arrays and values, except the
analytic fidelity, which now sums in a different order.
``reference_tensor_to_density``, ``reference_correlation_function``,
``reference_signed_sum`` and ``reference_strategy_signs`` have no package
counterpart; tests use them as plain tools.  ``reference_mod4_arrays`` is
the integer-sum builder of the modulo-4 task that ``make_mod4_task`` no
longer uses.
"""

import numpy as np

from bellkit.corrtensor import CorrelationTensor, LocalFrame
from bellkit.qstate import PAULI, DensityMatrix, NumericalIntegrityError


def reference_compute_tensor(rho: DensityMatrix) -> CorrelationTensor:
    n = rho.n_qubits
    arr = rho.matrix.reshape((2,) * (2 * n))
    for k in range(n):
        # axes after k steps: (r_k..r_{n-1}, c_k..c_{n-1}, j_0..j_{k-1});
        # pairing (r_k, c_k) against (col, row) of sigma_j traces qubit k
        # of rho sigma_j.
        arr = np.tensordot(arr, PAULI, axes=([0, n - k], [2, 1]))
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


def reference_tensor_to_density(t: CorrelationTensor) -> DensityMatrix:
    n = t.n_qubits
    arr = t.values.astype(complex)
    for _ in range(n):
        # consume the leading Pauli index, appending (row, col) axes
        arr = np.tensordot(arr, PAULI, axes=([0], [0]))
    # axes are now (r_0, c_0, r_1, c_1, ...); regroup rows then cols
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    mat = np.transpose(arr, order).reshape(2**n, 2**n) / 2**n
    return DensityMatrix(n, mat)


def reference_correlation_function(t: CorrelationTensor, directions) -> float:
    dirs = np.asarray(directions, dtype=float)
    norms = np.linalg.norm(dirs, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise ValueError("all measurement directions must be unit vectors")
    out = t.proper
    for k in range(t.n_qubits):
        out = np.tensordot(out, dirs[k], axes=([0], [0]))
    return float(out)


def reference_frame_components(t: CorrelationTensor, frame: LocalFrame) -> np.ndarray:
    out = t.proper
    for k in range(t.n_qubits):
        # rotate qubit k's proper index into the frame; new axis goes last
        out = np.moveaxis(np.tensordot(out, frame.axes[k], axes=([k], [1])), -1, k)
    return out


def reference_signed_sum(g: np.ndarray, signs: np.ndarray) -> float:
    """Contract g with one sign function c_n = signs[n] per axis."""
    value = g
    for c in signs:
        value = np.tensordot(value, c.astype(float), axes=([0], [0]))
    return float(value)


# Rows are the four sign functions on one bit, ordered by their 2-bit code:
# (+1,+1), (+1,-1), (-1,+1), (-1,-1).
_PARTY_STRATEGIES = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)


def reference_strategy_signs(n: int, index: int) -> np.ndarray:
    """The int (n, 2) signs of strategy ``index`` in the order of
    reference_all_strategy_fidelities: party 1 in the highest base-4
    digit, each digit a row of _PARTY_STRATEGIES."""
    codes = [(index >> 2 * (n - 1 - k)) & 3 for k in range(n)]
    return _PARTY_STRATEGIES[codes].astype(int)


def reference_all_strategy_fidelities(task) -> np.ndarray:
    out = task.g
    for _ in range(task.n_parties):
        # replace the leading x_k axis by the 4 per-party strategies
        out = np.tensordot(out, _PARTY_STRATEGIES, axes=([0], [1]))
    return out


def reference_quantum_fidelity(task, tensor: CorrelationTensor, settings) -> float:
    """The support-tuple loop, on a tensor computed by the caller."""
    s = np.asarray(settings, dtype=float)
    total = 0.0
    for x in [tuple(x) for x in np.argwhere(task.support).tolist()]:
        dirs = s[np.arange(task.n_parties), list(x)]
        total += task.g[x] * reference_correlation_function(tensor, dirs)
    return float(total)


def reference_mod4_arrays(n: int) -> tuple:
    """(f, support, p_prime) of the modulo-4 task from the integer sums of
    the x bits, one broadcast addition per party."""
    sums = np.zeros((2,) * n, dtype=int)
    for k in range(n):
        shape = [1] * n
        shape[k] = 2
        sums = sums + np.arange(2).reshape(shape)
    f = np.where(sums % 2 == 0, np.where(sums % 4 == 0, 1.0, -1.0), 0.0)
    support = sums % 2 == 0
    p_prime = np.where(support, 2.0 ** (1 - n), 0.0)
    return f, support, p_prime
