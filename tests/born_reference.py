"""The two-branch Born chain, kept verbatim as a test reference.

This is the version that the single per-qubit chain in
``bellkit.qstate._born_table`` replaced: the mixed branch conjugates the
whole 2^N x 2^N matrix with each qubit's basis on both sides, and only then
keeps its diagonal.  Tests require the package's tables to be bitwise equal
to these.
"""

import numpy as np

from bellkit.qstate import NumericalIntegrityError, StateVector


def reference_born_table(state, basis: np.ndarray) -> np.ndarray:
    """The Born table of one setting, given as its (N, 2, 2) bases."""
    n = state.n_qubits
    if isinstance(state, StateVector):
        amp = state.amplitudes.reshape((2,) * n)
        for k in range(n):
            # contract qubit k with U^dag; new axis lands at the end
            amp = np.tensordot(basis[k].conj().T, amp, axes=([1], [k]))
            amp = np.moveaxis(amp, 0, k)
        probs = np.abs(amp) ** 2
    else:
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
    low = float(probs.min())
    if not low >= -1e-10:
        raise NumericalIntegrityError(f"negative Born probability {low:g}")
    probs = np.clip(probs, 0.0, None)  # rounding residues only
    return probs / probs.sum()
