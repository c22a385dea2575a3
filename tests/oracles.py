"""Independent reference implementations used only to cross-check tests.

Nothing here shares code paths with the package: the tensor oracle goes
through explicit operator traces, the separability ground truth is the
two-qubit partial-transpose test, and the protocol oracle enumerates
message functions on explicit communication trees.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from bellkit.qstate import PAULI, DensityMatrix

# --- states ------------------------------------------------------------------


def random_density(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Wishart-style random mixed state."""
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(n_qubits, mat / np.trace(mat).real)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SO(3) matrix via QR with positive determinant."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def su2_from_rotation(axis, angle: float) -> np.ndarray:
    """SU(2) element U with U (n.sigma) U^dag = (R n).sigma for the rotation
    R by ``angle`` about ``axis``."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    n_sigma = sum(axis[i] * PAULI[i + 1] for i in range(3))
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * n_sigma


def rotation_matrix(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


# --- correlation tensor by explicit operator traces --------------------------


def tensor_by_traces(rho: DensityMatrix) -> np.ndarray:
    """T_J = Tr(rho sigma_J) with the operator built by explicit Kronecker
    products for every index tuple."""
    n = rho.n_qubits
    out = np.empty((4,) * n)
    for idx in np.ndindex(*(4,) * n):
        op = np.array([[1.0 + 0j]])
        for j in idx:
            op = np.kron(op, PAULI[j])
        out[idx] = np.trace(rho.matrix @ op).real
    return out


# --- two-qubit partial transpose ---------------------------------------------


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of the partial transpose on the second qubit.

    Negative values certify two-qubit entanglement; for two qubits the
    test is exact (positive partial transpose iff separable).
    """
    if rho.n_qubits != 2:
        raise ValueError("partial-transpose oracle is for two qubits")
    blocks = rho.matrix.reshape(2, 2, 2, 2)
    pt = blocks.transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


# --- exact optimum over deterministic tree protocols -------------------------


def _sign_functions(n_inputs: int):
    """All +-1-valued functions on n_inputs binary arguments, as tuples
    indexed by the big-endian bit code of the argument tuple."""
    return list(product((-1, 1), repeat=2**n_inputs))


def _msg_bit(m: int) -> int:
    """Encode a +-1 message as a bit: +1 -> 0, -1 -> 1."""
    return 0 if m == 1 else 1


def tree_protocol_optimum(task, topology: str) -> float:
    """Exact best fidelity of deterministic protocols on a fixed tree.

    'star':  partners 1..N-1 each send one bit, computed from their own
             (x_k, z_k), straight to partner N.
    'chain': partner 1 sends to 2, 2 to 3 (seeing the incoming bit), and
             so on; partner N sees only the last message.
    The final answer is optimized exactly: the fidelity is linear in the
    answer function, so its maximum is the sum of |aggregated weight|
    over the answer's input domain.
    """
    n = task.n_parties
    if n not in (2, 3):
        raise ValueError("tree oracle implemented for 2 or 3 parties")
    # promise tuples in C order, read straight off the boolean mask
    support = [tuple(x) for x in np.argwhere(task.support).tolist()]
    weights = {x: task.p_prime[x] / 2**n for x in support}  # joint p(x, z) per z

    def answer_optimum(combos):
        # combos: iterable of (answer-domain point, x, z)
        agg: dict = {}
        for point, x, z in combos:
            t_val = task.f[x] * (-1) ** (sum(z) % 2)
            agg[point] = agg.get(point, 0.0) + weights[x] * t_val
        return sum(abs(v) for v in agg.values())

    best = -np.inf
    if n == 2:
        for m1 in _sign_functions(2):
            combos = []
            for x in support:
                for z in product((0, 1), repeat=2):
                    msg = m1[(x[0] << 1) | z[0]]
                    point = (x[1], z[1], _msg_bit(msg))
                    combos.append((point, x, z))
            best = max(best, answer_optimum(combos))
        return float(best)

    if topology == "star":
        for m1 in _sign_functions(2):
            for m2 in _sign_functions(2):
                combos = []
                for x in support:
                    for z in product((0, 1), repeat=3):
                        e1 = m1[(x[0] << 1) | z[0]]
                        e2 = m2[(x[1] << 1) | z[1]]
                        point = (x[2], z[2], _msg_bit(e1), _msg_bit(e2))
                        combos.append((point, x, z))
                best = max(best, answer_optimum(combos))
        return float(best)

    if topology == "chain":
        for m1 in _sign_functions(2):
            for m2 in _sign_functions(3):
                combos = []
                for x in support:
                    for z in product((0, 1), repeat=3):
                        e1 = m1[(x[0] << 1) | z[0]]
                        e2 = m2[(x[1] << 2) | (z[1] << 1) | _msg_bit(e1)]
                        point = (x[2], z[2], _msg_bit(e2))
                        combos.append((point, x, z))
                best = max(best, answer_optimum(combos))
        return float(best)

    raise ValueError(f"unknown topology {topology!r}")
