"""Bell-type tests: the probability-form two-party inequality and the
rotational-invariance bound on in-plane correlation tensors.

The two-party expression is
    B = P(A1=B2) - P(A1=B1) - P(A2=B1) - P(A2=B2) <= 0
for local realistic models; the in-plane bound is
    S = sum over in-plane index tuples of T^2  <=  (4/pi)^N E_max,
with E_max the largest correlation-function value reachable inside the
measurement planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .corrtensor import CorrelationTensor, LocalFrame, inplane_norm_sq, max_product_value
from .qstate import DensityMatrix, _check_count, _check_state
from .qstate import make_ghz, measurement_distribution

CHSH_TOL = 1e-10
ROTATIONAL_TOL = 1e-9


@dataclass(frozen=True)
class LemmaRecord:
    max_value: int
    max_count: int
    values: tuple


def lr_lemma_exhaustive() -> LemmaRecord:
    """Sweep all 16 deterministic assignments of +-1 outcomes (a1, a2, b1,
    b2), in the order of product((-1, 1), repeat=4); the maximum must be 0.

    Uses integer arithmetic throughout, so the bound is exact.
    """
    values = tuple(
        int(a1 == b2) - int(a1 == b1) - int(a2 == b1) - int(a2 == b2)
        for a1, a2, b1, b2 in product((-1, 1), repeat=4)
    )
    top = max(values)
    if top > 0:
        raise AssertionError(f"deterministic assignment exceeded 0: {top}")
    return LemmaRecord(max_value=top, max_count=values.count(top), values=values)


@dataclass(frozen=True)
class BellReport:
    b_value: float
    bound: float
    violated: bool
    equality_probabilities: np.ndarray  # [m, n] -> P(A_m = B_n)


def chsh_probability_value(rho: DensityMatrix, a_dirs, b_dirs) -> BellReport:
    """Evaluate the probability-form expression on a two-qubit state.

    ``a_dirs`` and ``b_dirs`` each hold two unit 3-vectors (settings 1, 2).
    """
    _check_state(rho)
    if rho.n_qubits != 2:
        raise ValueError(f"need a two-qubit state, got {rho.n_qubits} qubits")
    a_dirs = np.asarray(a_dirs, dtype=float)
    b_dirs = np.asarray(b_dirs, dtype=float)
    if a_dirs.shape != (2, 3) or b_dirs.shape != (2, 3):
        raise ValueError("each side needs exactly two 3-vector settings")
    # setting pair [m, n] = (A_m, B_n); P(A = B) = P(++) + P(--)
    pairs = np.stack(np.broadcast_arrays(a_dirs[:, None], b_dirs[None, :]), axis=-2)
    probs = measurement_distribution(rho, pairs)
    eq = probs[..., 0, 0] + probs[..., 1, 1]
    b_value = eq[0, 1] - eq[0, 0] - eq[1, 0] - eq[1, 1]
    return BellReport(
        b_value=float(b_value),
        bound=0.0,
        violated=bool(b_value > CHSH_TOL),
        equality_probabilities=eq,
    )


def inplane_direction(angle) -> np.ndarray:
    """Unit vector cos(a) x + sin(a) y for each angle a of a number or an
    array of them; shape (...) + (3,)."""
    return np.stack([np.cos(angle), np.sin(angle), np.zeros_like(angle)], -1)


def chsh_optimal_configuration():
    """Preset reaching B = sqrt(2) - 1: the (|00> + |11>)/sqrt(2) state with
    in-plane angles a = (0, pi/2) and b = (3 pi/4, pi/4).

    Returns (rho, a_dirs, b_dirs); any of them can be replaced.
    """
    rho = make_ghz(2).projector()
    a_dirs, b_dirs = inplane_direction(np.array([[0.0, np.pi / 2], [3 * np.pi / 4, np.pi / 4]]))
    return rho, a_dirs, b_dirs


@dataclass(frozen=True)
class RotationalReport:
    s_value: float
    e_max: float
    bound: float
    violated: bool
    converged: bool


def rotational_test(t: CorrelationTensor, frame: LocalFrame, seed: int = 0) -> RotationalReport:
    """Check S <= (4/pi)^N E_max for the tensor's in-plane components."""
    s_value = inplane_norm_sq(t, frame)
    opt = max_product_value(t, frame=frame, seed=seed)
    bound = (4.0 / np.pi) ** t.n_qubits * opt.value
    return RotationalReport(
        s_value=float(s_value),
        e_max=float(opt.value),
        bound=float(bound),
        violated=bool(s_value > bound + ROTATIONAL_TOL),
        converged=opt.converged,
    )


def ghz_thresholds(n: int) -> dict:
    """Noise thresholds above which a noisy GHZ state defeats local realism.

    standard:   v >= 2^-(n-1)/2   (two-setting inequalities)
    rotational: v >  2 (2/pi)^n   (in-plane tensor bound)
    """
    n = _check_count(n, "n_parties", 2)
    return {
        "standard": 2.0 ** (-(n - 1) / 2.0),
        "rotational": 2.0 * (2.0 / np.pi) ** n,
    }


def threshold_rows(n_min: int, n_max: int) -> list:
    """Rows (n, standard, rotational, rotational_smaller) for n in range."""
    n_min = _check_count(n_min, "n_min", 2, 20)
    n_max = _check_count(n_max, "n_max", n_min, 20)
    rows = []
    for n in range(n_min, n_max + 1):
        th = ghz_thresholds(n)
        rows.append(
            {
                "n": n,
                "standard_threshold": th["standard"],
                "rotational_threshold": th["rotational"],
                "rotational_smaller": th["rotational"] < th["standard"],
            }
        )
    return rows


def write_threshold_csv(rows, fh) -> None:
    """Write the rows as CSV with \\r\\n line ends, floats as their repr."""
    fh.write("n,standard_threshold,rotational_threshold,rotational_smaller\r\n")
    fh.writelines(
        f"{r['n']},{r['standard_threshold']!r},{r['rotational_threshold']!r},"
        f"{str(r['rotational_smaller']).lower()}\r\n"
        for r in rows
    )
