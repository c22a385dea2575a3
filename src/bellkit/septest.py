"""Entanglement detection from correlation-tensor geometry.

Every separable tensor satisfies (T, T) <= T^max, where the scalar
product runs over proper components and T^max is the largest value of
the tensor contracted with unit product directions.  Violation proves
entanglement; the test is one-sided.  Generalized metric operators G on
tensor space extend this:  max over pure product states of
|<t_sep, G t_ent>| < <t_ent, G t_ent> also certifies entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .corrtensor import (
    DEFAULT_RESTARTS,
    CorrelationTensor,
    _ascend,
    _random_starts,
    compute_tensor,
    max_product_value,
    tensor_dot,
)
from .qstate import (
    MAX_QUBITS,
    DensityMatrix,
    NumericalIntegrityError,
    StateVector,
    _check_count,
    _check_party_match,
    _float_array,
    _load_json,
    _read_only_copy,
    _require_positive,
    product_matrix,
)

DETECTION_TOL = 1e-7


@dataclass(frozen=True)
class SeparabilityReport:
    norm_sq: float
    t_max: float
    entangled_detected: bool
    margin: float
    converged: bool


def separability_check(rho: StateVector | DensityMatrix, seed: int = 0) -> SeparabilityReport:
    """Tensor-norm test: entangled if (T, T) exceeds T^max.

    A False verdict is inconclusive; a True verdict certifies
    entanglement (up to the optimizer finding the true T^max; detection
    is suppressed when the maximization did not converge).
    """
    t = compute_tensor(rho)
    norm_sq = tensor_dot(t, t)
    opt = max_product_value(t, seed=seed)
    margin = norm_sq - opt.value
    return SeparabilityReport(
        norm_sq=float(norm_sq),
        t_max=float(opt.value),
        entangled_detected=bool(opt.converged and margin > DETECTION_TOL),
        margin=float(margin),
        converged=opt.converged,
    )


# --- metric operators --------------------------------------------------------


class DiagonalMetric:
    """Metric with one non-negative weight per tensor coordinate."""

    def __init__(self, n_qubits: int, weights):
        n = _check_count(n_qubits, "n_qubits", 1, MAX_QUBITS)
        w = _read_only_copy(weights, float).reshape(-1)
        if w.shape != (4**n,):
            raise ValueError(f"need {4**n} weights for {n} qubits, got {w.size}")
        if not np.min(w) >= -1e-10:
            raise ValueError(f"metric weights must be non-negative, min = {w.min():g}")
        self.n_qubits = n
        self.weights = w

    def apply(self, flat: np.ndarray) -> np.ndarray:
        return self.weights * flat


class DenseMetric:
    """Metric stored as a dense symmetric positive semidefinite matrix."""

    def __init__(self, n_qubits: int, matrix):
        n = _check_count(n_qubits, "n_qubits", 1, MAX_QUBITS)
        dim = 4**n
        m = np.asarray(matrix, dtype=float)  # checked before it is copied
        if m.shape != (dim, dim):
            raise ValueError(f"metric matrix must be {dim}x{dim}, got {m.shape}")
        sym_err = float(np.max(np.abs(m - m.T)))
        if not sym_err <= 1e-12:
            raise ValueError(f"metric matrix not symmetric: deviation {sym_err:g}")
        _require_positive(m, "metric not non-negative: min eigenvalue {:g}")
        self.n_qubits = n
        self.matrix = _read_only_copy(m, float)

    def apply(self, flat: np.ndarray) -> np.ndarray:
        return self.matrix @ flat


def identity_proper_metric(n_qubits: int) -> DiagonalMetric:
    """Weight 1 on every proper coordinate, 0 elsewhere; with this metric
    the identifier check reduces to the tensor-norm test."""
    n_qubits = _check_count(n_qubits, "n_qubits", 1, MAX_QUBITS)
    # the Kronecker product of (0, 1, 1, 1) over the parties, party 1 first
    w = reduce(np.multiply.outer, [np.array([0.0, 1.0, 1.0, 1.0])] * n_qubits)
    return DiagonalMetric(n_qubits, w)


def rank_one_metric(direction: CorrelationTensor) -> DenseMetric:
    """Projector metric G = v v^T onto the normalized components v of a
    tensor, a direction in generalized tensor coordinates.

    A single axis-aligned coordinate can never detect (a product state
    reaches |T_J| = 1 on any axis), but a direction such as the
    normalized tensor of the state under test can.  The components lie in
    [-1, 1], so their norm is finite.
    """
    v = direction.values.reshape(-1)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("direction must be non-zero")
    v = v / norm
    return DenseMetric(direction.n_qubits, np.outer(v, v))


@dataclass(frozen=True)
class IdentifierReport:
    rhs: float
    lhs_max: float
    detected: bool
    converged: bool


def identifier_check(
    rho_ent: StateVector | DensityMatrix, metric: DiagonalMetric | DenseMetric, seed: int = 0
) -> IdentifierReport:
    """Metric-operator entanglement identifier.

    detected means: the largest |<t_prod, G t_ent>| over pure product
    states falls short of <t_ent, G t_ent>, which is impossible for a
    separable t_ent.
    """
    t = compute_tensor(rho_ent)
    _check_party_match("state", t.n_qubits, "metric", metric.n_qubits)
    w = metric.apply(t.values.reshape(-1)).reshape(t.values.shape)
    with np.errstate(over="ignore"):  # reported below
        rhs = float(np.vdot(t.values, w))
        w_sq = float(np.vdot(w, w))
    # |<t_prod, w>| <= |w| for unit directions: the ascent stays finite too
    if not (np.isfinite(rhs) and np.isfinite(w_sq)):
        raise NumericalIntegrityError(
            f"identifier overflows: <t, G t> = {rhs!r}, |G t|^2 = {w_sq!r}"
        )
    starts = _random_starts(t.n_qubits, seed, DEFAULT_RESTARTS)
    hi = _ascend(w, starts.copy())
    lo = _ascend(-w, starts)
    lhs_max = max(hi.value, lo.value)
    converged = hi.converged and lo.converged
    return IdentifierReport(
        rhs=rhs,
        lhs_max=float(lhs_max),
        detected=bool(converged and lhs_max < rhs - DETECTION_TOL),
        converged=converged,
    )


def random_separable(n: int, k_terms: int, seed: int) -> DensityMatrix:
    """Convex mixture of k_terms pure product states.

    Bloch vectors are uniform on the sphere, weights uniform on the
    simplex; the result is separable by construction.
    """
    n = _check_count(n, "n_qubits", 1, MAX_QUBITS)
    k_terms = _check_count(k_terms, "k_terms", 1)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k_terms))
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(k_terms):
        blochs = rng.normal(size=(n, 3))
        blochs /= np.linalg.norm(blochs, axis=1, keepdims=True)
        mat += weights[i] * product_matrix(blochs)
    return DensityMatrix(n, mat)


# --- metric JSON format ------------------------------------------------------
#
# { "kind": "diagonal", "weights": [...] }  or
# { "kind": "dense",    "matrix": [[...], ...] }
# A metric is a non-negative symmetric bilinear form on the 4^N tensor
# components.  Coordinates follow the C-order flattening of the (4,)*N
# component array, the row order of the CSV tensor export.


def metric_from_json(obj, n_qubits: int) -> DiagonalMetric | DenseMetric:
    if not isinstance(obj, dict):
        raise ValueError("metric document must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("diagonal", "dense"):
        raise ValueError("field 'kind' must be 'diagonal' or 'dense'")
    field = "weights" if kind == "diagonal" else "matrix"
    if field not in obj:
        raise ValueError(f"missing field '{field}'")
    arr = _float_array(obj[field])
    if arr is None or not np.all(np.isfinite(arr)):
        raise ValueError(f"field '{field}' must hold finite numbers only")
    if arr.ndim != (1 if kind == "diagonal" else 2):
        form = "a flat list" if kind == "diagonal" else "a list of rows"
        raise ValueError(f"field '{field}' must be {form} of numbers")
    if kind == "diagonal":
        return DiagonalMetric(n_qubits, arr)
    return DenseMetric(n_qubits, arr)


def load_metric(path, n_qubits: int) -> DiagonalMetric | DenseMetric:
    with open(path, "r", encoding="utf-8") as fh:
        return metric_from_json(_load_json(fh.read(), "metric"), n_qubits)
