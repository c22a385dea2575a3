"""Per-entry state/metric/tensor codecs, kept verbatim as test references.

These are the loops that the whole-array codecs in ``bellkit.qstate``,
``bellkit.septest`` and ``bellkit.corrtensor`` replaced.  Tests require
the package codecs to write the same bytes and to decode to the same
arrays or raise the same messages.
"""

import csv

import numpy as np

from bellkit.qstate import MAX_QUBITS, DensityMatrix, StateVector
from bellkit.septest import DenseMetric, DiagonalMetric


def reference_state_to_json(state) -> dict:
    if isinstance(state, StateVector):
        flat = state.amplitudes
        kind = "pure"
    elif isinstance(state, DensityMatrix):
        flat = state.matrix.reshape(-1)
        kind = "mixed"
    else:
        raise TypeError(f"expected StateVector or DensityMatrix, got {type(state)!r}")
    data = [[float(z.real), float(z.imag)] for z in flat]
    return {"n_qubits": state.n_qubits, "kind": kind, "data": data}


def reference_state_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("state document must be a JSON object")
    for field in ("n_qubits", "kind", "data"):
        if field not in obj:
            raise ValueError(f"missing field '{field}'")
    n = obj["n_qubits"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("field 'n_qubits' must be an integer")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"field 'n_qubits' must be in [1, {MAX_QUBITS}], got {n}")
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
    flat = np.empty(expected, dtype=complex)
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ValueError(bad_pair.format(i))
        try:
            flat[i] = complex(pair[0], pair[1])
        except OverflowError:  # an integer beyond the float range
            raise ValueError(bad_pair.format(i)) from None
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ValueError(bad_pair.format(bad[0]))
    if kind == "pure":
        return StateVector(n, flat)
    return DensityMatrix(n, flat.reshape(2**n, 2**n))


def reference_metric_to_json(metric) -> dict:
    if isinstance(metric, DiagonalMetric):
        return {"kind": "diagonal", "weights": [float(x) for x in metric.weights]}
    if isinstance(metric, DenseMetric):
        return {"kind": "dense", "matrix": [[float(x) for x in row] for row in metric.matrix]}
    raise TypeError(f"unknown metric type {type(metric)!r}")


def reference_metric_from_json(obj, n_qubits: int):
    if not isinstance(obj, dict):
        raise ValueError("metric document must be a JSON object")
    kind = obj.get("kind")
    if kind == "diagonal":
        weights = reference_finite_field(obj, "weights")
        if weights.ndim != 1:
            raise ValueError("field 'weights' must be a flat list of numbers")
        return DiagonalMetric(n_qubits, weights)
    if kind == "dense":
        matrix = reference_finite_field(obj, "matrix")
        if matrix.ndim != 2:
            raise ValueError("field 'matrix' must be a list of rows of numbers")
        return DenseMetric(n_qubits, matrix)
    raise ValueError("field 'kind' must be 'diagonal' or 'dense'")


def reference_finite_field(obj: dict, field: str) -> np.ndarray:
    """The (nested) list of numbers in obj[field] as a float array."""
    if field not in obj:
        raise ValueError(f"missing field '{field}'")
    # ragged nesting leaves lists among the entries; bool is not a number here
    raw = np.asarray(obj[field], dtype=object)
    try:
        arr = raw.astype(float) if set(map(type, raw.flat)) <= {int, float} else None
    except OverflowError:  # an integer beyond the float range
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise ValueError(f"field '{field}' must hold finite numbers only")
    return arr


def reference_tensor_to_csv(t, fh) -> None:
    """Write one row per index tuple: columns j1..jN then the value."""
    n = t.n_qubits
    writer = csv.writer(fh)
    writer.writerow([f"j{k}" for k in range(1, n + 1)] + ["value"])
    flat = t.values.reshape(-1)
    for i, idx in enumerate(np.ndindex(*(4,) * n)):
        writer.writerow(list(idx) + [repr(float(flat[i]))])
