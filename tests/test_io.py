"""Whole-array state, metric and tensor codecs against the per-entry references."""

import io
import json
import math

import numpy as np
import pytest

from bellkit import corrtensor as ct
from bellkit import qstate as qs
from bellkit import septest as st
from io_reference import (
    reference_metric_from_json,
    reference_metric_to_json,
    reference_state_from_json,
    reference_state_to_json,
    reference_tensor_to_csv,
)
from oracles import random_density


def seeded_state(n, kind):
    rng = np.random.default_rng(1000 * n + (kind == "mixed"))
    if kind == "mixed":
        return random_density(n, rng)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return qs.StateVector(n, amps / np.linalg.norm(amps))


def state_arrays(state):
    arr = state.amplitudes if isinstance(state, qs.StateVector) else state.matrix
    return type(state), arr.shape, arr.tobytes()


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("n", range(1, 7))
class TestStateCodecs:
    def test_json_bytes_and_decode(self, n, kind, tmp_path):
        state = seeded_state(n, kind)
        text = json.dumps(qs.state_to_json(state))
        assert text == json.dumps(reference_state_to_json(state))
        path = tmp_path / "state.json"
        qs.save_state(path, state)
        assert path.read_text(encoding="utf-8") == text + "\n"
        doc = json.loads(text)
        assert state_arrays(qs.state_from_json(doc)) == state_arrays(
            reference_state_from_json(doc)
        )

    def test_tensor_csv_bytes(self, n, kind):
        assert_csv_matches_reference(ct.compute_tensor(qs.as_density(seeded_state(n, kind))))


def assert_csv_matches_reference(tensor):
    new, ref = io.StringIO(), io.StringIO()
    ct.tensor_to_csv(tensor, new)
    reference_tensor_to_csv(tensor, ref)
    new_rows, ref_rows = new.getvalue().split("\r\n"), ref.getvalue().split("\r\n")
    # report the first differing row: pytest's diff of two whole files is slow
    bad = next(((i, a, b) for i, (a, b) in enumerate(zip(new_rows, ref_rows)) if a != b), None)
    assert bad is None and len(new_rows) == len(ref_rows), bad


# signed zeros, the ends of [-1, 1], both sides of repr's switch to exponent
# form at 1e-4, the smallest subnormal and normal floats, and inexact fractions
EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 1e-4, math.nextafter(1e-4, 0.0), 1e-05, 5e-324,
               2.2250738585072014e-308, 0.1, 1 / 3]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
@pytest.mark.parametrize("n", range(1, 5))
def test_tensor_csv_edge_values(n, value):
    """The value at the first, a middle and the last index; the others cycle the list."""
    flat = np.resize(EDGE_VALUES, 4**n)
    flat[[0, 4**n // 2, -1]] = value
    assert_csv_matches_reference(ct.CorrelationTensor(n, flat.reshape((4,) * n)))


@pytest.mark.parametrize("n", [7, 8])
def test_tensor_csv_bytes_large(n):
    assert_csv_matches_reference(ct.compute_tensor(random_density(n, np.random.default_rng(n))))


def seeded_metrics():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        yield st.identity_proper_metric(n)
        yield st.DiagonalMetric(n, rng.uniform(0.0, 2.0, size=4**n))
        yield st.rank_one_metric(ct.compute_tensor(random_density(n, rng)))
        g = rng.normal(size=(4**n, 4**n))
        yield st.DenseMetric(n, g @ g.T)


@pytest.mark.parametrize("metric", list(seeded_metrics()), ids=lambda m: type(m).__name__)
def test_metric_codecs(metric):
    doc = json.loads(json.dumps(reference_metric_to_json(metric)))
    new = st.metric_from_json(doc, metric.n_qubits)
    ref = reference_metric_from_json(doc, metric.n_qubits)
    assert type(new) is type(ref)
    field = "weights" if isinstance(new, st.DiagonalMetric) else "matrix"
    a, b = getattr(new, field), getattr(ref, field)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()
