"""Whole-array state, metric and tensor codecs against the per-entry references."""

import io
import json
import math
import tracemalloc
from unittest import mock

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


def test_load_state_memory_peak(tmp_path):
    """Loading a state file holds the file's bytes and the decoded pairs, not
    also a decoded text of the file or a second copy of the matrix beside
    the positivity check's buffers.  An N = 8 mixed file is 3.3 MB; the whole
    loader peaks near 1.4 times that, and 2.0 times with a text read."""
    flat = random_density(8, np.random.default_rng(808)).matrix.reshape(-1)
    path = tmp_path / "mixed.json"
    pairs = np.stack([flat.real, flat.imag], axis=1).tolist()
    path.write_text(json.dumps({"n_qubits": 8, "kind": "mixed", "data": pairs}), encoding="utf-8")
    del pairs
    with mock.patch.object(qs, "_SLICE_CHARS", 1 << 16):
        tracemalloc.start()
        try:
            state = qs.load_state(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert state.matrix.tobytes() == flat.tobytes()
    assert peak < 1.6 * path.stat().st_size


def write_mixed_file(path, flat):
    n = int(np.log2(flat.size)) // 2
    pairs = np.stack([flat.real, flat.imag], axis=1).tolist()
    path.write_text(json.dumps({"n_qubits": n, "kind": "mixed", "data": pairs}), encoding="utf-8")


def test_read_state_document_memory_peak(tmp_path):
    """The state file is read in blocks straight into one array of pairs,
    counted beforehand, so the read holds that array and one block's
    decoding, not the file's bytes.  At N = 8 the pairs are 1 MiB; the read
    peaks near 1.4 times that, and held 4.3 times while the whole file was
    read into memory."""
    flat = random_density(8, np.random.default_rng(808)).matrix.reshape(-1)
    path = tmp_path / "mixed.json"
    write_mixed_file(path, flat)
    with mock.patch.object(qs, "_SLICE_CHARS", 1 << 16):
        tracemalloc.start()
        try:
            doc = qs._read_state_document(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    pairs = doc["data"].pairs
    assert pairs.tobytes() == np.stack([flat.real, flat.imag], axis=1).tobytes()
    assert peak < 1.6 * pairs.nbytes


@pytest.mark.parametrize("slice_chars", [*range(1, 49), qs._SLICE_CHARS])
def test_saved_files_are_streamed(tmp_path, slice_chars):
    """Every file save_state writes is read block by block, never by the
    whole-text fallback, whatever the block size: the search for "data"
    and its "[", and the count of "],", span blocks."""
    fallback = mock.patch.object(qs, "_load_json", side_effect=AssertionError("fell back"))
    with fallback, mock.patch.object(qs, "_SLICE_CHARS", slice_chars):
        for n in range(1, 4):
            for kind in ("pure", "mixed"):
                state = seeded_state(n, kind)
                path = tmp_path / f"{kind}{n}.json"
                qs.save_state(path, state)
                assert state_arrays(qs.load_state(path)) == state_arrays(state)


def test_loaded_matrix_is_the_decoded_pairs(tmp_path):
    """state_from_json validates the pairs the loader decoded in place and
    keeps them, read-only, as the matrix: no copy is made."""
    flat = random_density(3, np.random.default_rng(303)).matrix.reshape(-1)
    path = tmp_path / "mixed.json"
    write_mixed_file(path, flat)
    doc = qs._read_state_document(path)
    pairs = doc["data"].pairs
    rho = qs.state_from_json(doc)
    assert not rho.matrix.flags.writeable
    assert np.shares_memory(rho.matrix, pairs)
    assert rho.matrix.tobytes() == flat.tobytes()


@pytest.mark.parametrize(
    "make_state", [lambda: qs.make_noisy_ghz(8, 0.5), lambda: qs.make_ghz(8)],
    ids=["mixed", "pure"],
)
def test_compute_tensor_memory_peak(make_state):
    """A state that only compute_tensor holds, a caller's temporary or the
    projector of a pure state, is freed once its (row, col) pairs are copied,
    and that copy after the first party.  The peak is then the pairs beside
    one contraction step, twice the matrix bytes; it was three times."""
    tracemalloc.start()
    try:
        t = ct.compute_tensor(make_state())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n_qubits == 8
    assert peak < 2.5 * 16 * 4**8  # the matrix and the tensor are 1 MiB each


class _NullWriter:
    def write(self, text):
        pass


def test_tensor_csv_memory_peak():
    """The CSV is formatted in 16 blocks, one per (j1, j2), so the block
    being formatted is a sixteenth of the file.  At N = 8 the encoder peaks
    near 0.7 times the tensor's value bytes; in 4 blocks it was 3.0."""
    t = ct.compute_tensor(qs.make_noisy_ghz(8, 0.5))
    tracemalloc.start()
    try:
        ct.tensor_to_csv(t, _NullWriter())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.values.nbytes


@pytest.mark.parametrize("n", range(1, 7))
def test_tensor_csv_blocks(n):
    """One write for the header, then one per value of the first min(2, N)
    indices, in C order, with the bytes of the row-by-row writer.  Every
    value is distinct, so a row filled from the wrong block would show."""
    t = ct.CorrelationTensor(n, (np.arange(4**n) / 4**n).reshape((4,) * n))
    assert_csv_matches_reference(t)
    writes = []
    ct.tensor_to_csv(t, mock.Mock(write=writes.append))
    lead = min(2, n)
    assert len(writes) == 1 + 4**lead
    for block, prefix in zip(writes[1:], np.ndindex(*(4,) * lead)):
        rows = block.split("\r\n")[:-1]
        assert len(rows) == 4 ** (n - lead)
        assert all(row.startswith(",".join(map(str, prefix)) + ",") for row in rows)


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
