"""Whole-array state, metric and tensor codecs against the per-entry references."""

import contextlib
import io
import json
import math
import time
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
from sources import unseekable


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


def read_within_pairs_bound(tmp_path, source):
    """Read an N = 8 mixed file, as saved, with sorted keys or through a
    pipe, in 64 KiB blocks and with no fallback; check the pairs and hold
    the read's tracemalloc peak to 1.6 times their bytes."""
    flat = random_density(8, np.random.default_rng(808)).matrix.reshape(-1)
    path = tmp_path / "mixed.json"
    write_mixed_file(path, flat)
    if source == "sorted keys":
        path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True))
    with contextlib.ExitStack() as stack:
        if source == "pipe":
            path = stack.enter_context(unseekable("pipe", path.read_bytes(), tmp_path))
        stack.enter_context(no_fallback())
        stack.enter_context(mock.patch.object(qs, "_SLICE_CHARS", 1 << 16))
        tracemalloc.start()
        try:
            doc = qs._read_state_document(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    pairs = doc["data"]
    assert pairs.tobytes() == np.stack([flat.real, flat.imag], axis=1).tobytes()
    assert peak < 1.6 * pairs.nbytes


def test_read_state_document_memory_peak(tmp_path):
    """The state file is read in blocks straight into one array of pairs,
    grown by doubling, so the read holds that array and one block's
    decoding, not the file's bytes.  At N = 8 the pairs are 1 MiB; the read
    peaks near 1.4 times that, and held 4.3 times while the whole file was
    read into memory."""
    read_within_pairs_bound(tmp_path, "saved")


@pytest.mark.parametrize("source", ["sorted keys", "pipe"])
def test_read_state_document_memory_peak_of_any_source(tmp_path, source):
    """The same bound holds with "data" first, and for a pipe, which is
    spilled to a temporary file and then read the same way."""
    read_within_pairs_bound(tmp_path, source)


def test_whole_text_read_memory_peak(tmp_path):
    """A file whose first '"data"' is not the state's does not stream:
    _load_json reads it whole, once, as text, and the file's bytes are freed
    before the text is parsed.  This N = 8 file is 3.3 MB; the read peaks
    near 3.9 times that, and at 4.9 times while the bytes were held."""
    flat = random_density(8, np.random.default_rng(808)).matrix.reshape(-1)
    pairs = np.stack([flat.real, flat.imag], axis=1)
    path = tmp_path / "mixed.json"
    doc = {"meta": {"data": [[1, 0]]}, "n_qubits": 8, "kind": "mixed", "data": pairs.tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    del doc
    with mock.patch.object(qs, "_load_json", wraps=qs._load_json) as whole:
        tracemalloc.start()
        try:
            doc = qs._read_state_document(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    whole.assert_called_once_with(path, "state")
    assert np.array(doc["data"]).tobytes() == pairs.tobytes()
    assert peak < 4.5 * path.stat().st_size


def other_layouts(state):
    """The document of a state as bytes with sorted keys, indentation,
    compact separators, CRLF line ends and "kind" first."""
    doc = qs.state_to_json(state)
    yield json.dumps(doc, sort_keys=True).encode()
    yield json.dumps(doc, indent=2).encode()
    yield json.dumps(doc, separators=(",", ":")).encode()
    yield json.dumps(doc, indent=2).replace("\n", "\r\n").encode()
    yield json.dumps({"kind": doc["kind"], **doc}).encode()


def no_fallback():
    return mock.patch.object(qs, "_load_json", side_effect=AssertionError("fell back"))


@pytest.mark.parametrize("slice_chars", [*range(1, 49), qs._SLICE_CHARS])
def test_saved_files_are_streamed(tmp_path, slice_chars):
    """Every file save_state writes, and its document in other layouts, is
    read block by block, never by the whole-text fallback, whatever the
    block size: a "]," may span blocks."""
    with no_fallback(), mock.patch.object(qs, "_SLICE_CHARS", slice_chars):
        for n in range(1, 4):
            for kind in ("pure", "mixed"):
                state = seeded_state(n, kind)
                path = tmp_path / f"{kind}{n}.json"
                qs.save_state(path, state)
                for raw in [path.read_bytes(), *other_layouts(state)]:
                    path.write_bytes(raw)
                    assert state_arrays(qs.load_state(path)) == state_arrays(state)


@pytest.mark.parametrize(
    "header", [{"n_qubits": 11}, {"n_qubits": 0}, {"kind": "dense"}, {"n_qubits": 7}]
)
def test_rejected_header_is_streamed(tmp_path, header):
    """A file whose header or pair count state_from_json rejects is not read
    whole: its body is decoded block by block, and the message is the one
    the whole text gives.  The pairs of this N = 8 file are 1 MiB; the read
    is held to the bound of a valid file, 1.6 times that."""
    flat = random_density(8, np.random.default_rng(808)).matrix.reshape(-1)
    pairs = np.stack([flat.real, flat.imag], axis=1).tolist()
    text = json.dumps({"n_qubits": 8, "kind": "mixed", "data": pairs, **header})
    del pairs
    path = tmp_path / "rejected.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as expected:
        qs.state_from_json(json.loads(text))
    del text
    with no_fallback(), mock.patch.object(qs, "_SLICE_CHARS", 1 << 16):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as got:
                qs.load_state(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert str(got.value) == str(expected.value)
    assert peak < 1.6 * 16 * 4**8


@pytest.mark.parametrize("pad", [0, 4096, 5000])
@pytest.mark.parametrize("side", ["head", "tail"])
def test_long_fields_are_streamed(tmp_path, side, pad):
    """A field of any length before or after "data" does not send the file
    to the whole-text fallback: the file is read forward, not from its
    edges, and the head and the tail may span blocks.  A "-1" in the text,
    as in a date, is not taken for the array's stand-in."""
    state = seeded_state(4, "mixed")
    doc, note = qs.state_to_json(state), {"note": "run 2026-10-20" + " " * pad}
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**note, **doc} if side == "head" else {**doc, **note}))
    with no_fallback(), mock.patch.object(qs, "_SLICE_CHARS", 1 << 10):
        assert state_arrays(qs.load_state(path)) == state_arrays(state)


def test_long_head_is_scanned_once(tmp_path):
    """Each block before "data" is searched once for '"data"' and its "[",
    so a field there costs time linear in its length: a 1 MiB note read in
    64-byte blocks loads in about 0.02 s, and took 6.5 s while every block
    re-scanned the whole head."""
    state = seeded_state(1, "pure")
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"note": " " * (1 << 20), **qs.state_to_json(state)}))
    with no_fallback(), mock.patch.object(qs, "_SLICE_CHARS", 64):
        begin = time.perf_counter()
        loaded = qs.load_state(path)
        elapsed = time.perf_counter() - begin
    assert state_arrays(loaded) == state_arrays(state)
    assert elapsed < 1.0


class _EndingFile(io.BytesIO):
    """A file that fails the test if it is read on after a read that
    returned nothing."""

    empty_reads = 0

    def read(self, size=-1):
        assert self.empty_reads == 0, "read on after the file ended"
        block = super().read(size)
        self.empty_reads += not block
        return block


@pytest.mark.parametrize("slice_chars", [7, qs._SLICE_CHARS])
def test_file_cut_short_while_read(tmp_path, slice_chars):
    """A file that ends inside the "data" array is not this format: the read
    stops at the first empty read."""
    path = tmp_path / "mixed.json"
    qs.save_state(path, seeded_state(4, "mixed"))
    raw = path.read_bytes()
    short = _EndingFile(raw[: len(raw) // 2])
    with mock.patch.object(qs, "_SLICE_CHARS", slice_chars):
        assert qs._stream_document(io.BytesIO(raw)) is not None
        assert qs._stream_document(short) is None
    assert short.empty_reads == 1


def test_pairs_beyond_the_largest_count_are_counted():
    """The pairs array grows only up to 4^MAX_QUBITS rows, the largest count
    a header accepts.  Pairs past it are counted, not stored, and the read
    runs on to the source's end, so the count gets the message the whole
    text gives, with no fallback."""
    doc = {"n_qubits": 1, "kind": "mixed", "data": [[0.25, 0]] * 64}
    raw = json.dumps(doc).encode()
    source = io.BytesIO(raw)
    with mock.patch.object(qs, "MAX_QUBITS", 1), mock.patch.object(qs, "_SLICE_CHARS", 16):
        streamed = qs._stream_document(source)
        assert source.tell() == len(raw)
        assert streamed["data"].shape == (64, 2) and streamed["data"].strides[0] == 0
        with pytest.raises(ValueError) as expected:
            qs.state_from_json(doc)
        with pytest.raises(ValueError) as got:
            qs.state_from_json(streamed)
    assert str(got.value) == str(expected.value) == "field 'data' must have 4 entries, got 64"


def test_loaded_matrix_is_the_decoded_pairs(tmp_path):
    """state_from_json validates the pairs the loader decoded in place and
    keeps them, read-only, as the matrix: no copy is made."""
    flat = random_density(3, np.random.default_rng(303)).matrix.reshape(-1)
    path = tmp_path / "mixed.json"
    write_mixed_file(path, flat)
    doc = qs._read_state_document(path)
    pairs = doc["data"]
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
