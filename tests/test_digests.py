"""Bench-size CLI output: the SHA-256 of a run's exit code and stdout.

tests/test_golden.py stops at N <= 6.  The runs here are the sizes the
bench runs, so a change that moves their bytes fails in this suite, not
only in a hand check.  The input files are built here from NumPy alone.

The digests were recorded on a 2-vCPU x86-64 Linux host with Python 3.11.7,
NumPy 2.4.6 and OpenBLAS, and were the same with 1 and 2 BLAS threads.  A
host whose BLAS kernels round differently could fail them.
"""

import contextlib
import hashlib
import json

import numpy as np
import pytest

from bellkit import cli
from bellkit import qstate as qs

EXPORT_N = 10


def write_state_file(path, kind, n, flat):
    """The file save_state writes for these numbers, formatted block by
    block so that no list of all the pairs is held (it would be 128 MB at
    N = 10 mixed)."""
    pairs = np.stack([flat.real, flat.imag], axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"n_qubits": n, "kind": kind, "data": []})[:-2])
        for i in range(0, len(pairs), 4096):
            fh.write(", " if i else "")
            fh.write(", ".join("[%r, %r]" % tuple(p) for p in pairs[i : i + 4096].tolist()))
        fh.write("]}\n")


def export_flat(kind, n):
    """Seeded numbers: a random pure state, or half white noise and half a
    mixture of four random pure states, full rank and exactly Hermitian
    (outer products only, no BLAS)."""
    rng = np.random.default_rng(2700 + n + (kind == "mixed"))
    dim = 2**n
    psi = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2, axis=1))[:, None]
    if kind == "pure":
        return psi[0]
    weights = rng.uniform(0.5, 1.0, 4)
    rho = 0.5 / dim * np.eye(dim, dtype=complex)
    for w, p in zip(weights / weights.sum(), psi):
        rho += 0.5 * w * np.outer(p, p.conj())
    return (rho / np.trace(rho).real).reshape(-1)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_state_file_matches_save_state(tmp_path, kind):
    flat = export_flat(kind, 2)
    state = qs.StateVector(2, flat) if kind == "pure" else qs.DensityMatrix(2, flat.reshape(4, 4))
    ours, saved = tmp_path / "ours.json", tmp_path / "saved.json"
    write_state_file(ours, kind, 2, flat)
    qs.save_state(saved, state)
    assert ours.read_bytes() == saved.read_bytes()


class _HashingWriter:
    """A stdout that keeps only the SHA-256 of the UTF-8 text written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("utf-8"))

    def flush(self):
        pass


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("pure", "12a8f3bbf87f723bbda123c90e83735c3ddfab9a2786f359a8b5ee85abd2695d"),
        ("mixed", "d3d7b956d561c6b22e95445c49d38629cd5b23298264b48987c9c9b7cdcb9d4f"),
    ],
)
def test_tensor_export_bytes_at_bench_size(tmp_path, kind, expected):
    # SHA-256 of the exit code and stdout, recorded while load_state read the
    # whole file into memory and DensityMatrix copied the checked matrix
    path = tmp_path / f"{kind}.json"
    write_state_file(path, kind, EXPORT_N, export_flat(kind, EXPORT_N))
    writer = _HashingWriter()
    with contextlib.redirect_stdout(writer):
        code = cli.main(["tensor-export", "--state", str(path)])
    writer.sha.update(b"exit %d" % code)
    assert writer.sha.hexdigest() == expected
