"""Bench-size CLI output: the SHA-256 of a run's exit code and stdout.

tests/test_golden.py stops at N <= 6.  The runs here are the sizes the
bench runs, so a change that moves their bytes fails in this suite, not
only in a hand check.  The input files are built here from NumPy alone.
Each group of runs has one digest, over every run in order; after each
run the first four hex digits of the running digest are kept too, so a
mismatch names the first run that moved.

The digests were recorded on a 2-vCPU x86-64 Linux host with Python 3.11.7,
NumPy 2.4.6 and OpenBLAS, and were the same with 1 and 2 BLAS threads.  A
host whose BLAS kernels round differently could fail them.
"""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _cli_run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}"


def _demo_run(script):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(script), run_name="__main__")
    return out.getvalue()


def rotated_noisy_ghz(n, v, rng):
    """bench/jobs.py's septest input: v |GHZ><GHZ| + (1 - v) I / 2^n under
    random local unitaries, flattened."""
    d = 2**n
    ghz = np.zeros(d, dtype=complex)
    ghz[0] = ghz[-1] = 2**-0.5
    rho = v * np.outer(ghz, ghz.conj()) + (1 - v) / d * np.eye(d)
    u = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    rho = u @ rho @ u.conj().T
    rho = (rho + rho.conj().T) / 2
    return (rho / np.trace(rho).real).reshape(-1)


def separable_flat(n, terms, rng):
    """A mixture of pure product states (I + b . sigma) / 2 per qubit with
    Bloch vectors b uniform on the sphere, flattened."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        term = np.ones((1, 1), dtype=complex)
        for x, y, z in rng.normal(size=(n, 3)) / np.sqrt(3):
            b = np.array([x, y, z]) / np.linalg.norm([x, y, z])
            qubit = 0.5 * np.array([[1 + b[2], b[0] - 1j * b[1]], [b[0] + 1j * b[1], 1 - b[2]]])
            term = np.kron(term, qubit)
        rho += w * term
    return (rho / np.trace(rho).real).reshape(-1)


def write_sparse_state_file(path, n, flat):
    """write_state_file's mixed file for numbers whose zeros are all +0.0,
    formatted only where they are not zero (1048576 pairs at N = 10)."""
    cells = np.full(flat.size, "[0.0, 0.0]", dtype=object)
    at = np.flatnonzero(flat)
    cells[at] = ["[%r, %r]" % (z.real, z.imag) for z in flat[at].tolist()]
    doc = json.dumps({"n_qubits": n, "kind": "mixed", "data": []})
    path.write_text(doc[:-2] + ", ".join(cells.tolist()) + "]}\n", encoding="utf-8")


def septest_argvs(workdir):
    """Write the septest group's state and metric files; its argument lists."""
    rng = np.random.default_rng(1200)
    ghz10 = 0.5 / 2**10 * np.eye(2**10, dtype=complex)
    ghz10[::2**10 - 1, ::2**10 - 1] += 0.25  # v = 1/2: the four corners
    write_sparse_state_file(workdir / "ghz10.json", 10, ghz10.reshape(-1))
    states = {
        "rotated8": (8, rotated_noisy_ghz(8, 0.6, rng)),
        "separable6": (6, separable_flat(6, 5, rng)),
        "rotated4": (4, rotated_noisy_ghz(4, 0.8, rng)),
    }
    for name, (n, flat) in states.items():
        write_state_file(workdir / f"{name}.json", "mixed", n, flat)
    direction = rng.normal(size=4**4)
    direction /= np.linalg.norm(direction)
    metrics = {
        "diagonal6": {"kind": "diagonal", "weights": rng.uniform(0.0, 2.0, 4**6).tolist()},
        "dense4": {"kind": "dense", "matrix": np.outer(direction, direction).tolist()},
    }
    for name, doc in metrics.items():
        (workdir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    runs = [("rotated8", None), ("ghz10", None), ("separable6", None),
            ("separable6", "diagonal6"), ("rotated4", "dense4")]
    return [
        ["septest", "--state", str(workdir / f"{state}.json"), "--seed", seed]
        + (["--metric", str(workdir / f"{metric}.json")] if metric else [])
        for state, metric in runs
        for seed in ("42", "7")
    ]


def _group(name, workdir):
    """The runs of a group, as (label, output) callables in order; input
    files go to workdir."""
    if name == "demos":
        return [(d.name, lambda d=d: _demo_run(d)) for d in DEMOS]
    if name == "septest":
        argvs = septest_argvs(workdir)
    elif name == "rotational":
        argvs = [
            ["rotational", "--n", str(n), "--v", v, "--seed", seed]
            for n in range(2, 11)
            for v in ("0", "0.1", "0.3", "0.6", "1")
            for seed in ("42", "7")
        ]
    elif name == "commrun":
        mod4 = ["commrun", "--task", "mod4", "--trials", "100000"]
        argvs = [
            *(mod4 + ["--n", str(n), "--protocol", "classical", "ghz", "sequential",
                      "--seed", "7"] for n in (2, 3, 5, 8, 10)),
            *(mod4 + ["--n", str(n), "--protocol", "classical", "sequential",
                      "--seed", "9"] for n in (12, 16, 20)),
            ["commrun", "--task", "chsh-game", "--n", "2", "--trials", "100000",
             "--protocol", "classical", "ghz", "sequential", "--seed", "7"],
        ]
    else:
        assert name == "chsh"
        argvs = [["chsh"], ["chsh", "--angles", "0.3", "1.9", "2.4", "-0.7"]]
    return [(" ".join(argv), lambda argv=argv: _cli_run(argv)) for argv in argvs]


# SHA-256 over every run of the group, and the running digest's first four
# hex digits after each run; recorded before the state loader read its pair
# count from the file's header
GROUPS = {
    "rotational": (
        "f1c9c83a891d37300a552ead35e1eb7354a35c5048f0ebba52a4f5eeddd92c42",
        "6761 beac c4f1 d7c4 30d9 dc68 8809 0509 75cc 11ec af78 f5cb 34ca 9a7b "
        "819c c03f 1865 d118 2445 353a 254c 67bd c22d 182d b6fc 19d1 dfea 9b8b "
        "faef dd02 f8d6 ab37 148f 54d4 c2de 443e dc38 f244 e75a 94f7 8fc6 b0d2 "
        "00df ee55 aed7 e119 aecb e48f 7869 7c52 f531 73c3 4a12 e1dc be1a 6eac "
        "4655 be73 7ba0 d4af 9680 5eae ef62 212e 7944 4735 504e db06 9abc ce66 "
        "bf83 9fcd 0f85 514c 4748 0d49 0a10 532c d087 8d27 da31 b375 c37c 051f "
        "00b9 5436 5b3b d324 6d88 f1c9",
    ),
    "commrun": (
        "bdaeaf9142d17bec9bc7eb7c964dbfb9ba1e2e60ed88d25a9e54c9b06d99edfc",
        "4640 2929 033c ee8b 653a fd23 6c42 ae79 bdae",
    ),
    "chsh": (
        "47df07dc0c89291ed7aaf173cf10bd7dd78ea2228bfe6143e1d9a8c7b111ba04",
        "9f90 47df",
    ),
    # recorded while the loader still sought the "data" array's edges
    "septest": (
        "73ac73f6725271a8086e9744beac7ca7777475d78c80b25bb31f8fbf7e6faa87",
        "8fc4 2d55 7b25 d4de a612 7c8f b418 883e 59ea 73ac",
    ),
    "demos": (
        "1cdfbf9a99ab737d84ba819d50c3875088a8f9021d79d3e49f99063c9a764979",
        "15ec a836 1a6e 1cdf",
    ),
}


def _digests(runs):
    digest, marks = hashlib.sha256(), []
    for _, run in runs:
        digest.update(run().encode("utf-8"))
        marks.append(digest.hexdigest()[:4])
    return digest.hexdigest(), " ".join(marks)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_bytes_at_bench_size(name, tmp_path):
    runs = _group(name, tmp_path)
    got, marks = _digests(runs)
    expected, expected_marks = GROUPS[name]
    moved = [label for (label, _), a, b in zip(runs, marks.split(), expected_marks.split())
             if a != b]
    assert got == expected, f"first run that moved: {moved[0] if moved else 'unknown'}"
