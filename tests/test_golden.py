"""Golden CLI output: the SHA-256 of every run's exit code and stdout, one
digest per group of runs.

Any change to the bytes the CLI prints, or to an exit code, changes a
digest.  The exit-2 group hashes stderr too, since its messages are the
input-error contract.  Every state has N <= 6 qubits, so BLAS threading
cannot move bits.  The input files are built here from NumPy alone.
"""

import hashlib
import json

import numpy as np
import pytest

from bellkit import cli

N = 3  # qubits of the state and metric files


def _state_doc(kind: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dim = 2**N
    if kind == "pure":
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        flat = amps / np.sqrt(np.sum(np.abs(amps) ** 2))
    else:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = sum(np.outer(g[:, k], g[:, k].conj()) for k in range(dim))
        rho = (rho + rho.conj().T) / 2  # exactly Hermitian
        flat = (rho / np.trace(rho).real).reshape(-1)
    data = [[float(z.real), float(z.imag)] for z in flat]
    return {"n_qubits": N, "kind": kind, "data": data}


def _metric_doc(kind: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dim = 4**N
    if kind == "diagonal":
        return {"kind": "diagonal", "weights": rng.uniform(0.0, 1.0, dim).tolist()}
    u, w = rng.normal(size=(2, dim))
    # outer products only, no BLAS: exactly symmetric and positive definite
    m = np.outer(u, u) + np.outer(w, w) + 0.1 * np.eye(dim)
    return {"kind": "dense", "matrix": m.tolist()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    docs = {
        "pure": _state_doc("pure", 11),
        "mixed": _state_doc("mixed", 12),
        "diagonal": _metric_doc("diagonal", 13),
        "dense": _metric_doc("dense", 14),
        "eleven": {"n_qubits": 11, "kind": "pure", "data": []},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return {name: str(path) for name, path in paths.items()}


def _runs(group: str, f: dict) -> list:
    if group == "thresholds":
        return [["thresholds"], ["thresholds", "--n-min", "3", "--n-max", "20"]]
    if group == "chsh":
        return [["chsh"], ["chsh", "--angles", "0", "1.5707963267948966", "2.4", "0.7"]]
    if group == "rotational":
        return [
            ["rotational", "--n", str(n), "--v", v]
            for n in range(3, 7)
            for v in ("0.3", "0.9")
        ]
    if group == "commrun":
        return [
            ["commrun", "--task", "mod4", "--n", "4", "--trials", "5000",
             "--protocol", "classical", "ghz", "sequential"],
            ["commrun", "--task", "chsh-game", "--n", "2", "--trials", "5000",
             "--protocol", "classical", "ghz"],
        ]
    if group == "septest":
        return [
            ["septest", "--state", f[state], *extra]
            for state in ("pure", "mixed")
            for extra in ([], ["--seed", "1"], ["--metric", f["diagonal"]],
                          ["--metric", f["dense"]])
        ]
    if group == "tensor-export":
        return [["tensor-export", "--state", f["pure"]],
                ["tensor-export", "--state", f["mixed"]]]
    assert group == "exit-2"
    return [
        ["rotational", "--n", "3", "--v", "-1e-3"],
        ["commrun", "--n", "21", "--protocol", "classical"],
        ["tensor-export", "--state", f["eleven"]],
    ]


GOLDEN = {
    "thresholds": "3ed76dc9356ccf79db4de8ce6cb8396ced17226d098849f94f2d8f841d277e8d",
    "chsh": "66a743d1166288e410c206baf5dec417c5db964b67586a53502c91a8b2bd56dd",
    "rotational": "4aa31c587b47f04aba9c9987a5aa9cee79e9470115557e19a73eef02d3d06a4e",
    "commrun": "c82f31d856ade293db45044c98887ce9e37c9a85ba86e1457c9a3fa628744f56",
    "septest": "6b2a0e8fe7e325c60781386aeaca45bdf9a92e08da79763c19c0fd5147359cff",
    "tensor-export": "94e4faa6491d028f3a92902d2485b9b3c2e9e0a23b8972262c7165e867a7b1e1",
    "exit-2": "de4d32f542f90dcbb7b8bd3a39335c5308d200326b08c78a14de54240da3b6a2",
}


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_output_bytes_unchanged(group, files, capsys):
    digest = hashlib.sha256()
    for argv in _runs(group, files):
        code = cli.main(argv)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}".encode())
        if group == "exit-2":
            assert code == 2
            digest.update(captured.err.encode())
    assert digest.hexdigest() == GOLDEN[group]
