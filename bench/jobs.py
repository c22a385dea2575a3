"""Seeded inputs, cold CLI jobs and closed-form checks of their outputs.

Inputs are built with NumPy alone, so the expected values below do not
depend on the bellkit code under test.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EXPORT_N = 10
SEPTEST_N = 8
ROTATIONAL_N = 10
ROTATIONAL_V = 0.5
COMMRUN_N = 10
COMMRUN_TRIALS = 100000
TOL = 1e-9


@dataclass(frozen=True)
class Job:
    """One cold ``bellkit`` command and the check of its stdout bytes."""

    kind: str
    argv: tuple
    check: Callable[[bytes], str | None]  # error message, or None when correct


# --- inputs -----------------------------------------------------------------


def write_state(path: Path, kind: str, n: int, flat: np.ndarray) -> None:
    """Write the state JSON format that ``bellkit.save_state`` writes."""
    pairs = np.stack([flat.real, flat.imag], axis=1).tolist()
    path.write_text(json.dumps({"n_qubits": n, "kind": kind, "data": pairs}) + "\n")


def random_pure(n: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_mixed(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank state: half a random Wishart matrix, half white noise."""
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = g @ g.conj().T
    rho = 0.5 * w / np.trace(w).real + 0.5 * np.eye(d) / d
    return (rho + rho.conj().T) / 2


def rotated_noisy_ghz(n: int, v: float, rng: np.random.Generator) -> np.ndarray:
    """v |GHZ><GHZ| + (1 - v) I / 2^n under random local unitaries.

    Local unitaries keep the proper tensor norm v^2 (2^(n-1) + [n even]) and
    the product maximum T^max = v, but move them off the coordinate axes.
    """
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
    return rho / np.trace(rho).real


def ghz_norm_sq(n: int, v: float) -> float:
    """Proper tensor norm of a noisy GHZ state."""
    return v * v * (2 ** (n - 1) + (1 if n % 2 == 0 else 0))


def mod4_bound(n: int) -> float:
    """Exact classical fidelity 2^(1-K) of the modulo-4 game, K = ceil(n/2)."""
    return 2.0 ** (1 - (n + 1) // 2)


# --- checks -----------------------------------------------------------------


def mismatch(got, want, what: str, tol: float = TOL) -> str | None:
    """Error message when ``got`` is not a number within ``tol`` of ``want``."""
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol * max(1.0, abs(want)):
        return f"{what} = {got!r}, expected {want!r}"
    return None


def check_tensor_csv(out: bytes, n: int, sum_sq: float) -> str | None:
    """4^n rows, identity entry 1, and sum of T^2 = 2^n Tr rho^2."""
    lines = out.split(b"\r\n")
    header = ",".join([f"j{k}" for k in range(1, n + 1)] + ["value"]).encode()
    if lines[0] != header or lines[-1] != b"":
        return "CSV header or final line terminator is wrong"
    rows = lines[1:-1]
    if len(rows) != 4**n:
        return f"CSV has {len(rows)} rows, expected {4**n}"
    first = rows[0].split(b",")
    if first[:n] != [b"0"] * n:
        return "first CSV row is not the identity entry"
    try:
        values = np.array([row.rsplit(b",", 1)[1] for row in rows]).astype(float)
    except ValueError as exc:
        return f"CSV value column does not parse: {exc}"
    return mismatch(float(values[0]), 1.0, "identity entry") or mismatch(
        float(np.sum(values**2)), sum_sq, "sum of T^2"
    )


def _load(out: bytes, kind: type):
    """Parse stdout as JSON of the given type; returns (doc, error)."""
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"
    if not isinstance(doc, kind) or (kind is list and not all(isinstance(d, dict) for d in doc)):
        return None, f"stdout is not a JSON {kind.__name__} of the expected shape"
    return doc, None


def check_rotational(out: bytes, n: int, v: float) -> str | None:
    doc, err = _load(out, dict)
    if err:
        return err
    violated = v > 2 * (2 / math.pi) ** n
    for err in (
        mismatch(doc.get("s_value"), v * v * 2 ** (n - 1), "s_value"),
        mismatch(doc.get("e_max"), v, "e_max"),
        None if doc.get("violated") is violated else f"violated is {doc.get('violated')!r}",
        None if doc.get("converged") is True else "ascent did not converge",
    ):
        if err:
            return err
    return None


def check_commrun(out: bytes, n: int, trials: int) -> str | None:
    docs, err = _load(out, list)
    if err:
        return err
    bound = mod4_bound(n)
    if [d.get("protocol") for d in docs] != ["classical", "ghz", "sequential"]:
        return "commrun protocols are not classical, ghz, sequential"
    for doc in docs:
        want = bound if doc["protocol"] == "classical" else 1.0
        if doc.get("classical_bound") != bound:
            return f"classical_bound = {doc.get('classical_bound')!r}, expected {bound!r}"
        if doc.get("fidelity") != want:
            return f"{doc['protocol']} fidelity = {doc.get('fidelity')!r}, expected {want!r}"
        if doc["protocol"] != "classical" and doc.get("trials") != trials:
            return f"{doc['protocol']} ran {doc.get('trials')!r} trials"
    return None


def check_septest(out: bytes, n: int, v: float) -> str | None:
    doc, err = _load(out, dict)
    if err:
        return err
    for err in (
        mismatch(doc.get("norm_sq"), ghz_norm_sq(n, v), "norm_sq"),
        mismatch(doc.get("t_max"), v, "t_max"),
        None if doc.get("detected") is True else "entanglement not detected",
        None if doc.get("converged") is True else "ascent did not converge",
    ):
        if err:
            return err
    return None


# --- workloads --------------------------------------------------------------


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the seeded input files; returns what the checks need to know.

    Run in a process of its own (see ``__main__``), so that building the
    52 MB mixed-state file does not raise the peak RSS of the benchmark
    process, which every job it starts would report as its own.
    """
    rng = np.random.default_rng(seed)
    if workload == "export":
        write_state(workdir / "pure.json", "pure", EXPORT_N, random_pure(EXPORT_N, rng))
        rho = random_mixed(EXPORT_N, rng)
        write_state(workdir / "mixed.json", "mixed", EXPORT_N, rho.reshape(-1))
        return {"mixed_sum_sq": 2**EXPORT_N * float(np.sum(np.abs(rho) ** 2))}
    cli_seed = int(rng.integers(0, 2**31))
    v = float(rng.uniform(0.3, 0.9))
    rho = rotated_noisy_ghz(SEPTEST_N, v, rng)
    write_state(workdir / "septest.json", "mixed", SEPTEST_N, rho.reshape(-1))
    return {"seed": cli_seed, "v": v}


def export_jobs(params: dict, workdir: Path) -> list:
    """Alternating exports of a random pure and a random full-rank state."""
    return [
        Job(
            "export_pure",
            ("tensor-export", "--state", str(workdir / "pure.json")),
            lambda out: check_tensor_csv(out, EXPORT_N, 2.0**EXPORT_N),
        ),
        Job(
            "export_mixed",
            ("tensor-export", "--state", str(workdir / "mixed.json")),
            lambda out: check_tensor_csv(out, EXPORT_N, params["mixed_sum_sq"]),
        ),
    ]


def cli_mix_jobs(params: dict, workdir: Path) -> list:
    """septest, rotational and commrun, each with seeded inputs."""
    seed, v = str(params["seed"]), params["v"]
    return [
        Job(
            "septest",
            ("septest", "--state", str(workdir / "septest.json"), "--seed", seed),
            lambda out: check_septest(out, SEPTEST_N, v),
        ),
        Job(
            "rotational",
            ("rotational", "--n", str(ROTATIONAL_N), "--v", str(ROTATIONAL_V), "--seed", seed),
            lambda out: check_rotational(out, ROTATIONAL_N, ROTATIONAL_V),
        ),
        Job(
            "commrun",
            (
                "commrun", "--task", "mod4", "--n", str(COMMRUN_N),
                "--protocol", "classical", "ghz", "sequential",
                "--trials", str(COMMRUN_TRIALS), "--seed", seed,
            ),
            lambda out: check_commrun(out, COMMRUN_N, COMMRUN_TRIALS),
        ),
    ]


WORKLOAD_JOBS = {"export": export_jobs, "cli-mix": cli_mix_jobs}


if __name__ == "__main__":
    # python3 jobs.py WORKLOAD SEED DIR: write the inputs, print the check parameters
    print(json.dumps(make_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))
