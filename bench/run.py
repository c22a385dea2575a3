"""bellkit benchmark: cold CLI jobs and an in-process library sweep.

Usage, from the root of a bellkit checkout:

    python3 bench/run.py --workload export|cli-mix|sweep --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one bellkit process at a time):

- export:  alternating cold ``tensor-export`` runs on a random N = 10 pure
           state and a random full-rank N = 10 mixed state.  Loading,
           validation, projector() and CSV encoding; the ascent never runs.
- cli-mix: cold ``septest`` (N = 8 mixed file), ``rotational --n 10 --v 0.5``
           and ``commrun --task mod4 --n 10`` with three protocols, round-robin.
           Single large-N ascents, Born sampling, make_noisy_ghz validation.
- sweep:   one process looping ~1000 library verdict calls per pass at small
           N.  The ascent and per-call overhead; no file I/O.

Inputs come from ``--seed`` and are written to a temporary directory inside
the checkout.  Every output is checked against a closed form, and repeats of
a job must print byte-identical stdout.

End-to-end metrics (``--trace 0``), the same four for every workload:

- setup_s:     median wall time of fresh interpreters running ``import bellkit``,
               half of them before the workload and half after it.
- round_ref:   wall time of one round, i.e. one job of each kind (export:
               pure + mixed; cli-mix: septest + rotational + commrun; sweep:
               one pass), in units of the reference task of reference.py.
               Each job's wall time is divided by the mean time of that task
               run on the same CPU just before and just after it; the round
               is the sum over the kinds of the mean ratio.  On a shared
               2-vCPU Xeon host (Python 3.11, NumPy 2.4) the whole machine's
               speed changed by up to 1.8x within a minute.  In two sets of
               ten runs per workload the raw round time moved by 13-29 %
               (IQR over median) and the ratio by 7-10 %.  The raw round
               time in seconds is printed in the table.
- peak_rss_mb: highest peak RSS of any job process (sweep: of the sweep
               process).  The import probes are left out: a child's peak
               RSS includes its parent's at the fork, and the probes after
               the workload follow the parent's check of a 45 MB CSV.
- ok_ratio:    jobs (sweep: verdict calls) that passed every check, over
               those attempted.

With ``--trace 1`` untraced and traced rounds alternate, and the result holds
the per-layer metrics instead: calls, total and self time per traced round of
every span in ``spans.SPANS``, the ascent's converged ratio, CSV bytes, and
the tracing overhead per round in seconds.  Lines before the result print
the per-job table (export_pure_s, septest_s, verdicts_per_s, round_s,
failed_ratio, ...) and the environment.

Every process of a run is pinned to one CPU, the lowest the run may use, so
that at most one bellkit process runs at a time and the reference task sees
the same core as the job after it.

BLAS runs single-threaded in every process: on a 2-vCPU machine, two
OpenBLAS threads made a 1024 x 1024 eigvalsh about ten times slower and far
less repeatable than one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings above)

import jobs  # noqa: E402
import spans  # noqa: E402
from reference import reference_s  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
END_TO_END = [
    ("setup_s", "s"),
    ("round_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]
EXTRA_LAYER = [
    ("corrtensor.max_product_value.converged_ratio", "ratio"),
    ("corrtensor.tensor_to_csv.bytes", "bytes"),
    ("trace.overhead_s", "s"),
]
SPAN_FIELDS = [("calls", "count"), ("total_s", "s"), ("self_s", "s")]
PER_LAYER = [
    (f"{span}.{field}", unit) for span in spans.SPAN_NAMES for field, unit in SPAN_FIELDS
] + EXTRA_LAYER
# Spans each workload must hit; a traced run that misses one fails.
REQUIRED = {
    "export": [
        "cli.main", "qstate.load_state", "qstate.state_from_json",
        "qstate.DensityMatrix.validate", "qstate.StateVector.projector",
        "corrtensor.compute_tensor", "corrtensor.tensor_to_csv",
    ],
    "cli-mix": [
        "cli.main", "qstate.load_state", "qstate.state_from_json",
        "qstate.DensityMatrix.validate", "qstate.make_noisy_ghz",
        "qstate.measurement_distribution", "corrtensor.compute_tensor",
        "corrtensor.max_product_value", "corrtensor.inplane_norm_sq",
        "bellcheck.rotational_test", "septest.separability_check",
        "commcomplex.classical_optimum", "commcomplex.run_entangled_protocol",
        "commcomplex.run_sequential_protocol",
    ],
    "sweep": [
        "qstate.make_noisy_ghz", "qstate.DensityMatrix.validate",
        "corrtensor.compute_tensor", "corrtensor.max_product_value",
        "corrtensor.inplane_norm_sq", "bellcheck.rotational_test",
        "septest.separability_check", "septest.identifier_check",
        "septest.random_separable", "commcomplex.classical_optimum",
    ],
}
SETUP_PROBES = 4  # before and again after the workload, so two moments of the run
JOB_TIMEOUT_S = 150


@dataclass(frozen=True)
class Proc:
    wall_s: float
    rss_mb: float
    code: int


def spawn(cmd, env, root: Path, stdout_path: Path, stderr_path: Path) -> Proc:
    """Run one process to completion; wall time and its own peak RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode)


class Tally:
    """Attempts, failures, peak RSS and untraced wall times of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rss_mb = 0.0
        self.setup_walls = []
        self.walls = {}  # job kind (or "sweep_pass") -> untraced wall times in s
        self.ratios = {}  # job kind -> each wall time over the reference time around it
        self.reference_s = []
        self.calls_per_pass = 0

    def add(self, kind: str, wall_s: float, reference_s: float) -> None:
        self.walls.setdefault(kind, []).append(wall_s)
        self.ratios.setdefault(kind, []).append(wall_s / reference_s)
        self.reference_s.append(reference_s)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)


def check_import(env, root: Path, tmp: Path) -> None:
    """Stop unless the children import bellkit from this checkout's src/."""
    where = tmp / "where.txt"
    spawn(
        [sys.executable, "-c", "import bellkit, sys; sys.stdout.write(bellkit.__file__)"],
        env, root, where, tmp / "where.err",
    )
    found = Path(where.read_text() or ".").resolve()
    if (root / "src") not in found.parents:
        raise SystemExit(f"bellkit imports from {found}, not from {root / 'src'}")


def probe_setup(env, root: Path, tmp: Path, tally: Tally) -> None:
    """Time SETUP_PROBES fresh interpreters running ``import bellkit``."""
    for _ in range(SETUP_PROBES):
        proc = spawn([sys.executable, "-c", "import bellkit"], env, root, tmp / "probe.out", tmp / "probe.err")
        if proc.code != 0:
            raise SystemExit("import bellkit failed")
        tally.setup_walls.append(proc.wall_s)


def make_inputs(workload: str, seed: int, env, root: Path, tmp: Path) -> dict:
    """Write the seeded inputs from a child process; returns the check parameters."""
    out, err = tmp / "inputs.out", tmp / "inputs.err"
    cmd = [sys.executable, str(BENCH_DIR / "jobs.py"), workload, str(seed), str(tmp)]
    if spawn(cmd, env, root, out, err).code != 0:
        sys.stderr.write(err.read_text())
        raise SystemExit("input generation failed")
    return json.loads(out.read_text())


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_cli(workload_jobs, seconds: float, trace: bool, env, root: Path, tmp: Path, tally: Tally):
    """Closed loop over cold CLI jobs; returns (span summary, traced rounds, untraced rounds)."""
    first = {}  # kind -> (digest, stdout path) of its first run
    clean = {job.kind: 0 for job in workload_jobs}
    summary, traced_rounds, untraced_rounds = {}, [], []
    spans_path = tmp / "spans.json"
    pending = None  # (kind, wall time, reference before) of the last untraced job

    def reference() -> float:
        """Time the reference task; it also closes the previous untraced job."""
        nonlocal pending
        ref = reference_s()
        if pending:
            kind, wall, before = pending
            tally.add(kind, wall, (before + ref) / 2)
            pending = None
        return ref

    def run_job(job, traced: bool) -> float:
        nonlocal pending
        out = tmp / (f"{job.kind}.out" if job.kind not in first else "repeat.out")
        err = tmp / "stderr.txt"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), *job.argv]
        else:
            cmd = [sys.executable, "-m", "bellkit", *job.argv]
        before = None if traced else reference()
        proc = spawn(cmd, env, root, out, err)
        tally.attempted += 1
        tally.rss_mb = max(tally.rss_mb, proc.rss_mb)
        if before is not None:
            pending = (job.kind, proc.wall_s, before)
        digest = sha256_file(out)
        first.setdefault(job.kind, (digest, out))
        problems = []
        if proc.code != 0:
            problems.append(f"exit code {proc.code}")
        if b"Traceback" in err.read_bytes():
            problems.append("traceback on stderr")
        if digest != first[job.kind][0]:
            problems.append("stdout differs from the first run of the same job")
        if problems:
            tally.fail(f"{job.kind}: {'; '.join(problems)}")
        else:
            clean[job.kind] += 1
        if traced and spans_path.exists():
            spans.merge(summary, json.loads(spans_path.read_text()))
            spans_path.unlink()
        return proc.wall_s

    start = time.perf_counter()
    i = 0
    # at least one whole round, so that every job kind has a sample
    while i < len(workload_jobs) or time.perf_counter() - start < seconds:
        if not trace:
            run_job(workload_jobs[i % len(workload_jobs)], traced=False)
            i += 1
            continue
        for traced, rounds in ((False, untraced_rounds), (True, traced_rounds)):
            rounds.append(sum(run_job(job, traced) for job in workload_jobs))
        i += len(workload_jobs)
    reference()

    for job in workload_jobs:
        if job.kind in first:
            error = job.check(first[job.kind][1].read_bytes())
            if error:
                tally.fail(f"{job.kind}: {error}", clean[job.kind])
    return summary, traced_rounds, untraced_rounds


def run_sweep(seed: int, seconds: float, trace: bool, env, root: Path, tmp: Path, tally: Tally):
    """The library sweep in one child process; same return shape as run_cli."""
    out, err = tmp / "sweep.out", tmp / "sweep.err"
    cmd = [sys.executable, str(BENCH_DIR / "sweep.py"), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = spawn(cmd, env, root, out, err)
    tally.rss_mb = max(tally.rss_mb, proc.rss_mb)
    if proc.code != 0:
        sys.stderr.write(err.read_text())
        raise SystemExit(f"sweep worker exited with {proc.code}")
    doc = json.loads(out.read_text())
    tally.attempted += doc["attempted"]
    tally.failed += doc["failed"]
    tally.errors += doc["errors"]
    for wall, ref in zip(doc["untraced_s"], doc["reference_s"]):
        tally.add("sweep_pass", wall, ref)
    tally.calls_per_pass = doc["calls_per_pass"]
    return doc["spans"], doc["traced_s"], doc["untraced_s"]


def environment(root: Path, nproc: int, cpu: int) -> dict:
    """nproc, Python, NumPy and BLAS versions, BLAS threads, src/ lines."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "src_lines": src_lines,
    }


def openblas_threads():
    """Thread count OpenBLAS reports, or the environment setting."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def layer_metrics(summary: dict, rounds: int, overhead_s: float) -> dict:
    """Per-layer values per traced round, keyed like BENCHMARK.json."""
    values = {}
    for span in spans.SPAN_NAMES:
        entry = summary.get(span, {})
        for field, _ in SPAN_FIELDS:
            values[f"{span}.{field}"] = entry.get(field, 0) / rounds
    ascent = summary.get("corrtensor.max_product_value", {})
    calls = ascent.get("calls", 0)
    values["corrtensor.max_product_value.converged_ratio"] = (
        ascent.get("converged", 0) / calls if calls else 0.0
    )
    values["corrtensor.tensor_to_csv.bytes"] = (
        summary.get("corrtensor.tensor_to_csv", {}).get("bytes", 0) / rounds
    )
    values["trace.overhead_s"] = overhead_s
    return values


def print_table(tally: Tally, setup_s: float, env_info: dict) -> None:
    """Human-readable per-job figures, printed before the result line."""
    print("env " + json.dumps(env_info, sort_keys=True))
    print(f"{'setup_s':<16} median {setup_s:.4f} s   n={len(tally.setup_walls)}")
    for kind, walls in tally.walls.items():
        print(f"{kind + '_s':<16} mean {statistics.fmean(walls):.4f} s"
              f"   median {statistics.median(walls):.4f} s   n={len(walls)}"
              f"   samples {' '.join(f'{w:.4f}' for w in walls)}")
    if tally.calls_per_pass:
        rate = tally.calls_per_pass / statistics.fmean(tally.walls["sweep_pass"])
        print(f"{'verdicts_per_s':<16} {rate:.1f} 1/s   ({tally.calls_per_pass} calls per pass)")
    round_s = sum(statistics.fmean(walls) for walls in tally.walls.values())
    print(f"{'round_s':<16} {round_s:.4f} s   reference {statistics.fmean(tally.reference_s):.4f} s"
          f"   n={len(tally.reference_s)}")
    print(f"{'peak_rss_mb':<16} {tally.rss_mb:.1f} MB")
    print(f"{'failed_ratio':<16} {tally.failed / tally.attempted:.4f}   ({tally.failed} / {tally.attempted})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(REQUIRED), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # run cleanups when stopped
    # One CPU for this process and every child, so that the reference task
    # and the job after it run on the same core.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    root = Path.cwd().resolve()
    if not (root / "src" / "bellkit" / "__init__.py").is_file():
        print(f"error: no bellkit sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root) as tmp_name:
        tmp = Path(tmp_name)
        check_import(env, root, tmp)
        probe_setup(env, root, tmp, tally)
        trace = bool(args.trace)
        if args.workload == "sweep":
            summary, traced, untraced = run_sweep(args.seed, args.seconds, trace, env, root, tmp, tally)
        else:
            params = make_inputs(args.workload, args.seed, env, root, tmp)
            workload_jobs = jobs.WORKLOAD_JOBS[args.workload](params, tmp)
            summary, traced, untraced = run_cli(workload_jobs, args.seconds, trace, env, root, tmp, tally)
        probe_setup(env, root, tmp, tally)
    setup_s = statistics.median(tally.setup_walls)

    correct = tally.failed == 0
    if trace:
        for span in REQUIRED[args.workload]:
            if summary.get(span, {}).get("calls", 0) == 0:
                correct = False
                tally.errors.append(f"traced run recorded no call of {span}")
        overhead = statistics.fmean(traced) - statistics.fmean(untraced)
        values = layer_metrics(summary, len(traced), overhead)
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": setup_s,
            "round_ref": sum(statistics.fmean(r) for r in tally.ratios.values()),
            "peak_rss_mb": tally.rss_mb,
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        }
        units = dict(END_TO_END)

    for message in tally.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print_table(tally, setup_s, environment(root, len(cpus), min(cpus)))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
