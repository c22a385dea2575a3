"""Command-line entry point.

Subcommands: thresholds, chsh, rotational, commrun, septest, tensor-export.
Exit codes: 0 success, 2 usage or input error, 3 numerical non-convergence.
Randomized subcommands default to seed 42 and record the seed in their
output, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from dataclasses import asdict

import numpy as np

from . import bellcheck, commcomplex, corrtensor, qstate, septest

DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

# at this many trials a cold sequential run at N = 20 peaks near 237 MB (ru_maxrss)
MAX_TRIALS = 10**6


@contextlib.contextmanager
def _output(out_path):
    """stdout or the --out file; entered once the result is computed."""
    if out_path is None:
        yield sys.stdout
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit_json(doc, out_path) -> None:
    with _output(out_path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_thresholds(args) -> int:
    rows = bellcheck.threshold_rows(args.n_min, args.n_max)
    with _output(args.out) as fh:
        bellcheck.write_threshold_csv(rows, fh)
    return EXIT_OK


def cmd_chsh(args) -> int:
    rho, a_dirs, b_dirs = bellcheck.chsh_optimal_configuration()
    if args.state is not None:
        # the pure and mixed Born chains give different bits; the preset's come from the mixed one
        rho = qstate.as_density(qstate.load_state(args.state))
    if args.angles is not None:
        if not np.all(np.isfinite(args.angles)):
            raise ValueError(f"--angles must be finite numbers, got {args.angles}")
        a_dirs, b_dirs = bellcheck.inplane_direction(np.reshape(args.angles, (2, 2)))
    report = bellcheck.chsh_probability_value(rho, a_dirs, b_dirs)
    doc = asdict(report)
    doc["equality_probabilities"] = report.equality_probabilities.tolist()
    _emit_json(doc, args.out)
    return EXIT_OK


def cmd_rotational(args) -> int:
    tensor = corrtensor.compute_tensor(qstate.make_noisy_ghz(args.n, args.v))
    frame = corrtensor.xy_frame(args.n)
    report = bellcheck.rotational_test(tensor, frame, seed=args.seed)
    _emit_json({"n": args.n, "v": args.v, "seed": args.seed, **asdict(report)}, args.out)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _make_task(name: str, n: int) -> commcomplex.TaskSpec:
    if n > 20:  # the task arrays have 2^n entries; the threshold table's cap
        raise ValueError(f"--n must be at most 20, got {n}")
    if name == "mod4":
        return commcomplex.make_mod4_task(n)
    if n != 2:  # chsh-game; argparse allows no other task
        raise ValueError("the chsh-game task is defined for exactly 2 parties")
    return commcomplex.make_chsh_game()


def cmd_commrun(args) -> int:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ValueError(f"--trials must be in [1, {MAX_TRIALS}], got {args.trials}")
    if "ghz" in args.protocol and args.n > qstate.MAX_QUBITS:  # checked before any search
        raise ValueError(f"--protocol ghz needs --n at most {qstate.MAX_QUBITS}, got {args.n}")
    task = _make_task(args.task, args.n)
    bound = commcomplex.classical_optimum(task).f_star
    records = []
    for protocol in args.protocol:
        if protocol == "classical":
            result = commcomplex.ProtocolResult(
                fidelity=bound, success_prob=(1 + bound) / 2, trials=0, stderr=0.0
            )
        elif protocol == "ghz":
            settings = (
                commcomplex.mod4_settings(args.n)
                if args.task == "mod4"
                else commcomplex.chsh_game_settings()
            )
            result = commcomplex.run_entangled_protocol(
                task, qstate.make_ghz(args.n), settings, args.trials, args.seed
            )
        else:  # sequential; argparse allows no other choice
            result = commcomplex.run_sequential_protocol(task, args.trials, args.seed)
        records.append(
            {
                "task": args.task,
                "n": args.n,
                "protocol": protocol,
                "classical_bound": bound,
                "seed": args.seed,
                **asdict(result),
            }
        )
    _emit_json(records[0] if len(records) == 1 else records, args.out)
    return EXIT_OK


def cmd_septest(args) -> int:
    state = qstate.load_state(args.state)
    if args.metric is None:
        report = septest.separability_check(state, seed=args.seed)
        norm_sq, t_max, detected = report.norm_sq, report.t_max, report.entangled_detected
    else:
        metric = septest.load_metric(args.metric, state.n_qubits)
        report = septest.identifier_check(state, metric, seed=args.seed)
        norm_sq, t_max, detected = report.rhs, report.lhs_max, report.detected
    doc = {
        "norm_sq": norm_sq,
        "t_max": t_max,
        "detected": detected,
        "margin": norm_sq - t_max,
        "converged": report.converged,
        "seed": args.seed,
    }
    _emit_json(doc, args.out)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_tensor_export(args) -> int:
    tensor = corrtensor.compute_tensor(qstate.load_state(args.state))
    with _output(args.out) as fh:
        corrtensor.tensor_to_csv(tensor, fh)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads any negative decimal literal as a number.

    argparse itself takes only -<digits> and -<digits>.<digits> for negative
    numbers, so a value such as -1e-05 was read as an unknown option and the
    flag before it reported a missing argument.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellkit",
        description=(
            "Correlation-tensor Bell tests, communication-complexity games, "
            "and entanglement detection for small qubit systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="noise-threshold table for GHZ states")
    p.add_argument("--n-min", type=int, default=2, help="smallest party count")
    p.add_argument("--n-max", type=int, default=10, help="largest party count")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("chsh", help="probability-form two-party Bell value")
    p.add_argument("--state", default=None, help="state JSON file (default preset)")
    p.add_argument(
        "--angles",
        type=float,
        nargs=4,
        metavar=("A1", "A2", "B1", "B2"),
        default=None,
        help="in-plane setting angles in radians (default preset)",
    )
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("rotational", help="in-plane tensor bound on a noisy GHZ state")
    p.add_argument("--n", type=int, required=True, help="party count")
    p.add_argument("--v", type=float, required=True, help="visibility in [0, 1]")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_rotational)

    p = sub.add_parser("commrun", help="communication-complexity protocols")
    p.add_argument("--task", choices=["mod4", "chsh-game"], default="mod4")
    p.add_argument("--n", type=int, required=True, help="party count")
    p.add_argument(
        "--protocol",
        choices=["classical", "ghz", "sequential"],
        nargs="+",
        required=True,
        help="one or more protocols to run",
    )
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_commrun)

    p = sub.add_parser("septest", help="entanglement detection on a state file")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--metric", default=None, help="metric JSON file (optional)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_septest)

    p = sub.add_parser("tensor-export", help="correlation tensor as CSV")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_tensor_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "seed", 0) < 0:  # NumPy's own error names no flag
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except qstate.NumericalIntegrityError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
