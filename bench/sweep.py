"""In-process library sweep: about 1000 verdict calls per pass.

Usage: python3 sweep.py --seed N --seconds S --trace 0|1

Runs whole passes until S seconds have gone and prints one JSON object with
the wall time of every untraced pass, the mean time of the reference task
run just before and just after it, the call and failure counts, and (with
``--trace 1``) the span summary of the traced passes.  With tracing on,
untraced and traced passes alternate so their difference is the tracing
overhead.  Each verdict is checked against a closed form.

Calls go through the ``bellkit`` package namespace so that the span
wrappers installed for traced passes see them.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

import bellkit as bk
import spans
from reference import reference_s
from jobs import ghz_norm_sq, mismatch, mod4_bound

ROTATIONAL_NS = range(3, 7)
SEPARABLE_NS = range(2, 5)
IDENTIFIER_NS = (3, 4)
CLASSICAL_NS = range(2, 13)
# 4 * 100 + 3 * 100 + 2 * 144 + 11 = 999 verdict calls per pass
ROTATIONAL_PER_N = 100
SEPARABLE_PER_N = 100
IDENTIFIER_PER_N = 144
DETECTION_TOL = 1e-7  # bellkit.septest's detection margin
BOUNDARY = 1e-6  # flags are not checked this close to their closed-form boundary


def make_plan(seed: int, scale: float = 1.0) -> dict:
    """Seeded visibilities and seeds for one pass; ``scale`` shrinks it."""
    rng = np.random.default_rng(seed)

    def count(k):
        return max(1, int(k * scale))

    def seeds(k):
        return rng.integers(0, 2**31, size=k).tolist()

    def vis(k):
        return rng.uniform(0.05, 1.0, size=k).tolist()

    return {
        "rotational": [
            (n, v, s)
            for n in ROTATIONAL_NS
            for v, s in zip(vis(count(ROTATIONAL_PER_N)), seeds(count(ROTATIONAL_PER_N)))
        ],
        "separable": [
            (n, 1 + s % 6, s, t)
            for n in SEPARABLE_NS
            for s, t in zip(seeds(count(SEPARABLE_PER_N)), seeds(count(SEPARABLE_PER_N)))
        ],
        "identifier": [
            (n, v, s)
            for n in IDENTIFIER_NS
            for v, s in zip(vis(count(IDENTIFIER_PER_N)), seeds(count(IDENTIFIER_PER_N)))
        ],
        "classical": list(CLASSICAL_NS),
    }


def run_pass(plan: dict) -> tuple:
    """One pass over the plan; returns (calls, failed calls, error messages)."""
    errors = []
    calls = failed = 0

    def record(*errs):
        nonlocal calls, failed
        calls += 1
        errs = [e for e in errs if e]
        failed += bool(errs)
        errors.extend(errs)

    for n, v, seed in plan["rotational"]:
        tensor = bk.compute_tensor(bk.make_noisy_ghz(n, v))
        rep = bk.rotational_test(tensor, bk.xy_frame(n), seed=seed)
        threshold = 2 * (2 / math.pi) ** n
        flag_ok = abs(v - threshold) <= BOUNDARY or rep.violated == (v > threshold)
        record(
            mismatch(rep.s_value, v * v * 2 ** (n - 1), f"rotational n={n} v={v} s_value"),
            mismatch(rep.e_max, v, f"rotational n={n} v={v} e_max"),
            None if flag_ok else f"rotational n={n} v={v}: violated={rep.violated}",
        )
    for n, terms, state_seed, seed in plan["separable"]:
        rep = bk.separability_check(bk.random_separable(n, terms, state_seed), seed=seed)
        record(rep.entangled_detected and f"separable n={n} state_seed={state_seed} detected")
    for n, v, seed in plan["identifier"]:
        rep = bk.identifier_check(bk.make_noisy_ghz(n, v), bk.identity_proper_metric(n), seed=seed)
        gap = ghz_norm_sq(n, v) - v
        flag_ok = abs(gap - DETECTION_TOL) <= BOUNDARY or rep.detected == (gap > DETECTION_TOL)
        record(
            mismatch(rep.rhs, ghz_norm_sq(n, v), f"identifier n={n} v={v} rhs"),
            mismatch(rep.lhs_max, v, f"identifier n={n} v={v} lhs_max"),
            None if flag_ok else f"identifier n={n} v={v}: detected={rep.detected}",
        )
    for n in plan["classical"]:
        f_star = bk.classical_optimum(bk.make_mod4_task(n)).f_star
        record(f_star != mod4_bound(n) and f"classical_optimum n={n}: {f_star!r}")
    return calls, failed, errors


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    plan = make_plan(args.seed)
    run_pass(make_plan(args.seed + 1, scale=0.01))  # warm lazy imports and caches

    untraced, traced, errors, refs = [], [], [], []
    attempted = failed = 0
    summary = {}
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for with_trace in (False, True) if args.trace else (False,):
            before = None if with_trace else reference_s()
            recorder = spans.Recorder()
            uninstall = spans.install(recorder) if with_trace else None
            t0 = time.perf_counter()
            calls, bad, errs = run_pass(plan)
            wall = time.perf_counter() - t0
            if before is not None:
                refs.append((before + reference_s()) / 2)
            if uninstall:
                uninstall()
                spans.merge(summary, spans.summarize(recorder))
            (traced if with_trace else untraced).append(wall)
            attempted += calls
            failed += bad
            errors += errs[:10]
    print(json.dumps({
        "untraced_s": untraced,
        "traced_s": traced,
        "calls_per_pass": attempted // (len(untraced) + len(traced)),
        "reference_s": refs,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "spans": summary,
    }))


if __name__ == "__main__":
    main()
