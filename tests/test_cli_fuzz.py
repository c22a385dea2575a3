"""Exit-code contract of the CLI on generated files and argument lists.

State and metric documents for N <= 3, valid or corrupted, go through
``septest``, ``tensor-export`` and ``chsh --state``; out-of-range, huge,
negative and non-finite flag values go through ``rotational``,
``commrun``, ``thresholds`` and ``chsh --angles``.  Everything runs in
process through ``cli.main``.  It must return 0, 2 or 3 and let no
exception escape.  On exit 2 stdout is empty; on exit 3 stdout is empty (a
numerical error) or holds the report of an ascent that did not converge.
Reports are strict JSON (no NaN or Infinity) or CSV of finite numbers.
"""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bellkit import cli
from bellkit import qstate as qs
from test_loader_fuzz import json_values, numbers

FUZZ = settings(max_examples=100, deadline=None, database=None, derandomize=True)

# finite numbers, some large enough to overflow a quadratic form
finite = hs.sampled_from([0, 1, 0.5, 2.0, -1e-12, 1e154, 1.7e308])


@hs.composite
def state_docs(draw):
    """A seeded random state document, then possibly corrupted."""
    n = draw(hs.integers(1, 3))
    kind = draw(hs.sampled_from(["pure", "mixed"]))
    rng = np.random.default_rng(draw(hs.integers(0, 2**16)))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    if kind == "pure":
        state = qs.StateVector(n, amps)
    else:
        p = draw(hs.floats(0.0, 1.0))
        state = qs.DensityMatrix(n, p * np.outer(amps, amps.conj()) + (1 - p) * np.eye(2**n) / 2**n)
    doc = qs.state_to_json(state)
    change = draw(hs.sampled_from(["none", "none", "entry", "field", "scale"]))
    if change == "entry":
        i = draw(hs.integers(0, len(doc["data"]) - 1))
        doc["data"][i] = draw(json_values | hs.lists(numbers, min_size=2, max_size=2))
    elif change == "field":
        doc[draw(hs.sampled_from(["n_qubits", "kind", "data"]))] = draw(json_values)
    elif change == "scale":
        factor = draw(finite)
        doc["data"] = [[factor * re, factor * im] for re, im in doc["data"]]
    return doc


@hs.composite
def metric_docs(draw, n):
    kind = draw(hs.sampled_from(["diagonal", "dense", "other"]))
    if kind == "diagonal":
        weights = draw(hs.lists(finite, min_size=4**n, max_size=4**n))
        if draw(hs.booleans()):
            weights[draw(hs.integers(0, 4**n - 1))] = draw(json_values)
        return {"kind": kind, "weights": weights}
    if kind == "dense":
        return {"kind": kind, "matrix": (draw(finite) * np.eye(4**n)).tolist()}
    return draw(json_values)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def assert_contract(code, out):
    assert code in (0, 2, 3)
    if code == 2:
        assert out == ""
    if code == 3 and out:
        assert strict_json(out)["converged"] is False


@FUZZ
@given(doc=state_docs())
def test_tensor_export(workdir, doc):
    path = workdir / "state.json"
    path.write_text(json.dumps(doc))
    code, out = run(["tensor-export", "--state", str(path)])
    assert code in (0, 2)
    assert_contract(code, out)


@FUZZ
@given(data=hs.data())
def test_septest(workdir, data):
    doc = data.draw(state_docs())
    state_path = workdir / "state.json"
    state_path.write_text(json.dumps(doc))
    argv = ["septest", "--state", str(state_path), "--seed", str(data.draw(hs.integers(0, 3)))]
    n = doc["n_qubits"] if doc["n_qubits"] in (1, 2, 3) else 1
    metric = data.draw(hs.none() | metric_docs(n))
    if metric is not None:
        metric_path = workdir / "metric.json"
        metric_path.write_text(json.dumps(metric))
        argv += ["--metric", str(metric_path)]
    code, out = run(argv)
    assert_contract(code, out)
    if code == 0:
        assert set(strict_json(out)) == {"norm_sq", "t_max", "detected", "margin", "converged", "seed"}


@FUZZ
@given(doc=state_docs())
def test_chsh_state(workdir, doc):
    path = workdir / "state.json"
    path.write_text(json.dumps(doc))
    code, out = run(["chsh", "--state", str(path)])
    assert_contract(code, out)
    if code == 0:
        report = strict_json(out)
        assert set(report) == {"b_value", "bound", "violated", "equality_probabilities"}


# --- argument lists ----------------------------------------------------------
#
# Each draw starts from valid flag values and breaks any subset of them.
# Values are passed as "--flag=value" (or with a leading space inside a
# multi-value flag), so that a negative number in exponent form reaches the
# command instead of being read as an option.  Valid draws stay small:
# rotational N <= 6, commrun N <= 10 or in the closed-form range 13..20,
# and at most 200 trials.

huge = hs.sampled_from([10**9, -(10**9), 10**30, -(10**30)])
junk = hs.sampled_from(["", "abc", "1e3", "0x10", "1.5"])
non_finite = hs.sampled_from([math.nan, math.inf, -math.inf])
big_floats = hs.sampled_from([1e308, -1e308, 5e-324, -0.0])
seeds = hs.integers(0, 2**64)
bad_seeds = hs.integers(-(2**64), -1) | junk


@hs.composite
def flag_values(draw, valid, invalid):
    """One value per flag: valid ones, then a drawn subset broken."""
    values = {flag: draw(strategy) for flag, strategy in valid.items()}
    for flag in sorted(draw(hs.sets(hs.sampled_from(sorted(invalid))))):
        values[flag] = draw(invalid[flag])
    return values


def flag_args(values):
    return [f"{flag}={v if isinstance(v, str) else repr(v)}" for flag, v in values.items()]


ROTATIONAL_KEYS = {"n", "v", "seed", "s_value", "e_max", "bound", "violated", "converged"}


@FUZZ
@given(
    values=flag_values(
        {"--n": hs.integers(2, 6), "--v": hs.floats(0.0, 1.0), "--seed": seeds},
        {
            "--n": hs.integers(-2, 1) | hs.sampled_from([11, 12]) | huge | junk,
            "--v": hs.floats().filter(lambda v: not 0.0 <= v <= 1.0) | non_finite | junk,
            "--seed": bad_seeds,
        },
    )
)
def test_rotational_argv(values):
    code, out = run(["rotational", *flag_args(values)])
    assert_contract(code, out)
    if code == 0:
        report = strict_json(out)
        assert set(report) == ROTATIONAL_KEYS
        assert [report["n"], report["v"], report["seed"]] == list(values.values())


REPORT_KEYS = {"task", "n", "protocol", "fidelity", "success_prob", "stderr", "trials",
               "classical_bound", "seed"}


@FUZZ
@given(
    values=flag_values(
        {
            "--task": hs.sampled_from(["mod4", "mod4", "chsh-game"]),
            "--n": hs.integers(2, 10) | hs.integers(13, 20),
            "--trials": hs.integers(1, 200),
            "--seed": seeds,
        },
        {
            "--task": hs.just("other"),
            "--n": hs.integers(-2, 1) | hs.just(21) | huge | junk,
            "--trials": hs.integers(-3, 0) | hs.just(cli.MAX_TRIALS + 1) | huge | junk,
            "--seed": bad_seeds,
        },
    ),
    protocols=hs.lists(hs.sampled_from(["classical", "ghz", "sequential"]), min_size=1, max_size=3),
)
def test_commrun_argv(values, protocols):
    code, out = run(["commrun", *flag_args(values), "--protocol", *protocols])
    assert code in (0, 2)
    assert_contract(code, out)
    if code == 0:
        doc = strict_json(out)
        records = doc if isinstance(doc, list) else [doc]
        assert [r["protocol"] for r in records] == protocols
        assert all(set(r) == REPORT_KEYS for r in records)


@hs.composite
def threshold_range(draw):
    n_min = draw(hs.integers(2, 20))
    return {"--n-min": n_min, "--n-max": draw(hs.integers(n_min, 20))}


@FUZZ
@given(
    valid=threshold_range(),
    broken=flag_values({}, dict.fromkeys(["--n-min", "--n-max"], hs.integers(-3, 22) | huge | junk)),
)
def test_thresholds_argv(valid, broken):
    values = {**valid, **broken}
    code, out = run(["thresholds", *flag_args(values)])
    assert code in (0, 2)
    assert_contract(code, out)
    if code == 0:
        header, *rows = list(csv.reader(io.StringIO(out, newline="")))
        assert header == ["n", "standard_threshold", "rotational_threshold", "rotational_smaller"]
        assert [int(r[0]) for r in rows] == list(range(values["--n-min"], values["--n-max"] + 1))
        for r in rows:
            assert all(math.isfinite(float(x)) for x in r[1:3])
            assert r[3] in ("true", "false")


@FUZZ
@given(
    values=flag_values(
        {k: hs.floats(allow_nan=False, allow_infinity=False) | big_floats for k in range(4)},
        {k: non_finite for k in range(4)},
    )
)
def test_chsh_angles_argv(values):
    angles = list(values.values())
    code, out = run(["chsh", "--angles", *(f" {a!r}" for a in angles)])
    # any finite angles give a report on the preset state
    assert code == (0 if all(math.isfinite(a) for a in angles) else 2)
    assert_contract(code, out)
    if code == 0:
        assert set(strict_json(out)) == {"b_value", "bound", "violated", "equality_probabilities"}
