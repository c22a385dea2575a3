"""Exit-code contract of ``septest``, ``tensor-export`` and ``chsh --state``
on generated files.

State and metric documents for N <= 3, valid or corrupted, go through
``cli.main``.  It must return 0, 2 or 3 and let no exception escape.  On
exit 2 stdout is empty; on exit 3 stdout is empty (a numerical error) or
holds the report of an ascent that did not converge.  A septest report
and a chsh report are strict JSON: no NaN or Infinity.
"""

import contextlib
import io
import json

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
