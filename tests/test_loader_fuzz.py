"""Property tests of the state and metric JSON loaders on arbitrary documents.

Every document either decodes to an object whose arrays are all finite or
raises ValueError; any other exception, or a NaN or infinity that gets
through, is a failure.  The loaders also give the same arrays, or raise the
same message, as the per-entry references in io_reference.py.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bellkit import qstate as qs
from bellkit import septest as st
from io_reference import (
    reference_finite_field,
    reference_metric_from_json,
    reference_state_from_json,
)

FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True)

# numbers that are valid JSON or that json.loads produces from valid-looking text
numbers = hs.sampled_from([0, 1, -1, 0.5, float("nan"), float("inf"), 1e-300, 10**400])
scalars = hs.one_of(numbers, hs.none(), hs.booleans(), hs.floats(), hs.text(max_size=2))
json_values = hs.recursive(
    scalars,
    lambda inner: hs.lists(inner, max_size=3)
    | hs.dictionaries(hs.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@hs.composite
def state_docs(draw):
    """A state document of the right size, with some entries or fields
    replaced by arbitrary JSON values."""
    kind = draw(hs.sampled_from(["pure", "mixed"]))
    size = 2 if kind == "pure" else 4
    entry = hs.lists(numbers, min_size=2, max_size=2)
    # listing entry twice makes about two in three entries number pairs
    data = draw(hs.lists(entry | entry | json_values, min_size=size, max_size=size))
    return {"n_qubits": draw(hs.just(1) | json_values), "kind": kind, "data": data}


metric_docs = json_values | hs.fixed_dictionaries(
    {
        "kind": hs.sampled_from(["diagonal", "dense"]),
        "weights": hs.lists(numbers | scalars, min_size=4, max_size=4) | json_values,
        "matrix": hs.lists(hs.lists(numbers, min_size=4, max_size=4), min_size=4, max_size=4)
        | json_values,
    }
)


def assert_finite_or_value_error(load, doc):
    try:
        out = load(doc)
    except ValueError:
        return
    arrays = [v for v in vars(out).values() if isinstance(v, np.ndarray)]
    assert arrays
    for arr in arrays:
        assert np.all(np.isfinite(arr))


def outcome(load, doc):
    """The ValueError message, or the decoded type and array bytes."""
    try:
        out = load(doc)
    except ValueError as exc:
        return str(exc)
    arrays = [(k, v.shape, v.tobytes()) for k, v in vars(out).items() if isinstance(v, np.ndarray)]
    return type(out), arrays


@FUZZ
@given(json_values | state_docs())
@example({"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]]})
@example({"n_qubits": 1, "kind": "mixed", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]})
# a non-finite pair before a non-number pair: the latter is named
@example({"n_qubits": 1, "kind": "pure", "data": [[float("nan"), 0], ["a", 0]]})
@example({"n_qubits": 1, "kind": "pure", "data": [[float("inf"), 0], [1, 10**400]]})
def test_state_loader(doc):
    assert_finite_or_value_error(qs.state_from_json, doc)
    assert outcome(qs.state_from_json, doc) == outcome(reference_state_from_json, doc)


@FUZZ
@given(metric_docs)
@example({"kind": "diagonal", "weights": [0, 1, 1, 1]})
@example({"kind": "dense", "matrix": np.eye(4).tolist()})
@example({"kind": "diagonal", "weights": [[0, 1], [1, 1]]})
@example({"kind": "diagonal", "weights": [[[0, 1], [1, 1]]]})
@example({"kind": "dense", "matrix": 1})
def test_metric_loader(doc):
    assert_finite_or_value_error(lambda d: st.metric_from_json(d, 1), doc)
    new = outcome(lambda d: st.metric_from_json(d, 1), doc)
    ref = outcome(lambda d: reference_metric_from_json(d, 1), doc)
    if new != ref:
        # the one narrowing: a field the reference read as a scalar or as
        # three or more levels of nesting is not a list of numbers or of
        # equal-length lists of them
        field = "weights" if doc["kind"] == "diagonal" else "matrix"
        assert new == f"field '{field}' must hold finite numbers only"
        assert reference_finite_field(doc, field).ndim not in (1, 2)
