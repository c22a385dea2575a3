"""Property tests of the state and metric JSON loaders on arbitrary documents.

Every document either decodes to an object whose arrays are all finite or
raises ValueError; any other exception, or a NaN or infinity that gets
through, is a failure.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bellkit import qstate as qs
from bellkit import septest as st

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


@FUZZ
@given(json_values | state_docs())
@example({"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]]})
@example({"n_qubits": 1, "kind": "mixed", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]})
def test_state_loader(doc):
    assert_finite_or_value_error(qs.state_from_json, doc)


@FUZZ
@given(metric_docs)
@example({"kind": "diagonal", "weights": [0, 1, 1, 1]})
@example({"kind": "dense", "matrix": np.eye(4).tolist()})
def test_metric_loader(doc):
    assert_finite_or_value_error(lambda d: st.metric_from_json(d, 1), doc)
