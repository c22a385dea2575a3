"""Property test of load_state on arbitrary state file texts.

load_state decodes the "data" array of a state file in slices and falls back
to json.loads on any text not in that form.  Either way it must give the
same state bytes, or raise the same error message, as the whole-text path
state_from_json(json.loads(text)).  The slice size is drawn down to a few
characters so that the cuts land everywhere.
"""

import json
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bellkit import qstate as qs

FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)

# number tokens written into the text as they are: signed zero, NaN and the
# infinities, a float and an integer beyond the float range, exponent forms
NUMBERS = ["0", "1", "-1", "0.0", "1.0", "-0.0", "0.5", "2E-1", "NaN", "Infinity",
           "-Infinity", "1e400", "1" + "0" * 400]
ZEROS = ["0", "0.0", "-0.0"]
TEXT_SEPARATORS = [{}, {"indent": 2}, {"separators": (",", ":")}]
GOOD = {"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]]}
# "data" in a nested object and in a string, "]," in a string, the sentinel
EXTRA_FIELDS = {
    "meta": {"data": [[1, 0], [0, 0]]},
    "note": '"data": [[0, 1]], "x": "],["',
    "tol": -1,
}


@hs.composite
def state_texts(draw):
    """A state document as text: number pairs with raw number tokens (half of
    them a basis state, written with signed zeros), some entries replaced,
    extra and duplicate keys, any key order, any of json.dumps' layouts, then
    perhaps cut short or followed by garbage."""
    tokens = []

    def number(options):  # a placeholder that json.dumps writes as a string
        tokens.append(draw(hs.sampled_from(options)))
        return f"@{len(tokens) - 1}@"

    n = draw(hs.sampled_from([1, 1, 2]))
    kind = draw(hs.sampled_from(["pure", "mixed"]))
    dim = 2**n
    size = (dim if kind == "pure" else dim * dim) + draw(hs.sampled_from([0] * 8 + [-1, 1]))
    basis = draw(hs.integers(0, dim - 1)) * (1 if kind == "pure" else dim + 1)
    if draw(hs.booleans()):
        numbers = [["1", "1.0", "-1"] if i == basis else ZEROS for i in range(size)]
    else:
        numbers = [NUMBERS] * size
    rare = hs.integers(0, 40).map(lambda k: k == 17)  # Hypothesis favours the ends
    odd = hs.sampled_from(["],", "]", '"data": [[1, 0]],', "a", None, [], [[0, 1]]])
    width = draw(hs.sampled_from([2] * 8 + [1, 3]))
    data = [
        draw(odd) if draw(rare) else [number(opts)] + [number(ZEROS) for _ in range(width - 1)]
        for opts in numbers
    ]
    fields = [("n_qubits", draw(hs.sampled_from([n] * 8 + [-1, True]))), ("kind", kind),
              ("data", data)]
    extra = draw(hs.sampled_from([None] * 3 + sorted(EXTRA_FIELDS)))
    fields += [(extra, EXTRA_FIELDS[extra])] if extra else []
    doc = dict(draw(hs.permutations(fields)))
    text = json.dumps(doc, **draw(hs.sampled_from(TEXT_SEPARATORS)))
    text = re.sub(r'"@(\d+)@"', lambda m: tokens[int(m.group(1))], text)
    duplicate = draw(hs.sampled_from([None] * 6 + ["-1", "[[0, 1], [1, 0]]", "[[1, 0]]"]))
    if duplicate is not None:
        entry = f'"data": {duplicate}'
        text = (
            "{" + entry + ", " + text[1:]
            if draw(hs.booleans())
            else text[:-1] + ", " + entry + "}"
        )
    cut = draw(hs.sampled_from([None] * 6 + ["short", "garbage"]))
    if cut == "short":
        text = text[: draw(hs.integers(0, len(text) - 1))]
    elif cut == "garbage":
        text += draw(hs.sampled_from(["x", "]", ",", "}", " {}"]))
    return text


def outcome(decode):
    """The error type and message, or the decoded type and array bytes."""
    try:
        state = decode()
    except ValueError as exc:
        return type(exc), str(exc)
    arr = state.amplitudes if isinstance(state, qs.StateVector) else state.matrix
    return type(state), arr.shape, arr.tobytes()


def reference_load(text):
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("state document nests too deeply") from None
    return qs.state_from_json(doc)


NESTED = "[" * 3000 + "]" * 3000


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader_text")


@FUZZ
@given(state_texts(), hs.integers(1, 48))
@example(json.dumps(GOOD), 1)
@example(json.dumps(GOOD, indent=2), 4)
@example(json.dumps({**GOOD, "data": [[-0.0, 0.0], [1e-300, 0]]}), 1)
# the sentinel that stands in for the data array appears elsewhere
@example('{"data": -1, "n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]]}', 2)
@example('{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]], "data": -1}', 2)
@example('{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]], "tol": -1}', 2)
@example('{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0],]}', 1)
@example('{"n_qubits": 1, "kind": "pure", "data": [[1, 0, 0], [0, 0, 0]]}', 1)
@example('{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]].0}', 1)
@example('{"n_qubits": 1, "kind": "pure", "data": [[1, 0]], "x": [[0, 0]]}', 1)
@example('{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]]} []', 1)
@example('{"n_qubits": 1, "kind": "pure", "data": ' + NESTED + "}", 8)
@example('{"n_qubits": 1, "kind": "pure", "data": [[1, 0], ' + NESTED + "]}", 8)
@example('{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]], "x": ' + NESTED + "}", 8)
def test_load_state_matches_whole_text_path(workdir, text, slice_chars):
    path = workdir / "state.json"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(qs, "_SLICE_CHARS", slice_chars):
        got = outcome(lambda: qs.load_state(path))
    assert got == outcome(lambda: reference_load(text))


def reference_file_load(path):
    """The whole-text path on the file as a text read gives it: strict
    UTF-8 with whole-file error positions, and universal newlines."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return reference_load(text)


BAD_BYTES = [b"\xff", b"\xc3", b"\xe2\x98", b"\xed\xa0\x80"]  # invalid, cut short, surrogate
NON_ASCII = '"name": "été ☃ \U0001d11e", '


@hs.composite
def state_files(draw):
    """A state document as file bytes: a text from state_texts with \\n, \\r\\n
    or lone \\r line ends, perhaps a non-ASCII string field in front, a UTF-8
    BOM, or a byte that is not UTF-8 in the head, in "data" or after it."""
    text = draw(state_texts())
    if text.startswith("{") and draw(hs.booleans()):
        text = "{" + NON_ASCII + text[1:]
    raw = text.replace("\n", draw(hs.sampled_from(["\n", "\r\n", "\r"]))).encode("utf-8")
    where = draw(hs.sampled_from([None] * 4 + ["head", "data", "tail"]))
    if where is not None:
        key = raw.find(b'"data"')
        at = {
            "head": 1,
            "data": raw.find(b"],", key) + 2 if key >= 0 else -1,
            "tail": raw.rfind(b"]") + 1,
        }[where]
        at = at if at > 0 else len(raw)
        raw = raw[:at] + draw(hs.sampled_from(BAD_BYTES)) + raw[at:]
    if draw(hs.integers(0, 7)) == 0:
        raw = b"\xef\xbb\xbf" + raw
    return raw


def indented(doc, newline):
    return json.dumps(doc, indent=2).replace("\n", newline).encode("utf-8")


MIXED = {"n_qubits": 1, "kind": "mixed", "data": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}


@FUZZ
@given(state_files(), hs.integers(1, 48))
@example(indented(GOOD, "\r\n"), 1)
@example(indented(MIXED, "\r\n"), 3)
@example(indented(GOOD, "\r"), 2)
@example(indented(MIXED, "\r"), 5)
@example(b"\xef\xbb\xbf" + json.dumps(GOOD).encode(), 4)
@example(b'{"n_qubits": 1, \xff"kind": "pure", "data": [[1, 0], [0, 0]]}', 2)
@example(b'{"n_qubits": 1, "kind": "pure", "data": [[1, 0], \xff[0, 0]]}', 2)
@example(b'{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]], "x": "\xe2\x98"}', 2)
@example(b'{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]]}\xff', 2)
@example(("{" + NON_ASCII + json.dumps(GOOD)[1:]).encode(), 1)
@example(("{" + NON_ASCII + json.dumps(MIXED, indent=2)[1:]).replace("\n", "\r").encode(), 2)
@example(b'{"n_qubits": 1, "kind": "pure", "data": [[1, 0], ["\xc3\xa9", 0]]}', 2)
@example(b'{"n_qubits": 1, "kind": "pure", "note": "a\rb", "data": [[1, 0], [0, 0]]}', 2)
def test_load_state_matches_text_read_of_file_bytes(workdir, raw, slice_chars):
    path = workdir / "state_bytes.json"
    path.write_bytes(raw)
    with mock.patch.object(qs, "_SLICE_CHARS", slice_chars):
        got = outcome(lambda: qs.load_state(path))
    assert got == outcome(lambda: reference_file_load(path))
