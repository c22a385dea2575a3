"""Span recorder that times calls into bellkit's public functions from outside.

``install`` replaces each function listed in ``SPANS`` by a timing wrapper in
every ``bellkit`` module namespace that binds it, so calls made through a
name imported with ``from .corrtensor import max_product_value`` are timed as
well as calls through ``corrtensor.max_product_value``.  Methods are wrapped
on their class.  ``src/`` itself is never edited.

Spans are kept in memory as (name, start_ns, end_ns, parent) records and
summarised at the end: calls, total time, and self time, which is the span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time

# Traced functions per module.  "Class.method" names a method; the validation
# of a DensityMatrix runs in its __post_init__, which ALIASES maps to.
SPANS = {
    "qstate": [
        "load_state",
        "state_from_json",
        "DensityMatrix.validate",
        "StateVector.projector",
        "make_noisy_ghz",
        "measurement_distribution",
    ],
    "corrtensor": [
        "compute_tensor",
        "max_product_value",
        "tensor_to_csv",
        "inplane_norm_sq",
    ],
    "bellcheck": ["rotational_test"],
    "septest": ["separability_check", "identifier_check", "random_separable"],
    "commcomplex": [
        "classical_optimum",
        "run_entangled_protocol",
        "run_sequential_protocol",
    ],
    "cli": ["main"],
}
ALIASES = {"DensityMatrix.validate": "DensityMatrix.__post_init__"}

SPAN_NAMES = [f"{module}.{name}" for module, names in SPANS.items() for name in names]


def _csv_bytes(args, kwargs):
    """Counter for tensor_to_csv: characters written to the handle (ASCII)."""
    fh = args[1] if len(args) > 1 else kwargs["fh"]
    start = fh.tell()
    return lambda result: {"bytes": fh.tell() - start}


def _converged(args, kwargs):
    """Counter for max_product_value: 1 when the best restart converged."""
    return lambda result: {"converged": int(result.converged)}


COUNTERS = {
    "corrtensor.tensor_to_csv": _csv_bytes,
    "corrtensor.max_product_value": _converged,
}


class Recorder:
    """In-memory span store for one thread of calls."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.records = []  # [name, start_ns, end_ns, parent index or -1]
        self.counters = {}  # span name -> {counter: total}
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            finish = counter(args, kwargs) if counter else None
            index = len(self.records)
            parent = self._stack[-1] if self._stack else -1
            self.records.append([name, self.clock(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.records[index][2] = self.clock()
            if finish is not None:
                totals = self.counters.setdefault(name, {})
                for key, value in finish(result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def install(recorder: Recorder):
    """Wrap every function in SPANS; returns a callable that undoes it."""
    undo = []
    for module_name, names in SPANS.items():
        module = importlib.import_module(f"bellkit.{module_name}")
        for name in names:
            span = f"{module_name}.{name}"
            if "." in name:
                cls_name, attr = ALIASES.get(name, name).split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, recorder.wrap(span, original))
                undo.append((cls, attr, original))
                continue
            original = getattr(module, name)
            wrapper = recorder.wrap(span, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "bellkit" and not mod_name.startswith("bellkit."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def self_times(records) -> list:
    """Self time of each record: duration minus the union of its children.

    Children are clipped to their parent's interval before the union is
    taken, so overlapping or out-of-range children never count twice.
    """
    children = [[] for _ in records]
    for index, (_, _, _, parent) in enumerate(records):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(records):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(
            (records[c][1], records[c][2]) for c in children[index]
        ):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def summarize(recorder: Recorder) -> dict:
    """Per span name: calls, total_s, self_s and any counters."""
    out = {}
    for (name, start, end, _), self_ns in zip(recorder.records, self_times(recorder.records)):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) * 1e-9
        entry["self_s"] += self_ns * 1e-9
    for name, counters in recorder.counters.items():
        out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).update(counters)
    return out


def merge(total: dict, part: dict) -> None:
    """Add one summary into another, key by key."""
    for name, entry in part.items():
        into = total.setdefault(name, {})
        for key, value in entry.items():
            into[key] = into.get(key, 0) + value
