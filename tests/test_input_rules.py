"""The shared input rules: integer counts, matching party counts and
visibilities in [0, 1], at every entry point that takes one."""

import re

import numpy as np
import pytest

from bellkit import bellcheck as bc
from bellkit import commcomplex as cc
from bellkit import corrtensor as ct
from bellkit import qstate as qs
from bellkit import septest as st


def _tensor_values():
    vals = np.zeros((4,) * 3)
    vals[0, 0, 0] = 1.0
    return vals


def _state_doc(n):
    return {"n_qubits": n, "kind": "pure", "data": [[1, 0]] + [[0, 0]] * 7}


def _mod4_arrays():
    task = cc.make_mod4_task(3)
    return task.f, task.p_prime, task.support


# entry point -> (call with the count, name in the error, an out-of-range count);
# each call is valid with the count 3
COUNTS = {
    "StateVector": (lambda n: qs.StateVector(n, np.eye(8)[0]), "n_qubits", 11),
    "DensityMatrix": (lambda n: qs.DensityMatrix(n, np.eye(8) / 8), "n_qubits", 0),
    "make_ghz": (qs.make_ghz, "GHZ size", 1),
    "make_noisy_ghz": (lambda n: qs.make_noisy_ghz(n, 0.5), "GHZ size", 11),
    "state_from_json": (lambda n: qs.state_from_json(_state_doc(n)), "field 'n_qubits'", 11),
    "CorrelationTensor": (lambda n: ct.CorrelationTensor(n, _tensor_values()), "n_qubits", 0),
    "xy_frame": (ct.xy_frame, "n_parties", 11),
    "DiagonalMetric": (lambda n: st.DiagonalMetric(n, np.ones(64)), "n_qubits", 0),
    "DenseMetric": (lambda n: st.DenseMetric(n, np.eye(64)), "n_qubits", 11),
    "identity_proper_metric": (st.identity_proper_metric, "n_qubits", 11),
    "random_separable": (lambda n: st.random_separable(n, 1, 0), "n_qubits", 11),
    "random_separable.k_terms": (lambda k: st.random_separable(2, k, 0), "k_terms", 0),
    "TaskSpec": (lambda n: cc.TaskSpec(n, *_mod4_arrays()), "n_parties", 1),
    "make_mod4_task": (cc.make_mod4_task, "n_parties", 1),
    "mod4_settings": (cc.mod4_settings, "n_parties", 1),
    "mod4_classical_bound": (cc.mod4_classical_bound, "n_parties", 1),
    "run_entangled_protocol.trials": (
        lambda k: cc.run_entangled_protocol(
            cc.make_mod4_task(3), qs.make_ghz(3), cc.mod4_settings(3), k, 0
        ),
        "trials",
        0,
    ),
    "run_sequential_protocol.trials": (
        lambda k: cc.run_sequential_protocol(cc.make_mod4_task(3), k, 0), "trials", 0
    ),
    "chsh_game_equality_frequencies": (
        lambda k: cc.chsh_game_equality_frequencies(k, 0), "trials_per_pair", 0
    ),
    "ClassicalStrategy.from_index": (
        lambda n: cc.ClassicalStrategy.from_index(n, 0), "n_parties", 0
    ),
    "ClassicalStrategy.from_index.index": (
        lambda i: cc.ClassicalStrategy.from_index(2, i), "index", 16
    ),
    "ghz_thresholds": (bc.ghz_thresholds, "n_parties", 1),
    "threshold_rows.n_min": (lambda n: bc.threshold_rows(n, 5), "n_min", 1),
    "threshold_rows.n_max": (lambda n: bc.threshold_rows(2, n), "n_max", 21),
}


@pytest.mark.parametrize("count", [2.5, 3.0, True, "3"], ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_count_must_be_an_integer(entry, count):
    call, name, _ = COUNTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer$"):
        call(count)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_numpy_integer_count_is_accepted(entry):
    call, _, _ = COUNTS[entry]
    out = call(np.int64(3))
    for attr in ("n_qubits", "n_parties"):
        if hasattr(out, attr):
            assert type(getattr(out, attr)) is int


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_count_out_of_range_names_the_count(entry):
    call, name, bad = COUNTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be (in|at least) .*, got {bad}$"):
        call(bad)


def test_fractional_counts_are_not_truncated():
    with pytest.raises(ValueError, match="n_qubits"):
        st.DiagonalMetric(2.5, np.ones(32))
    with pytest.raises(ValueError, match="n_qubits"):
        st.DenseMetric(2.5, np.eye(16))
    with pytest.raises(ValueError, match="n_qubits"):
        ct.CorrelationTensor(2.7, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="n_parties"):
        cc.mod4_classical_bound(3.5)
    with pytest.raises(ValueError, match="n_parties"):
        bc.ghz_thresholds(2.5)


class TestPartyMatch:
    """Every site reports a mismatch in one form: what has how many parties."""

    def test_tensor_sites(self):
        t = ct.compute_tensor(qs.make_werner(0.5))
        t3 = ct.compute_tensor(qs.make_ghz(3).projector())
        cases = [
            (lambda: ct.tensor_dot(t, t3), "tensor has 2, second tensor has 3"),
            (lambda: ct.frame_components(t, ct.xy_frame(3)), "tensor has 2, frame has 3"),
            (lambda: ct.max_product_value(t, frame=ct.xy_frame(3)), "tensor has 2, frame has 3"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError, match=f"^party count mismatch: {message}$"):
                call()

    def test_game_sites(self):
        task = cc.make_mod4_task(3)
        ghz = qs.make_ghz(2)
        cases = [
            (lambda: cc.quantum_fidelity_analytic(task, ghz, cc.mod4_settings(3)),
             "task has 3, state has 2"),
            (lambda: cc.run_entangled_protocol(task, ghz, cc.mod4_settings(3), 10, 0),
             "task has 3, state has 2"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError, match=f"^party count mismatch: {message}$"):
                call()

    def test_identifier_metric(self):
        with pytest.raises(ValueError, match="^party count mismatch: state has 2, metric has 1$"):
            st.identifier_check(qs.make_werner(0.5), st.identity_proper_metric(1))


@pytest.mark.parametrize("v", [-1e-3, 1.5, float("nan")])
@pytest.mark.parametrize("make", [lambda v: qs.make_noisy_ghz(3, v), qs.make_werner],
                         ids=["make_noisy_ghz", "make_werner"])
def test_visibility_out_of_range(make, v):
    with pytest.raises(ValueError, match=re.escape(f"visibility must be in [0, 1], got {v}")):
        make(v)
