"""The shared input rules: integer counts, matching party counts,
visibilities in [0, 1] and state types, at every entry point that takes
one."""

import re

import numpy as np
import pytest

from bellkit import bellcheck as bc
from bellkit import commcomplex as cc
from bellkit import corrtensor as ct
from bellkit import qstate as qs
from bellkit import septest as st
from oracles import random_density


def _tensor_values():
    vals = np.zeros((4,) * 3)
    vals[0, 0, 0] = 1.0
    return vals


def _state_doc(n):
    return {"n_qubits": n, "kind": "pure", "data": [[1, 0]] + [[0, 0]] * 7}


def _mod4_arrays():
    task = cc.make_mod4_task(3)
    return task.f, task.p_prime


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


# entry point -> a call with the state in place of a StateVector or DensityMatrix
STATE_TAKERS = {
    "measurement_distribution": lambda s: qs.measurement_distribution(s, np.eye(3)[:2]),
    "state_to_json": qs.state_to_json,
    "as_density": qs.as_density,
    "compute_tensor": ct.compute_tensor,
    "separability_check": st.separability_check,
    "identifier_check": lambda s: st.identifier_check(s, st.identity_proper_metric(2)),
    "chsh_probability_value": lambda s: bc.chsh_probability_value(
        s, np.eye(3)[:2], np.eye(3)[:2]
    ),
    "quantum_fidelity_analytic": lambda s: cc.quantum_fidelity_analytic(
        cc.make_mod4_task(2), s, cc.mod4_settings(2)
    ),
    "run_entangled_protocol": lambda s: cc.run_entangled_protocol(
        cc.make_mod4_task(2), s, cc.mod4_settings(2), 10, 0
    ),
}


@pytest.mark.parametrize("entry", sorted(STATE_TAKERS))
@pytest.mark.parametrize("state", ["x", np.eye(4) / 4], ids=["str", "ndarray"])
def test_state_must_be_a_state_type(entry, state):
    with pytest.raises(TypeError, match="^expected StateVector or DensityMatrix, got <class"):
        STATE_TAKERS[entry](state)


@pytest.mark.parametrize("entry", sorted(STATE_TAKERS))
@pytest.mark.parametrize("make", [qs.make_ghz, lambda n: qs.make_ghz(n).projector()],
                         ids=["pure", "mixed"])
def test_pure_and_mixed_states_are_accepted(entry, make):
    STATE_TAKERS[entry](make(2))


@pytest.mark.parametrize("v", [-1e-3, 1.5, float("nan")])
@pytest.mark.parametrize("make", [lambda v: qs.make_noisy_ghz(3, v), qs.make_werner],
                         ids=["make_noisy_ghz", "make_werner"])
def test_visibility_out_of_range(make, v):
    with pytest.raises(ValueError, match=re.escape(f"visibility must be in [0, 1], got {v}")):
        make(v)


def _owned_cases():
    """(build from the caller's arrays, those arrays, the arrays it holds)."""
    amps = np.eye(8, dtype=complex)[0]
    yield pytest.param(lambda: qs.StateVector(3, amps), [amps], lambda s: [s.amplitudes],
                       id="StateVector")
    mat = np.eye(8, dtype=complex) / 8
    yield pytest.param(lambda: qs.DensityMatrix(3, mat), [mat], lambda s: [s.matrix],
                       id="DensityMatrix")
    # a full complex matrix, and the transpose of one: writes to the base
    # array must not reach the state built from its view
    full = random_density(3, np.random.default_rng(3)).matrix.copy()
    yield pytest.param(lambda: qs.DensityMatrix(3, full), [full], lambda s: [s.matrix],
                       id="DensityMatrix-complex")
    base = random_density(3, np.random.default_rng(4)).matrix.copy()
    yield pytest.param(lambda: qs.DensityMatrix(3, base.T), [base], lambda s: [s.matrix],
                       id="DensityMatrix-transposed-view")
    f, p = (a.copy() for a in _mod4_arrays())
    yield pytest.param(lambda: cc.TaskSpec(3, f, p), [f, p],
                       lambda t: [t.f, t.p_prime], id="TaskSpec")
    axes = np.array(ct.xy_frame(3).axes)
    yield pytest.param(lambda: ct.LocalFrame(axes), [axes], lambda fr: [fr.axes],
                       id="LocalFrame")
    weights = np.ones(64)
    yield pytest.param(lambda: st.DiagonalMetric(3, weights), [weights],
                       lambda m: [m.weights], id="DiagonalMetric")
    metric = np.eye(16)
    yield pytest.param(lambda: st.DenseMetric(2, metric), [metric], lambda m: [m.matrix],
                       id="DenseMetric")


@pytest.mark.parametrize("build, given, held", _owned_cases())
def test_constructor_keeps_its_own_copy(build, given, held):
    """The arrays passed in stay writable, and writing to them afterwards
    does not reach the checked, read-only arrays the object holds."""
    kept = held(build())
    before = [a.copy() for a in kept]
    for arr, own in zip(given, kept):
        assert arr.flags.writeable and not own.flags.writeable
        arr.reshape(-1)[0] = 0
    assert all(np.array_equal(a, b) for a, b in zip(kept, before))
