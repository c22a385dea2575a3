"""Correlation-tensor toolkit for small multi-qubit systems.

Covers three connected capabilities: Bell-type tests (the two-party
probability-form inequality and the rotational-invariance bound on
in-plane correlation tensors), communication-complexity games with
classical, shared-entanglement, and single-qubit protocols, and
geometric entanglement detection from tensor norms and metric-operator
identifiers.
"""

from .qstate import (
    MAX_QUBITS,
    DensityMatrix,
    NumericalIntegrityError,
    StateVector,
    load_state,
    make_ghz,
    make_noisy_ghz,
    make_werner,
    measurement_distribution,
    save_state,
    state_from_json,
    state_to_json,
)
from .corrtensor import (
    CorrelationTensor,
    LocalFrame,
    MaxProductResult,
    compute_tensor,
    inplane_norm_sq,
    max_product_value,
    tensor_dot,
    tensor_to_csv,
    xy_frame,
)
from .bellcheck import (
    BellReport,
    DeterministicAssignment,
    RotationalReport,
    chsh_optimal_configuration,
    chsh_probability_value,
    ghz_thresholds,
    lr_lemma_exhaustive,
    rotational_test,
    threshold_rows,
)
from .commcomplex import (
    ClassicalStrategy,
    ProtocolResult,
    TaskSpec,
    UnsupportedTaskError,
    chsh_game_equality_frequencies,
    chsh_game_settings,
    chsh_game_target,
    classical_optimum,
    make_chsh_game,
    make_mod4_task,
    mod4_classical_bound,
    mod4_settings,
    quantum_fidelity_analytic,
    run_entangled_protocol,
    run_sequential_protocol,
)
from .septest import (
    DenseMetric,
    DiagonalMetric,
    IdentifierReport,
    MetricOperator,
    SeparabilityReport,
    identifier_check,
    identity_proper_metric,
    load_metric,
    metric_from_json,
    random_separable,
    rank_one_metric,
    separability_check,
)

__version__ = "0.1.0"
