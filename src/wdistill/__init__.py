"""Random distillation of W-class qubit states into configurable target
pairs: exact component calculus, the least-party-out protocol and its
optimizer, closed-form bounds, and stochastic verification tools."""

from .core import (
    ConfigGraph,
    DistillationError,
    Epr,
    Failure,
    FAILURE,
    GraphMatchError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMeasurementError,
    InvalidPartyError,
    LocalMeasurement,
    OutcomeDistribution,
    PreconditionError,
    Residual,
    StandardW,
    UnknownPresetError,
    WState,
    apply_measurement,
    graph_catalog,
    kt_averages,
    remove_nodes,
    standard_w,
)
from .evroutine import (
    ev_distribution,
    ev_measurement,
    full_set_lambda,
)
from .lpo import (
    OptimizationReport,
    PhaseThreeSolver,
    ProtocolTree,
    WeakImprovementReport,
    build_protocol_tree,
    ev_tree,
    f_alpha,
    g6_weak_improvement,
    p3,
    p_fl,
    p_lpo,
    paw_closed_form,
    phase1_distribution,
    phase1_measurement,
    phase1_success_probability,
)
from .bounds import (
    BoundReport,
    bound_config,
    gamma,
    pair_distillation_bound,
    pairs_comparison,
    resolve_bound,
    tau,
    tau6,
    two_party_schmidt_weights,
    w_target_bound,
)
from .mc import (
    SimResult,
    StateVector,
    monotone_fuzz,
    random_measurement,
    random_w_state,
    simulate,
    statevector_oracle,
)

__version__ = "0.1.0"
