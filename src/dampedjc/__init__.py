"""Damped Jaynes-Cummings master equation on a truncated Fock space.

Split-operator propagators for the vectorized two-level-atom/oscillator
master equation, exact closed forms for the block-diagonal damping flow,
and brute-force reference integrators to check everything against.
"""

from .errors import (
    ConfigError,
    DampedJCError,
    DomainError,
    NumericalError,
    ParamError,
    ShapeError,
    StepError,
    TruncationError,
    TruncationWarning,
)
from .params import ModelParams
from .fock import (
    annihilation,
    coherent_state,
    coherent_tail_weight,
    cos_sqrt,
    creation,
    number,
    sinc_sqrt,
)
from .superop import (
    BlockDensity,
    build_generator,
    build_X,
    build_Y,
    devectorize,
    devectorize_blocks,
    guard_occupation,
    k_generators,
    lindblad_superop,
    restrict_superop,
    sandwich_superop,
    vectorize,
    vectorize_blocks,
)
from .analytic import (
    EFG,
    coherent_solution,
    diagonal_block_propagator,
    efg,
    tau_series,
    vacuum_solution,
)
from .zassenhaus import (
    CommutatorBlocks,
    PropagatorOrder,
    assemble_commutator,
    commutator_blocks,
    example_solution,
    exp_commutator,
    exp_Y,
    propagate,
)
from .oracle import (
    DiagnosticsReport,
    OracleConfig,
    OracleMethod,
    converged_diagonal_expm,
    diagnostics,
    master_rhs,
    oracle_propagate,
)
from .cli import (
    ConvergenceResult,
    ObservableRow,
    RunConfig,
    convergence_study,
    emit_plotscript,
    run_trajectory,
    trace_distance,
)

__version__ = "0.1.0"
