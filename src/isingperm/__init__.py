"""Matrix permanents: classical evaluators and a simulated quantum protocol.

Classical routes (naive, Ryser, Glynn, Glynn-Kan, GapP split, Gurvits
sampling) plus an additive-error estimation protocol that expresses the
permanent as a weighted sum of Ising-propagator overlaps evaluated by
simulated Hadamard tests, with the accompanying error bounds, time-step
windows, and circuit resource accounting.
"""

__version__ = "0.1.0"

from .analysis import (
    ErrorBudget,
    GaussianNormStats,
    ResourceReport,
    advantage_classify,
    advantage_domain_ratio,
    complex_overlap_count,
    gaussian_norm_statistic,
    q_ratio,
    resource_table,
    total_error_bound,
)
from .classical import (
    PermanentEstimate,
    glynn_kan_operator_expectation,
    permanent_gapp,
    permanent_glynn,
    permanent_glynn_kan,
    permanent_gurvits,
    permanent_naive,
    permanent_ryser,
)
from .decomposition import (
    DtSelection,
    DtWindow,
    OverlapTerm,
    ProtocolConfig,
    check_convergence,
    convergence_dt_max,
    finite_difference_bound,
    generate_terms,
    recombine,
    richardson_extrapolate,
    run_protocol,
    select_dt,
)
from .errors import DimensionTooLargeError, DtOutOfRangeError, InvalidInputError
from .matrices import (
    MatrixNorms,
    SquareMatrix,
    ising_diag_spectral_norm,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    norms,
    save_matrix,
)
from .simulator import (
    Gate,
    OverlapResult,
    QuantumCircuit,
    ancilla_probability_zero,
    build_hadamard_test,
    exact_overlap_evaluator,
    hoeffding_shots,
    overlap_exact,
    overlap_shots,
    shot_overlap_evaluator,
    simulate_statevector,
)
