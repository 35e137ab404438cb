"""Sparse actuator selection for linear time-invariant systems.

Find small sets of state variables to drive so that ``dx/dt = Ax + Bu``
becomes controllable: greedy rank-maximization solvers with exact and
numeric rank backends, an exact compiler from hitting-set instances to
controllability instances, brute-force oracles for small problems, and a
seeded random-graph experiment harness.
"""

from minctrl.errors import (
    BackendPreconditionError,
    EnumerationGuardError,
    InternalVerificationError,
    InvalidInputError,
    MinctrlError,
    NumericBackendError,
)
from minctrl.experiments import (
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    eigen_gap_filter,
    run_experiment,
    sample_er_digraph,
)
from minctrl.greedy import (
    SolveResult,
    TraceStep,
    deterministic_greedy_vector,
    greedy_diagonal,
    randomized_greedy_vector,
)
from minctrl.linalg import (
    EigenSystem,
    JordanSpec,
    controllability_matrix,
    covered_count,
    left_eigensystem,
    pbh_controllability_rank,
    pbh_support_test,
    rank_exact,
    rank_numeric,
)
from minctrl.matrices import (
    DenseMatrix,
    RationalMatrix,
    load_matrix,
    save_matrix,
)
from minctrl.oracles import (
    OracleResult,
    brute_force_hitting_set,
    brute_force_min_diagonal_support,
    brute_force_min_vector_support,
    controllability_rank,
    kalman_test,
)
from minctrl.reductions import (
    HittingSetInstance,
    ReductionOutput,
    SymmetricExtensionOutput,
    build_reduction,
    build_symmetric_extension,
    eigenvector_matrix,
    eigenvector_matrix_inverse,
    incidence_matrix,
    load_instance,
    orthogonal_extension,
)

__version__ = "0.1.0"
