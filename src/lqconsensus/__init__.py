"""Linear-quadratic cost of linear consensus on directed networks, with
effective-resistance upper and lower bounds and experiment drivers.

The package splits into: `stochastic_core` (validation, invariant measure,
time reversal, classification), `resistance` (conductances, Laplacians,
effective resistance, the Phi/Psi correspondences), `lqcost` (the exact dual
Stein solve, truncated series, Green matrix, noisy Monte Carlo), `bounds`
(the two bound theorems, the normal-matrix corollary, support oracles and the
resistance sandwich), `graph_gen` (Cayley tori, named example matrices, the
random-geometric pipeline), `pipeline` (the gated costs and bounds of one
matrix, and of a Cayley torus in closed form) and `experiments_cli`
(CSV/plot experiment drivers behind the `lqconsensus` command).
"""

from .bounds import (
    BoundsReport,
    FuzzSupport,
    SandwichMargins,
    corollary_normal_bounds,
    f_delta,
    hypothetical_lower_violation,
    normal_corollary,
    resistance_sandwich_check,
    resistance_theorem,
    reversiblization_conductance,
    reversiblization_support,
    theorem_resistance_bounds,
    theorem_topology_bounds,
    topology_theorem,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    Disconnected,
    InfeasibleDensity,
    InvalidGenerator,
    InvalidWeights,
    LqConsensusError,
    NegativeEntry,
    NotIrreducible,
    NotNormal,
    NotReversible,
    NotStochastic,
    NotSymmetric,
    OutOfRange,
    RejectionExhausted,
    SolveFailure,
    SteinDivergence,
    ZeroDiagonal,
)
from .graph_gen import (
    CayleyGenerator,
    GeometricInstance,
    GeometricParams,
    case1_range,
    cayley_case1,
    cayley_case1_generator,
    cayley_case2,
    cayley_case2_generator,
    cayley_matrix,
    circle_matrix,
    commuting_example,
    gamma_check,
    p_epsilon,
    rho_check,
    sample_geometric,
)
from .lqcost import (
    LqReport,
    green_matrix,
    lq_cost_exact,
    lq_cost_truncated,
    noisy_consensus_estimate,
    trace_pair,
)
from .pipeline import ResultRow, evaluate, torus_fields
from .resistance import (
    ConductanceMatrix,
    average_resistance,
    conductance_matrix,
    effective_resistance,
    laplacian,
    phi_map,
    psi_map,
    unit_conductance,
    weighted_average_resistance,
)
from .stochastic_core import (
    ConsensusMatrix,
    InvariantMeasure,
    MatrixClass,
    SupportGraphs,
    classify,
    load_matrix_csv,
    multiplicative_reversiblization,
    save_matrix_csv,
    validate_consensus,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "CayleyGenerator", "ConductanceMatrix", "ConfigError",
    "ConsensusMatrix", "DimensionMismatch", "Disconnected", "FuzzSupport",
    "GeometricInstance", "GeometricParams", "InfeasibleDensity",
    "InvalidGenerator", "InvalidWeights", "InvariantMeasure",
    "LqConsensusError", "LqReport", "MatrixClass", "NegativeEntry",
    "NotIrreducible", "NotNormal", "NotReversible", "NotStochastic",
    "NotSymmetric", "OutOfRange", "RejectionExhausted", "ResultRow",
    "SandwichMargins", "SolveFailure", "SteinDivergence", "SupportGraphs",
    "ZeroDiagonal", "average_resistance",
    "case1_range", "cayley_case1", "cayley_case1_generator", "cayley_case2",
    "cayley_case2_generator", "cayley_matrix", "circle_matrix",
    "classify", "commuting_example", "conductance_matrix",
    "corollary_normal_bounds", "effective_resistance", "evaluate", "f_delta",
    "gamma_check", "green_matrix", "hypothetical_lower_violation",
    "laplacian", "load_matrix_csv",
    "lq_cost_exact", "lq_cost_truncated", "multiplicative_reversiblization",
    "noisy_consensus_estimate", "normal_corollary", "p_epsilon", "phi_map",
    "psi_map", "resistance_sandwich_check", "resistance_theorem",
    "reversiblization_conductance", "reversiblization_support", "rho_check",
    "sample_geometric", "save_matrix_csv",
    "theorem_resistance_bounds", "theorem_topology_bounds",
    "topology_theorem", "torus_fields", "trace_pair", "unit_conductance",
    "validate_consensus", "weighted_average_resistance",
]
