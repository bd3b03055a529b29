"""Solver library for limited-memory influence diagrams.

Computes maximum-expected-utility strategies either exactly or with a
provable (1 + epsilon) approximation guarantee, by propagating sets of
potentials over a binary tree decomposition and pruning each message down
to a covering subset.
"""

from .model import (
    CHANCE,
    DECISION,
    VALUE,
    InfluenceDiagram,
    InstanceTooLargeError,
    Policy,
    Strategy,
    Variable,
    brute_force_meu,
    enumerate_pure_policies,
    expected_utility,
    pure_policy,
    pure_policy_count,
    validate_diagram,
)
from .potential import (
    CoveringStats,
    PotentialSet,
    combine_sets,
    covering,
    is_covering,
)
from .treedecomp import (
    TreeDecomposition,
    binarize,
    build_decomposition,
    default_root,
    ensure_value_leaves,
    root_and_order,
    validate_decomposition,
)
from .reduction import (
    ReductionResult,
    normalize_utilities,
    reduce_to_single_value,
    utility_bounds,
    verify_chain_identity,
)
from .solver import (
    NodeStats,
    SolveStats,
    SolverConfig,
    SolverResult,
    assign_factors,
    solve,
    solve_full,
)

__version__ = "0.1.0"

__all__ = [
    "CHANCE",
    "DECISION",
    "VALUE",
    "CoveringStats",
    "InfluenceDiagram",
    "InstanceTooLargeError",
    "NodeStats",
    "Policy",
    "PotentialSet",
    "ReductionResult",
    "SolveStats",
    "SolverConfig",
    "SolverResult",
    "Strategy",
    "TreeDecomposition",
    "Variable",
    "assign_factors",
    "binarize",
    "brute_force_meu",
    "build_decomposition",
    "combine_sets",
    "covering",
    "default_root",
    "ensure_value_leaves",
    "enumerate_pure_policies",
    "expected_utility",
    "is_covering",
    "normalize_utilities",
    "pure_policy",
    "pure_policy_count",
    "reduce_to_single_value",
    "root_and_order",
    "solve",
    "solve_full",
    "utility_bounds",
    "validate_decomposition",
    "validate_diagram",
    "verify_chain_identity",
]
