"""Diverse near-optimal solution enumeration for mixed-integer programs.

The package couples a branch-and-count enumerator (subtrees whose leaves
are all feasible are counted wholesale) with node-selection rules that
trade the LP bound against solution diversity and tree depth, then picks
a maximum-diversity subset of the collected pool.
"""

from .diversity import dall, dbin, ham, pairwise_ham, project_binary
from .engine import (
    BranchAndCount,
    CountResult,
    EngineError,
    SolutionPool,
    most_fractional,
)
from .generators import (
    brute_force_near_optimal,
    general_integer_instance,
    knapsack_instance,
    mixed_small_instance,
    random_binary_instance,
    two_cluster_instance,
)
from .harness import (
    DEFAULT_COMPARE_RULES,
    ExperimentResult,
    ExperimentSpec,
    HarnessError,
    OptimumResult,
    compare_selectors,
    find_optimum,
    grid_search,
    run_phase_one,
    run_two_phase,
)
from .model import (
    CUTOFF_ROW,
    EQ,
    GE,
    INF,
    LE,
    CutoffSpec,
    Expansion,
    IndexMap,
    LinearConstraint,
    MipInstance,
    ModelError,
    VariableDef,
    add_objective_cutoff,
    binary_expand,
    discretize_continuous,
)
from .mps import MpsParseError, parse_mps, write_mps
from .selectors import (
    PRESETS,
    Rule,
    Selector,
    SelectorConfig,
    preset,
    scaled_bound,
    scaled_depth,
)
from .simplex import BasisSnapshot, LpResult, LpStatus, SimplexSolver
from .subset import dbin_delta, pair_sum, select_diverse_subset

__version__ = "0.1.0"

__all__ = [
    "BasisSnapshot",
    "BranchAndCount",
    "CountResult",
    "CutoffSpec",
    "CUTOFF_ROW",
    "DEFAULT_COMPARE_RULES",
    "EngineError",
    "EQ",
    "ExperimentResult",
    "ExperimentSpec",
    "Expansion",
    "GE",
    "HarnessError",
    "INF",
    "IndexMap",
    "LE",
    "LinearConstraint",
    "LpResult",
    "LpStatus",
    "MipInstance",
    "ModelError",
    "MpsParseError",
    "OptimumResult",
    "PRESETS",
    "Rule",
    "Selector",
    "SelectorConfig",
    "SimplexSolver",
    "SolutionPool",
    "VariableDef",
    "add_objective_cutoff",
    "binary_expand",
    "brute_force_near_optimal",
    "compare_selectors",
    "dall",
    "dbin",
    "dbin_delta",
    "discretize_continuous",
    "find_optimum",
    "general_integer_instance",
    "grid_search",
    "ham",
    "knapsack_instance",
    "mixed_small_instance",
    "most_fractional",
    "pair_sum",
    "pairwise_ham",
    "parse_mps",
    "preset",
    "project_binary",
    "random_binary_instance",
    "run_phase_one",
    "run_two_phase",
    "scaled_bound",
    "scaled_depth",
    "select_diverse_subset",
    "two_cluster_instance",
    "write_mps",
    "__version__",
]
