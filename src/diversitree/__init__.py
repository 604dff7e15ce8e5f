"""Diverse near-optimal solution enumeration for mixed-integer programs.

The package couples a branch-and-count enumerator (subtrees whose leaves
are all feasible are counted wholesale) with node-selection rules that
trade the LP bound against solution diversity and tree depth, then picks
a maximum-diversity subset of the collected pool.
"""

from .diversity import dall, dbin, ham
from .engine import BranchAndCount, CountResult, EngineError, SolutionPool
from .generators import random_binary_instance, two_cluster_instance
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
    EQ,
    GE,
    INF,
    LE,
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
from .selectors import PRESETS, Rule, SelectorConfig, preset
from .subset import pair_sum, select_diverse_subset

__version__ = "0.1.0"

# The entry points of the CLI, perfbench, scripts/ and the README's library
# section, and the types they return or raise. Internals import from their
# modules.
__all__ = [
    "BranchAndCount",
    "CountResult",
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
    "MipInstance",
    "ModelError",
    "MpsParseError",
    "OptimumResult",
    "PRESETS",
    "Rule",
    "SelectorConfig",
    "SolutionPool",
    "VariableDef",
    "add_objective_cutoff",
    "binary_expand",
    "compare_selectors",
    "dall",
    "dbin",
    "discretize_continuous",
    "find_optimum",
    "grid_search",
    "ham",
    "pair_sum",
    "parse_mps",
    "preset",
    "random_binary_instance",
    "run_phase_one",
    "run_two_phase",
    "select_diverse_subset",
    "two_cluster_instance",
    "write_mps",
    "__version__",
]
