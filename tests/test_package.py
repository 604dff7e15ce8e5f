"""The package root: ``__all__`` is the documented API, and every name resolves.
The LP solver's public methods are pinned too."""

import inspect
import re
from pathlib import Path

import diversitree
from diversitree.simplex import SimplexSolver

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTED = [
    "BranchAndCount", "CountResult", "DEFAULT_COMPARE_RULES", "EQ", "EngineError",
    "Expansion", "ExperimentResult", "ExperimentSpec", "GE", "HarnessError", "INF",
    "IndexMap", "LE", "LinearConstraint", "MipInstance", "ModelError", "MpsParseError",
    "OptimumResult", "PRESETS", "Rule", "SelectorConfig", "SolutionPool", "VariableDef",
    "__version__", "add_objective_cutoff", "binary_expand", "compare_selectors", "dall",
    "dbin", "discretize_continuous", "find_optimum", "grid_search", "ham", "pair_sum",
    "parse_mps", "preset", "random_binary_instance", "run_phase_one", "run_two_phase",
    "select_diverse_subset", "two_cluster_instance", "write_mps",
]


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from diversitree import *", namespace)  # raises on a stale name
    assert sorted(set(diversitree.__all__) - set(namespace)) == []
    assert len(set(diversitree.__all__)) == len(diversitree.__all__)


def test_all_is_the_exported_api():
    assert sorted(diversitree.__all__) == EXPORTED


def test_the_solvers_public_methods_are_child_resolve_and_solve():
    """Cold and warm solves, and one child step that keeps, refutes or
    warm-solves: a second way to make a child's LP would show up here."""
    public = [name for name, _ in inspect.getmembers(SimplexSolver, inspect.isfunction)
              if not name.startswith("_")]
    assert public == ["child", "resolve", "solve"]


def test_the_readme_library_section_names_the_exported_api():
    text = README.read_text()
    section = text[text.index("## Library use"):text.index("## Instances")]
    exported = section[section.index("The package root exports"):section.index("Internals import")]
    assert sorted(set(re.findall(r"`(\w+)`", exported))) == EXPORTED
