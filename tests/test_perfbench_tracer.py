"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps public functions of the package by attribute
name. A rename or a move would only show when ``perfbench/run.py --trace 1``
runs; these tests show it at once.
"""

import importlib.util
from pathlib import Path

import pytest

import diversitree
from diversitree import ExperimentSpec, SelectorConfig, random_binary_instance, run_phase_one

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(tracer_module):
    replacements = tracer_module.targets(tracer_module.Tracer(), diversitree)
    assert replacements
    for owner, attr, wrapper in replacements:
        assert callable(getattr(owner, attr)), (owner, attr)
        assert callable(wrapper)


def test_a_traced_count_run_records_the_selector(tracer_module):
    tracer = tracer_module.Tracer()
    cfg = SelectorConfig(rule="dbfs-a", alpha=0.6)
    with tracer.tracing(diversitree):
        _, count = run_phase_one(random_binary_instance(0, 12, 4),
                                 ExperimentSpec(q=0.2, p1=8, p=4, selector=cfg))
    metrics = tracer_module.layer_metrics(tracer.stats, tracer.counters)
    assert metrics["engine.nodes"] == count.nodes_processed > 0
    assert metrics["selectors.select_calls"] > 0
    assert metrics["simplex.warm_calls"] > 0
    # the wrappers are gone again
    assert diversitree.selectors.Selector.select.__qualname__ == "Selector.select"
