"""The benchmark still finds every function it wraps or calls.

``perfbench/tracer.py`` wraps public functions of the package by attribute
name, and ``perfbench/workloads.py`` calls the package's entry points. A
rename or a move would only show when ``perfbench/run.py`` runs; these
tests show it at once.
"""

import importlib.util
from pathlib import Path

import pytest

import diversitree
from diversitree import ExperimentSpec, SelectorConfig, dbin, random_binary_instance, run_phase_one

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("tracer")


def test_every_traced_attribute_resolves(tracer_module):
    replacements = tracer_module.targets(tracer_module.Tracer(), diversitree)
    assert replacements
    for owner, attr, wrapper in replacements:
        assert callable(getattr(owner, attr)), (owner, attr)
        assert callable(wrapper)


@pytest.mark.parametrize("cfg", [SelectorConfig(rule="dbfs-a", alpha=0.6),
                                 SelectorConfig(rule="bestfs")], ids=["dbfs-a", "bestfs"])
def test_a_traced_count_run_records_the_selector(tracer_module, cfg):
    # scored picks and bound order alike: one traced select per node processed
    tracer = tracer_module.Tracer()
    with tracer.tracing(diversitree):
        _, count = run_phase_one(random_binary_instance(0, 12, 4),
                                 ExperimentSpec(q=0.2, p1=8, p=4, selector=cfg))
    metrics = tracer_module.layer_metrics(tracer.stats, tracer.counters)
    assert metrics["engine.nodes"] == count.nodes_processed > 0
    assert metrics["selectors.select_calls"] == count.nodes_processed
    assert metrics["simplex.warm_calls"] > 0
    # the wrappers are gone again
    assert diversitree.selectors.Selector.select.__qualname__ == "Selector.select"


def test_the_workload_operations_run():
    workloads = _load("workloads")
    inst = random_binary_instance(0, 12, 4)
    spec = ExperimentSpec(q=0.2, p1=8, p=4)
    enum = workloads.run_op(workloads.Op("enumerate", "enumerate", inst, inst, spec))
    opt, count = enum.result
    assert opt.status == "optimal" and len(count.pool) >= 2
    assert enum.pool_dbin == dbin(count.pool.projections)
    diverse = workloads.run_op(workloads.Op("diverse", "diverse", inst, inst, spec))
    assert diverse.result.pool_size == len(count.pool)
    assert len(diverse.result.subset_indices) == 4
