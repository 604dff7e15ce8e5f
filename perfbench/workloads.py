"""Seeded inputs and the operations each workload runs.

Every instance is generated, written with ``write_mps`` and read back with
``parse_mps``; the program only ever sees the parsed copy. The seed
relabels the instances (a permutation of columns or rows) but leaves their
structure alone, so one pass costs about the same for every seed: a
column permutation of the random instances changes the search tree and,
with it, the cost of a pass by up to 40 %.
"""

from dataclasses import dataclass

import numpy as np

import diversitree as dt
from diversitree import (
    ExperimentSpec,
    LinearConstraint,
    MipInstance,
    SelectorConfig,
    VariableDef,
)

WORKLOADS = ("cluster-full", "rand-capped", "box-enumerate")

CLUSTER_N, CLUSTER_RADIUS = 14, 2
RAND_SEEDS = (0, 1, 2)  # generator seeds of the rand-capped instances
RAND_VARS, RAND_ROWS = 30, 12
BOX_BITS = 16
BOX_SHIFT = 320.0  # weight of the fixed shift column; z* = -BOX_SHIFT
BOX_CAP = 15  # the cutoff admits box points with at most this many ones
# About 1/20 of the untimed walk over the full box (about 2.4 s on a 2-core x86-64 guest).
BOX_TIME_LIMIT_S = 0.12


@dataclass
class Op:
    """One call into the library, as the matching CLI command makes it."""

    name: str
    command: str  # "diverse" (run_two_phase) or "enumerate" (run_phase_one)
    source: MipInstance  # as generated
    instance: MipInstance  # after the MPS round trip
    spec: ExperimentSpec
    time_limited: bool = False  # expected to stop early on its time limit


@dataclass
class Output:
    result: object  # ExperimentResult for diverse, (OptimumResult, CountResult) for enumerate
    pool_dbin: float = None  # enumerate only: DBin of the pool, as the CLI prints it


def run_op(op):
    """Run one operation through the package's public entry points."""
    if op.command == "diverse":
        return Output(dt.harness.run_two_phase(op.instance, op.spec))
    opt, count = dt.harness.run_phase_one(op.instance, op.spec)
    proj = count.pool.projection_matrix()
    pool_dbin = dt.diversity.dbin(proj) if len(count.pool) >= 2 else 0.0
    return Output((opt, count), pool_dbin)


def relabel(inst, rng, columns=None, rows=False):
    """Copy of ``inst`` with the listed columns permuted among themselves
    and, when ``rows`` is set, the constraints in permuted order."""
    d = inst.num_vars
    order = list(range(d))
    if columns:
        for pos, col in zip(columns, rng.permutation(columns)):
            order[pos] = int(col)
    new_index = {old: new for new, old in enumerate(order)}
    variables = [
        VariableDef(index=k, lower=inst.variables[old].lower, upper=inst.variables[old].upper,
                    is_integer=inst.variables[old].is_integer, name=inst.variables[old].name)
        for k, old in enumerate(order)
    ]
    row_order = rng.permutation(len(inst.constraints)) if rows else range(len(inst.constraints))
    constraints = [
        LinearConstraint(coeffs={new_index[j]: a for j, a in inst.constraints[r].coeffs.items()},
                         sense=inst.constraints[r].sense, rhs=inst.constraints[r].rhs,
                         name=inst.constraints[r].name)
        for r in row_order
    ]
    return MipInstance(name=inst.name, variables=variables, constraints=constraints,
                       objective={new_index[j]: c for j, c in inst.objective.items()},
                       objective_name=inst.objective_name,
                       objective_negated=inst.objective_negated)


def box_instance(name):
    """BOX_BITS free binaries plus a shift column fixed at 1, no rows."""
    variables = [VariableDef(index=i, lower=0.0, upper=1.0, is_integer=True, name=f"b{i}")
                 for i in range(BOX_BITS)]
    variables.append(VariableDef(index=BOX_BITS, lower=1.0, upper=1.0, is_integer=False,
                                 name="shift"))
    objective = {i: 1.0 for i in range(BOX_BITS)}
    objective[BOX_BITS] = -BOX_SHIFT
    return MipInstance(name=name, variables=variables, constraints=[], objective=objective)


def _round_trip(inst):
    return dt.mps.parse_mps(dt.mps.write_mps(inst))


def build_ops(workload, seed):
    """Generate the workload's instances from ``seed`` and round-trip them."""
    rng = np.random.default_rng(seed)
    ops = []

    def add(name, command, source, spec, time_limited=False):
        ops.append(Op(name, command, source, _round_trip(source), spec, time_limited))

    if workload == "cluster-full":
        # side and shift stay last so every seed gives the same search tree
        src = relabel(dt.two_cluster_instance(CLUSTER_N, CLUSTER_RADIUS), rng,
                      columns=list(range(CLUSTER_N)), rows=True)
        add("diverse", "diverse", src,
            ExperimentSpec(q=0.05, p1=None, p=10, selector=dt.preset("hhl"),
                           subset_method="greedy_swap"))
    elif workload == "rand-capped":
        cfg = SelectorConfig(rule="diversitree", alpha=0.94, beta=0.06, sol_cutoff=0.2)
        for k in RAND_SEEDS:
            src = relabel(dt.random_binary_instance(k, RAND_VARS, RAND_ROWS), rng, rows=True)
            add(f"diverse-rand{k}", "diverse", src,
                ExperimentSpec(q=0.1, p1=60, p=10, selector=cfg, subset_method="greedy_swap"))
    elif workload == "box-enumerate":
        src = relabel(box_instance("box"), rng, columns=list(range(BOX_BITS)))
        add("enumerate", "enumerate", src,
            ExperimentSpec(q=BOX_CAP / BOX_SHIFT, p1=None, p=1))
        # whole box under the cutoff: the root itself is unrestricted, so the
        # engine's main loop never sees the clock once the walk starts
        add("enumerate-time-limit", "enumerate", box_instance("box_full"),
            ExperimentSpec(q=BOX_BITS / BOX_SHIFT, p1=None, p=1,
                           time_limit=BOX_TIME_LIMIT_S),
            time_limited=True)
        add("diverse-capped", "diverse", src,
            ExperimentSpec(q=BOX_CAP / BOX_SHIFT, p1=24, p=4, subset_method="greedy_swap"))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops


def op_failed(op, out):
    """A time-limited operation must stop early and say so."""
    if not op.time_limited:
        return False
    _, count = out.result
    return not (count.truncated and not count.exhausted)
