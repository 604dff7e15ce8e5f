"""Branch-and-count engine: completeness, classification, walk, pool, limits, determinism."""

import contextlib
import gc
import hashlib
import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_golden as golden
from conftest import (
    big_m_mips,
    enum_mixed_projections,
    enum_pure_integer,
    oracle_row_holds,
    oracle_is_unrestricted,
    oracle_least,
    oracle_materialize,
    oracle_refutes,
    oracle_row_holds_over,
    oracle_wrong_sign,
    scipy_milp,
    small_mips,
)
from diversitree import (
    EQ,
    GE,
    INF,
    LE,
    BranchAndCount,
    EngineError,
    LinearConstraint,
    MipInstance,
    Rule,
    SelectorConfig,
    VariableDef,
    add_objective_cutoff,
    find_optimum,
    run_phase_one,
)
from diversitree.engine import most_fractional
from diversitree.generators import (
    brute_force_near_optimal,
    general_integer_instance,
    knapsack_instance,
    mixed_small_instance,
    random_binary_instance,
    two_cluster_instance,
)
from diversitree import engine, simplex
from diversitree.engine import Node, SolutionPool
from diversitree.model import FEAS_TOL, INFINITE_BOUND, INT_TOL
from diversitree.selectors import Selector
from diversitree.simplex import BasisSnapshot, LpResult, LpStatus, SimplexSolver, _NoProgress


def binary_inst(n, rows, objective, name="t"):
    return MipInstance(
        name=name,
        variables=[VariableDef(j, 0.0, 1.0, True, f"x{j}") for j in range(n)],
        constraints=[LinearConstraint(c, s, b, f"r{k}") for k, (c, s, b) in enumerate(rows)],
        objective=objective,
    )


def optimal_lp(bound):
    return LpResult(LpStatus.OPTIMAL, objective=bound)


def root_node(bc):
    """The root box of ``bc`` as a node, its LP cold-solved whatever the status."""
    return Node(id=0, parent_id=None, depth=0, box=bc.root_box.copy(),
                lp=bc.solver.solve(bc.root_lo, bc.root_hi))


def pool_tuples(result):
    return {tuple(int(v) for v in row) for row in result.pool.projection_matrix()}


@st.composite
def mips_and_boxes(draw):
    """A ``small_mips`` instance and a box over its columns with integer
    bounds in [-3, 3], each side infinite one time in five."""
    inst = draw(small_mips())
    lo, hi = [], []
    for _ in range(inst.num_vars):
        a = draw(st.integers(-3, 3))
        b = draw(st.integers(a, 3))
        lo.append(-INF if draw(st.integers(0, 4)) == 0 else float(a))
        hi.append(INF if draw(st.integers(0, 4)) == 0 else float(b))
    return inst, np.array(lo), np.array(hi)


def cut_at_optimum(instance, q):
    """``instance`` with its objective cutoff at fraction ``q`` of the optimum."""
    opt = BranchAndCount(instance).optimize()
    assert opt.status == "optimal"
    return add_objective_cutoff(instance, opt.objective, q)


def run_cut(instance, q, oracle_z, **kw):
    cut = add_objective_cutoff(instance, oracle_z, q)
    return BranchAndCount(cut, **kw.pop("bc_kwargs", {})).run(**kw)


class TestCompleteness:
    @pytest.mark.parametrize("q", [0.0, 0.01, 0.05])
    def test_matches_brute_force_on_random_binaries(self, small_instances, q):
        for inst in small_instances[:6]:
            z, admitted = enum_pure_integer(inst, q)
            res = run_cut(inst, q, z)
            assert res.exhausted and not res.truncated
            assert res.stalled_dropped == 0
            assert pool_tuples(res) == admitted, inst.name

    def test_pool_entries_respect_cutoff_and_integrality(self, small_instances):
        inst = small_instances[0]
        z, _ = enum_pure_integer(inst, 0.05)
        cut = add_objective_cutoff(inst, z, 0.05)
        res = BranchAndCount(cut).run()
        limit = z + 0.05 * abs(z)
        for x, obj in zip(res.pool.solutions, res.pool.objectives):
            assert obj <= limit + 1e-6
            assert obj == pytest.approx(inst.objective_value(x))
            for j in inst.integer_index:
                assert abs(x[j] - round(x[j])) < 1e-6

    def test_general_integer_partition_completeness(self):
        # binary dedup keys would collapse (u, v) siblings, so disable it
        inst = general_integer_instance()
        z, admitted = enum_pure_integer(inst, 0.25)
        cut = add_objective_cutoff(inst, z, 0.25)
        res = BranchAndCount(cut, dedup=False).run()
        got = {tuple(int(round(v)) for v in x) for x in res.pool.solutions}
        assert res.exhausted
        assert got == admitted
        assert len(got) > 1

    def test_mixed_instance_matches_scipy_projections(self):
        inst = mixed_small_instance()
        z, admitted = enum_mixed_projections(inst, 0.05)
        res = run_cut(inst, 0.05, z)
        got = {
            tuple(int(round(x[j])) for j in inst.integer_index)
            for x in res.pool.solutions
        }
        assert res.exhausted
        assert got == admitted

    @pytest.mark.parametrize("rule", list(Rule))
    @settings(max_examples=40)
    @given(inst=small_mips(kinds=("binary", "general")), q=st.sampled_from([0.0, 0.5, 2.0]))
    def test_every_rule_pools_the_brute_force_set(self, rule, inst, q):
        # without dedup a general integer solution is not collapsed onto its
        # binary columns, so each solution must be pooled exactly once
        z, members = brute_force_near_optimal(inst, q)
        cfg = SelectorConfig(rule=rule, alpha=0.5, beta=0.3, sol_cutoff=0.5, depth_cutoff=3)
        res = BranchAndCount(add_objective_cutoff(inst, z, q), selector=cfg, dedup=False).run()
        assert res.exhausted
        assert sorted(tuple(int(v) for v in x) for x in res.pool.solutions) == members

    @pytest.mark.parametrize("rule", list(Rule))
    @pytest.mark.parametrize("p1", [1, 3, 7])
    @settings(max_examples=25)
    @given(inst=small_mips(kinds=("binary", "general")), q=st.sampled_from([0.0, 0.5, 2.0]))
    def test_every_rule_caps_its_pool_inside_the_brute_force_set(self, rule, p1, inst, q):
        z, members = brute_force_near_optimal(inst, q)
        cfg = SelectorConfig(rule=rule, alpha=0.5, beta=0.3, sol_cutoff=0.5, depth_cutoff=3)
        res = BranchAndCount(add_objective_cutoff(inst, z, q), selector=cfg,
                             dedup=False).run(p1=p1)
        got = [tuple(int(v) for v in x) for x in res.pool.solutions]
        assert len(got) == len(set(got)) == min(p1, len(members))
        assert set(got) <= set(members)

    @settings(max_examples=100)
    @given(small_mips(), st.sampled_from([0.0, 0.5, 2.0]))
    # a leaf whose LP point has x0 = 4.4e-16 over its bound 0 and x2 one ulp
    # below -1: the leaf's point is clipped into its box
    @example(MipInstance(
        name="leaf", variables=[VariableDef(0, -1.0, 0.0, True, "x0"),
                                VariableDef(1, 0.0, 1.0, True, "x1"),
                                VariableDef(2, -1.0, 0.0, True, "x2"),
                                VariableDef(3, 0.0, INF, False, "y")],
        constraints=[LinearConstraint({1: -4.0, 2: -2.0}, GE, 2.0, "r0"),
                     LinearConstraint({3: -4.0}, GE, 0.0, "r1"),
                     LinearConstraint({0: -2.0, 1: -4.0, 2: -4.0}, LE, 4.0, "r2")],
        objective={0: 2.0, 2: 1.0}), 2.0)
    def test_every_pooled_point_lies_in_the_box_and_holds_every_row(self, inst, q):
        cut = cut_at_optimum(inst, q)
        bc = BranchAndCount(cut)
        res = bc.run()
        assert res.exhausted and len(res.pool)
        for x in res.pool.solutions:
            assert np.all(bc.root_lo <= x) and np.all(x <= bc.root_hi)
            assert all(con.satisfied(x) for con in cut.constraints)

    @settings(max_examples=150)
    @given(big_m_mips(), st.sampled_from([0.0, 0.5, 2.0]))
    def test_every_point_the_engine_returns_holds_its_big_m_rows(self, inst, q):
        # the cold solve at a completed leaf calls a box feasible relative to
        # the largest rhs, so its point may miss a row by far more than
        # FEAS_TOL. A relaxation that stalls raises, and so returns no point
        z, _ = brute_force_near_optimal(inst, q)
        cut = add_objective_cutoff(inst, z, q)
        points = []
        with contextlib.suppress(EngineError):
            x = find_optimum(inst).x
            points += [] if x is None else [(inst, x.tolist())]
        with contextlib.suppress(EngineError):
            points += [(cut, x) for x in BranchAndCount(cut).run().pool.solutions.tolist()]
        for model, x in points:
            assert all(oracle_row_holds(con, x, FEAS_TOL) for con in model.constraints)

    def test_a_completed_leaf_pools_no_point_that_misses_a_row(self):
        # the 1e6 row holds everywhere but sets the cold solve's phase-1
        # scale to 1e6, so at the leaves with x0 = 1 that solve calls the
        # box feasible although the cutoff row x0 <= 0 misses by 1
        inst = binary_inst(4, [({1: -1000.0}, EQ, -1000.0), ({1: -1e6}, GE, -1e6),
                               ({1: -1000.0}, EQ, -1000.0)], {0: 1.0})
        z, members = brute_force_near_optimal(inst, 0.0)
        res = BranchAndCount(add_objective_cutoff(inst, z, 0.0)).run()
        assert res.exhausted
        assert sorted(tuple(int(v) for v in x) for x in res.pool.solutions) == members


class TestOptimize:
    @settings(max_examples=60)
    @given(small_mips())
    def test_optimum_matches_scipy_milp(self, inst):
        opt = BranchAndCount(inst).optimize()
        status, z = scipy_milp(inst)
        assert opt.status == status == "optimal"
        assert opt.objective == pytest.approx(z, rel=1e-9, abs=1e-6)

    @settings(max_examples=60)
    @given(small_mips())
    def test_optimum_is_the_least_objective_of_the_cutoff_pool(self, inst):
        """Best-first branch and bound and a count run under the cutoff at
        z* itself agree, with or without dedup: the pool holds the optimal
        points, whose least objective is z*."""
        opt = BranchAndCount(inst).optimize()
        assert opt.status == "optimal"
        cut = add_objective_cutoff(inst, opt.objective, 0.0)
        for dedup in (True, False):
            res = BranchAndCount(cut, dedup=dedup).run()
            assert not res.truncated and len(res.pool) > 0
            least = min(res.pool.objectives)
            assert abs(least - opt.objective) <= FEAS_TOL * max(1.0, abs(opt.objective))

    @settings(max_examples=300)
    @given(mips_and_boxes())
    def test_the_refuter_is_the_plain_loop_verdict(self, case):
        # integer data: every activity is exact, and no margin edge is hit.
        # The box is its own root; an integer column with an infinite bound
        # drops every side that reads it, which only the oracle then tests
        inst, lo, hi = case
        test = SimplexSolver(inst)._refuter(lo, hi)
        got = test is not None and test(np.concatenate((lo, hi)))
        want = oracle_refutes(inst, lo, hi, FEAS_TOL)
        ints = inst.integer_index
        assert want or not got
        if np.isfinite(lo[ints]).all() and np.isfinite(hi[ints]).all():
            assert got == want
        if got:
            assert SimplexSolver(inst).solve(lo, hi).status == LpStatus.INFEASIBLE


class TestNoIntegerColumn:
    """An instance with only continuous columns: every node with an open row
    is integer feasible, and its step completes the LP point."""

    def instance(self):
        return MipInstance(
            name="c",
            variables=[VariableDef(0, 0.0, 4.0, False, "x"), VariableDef(1, 0.0, 4.0, False, "y")],
            constraints=[LinearConstraint({0: 1.0, 1: 1.0}, ">=", 1.0, "r")],
            objective={0: 1.0, 1: 2.0},
        )

    def test_the_step_completes_the_lp_point(self):
        bc = BranchAndCount(self.instance())
        node = root_node(bc)
        assert bc.classify(node) == engine.INTEGER_FEASIBLE
        assert bc._integral_step(node) == ([], [1.0, 0.0])

    def test_run_and_optimize(self):
        bc = BranchAndCount(self.instance())
        res = bc.run()
        assert res.exhausted and res.nodes_processed == 1
        assert res.pool.solutions.tolist() == [[1.0, 0.0]]
        opt = bc.optimize()
        assert (opt.status, opt.objective, opt.x.tolist()) == ("optimal", 1.0, [1.0, 0.0])


class TestClassification:
    def cut_free_box(self):
        """Both rows hold at their worst corner once the cutoff is loose."""
        inst = binary_inst(
            2,
            [({0: 1.0, 1: 1.0}, LE, 2.0)],
            {0: -1.0, 1: -1.0},
        )
        return add_objective_cutoff(inst, -2.0, 1.0)  # -x0 - x1 <= 0

    def test_unrestricted_root_enumerates_wholesale(self):
        res = BranchAndCount(self.cut_free_box()).run()
        assert res.unrestricted_subtrees == 1
        assert res.nodes_processed == 1
        assert res.exhausted
        got = [tuple(int(v) for v in row) for row in res.pool.projection_matrix()]
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]  # lexicographic walk

    def test_covering_row_blocks_unrestricted(self):
        inst = binary_inst(
            3,
            [({0: 1.0, 1: 1.0, 2: 1.0}, GE, 1.0)],
            {0: 1.0, 1: 1.0, 2: 1.0},
        )
        bc = BranchAndCount(inst)
        assert bc.open_rows(bc.root_lo, bc.root_hi)
        # forcing every variable on satisfies the row at the worst corner
        assert not bc.open_rows(np.ones(3), bc.root_hi)

    def test_unrestricted_agrees_with_box_brute_force(self, small_instances):
        rng = np.random.default_rng(7)
        for inst in small_instances[:4]:
            bc = BranchAndCount(inst)
            n = len(inst.variables)
            for _ in range(10):
                lo, hi = bc.root_lo.copy(), bc.root_hi.copy()
                for j in rng.choice(n, size=rng.integers(0, n + 1), replace=False):
                    lo[j] = hi[j] = float(rng.integers(0, 2))
                free = [j for j in range(n) if hi[j] > lo[j]]
                all_ok = True
                for combo in itertools.product((0.0, 1.0), repeat=len(free)):
                    x = lo.copy()
                    x[free] = combo
                    if not all(c.satisfied(x) for c in inst.constraints):
                        all_ok = False
                        break
                assert (not bc.open_rows(lo, hi)) == all_ok

    def test_box_test_equals_the_ge_form_oracle(self):
        """Random float rows and boxes, some bounds infinite and many rhs on
        the tolerance edge: the per-sense test classifies every box as the
        >= form does."""
        rng = np.random.default_rng(19)
        outcomes = []
        for _ in range(3000):
            d = int(rng.integers(1, 7))
            lo = rng.uniform(-3, 3, d)
            hi = lo + rng.uniform(0, 3, d) * (rng.random(d) < 0.8)  # some columns fixed
            lo[rng.random(d) < 0.08] = -math.inf
            hi[rng.random(d) < 0.08] = math.inf
            rows = []
            for k in range(int(rng.integers(1, 4))):
                cols = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist()
                coeffs = {j: float(rng.choice([-1, 1]) * rng.uniform(0.1, 5)) for j in cols}
                sense = [GE, LE, EQ][int(rng.integers(0, 3))]
                least = oracle_least(coeffs, lo, hi)
                most = -oracle_least({j: -a for j, a in coeffs.items()}, lo, hi)
                edge = {GE: least + FEAS_TOL, LE: most - FEAS_TOL,
                        EQ: [least + FEAS_TOL, most - FEAS_TOL][int(rng.integers(0, 2))]}[sense]
                rhs = [edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf),
                       rng.uniform(-10, 10)][int(rng.integers(0, 4))]
                if not abs(rhs) < INFINITE_BOUND:  # the model refuses such an rhs
                    rhs = rng.uniform(-10, 10)
                rows.append(LinearConstraint(coeffs, sense, float(rhs), f"r{k}"))
            inst = MipInstance(
                name="box",
                variables=[VariableDef(j, -math.inf, math.inf) for j in range(d)],
                constraints=rows,
                objective={0: 1.0},
            )
            got = not BranchAndCount(inst).open_rows(lo, hi)
            assert got == oracle_is_unrestricted(inst, lo, hi, FEAS_TOL)
            outcomes.append(got)
        assert 300 < sum(outcomes) < 2700  # both verdicts are exercised

    @pytest.mark.parametrize("sense", [GE, LE, EQ])
    def test_point_checks_agree_at_the_tolerance_edge(self, sense):
        """A row holds at exactly FEAS_TOL past its rhs and fails one ulp beyond,
        in ``LinearConstraint.satisfied``, its box test over the point and the
        engine's open rows alike."""
        con = LinearConstraint({0: 1.0, 1: 2.0}, sense, 0.0, "r")
        inst = MipInstance(name="edge", variables=[VariableDef(0, -1.0, 1.0),
                                                   VariableDef(1, -1.0, 1.0)],
                           constraints=[con], objective={0: 1.0})
        bc = BranchAndCount(inst)
        for side in {GE: [-1.0], LE: [1.0], EQ: [-1.0, 1.0]}[sense]:
            edge = side * FEAS_TOL
            beyond = float(np.nextafter(edge, side * math.inf))
            for x0, holds in ((edge, True), (beyond, False)):
                x = [x0, 0.0]
                assert con.satisfied(x) == holds
                assert con.satisfied(np.array(x)) == holds
                assert con.holds_over(x, x) == holds
                assert (not bc.open_rows(np.array(x), np.array(x))) == holds

    def test_an_equality_on_the_tolerance_edge_is_one_verdict(self):
        # |x0 - rhs| rounds to just above FEAS_TOL, while x0 >= rhs - FEAS_TOL
        # holds: the box test and the point test must give the same answer
        x0, rhs = 4.061416436699955, 4.061417436699955
        con = LinearConstraint({0: 1.0}, EQ, rhs, "r")
        inst = MipInstance(name="edge", variables=[VariableDef(0, 0.0, 5.0)],
                           constraints=[con], objective={0: 1.0})
        x = np.array([x0])
        assert (not BranchAndCount(inst).open_rows(x, x)) == con.satisfied(x)
        assert con.satisfied(x)

    def test_partition_branch_splits_integral_lp(self):
        # LP parks u at an integral value while its box still has slack
        inst = MipInstance(
            name="park",
            variables=[VariableDef(0, 0.0, 2.0, True, "u"), VariableDef(1, 0.0, 5.0, False, "y")],
            constraints=[LinearConstraint({1: 1.0}, GE, 1.0, "floor")],
            objective={1: 1.0},
        )
        cut = add_objective_cutoff(inst, 1.0, 0.0)
        res = BranchAndCount(cut).run()
        assert res.exhausted
        assert res.unrestricted_subtrees == 0
        assert sorted(int(round(x[0])) for x in res.pool.solutions) == [0, 1, 2]
        assert all(x[1] == pytest.approx(1.0) for x in res.pool.solutions)


class TestEnumerateUnrestricted:
    def make_engine(self, variables, rows, objective):
        inst = MipInstance(name="enum", variables=variables, constraints=rows,
                           objective=objective)
        bc = BranchAndCount(inst)
        root = root_node(bc)
        assert root.lp.is_optimal
        return bc, root

    def test_lexicographic_order_and_budget(self):
        bc, root = self.make_engine(
            [VariableDef(j, 0.0, 1.0, True, f"x{j}") for j in range(3)],
            [LinearConstraint({0: 1.0}, LE, 10.0, "r0")],
            {0: 1.0, 1: 1.0, 2: 1.0},
        )
        pool = SolutionPool(bc.instance)
        assert bc.enumerate_unrestricted(root, pool) == (8, True)
        got = [tuple(int(v) for v in row) for row in pool.projection_matrix()]
        assert got == sorted(itertools.product((0, 1), repeat=3))

        capped = SolutionPool(bc.instance, capacity=3)
        assert bc.enumerate_unrestricted(root, capped) == (3, False)
        got = [tuple(int(v) for v in row) for row in capped.projection_matrix()]
        assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]

    def test_general_integer_range_walk(self):
        bc, root = self.make_engine(
            [VariableDef(0, 2.0, 4.0, True, "u")],
            [LinearConstraint({0: 1.0}, LE, 10.0, "r0")],
            {0: 1.0},
        )
        pool = SolutionPool(bc.instance)
        assert bc.enumerate_unrestricted(root, pool) == (3, True)
        assert sorted(int(round(x[0])) for x in pool.solutions) == [2, 3, 4]

    @staticmethod
    def reference_walk(bc, node, capacity=None):
        """Per-point walk over numpy points with ``objective_value``, stopping
        before a point once ``capacity`` points are pooled: (pool as (x,
        objective) pairs, completed). Every point must satisfy every row."""
        inst = bc.instance
        lo, hi = node.lo, node.hi
        free = [j for j in bc.integer_index if hi[j] - lo[j] > 0.5]
        base = np.clip(node.lp.x, lo, hi)
        for j in bc.integer_index:
            if j not in free:
                base[j] = round(lo[j])
        pool = []
        for combo in itertools.product(*(range(int(lo[j]), int(hi[j]) + 1) for j in free)):
            if capacity is not None and len(pool) >= capacity:
                return pool, False
            x = base.copy()
            for j, v in zip(free, combo):
                x[j] = float(v)
            assert all(con.satisfied(x) for con in inst.constraints)
            pool.append((x, inst.objective_value(x)))
        return pool, True

    def random_box(self, rng):
        """Binaries, a general integer and a continuous column under random
        >=, <= and = rows with unrounded coefficients."""
        nb = int(rng.integers(1, 5))
        d = nb + 2
        variables = [VariableDef(j, 0.0, 1.0, True, f"b{j}") for j in range(nb)]
        variables.append(VariableDef(nb, float(rng.integers(-2, 1)), float(rng.integers(1, 3)),
                                     True, "u"))
        variables.append(VariableDef(nb + 1, 0.0, 3.0, False, "y"))
        rows = []
        for k, sense in enumerate(rng.permutation([GE, LE, EQ])[:int(rng.integers(1, 4))]):
            cols = rng.permutation(d)[:int(rng.integers(1, d + 1))]
            coeffs = {int(j): float(rng.uniform(0.1, 2.0) * rng.choice([-1, 1])) for j in cols}
            if sense == EQ:
                coeffs[nb + 1] = float(rng.uniform(0.5, 2.0))  # y completes the row
            rows.append(LinearConstraint(coeffs, sense, float(rng.uniform(-0.5, 2.5)), f"r{k}"))
        objective = {int(j): float(rng.normal()) for j in rng.permutation(d)}
        inst = MipInstance(name="box", variables=variables, constraints=rows, objective=objective)
        return BranchAndCount(inst)

    @staticmethod
    def walked_nodes(bc):
        """The nodes a whole run of ``bc`` classifies unrestricted, in order."""
        nodes = []
        classify = bc.classify

        def recorded(node):
            cls = classify(node)
            if cls == engine.UNRESTRICTED:
                nodes.append(node)
            return cls

        bc.classify = recorded
        bc.run()
        del bc.classify
        return nodes

    def test_walk_matches_the_per_point_reference_bit_for_bit(self):
        rng = np.random.default_rng(31)
        walked = wide = 0
        for _ in range(60):
            bc = self.random_box(rng)
            for node in self.walked_nodes(bc):
                want, _ = self.reference_walk(bc, node)
                pool = SolutionPool(bc.instance, dedup=False)
                assert bc.enumerate_unrestricted(node, pool) == (len(want), True)
                assert pool.solutions.tobytes() == b"".join(x.tobytes() for x, _ in want)
                got = pool.objectives.tolist()
                assert [repr(v) for v in got] == [repr(float(v)) for _, v in want]
                walked += 1
                wide += len(want) > 1
        assert walked >= 30 and wide >= 10

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunk_boundaries_move_nothing(self, chunk, monkeypatch):
        # capacities just below, at and just above a chunk, and one inside
        # the box, so that the pool fills at every position of a chunk
        monkeypatch.setattr(engine, "WALK_CHUNK", chunk)
        rng = np.random.default_rng(47)
        walked = capped = 0
        for _ in range(40):
            bc = self.random_box(rng)
            # the run's walks, and the whole box without its rows
            box = BranchAndCount(replace(bc.instance, constraints=[]))
            for walker, node in [(bc, node) for node in self.walked_nodes(bc)] + [(box, root_node(box))]:
                points = len(self.reference_walk(walker, node)[0])
                for capacity in (None, chunk - 1, chunk, chunk + 1,
                                 int(rng.integers(1, points + 2))):
                    want, want_done = self.reference_walk(walker, node, capacity)
                    pool = SolutionPool(walker.instance, capacity=capacity, dedup=False)
                    assert walker.enumerate_unrestricted(node, pool) == (len(want), want_done)
                    assert pool.solutions.tobytes() == b"".join(x.tobytes() for x, _ in want)
                    got = pool.objectives.tolist()
                    assert [repr(v) for v in got] == [repr(float(v)) for _, v in want]
                    capped += not want_done
                walked += 1
        assert walked >= 20 and capped > walked

    def test_the_walk_tests_no_row_and_solves_no_lp(self, monkeypatch):
        # the point (x0, b1, b2) fails the equality by |x0 - rhs| > FEAS_TOL,
        # but holds by x0 >= rhs - FEAS_TOL: the box test's verdict stands
        x0, rhs = 4.061416436699955, 4.061417436699955
        bc, root = self.make_engine(
            [VariableDef(0, x0, x0), VariableDef(1, 0.0, 1.0, True, "b1"),
             VariableDef(2, 0.0, 1.0, True, "b2")],
            [LinearConstraint({0: 1.0}, EQ, rhs, "r0")],
            {1: 1.0, 2: 1.0},
        )
        assert bc.classify(root) == engine.UNRESTRICTED

        def refuse(*args, **kwargs):
            raise AssertionError("the walk checked a point")

        monkeypatch.setattr(LinearConstraint, "holds_over", refuse)
        monkeypatch.setattr(SimplexSolver, "solve", refuse)
        pool = SolutionPool(bc.instance)
        assert bc.enumerate_unrestricted(root, pool) == (4, True)
        assert pool.solutions.tolist() == [[x0, b1, b2] for b1 in (0.0, 1.0) for b2 in (0.0, 1.0)]

    def test_sums_run_left_to_right(self):
        # left to right, 1e14 + 0.005 rounds back to 1e14 (0.005 is under half
        # an ulp of 1e14, 1/128) and the sum is 0.0; a compensated sum (builtin
        # sum over floats, Python >= 3.12) gives 0.005
        terms = {0: 1e14, 1: 0.005, 2: -1e14}
        bc = BranchAndCount(binary_inst(3, [(terms, LE, 0.0025)], terms))
        con = bc.instance.constraints[0]
        assert not con.satisfied([0.0, 1.0, 0.0])
        assert con.satisfied([1.0, 1.0, 1.0])  # a compensated sum would reject it
        # with x0 = x2 = 1 the row holds over the box, so x1 is walked free
        lo, hi = np.array([1.0, 0.0, 1.0]), np.ones(3)
        assert con.holds_over(lo.tolist(), hi.tolist()) and not bc.open_rows(lo, hi)
        node = Node(id=0, parent_id=None, depth=0, box=np.concatenate((lo, hi)),
                    lp=SimpleNamespace(x=np.ones(3), objective=None))
        pool = SolutionPool(bc.instance)
        assert bc.enumerate_unrestricted(node, pool) == (2, True)
        assert pool.solutions.tolist() == [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
        assert [repr(v) for v in pool.objectives.tolist()] == ["0.0", "0.0"]

    def test_box_points_match_the_product_order(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            d = int(rng.integers(0, 5))
            first = [int(v) for v in rng.integers(-3, 2, size=d)]
            last = [f + int(w) for f, w in zip(first, rng.integers(0, 3, size=d))]
            cols = sorted(int(j) for j in rng.permutation(d + 2)[:d])
            base = [0.5] * (d + 2)
            want = []
            for combo in itertools.product(*(range(f, t + 1) for f, t in zip(first, last))):
                x = list(base)
                for j, v in zip(cols, combo):
                    x[j] = float(v)
                want.append(x)
            got = list(engine._box_points(base, cols, first, last))
            assert got == want
            assert all(type(v) is float for x in got for v in x)
            assert len({id(x) for x in got}) == len(got)  # a fresh list per point
            assert base == [0.5] * (d + 2)

    def wide_box(self, width):
        """Two general integers in [0, width] and no rows: the root is unrestricted."""
        variables = [VariableDef(j, 0.0, float(width), True, f"u{j}") for j in range(2)]
        return MipInstance(name="wide", variables=variables, constraints=[],
                           objective={0: 1.0, 1: 1.0})

    @pytest.mark.parametrize("p1, time_limit", [(10, 0.01), (None, 0.05)])
    def test_a_wide_box_walks_in_little_memory(self, p1, time_limit):
        # 10^12 points: the walk must stop on the pool's room or the clock
        # long before it could list the values of one column
        bc = BranchAndCount(self.wide_box(10 ** 6))
        tracemalloc.start()
        try:
            res = bc.run(p1=p1, time_limit=time_limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.unrestricted_subtrees == 1 and not res.exhausted
        assert peak < 4 * 2 ** 20
        assert res.wall_time_s < time_limit + 0.5
        if p1 is None:
            assert res.truncated and len(res.pool) > 0
        assert res.pool.solutions[:3].tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]


class ListPool:
    """The pool as plain lists, one array per solution: the columnar pool's oracle."""

    def __init__(self, instance, capacity=None, dedup=True):
        self.capacity, self.dedup = capacity, dedup
        self.binary_index = instance.binary_index
        self.integer_index = instance.integer_index
        self.solutions, self.objectives, self.projections = [], [], []
        self.ones = np.zeros(len(self.binary_index))
        self.keys = set()

    def bits(self, x):
        """Each binary rounded to the nearer of 0 and 1."""
        return [1 if float(x[j]) > 0.5 else 0 for j in self.binary_index]

    def key(self, x):
        if self.binary_index:
            return tuple(self.bits(x))
        return tuple(round(float(x[j])) for j in self.integer_index)

    def int_key(self, key):
        """The pool's int form of a key: binaries packed eight to a byte,
        first bit most significant, the last byte padded with zero bits;
        else each integer as a 64-bit two's complement word, first word
        most significant."""
        if self.binary_index:
            text = "".join(map(str, key))
            return int(text + "0" * (-len(text) % 8), 2)
        return sum(v % 2 ** 64 << 64 * k for k, v in enumerate(reversed(key)))

    def add(self, x, objective):
        if self.capacity is not None and len(self.solutions) >= self.capacity:
            return False
        x = np.array(x, dtype=float)
        key = self.key(x)
        if self.dedup and key in self.keys:
            return False
        bits = self.bits(x)
        gaps = [abs(x[j] - b) for j, b in zip(self.binary_index, bits)]
        if gaps and max(gaps) > INT_TOL:
            j = self.binary_index[gaps.index(max(gaps))]
            raise ValueError(f"binary column {j} has non-binary value {x[j]!r}")
        self.keys.add(key)
        self.solutions.append(x)
        self.objectives.append(float(objective))
        self.projections.append(bits)
        self.ones += bits
        return True


class TestSolutionPool:
    @staticmethod
    def instance(nb, ni, nc):
        variables = [VariableDef(j, 0.0, 1.0, True, f"b{j}") for j in range(nb)]
        variables += [VariableDef(nb + j, -1.0, 2.0, True, f"u{j}") for j in range(ni)]
        variables += [VariableDef(nb + ni + j, 0.0, 5.0, False, f"y{j}") for j in range(nc)]
        return MipInstance(name="pool", variables=variables, constraints=[], objective={})

    @staticmethod
    def outcome(pool, x, objective):
        try:
            return pool.add(x, objective)
        except ValueError as exc:
            return str(exc)

    @classmethod
    def random_add_sequences(cls, rng):
        """300 (instance, capacity, dedup, [(x, objective), ...]) trials over
        small banks of points, so that keys repeat and some binaries are
        non-integral. One trial in ten has 60 to 140 binaries, so that a key
        spans more than one 64-bit word."""
        for trial in range(300):
            nb, ni, nc = (int(v) for v in rng.integers(0, 4, size=3))
            if trial % 10 == 9:
                nb = int(rng.integers(60, 141))
            inst = cls.instance(nb, ni, nc)
            d = inst.num_vars
            capacity = None if trial % 3 else int(rng.integers(1, 30))
            dedup = bool(trial % 4)
            bank = np.empty((int(rng.integers(1, 12)), d))
            bank[:, :nb] = rng.integers(0, 2, size=(len(bank), nb))
            bank[:, nb:nb + ni] = rng.integers(-1, 3, size=(len(bank), ni))
            bank[:, nb + ni:] = rng.uniform(0.0, 5.0, size=(len(bank), nc))
            adds = []
            for _ in range(int(rng.integers(0, 60))):
                x = bank[rng.integers(len(bank))].copy()
                if d and rng.random() < 0.3:
                    x[rng.integers(d)] += rng.choice([1e-8, -1e-8, 0.4, 0.5, 0.75])
                adds.append((x, float(rng.normal())))
            yield inst, capacity, dedup, adds

    @staticmethod
    def assert_same_pool(pool, ref, inst):
        n, d, nb = len(pool), inst.num_vars, len(inst.binary_index)
        assert pool.solutions.shape == (n, d)
        assert pool.projections.shape == (n, nb)
        assert pool.projections.dtype == np.int8
        assert pool.solutions.tobytes() == b"".join(x.tobytes() for x in ref.solutions)
        assert pool.projections.tolist() == ref.projections
        assert pool.projection_matrix().tolist() == ref.projections
        assert [repr(v) for v in pool.objectives.tolist()] == [repr(v) for v in ref.objectives]
        assert pool.ones.tobytes() == ref.ones.tobytes()

    def test_matches_the_list_pool_on_random_add_sequences(self):
        raised = 0
        for inst, capacity, dedup, adds in self.random_add_sequences(np.random.default_rng(5)):
            pool = SolutionPool(inst, capacity=capacity, dedup=dedup)
            ref = ListPool(inst, capacity=capacity, dedup=dedup)
            for x, objective in adds:
                got = self.outcome(pool, x, objective)
                assert got == self.outcome(ref, x, objective)
                raised += isinstance(got, str)
                assert len(pool) == len(ref.solutions)
                assert pool.is_full == (capacity is not None and len(pool) >= capacity)
            self.assert_same_pool(pool, ref, inst)
        assert raised > 0

    def test_batches_match_sequential_adds_on_random_add_sequences(self):
        # each sequence is cut into random batches; the oracle adds a batch
        # one row at a time and, like the batch, drops the rows after a raise
        rng = np.random.default_rng(6)
        seen = dict.fromkeys(("raised", "refused_bad", "dup_in_batch", "full_mid_batch",
                              "no_dedup", "int_keys", "negative_int_keys", "wide_keys"), 0)
        for inst, capacity, dedup, adds in self.random_add_sequences(np.random.default_rng(5)):
            pool = SolutionPool(inst, capacity=capacity, dedup=dedup)
            ref = ListPool(inst, capacity=capacity, dedup=dedup)
            nb = len(inst.binary_index)
            start = 0
            while start < len(adds):
                batch = adds[start:start + int(rng.integers(0, 9))]
                start += max(len(batch), 1)
                want, error, size = 0, None, len(pool)
                for x, objective in batch:
                    full = capacity is not None and len(ref.solutions) >= capacity
                    seen["full_mid_batch"] += full and size < capacity
                    got = self.outcome(ref, x, objective)
                    if isinstance(got, str):
                        error = got
                        break
                    want += got
                    bad = nb and np.abs(x[:nb] - np.rint(x[:nb])).max() > INT_TOL
                    seen["refused_bad"] += bool(bad) and not full and not got
                xs = [x for x, _ in batch]
                if rng.random() < 0.5 and batch:
                    xs = np.array(xs)
                try:
                    got = pool.add_rows(xs, [objective for _, objective in batch])
                except ValueError as exc:
                    got = str(exc)
                assert got == (want if error is None else error)
                seen["raised"] += error is not None
                keys = [ref.key(x) for x, _ in batch]
                seen["dup_in_batch"] += dedup and len(set(keys)) < len(keys)
                assert len(pool) == len(ref.solutions)
            self.assert_same_pool(pool, ref, inst)
            if dedup:
                assert pool._keys == {ref.int_key(key) for key in ref.keys}
            seen["no_dedup"] += not dedup
            seen["int_keys"] += not nb and len(pool) > 1
            negative = any(v < 0 for key in ref.keys for v in key)
            seen["negative_int_keys"] += dedup and not nb and negative
            seen["wide_keys"] += dedup and nb > 64 and len(pool) > 1
        assert all(seen.values()), seen

    def test_non_integral_binary_raises_unless_its_key_is_taken(self):
        pool = SolutionPool(self.instance(2, 0, 1))
        with pytest.raises(ValueError, match=r"binary column 1 has non-binary value .*0\.4"):
            pool.add([0.0, 0.4, 1.0], 0.0)
        assert len(pool) == 0 and pool.solutions.shape == (0, 3)
        assert pool.add([0.0, 0.0, 1.0], 0.0)
        assert not pool.add([0.0, 0.4, 2.0], 0.0)  # rounds onto the pooled key
        assert pool.solutions.tolist() == [[0.0, 0.0, 1.0]]

    def test_a_batch_keeps_the_rows_before_a_non_integral_binary(self):
        pool = SolutionPool(self.instance(2, 0, 1))
        rows = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                [0.0, 0.0, 2.0],  # duplicate of the first row
                [0.0, 0.4, 3.0],  # non-integral, but rounds onto the first row's key
                [1.0, 1.0, 1.0],
                [0.0, 1.4, 1.0],  # non-integral with a free key: raises
                [0.0, 1.0, 1.0]]
        with pytest.raises(ValueError, match=r"binary column 1 has non-binary value .*1\.4"):
            pool.add_rows(rows, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert pool.solutions.tolist() == [rows[0], rows[1], rows[4]]
        assert pool.objectives.tolist() == [0.0, 1.0, 4.0]
        assert pool.ones.tolist() == [2.0, 1.0]
        assert pool.add_rows(rows[6:], [6.0]) == 1

    def test_a_batch_stops_at_capacity(self):
        pool = SolutionPool(self.instance(2, 0, 0), capacity=3)
        rows = [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                [1.0, 0.5]]  # never looked at: the pool is full before it
        assert pool.add_rows(rows, [0.0, 1.0, 2.0, 3.0, 4.0]) == 3
        assert pool.is_full and pool.solutions.tolist() == [rows[0], rows[2], rows[3]]
        assert pool.add_rows([[1.0, 1.0]], [5.0]) == 0 and not pool.add([1.0, 1.0], 5.0)

    def test_without_binaries_the_integer_columns_are_the_key(self):
        pool = SolutionPool(self.instance(0, 2, 1))
        assert pool.add([1.0, -1.0, 0.5], 1.0)
        assert not pool.add([1.0, -1.0, 2.5], 2.0)  # differs in y only
        assert pool.add([1.0, 0.0, 0.5], 3.0)
        assert pool.projections.shape == (2, 0) and pool.ones.shape == (0,)
        assert pool.objectives.tolist() == [1.0, 3.0]

    def test_empty_shapes_and_read_only_views(self):
        pool = SolutionPool(self.instance(5, 0, 1))
        assert pool.solutions.shape == (0, 6)
        assert pool.projections.shape == pool.projection_matrix().shape == (0, 5)
        assert pool.objectives.shape == (0,) and pool.objectives.dtype == np.float64
        for k in range(40):  # 32 distinct keys: past the first doubling
            pool.add([k >> b & 1 for b in range(5)] + [0.5], k / 3)
        assert len(pool) == 32
        assert [repr(v) for v in pool.objectives.tolist()] == [repr(k / 3) for k in range(32)]
        for view in (pool.solutions, pool.projections, pool.projection_matrix()):
            assert len(view) == 32
            with pytest.raises(ValueError):
                view[0, 0] = 1
        with pytest.raises(ValueError):
            pool.objectives[0] = 1.0

    def test_a_key_is_the_int_of_the_packed_projection(self):
        pool = SolutionPool(self.instance(10, 0, 0))
        bits = [1, 0, 1, 1, 0, 0, 0, 0, 0, 1]
        assert pool.add(bits, 0.0)
        assert pool._keys == {int.from_bytes(np.packbits(bits).tobytes(), "big")}
        assert pool._keys == {0b10110000_01000000}  # the last byte padded with zero bits
        ints = SolutionPool(self.instance(0, 2, 0))
        assert ints.add([-1.0, 2.0], 0.0)
        assert ints._keys == {(2 ** 64 - 1) << 64 | 2}

    def test_keys_are_the_ints_of_each_rows_packed_bits_at_every_width(self):
        rng = np.random.default_rng(7)
        for width in range(1, 141):
            proj = rng.integers(0, 2, size=(5, width)).astype(np.int8)
            words = engine._packed_words(proj)
            assert words.shape == (5, -(-width // 64)) and words.dtype == np.dtype(">u8")
            assert engine._row_keys(words) == [
                int.from_bytes(np.packbits(row).tobytes(), "big") for row in proj]

    @staticmethod
    def box_engine(nb):
        """``nb`` free binaries and a fixed shift column, no rows: the root is
        unrestricted and its walk pools all 2**nb points."""
        variables = [VariableDef(j, 0.0, 1.0, True, f"b{j}") for j in range(nb)]
        variables.append(VariableDef(nb, 1.0, 1.0, False, "shift"))
        objective = {j: 1.0 for j in range(nb)}
        objective[nb] = -320.0
        return BranchAndCount(MipInstance(name=f"box{nb}", variables=variables, constraints=[],
                                          objective=objective))

    def test_bytes_per_row_beside_the_solution_and_projection(self):
        # a row holds its objective (8 bytes), its int key (at most 32) and
        # about two 16-byte set slots; a Python float in a list and a bytes
        # key in their place took about 110
        bc = self.box_engine(12)
        gc.collect()
        tracemalloc.start()
        try:
            res = bc.run()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        pool = res.pool
        assert len(pool) == 2 ** 12
        rest = (held - pool._x.nbytes - pool._proj.nbytes) / len(pool)
        assert rest <= 80, f"{rest:.0f} bytes per solution beside its two rows"

    def test_memory_per_pooled_solution(self):
        bc = self.box_engine(14)
        gc.collect()
        tracemalloc.start()
        try:
            res = bc.run()
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.pool) == 2 ** 14
        assert held / len(res.pool) <= 320, f"{held / len(res.pool):.0f} bytes per solution"
        # the walk's buffer is bounded by its chunk, not by the box
        assert peak / len(res.pool) <= 320, f"peak {peak / len(res.pool):.0f} bytes per solution"


class TestBranching:
    def test_most_fractional_picks_nearest_half(self):
        lp = SimpleNamespace(x=np.array([0.5, 0.9]), fractional=[0, 1])
        assert most_fractional(lp) == 0

    def test_most_fractional_tie_takes_lowest_index(self):
        # 0.75 and 0.25 are exact in binary floats, so the gaps tie exactly
        lp = SimpleNamespace(x=np.array([0.75, 0.25]), fractional=[0, 1])
        assert most_fractional(lp) == 0

    def test_most_fractional_requires_a_candidate(self):
        lp = SimpleNamespace(x=np.array([1.0]), fractional=[])
        with pytest.raises(EngineError):
            most_fractional(lp)

    def test_binary_split_fixes_both_sides(self):
        bc = BranchAndCount(knapsack_instance())
        root = root_node(bc)
        assert root.lp.fractional == [0]
        down, up = bc.branch(root)
        assert (down.lo.tolist(), down.hi.tolist()) == ([0.0, 0.0, 0.0], [0.0, 1.0, 1.0])
        assert (up.lo.tolist(), up.hi.tolist()) == ([1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert (down.path, up.path) == ((0,), (1,))
        assert down.depth == up.depth == 1


class TestDedup:
    def slack_instance(self):
        """One binary in the objective, one free general integer beside it."""
        return MipInstance(
            name="slack",
            variables=[VariableDef(0, 0.0, 1.0, True, "b"), VariableDef(1, 0.0, 2.0, True, "u")],
            constraints=[LinearConstraint({0: 1.0, 1: 1.0}, LE, 3.0, "r0")],
            objective={0: 1.0},
        )

    def test_binary_projection_dedup_collapses_siblings(self):
        cut = add_objective_cutoff(self.slack_instance(), 0.0, 0.05)
        res = BranchAndCount(cut, dedup=True).run()
        assert res.exhausted
        assert len(res.pool) == 1

    def test_dedup_off_keeps_every_assignment(self):
        cut = add_objective_cutoff(self.slack_instance(), 0.0, 0.05)
        res = BranchAndCount(cut, dedup=False).run()
        assert res.exhausted
        assert sorted(int(round(x[1])) for x in res.pool.solutions) == [0, 1, 2]
        assert all(int(round(x[0])) == 0 for x in res.pool.solutions)


class TestLimitsAndTruncation:
    def four_admitted(self):
        inst = binary_inst(
            2,
            [({0: 1.0, 1: 1.0}, LE, 2.0)],
            {0: -1.0, 1: -1.0},
        )
        return add_objective_cutoff(inst, -2.0, 1.0)

    def test_generous_budget_exhausts(self):
        res = BranchAndCount(self.four_admitted()).run(p1=10)
        assert len(res.pool) == 4 and res.exhausted

    def test_tight_budget_stops_short(self):
        res = BranchAndCount(self.four_admitted()).run(p1=2)
        assert len(res.pool) == 2 and not res.exhausted

    def test_infeasible_root_is_exhausted_and_empty(self):
        inst = binary_inst(
            1,
            [({0: 1.0}, GE, 1.0), ({0: 1.0}, LE, 0.0)],
            {0: 1.0},
        )
        res = BranchAndCount(inst).run()
        assert len(res.pool) == 0
        assert res.exhausted and not res.truncated
        assert res.nodes_processed == 1

    @pytest.mark.parametrize("mode", ["run", "optimize"])
    def test_node_limit_zero_does_not_count_an_infeasible_root(self, mode):
        # the root LP of x >= 2 over one binary is infeasible; under node
        # limit 0 it is not processed, as a feasible root is not
        inst = binary_inst(1, [({0: 1.0}, GE, 2.0)], {0: 1.0})
        res = getattr(BranchAndCount(inst), mode)(node_limit=0)
        assert res.nodes_processed == 0
        if mode == "run":
            assert res.truncated and not res.exhausted and len(res.pool) == 0
        else:
            assert res.status == "limit"

    @settings(max_examples=100)
    @given(inst=small_mips(), q=st.sampled_from([0.0, 0.5, 2.0]), k=st.integers(0, 20))
    def test_node_limits_hold(self, inst, q, k):
        # a run cut short by the limit is one whose unlimited twin needs more
        # than k nodes; any other equals that twin
        cut = cut_at_optimum(inst, q)
        full, limited = BranchAndCount(cut).run(), BranchAndCount(cut).run(node_limit=k)
        assert limited.nodes_processed <= k
        if full.nodes_processed > k:
            assert limited.truncated and not limited.exhausted
        else:
            assert limited.exhausted and not limited.truncated
            assert limited.trace_hash == full.trace_hash
        best, capped = BranchAndCount(inst).optimize(), BranchAndCount(inst).optimize(node_limit=k)
        assert capped.nodes_processed <= k
        if best.nodes_processed > k:
            assert capped.status == "limit"

    def test_node_limit_marks_truncated(self):
        cut = add_objective_cutoff(knapsack_instance(), -10.0, 0.3)
        res = BranchAndCount(cut).run(node_limit=1)
        assert res.truncated and not res.exhausted

    @pytest.mark.parametrize("limits", [
        {"time_limit": math.nan},
        {"time_limit": -1.0},
        {"node_limit": -1},
    ], ids=["nan-time", "negative-time", "negative-nodes"])
    @pytest.mark.parametrize("mode", ["run", "optimize"])
    def test_bad_limits_are_rejected(self, mode, limits):
        bc = BranchAndCount(add_objective_cutoff(knapsack_instance(), -10.0, 0.3))
        with pytest.raises(ValueError, match="must be nonnegative"):
            getattr(bc, mode)(**limits)

    def test_time_limit_marks_truncated(self):
        cut = add_objective_cutoff(knapsack_instance(), -10.0, 0.3)
        res = BranchAndCount(cut).run(time_limit=0.0)
        assert res.truncated and res.nodes_processed == 0

    def test_time_limit_stops_the_wholesale_walk(self):
        # no rows: the root is unrestricted and the whole run is one walk over
        # 65,536 points, which takes about 0.4 s untimed
        inst = binary_inst(16, [], {j: 1.0 for j in range(16)})
        res = BranchAndCount(inst).run(time_limit=0.05)
        assert res.unrestricted_subtrees == 1
        assert res.truncated and not res.exhausted
        assert len(res.pool) < 2 ** 16
        assert res.wall_time_s < 1.0
        # the clock cuts the walk short but does not reorder it
        full = BranchAndCount(inst).run()
        assert full.exhausted and len(full.pool) == 2 ** 16
        n = len(res.pool)
        assert res.pool.solutions.tobytes() == full.pool.solutions[:n].tobytes()
        assert res.pool.objectives.tobytes() == full.pool.objectives[:n].tobytes()

    @pytest.mark.parametrize("chunk, k", [(1024, 2500), (7, 20), (7, 5)])
    def test_the_deadline_keeps_every_walked_point_and_no_more(self, monkeypatch, chunk, k):
        # a clock that reads the number of points walked trips the deadline
        # after exactly k points, k not a multiple of the chunk
        monkeypatch.setattr(engine, "WALK_CHUNK", chunk)
        inst = binary_inst(12, [], {j: 1.0 for j in range(12)})
        full = BranchAndCount(inst).run()
        bc = BranchAndCount(inst)
        walked = 0
        box_points = engine._box_points

        def counting_points(*args):
            nonlocal walked
            for x in box_points(*args):
                yield x
                walked += 1  # the walk has taken x and asks for the next point

        monkeypatch.setattr(engine, "_box_points", counting_points)
        monkeypatch.setattr(engine.time, "perf_counter", lambda: float(walked))
        res = bc.run(time_limit=k - 0.5)
        assert walked == k
        assert res.truncated and not res.exhausted
        assert len(res.pool) == k
        assert res.pool.solutions.tobytes() == full.pool.solutions[:k].tobytes()
        assert res.pool.objectives.tobytes() == full.pool.objectives[:k].tobytes()


class TestTimeLimitsHold:
    """Under a clock that ticks once per reading, neither main loop processes
    more nodes than its time limit has ticks: each node follows one reading,
    and the readings after the start that stay within a limit of t are t."""

    @pytest.fixture(scope="class")
    def cuts(self):
        # 30x12 instances that optimize in 21-34 nodes
        out = []
        for seed in (25, 26, 28):
            inst = random_binary_instance(seed, 30, 12)
            opt = BranchAndCount(inst).optimize()
            cut = add_objective_cutoff(inst, opt.objective, 0.1)
            out.append((cut, BranchAndCount(cut).optimize().nodes_processed,
                        BranchAndCount(cut).run().nodes_processed))
        return out

    @pytest.mark.parametrize("limit", range(1, 11))
    def test_optimize_and_run_stop_within_the_limit(self, cuts, limit, monkeypatch):
        ticks = itertools.count()
        monkeypatch.setattr(engine.time, "perf_counter", lambda: float(next(ticks)))
        for cut, optimize_nodes, run_nodes in cuts:
            assert min(optimize_nodes, run_nodes) > 10
            opt = BranchAndCount(cut).optimize(time_limit=limit)
            assert opt.status == "limit" and opt.nodes_processed <= limit
            count = BranchAndCount(cut).run(time_limit=limit)
            assert count.truncated and not count.exhausted
            assert count.nodes_processed <= limit


class TestLpStalls:
    """A child LP that stalls: dropped by the count mode, fatal to optimize."""

    def stall_first_down_child(self, monkeypatch, instance):
        """Make the warm start give up and the cold solve stall on one box:
        the root's floor child on its most-fractional column."""
        bc = BranchAndCount(instance)
        root = bc.solver.solve(bc.root_lo, bc.root_hi)
        j = most_fractional(root)
        box_lo, box_hi = bc.root_lo.copy(), bc.root_hi.copy()
        box_hi[j] = math.floor(root.x[j])
        d = instance.num_vars

        def is_box(lo, hi):
            return np.array_equal(lo[:d], box_lo) and np.array_equal(hi[:d], box_hi)

        real_cold, real_dual = SimplexSolver._cold, SimplexSolver._dual

        def cold(self, lo, hi):
            if is_box(lo, hi):
                return LpResult(status=LpStatus.STALLED)
            return real_cold(self, lo, hi)

        def dual(self, snapshot, lo, hi, j=None):
            if is_box(lo, hi):
                raise _NoProgress()
            return real_dual(self, snapshot, lo, hi, j)

        monkeypatch.setattr(SimplexSolver, "_cold", cold)
        monkeypatch.setattr(SimplexSolver, "_dual", dual)

    def test_count_drops_the_stalled_child_at_creation(self, monkeypatch, tmp_path):
        inst = random_binary_instance(3)
        z, admitted = enum_pure_integer(inst, 0.05)
        cut = add_objective_cutoff(inst, z, 0.05)
        self.stall_first_down_child(monkeypatch, cut)
        path = tmp_path / "trace.jsonl"
        res = BranchAndCount(cut).run(trace_path=str(path))
        assert res.stalled_dropped == 1
        assert pool_tuples(res) <= admitted
        records = [json.loads(line) for line in path.read_text().splitlines()]
        stalled = [r for r in records if r["classification"] == "stalled"]
        assert len(stalled) == 1 and stalled[0]["lpBound"] is None

    def test_optimize_raises(self, monkeypatch):
        inst = random_binary_instance(3)
        self.stall_first_down_child(monkeypatch, inst)
        with pytest.raises(EngineError, match="stalled"):
            BranchAndCount(inst).optimize()


class TestDeterminismAndTrace:
    def test_repeat_runs_are_identical(self):
        inst = random_binary_instance(3)
        z, _ = enum_pure_integer(inst, 0.05)
        cut = add_objective_cutoff(inst, z, 0.05)
        a = BranchAndCount(cut).run()
        b = BranchAndCount(cut).run()
        assert a.trace_hash == b.trace_hash
        assert [tuple(r) for r in a.pool.projection_matrix()] == [
            tuple(r) for r in b.pool.projection_matrix()
        ]
        assert a.nodes_processed == b.nodes_processed

    def test_trace_file_fields_and_hash(self, tmp_path):
        """The file holds every line hashed, whether the run ends on its own
        or on a limit."""
        inst = random_binary_instance(4)
        z, _ = enum_pure_integer(inst, 0.03)
        cut = add_objective_cutoff(inst, z, 0.03)
        path = tmp_path / "trace.jsonl"
        for node_limit in (None, 9):
            res = BranchAndCount(cut).run(node_limit=node_limit, trace_path=str(path))
            assert res.truncated == (node_limit is not None)
            raw = path.read_bytes()
            assert hashlib.sha256(raw).hexdigest() == res.trace_hash
            for line in raw.decode().splitlines():
                rec = json.loads(line)
                assert set(rec) == {"id", "depth", "lpBound", "classification", "poolSize"}
                assert rec["lpBound"] is None or isinstance(rec["lpBound"], float)

    @pytest.mark.parametrize("cls", [engine.INFEASIBLE, engine.UNRESTRICTED,
                                     engine.INTEGER_FEASIBLE, engine.BRANCHABLE,
                                     engine.STALLED])
    def test_trace_line_is_sorted_json_bytes(self, cls):
        """The preformatted line is byte for byte what json.dumps with sorted
        keys writes, for every classification and every kind of bound."""
        bounds = [None, math.inf, -math.inf, math.nan, 0.0, -0.0, -3.5, 1e-300,
                  2.0 / 3.0, 1e22, -123456789.125, np.float64(-7.1), np.float64(0.1 + 0.2),
                  np.float64(np.inf), np.float64(np.nan)]
        for bound in bounds:
            for node_id, depth, pool_size in ((0, 0, 0), (17, 3, 60), (123456, 40, 65536)):
                want = json.dumps({
                    "id": node_id,
                    "depth": depth,
                    "lpBound": None if bound is None or not math.isfinite(bound) else bound,
                    "classification": cls,
                    "poolSize": pool_size,
                }, sort_keys=True)
                assert engine.trace_line(node_id, depth, bound, cls, pool_size) == want

    @pytest.mark.parametrize("rule", list(Rule))
    def test_rule_choice_never_changes_exhaustive_pool(self, rule):
        inst = random_binary_instance(1)
        z, admitted = enum_pure_integer(inst, 0.05)
        cut = add_objective_cutoff(inst, z, 0.05)
        cfg = SelectorConfig(rule=rule, alpha=0.5, beta=0.3, sol_cutoff=0.5, depth_cutoff=3)
        res = BranchAndCount(cut, selector=cfg).run()
        assert res.exhausted
        assert pool_tuples(res) == admitted


class TestChildNodes:
    """The children a count run makes: fixing paths and boxes."""

    MAKERS = [general_integer_instance, knapsack_instance,
              lambda: random_binary_instance(1, 30, 12)]

    @staticmethod
    def record_children(inst, monkeypatch):
        """Every child a count run on ``inst`` makes, each with ``made`` (term
        indices of its fixings, in branching order), ``overrides`` (column ->
        (lo, hi) as branched, in the order first bounded), ``parent`` and
        ``engine``."""
        pos = {j: k for k, j in enumerate(inst.binary_index)}
        made = {0: []}  # node id -> the recorded fields of its child object
        overrides = {0: {}}
        seen = []
        child_of = BranchAndCount._child

        def child(self, node, j, lo_j, hi_j):
            c = child_of(self, node, j, lo_j, hi_j)
            extra = [2 * pos[j] + int(lo_j)] if j in pos and lo_j == hi_j else []
            c.made = made[node.id] + extra
            c.overrides = {**overrides[node.id], j: (float(lo_j), float(hi_j))}
            c.parent, c.engine = node, self
            seen.append(c)
            return c

        push = Selector.push

        def push_and_record(sel, node):
            made[node.id] = getattr(node, "made", [])
            overrides[node.id] = getattr(node, "overrides", {})
            push(sel, node)

        monkeypatch.setattr(BranchAndCount, "_child", child)
        monkeypatch.setattr(Selector, "push", push_and_record)
        cut = add_objective_cutoff(inst, BranchAndCount(inst).optimize().objective, 0.3)
        BranchAndCount(cut, selector=SelectorConfig(rule="dbfs-a", alpha=0.5)).run(p1=40)
        assert seen
        return seen

    @pytest.mark.parametrize("make", MAKERS)
    def test_paths_list_the_binary_fixings_in_the_order_made(self, make, monkeypatch):
        seen = self.record_children(make(), monkeypatch)
        for c in seen:
            assert c.path == tuple(c.made)
        assert any(len(c.made) < c.depth for c in seen) == (make is general_integer_instance)

    @pytest.mark.parametrize("make", MAKERS)
    def test_boxes_are_the_root_box_with_the_branching_overrides(self, make, monkeypatch):
        seen = self.record_children(make(), monkeypatch)
        for c in seen:
            lo, hi = oracle_materialize(c.engine.root_lo, c.engine.root_hi, c.overrides)
            assert (c.lo.tobytes(), c.hi.tobytes()) == (lo.tobytes(), hi.tobytes())
        # each split bounds one column: a chain shorter than the depth
        # re-bounded a general integer column it had bounded before
        rebounded = any(len(c.overrides) < c.depth for c in seen)
        assert rebounded == (make is general_integer_instance)

    @pytest.mark.parametrize("make", MAKERS)
    def test_child_boxes_alias_neither_parent_nor_root(self, make, monkeypatch):
        seen = self.record_children(make(), monkeypatch)
        for c in seen:
            root_box = (c.engine.root_lo, c.engine.root_hi)
            for box in (c.parent.lo, c.parent.hi) + root_box:
                assert not np.shares_memory(c.lo, box) and not np.shares_memory(c.hi, box)
            assert not np.shares_memory(c.lo, c.hi)


class TestInheritedOpenRows:
    """A node tests only the rows its parent left open, from the parent's
    failing row; the rows it drops hold over every box below it."""

    @staticmethod
    def check_runs(monkeypatch):
        """Record every classification; ``check()`` holds each dequeued node
        to the box oracle and returns how many nodes tested fewer rows than
        all."""
        seen = []
        classify = BranchAndCount.classify

        def recorded(self, node):
            inherited = node.open_rows
            cls = classify(self, node)
            seen.append((self, node, cls, inherited))
            return cls

        monkeypatch.setattr(BranchAndCount, "classify", recorded)

        def check():
            by_id = {node.id: node for _, node, _, _ in seen}
            skipped = 0
            for bc, node, cls, inherited in seen:
                parent = by_id.get(node.parent_id)
                assert inherited is (None if parent is None else parent.open_rows)
                if cls == engine.INFEASIBLE:
                    continue
                rows = bc.instance.constraints
                skipped += inherited is not None and len(inherited) < len(rows)
                holds = [oracle_row_holds_over(con, node.lo, node.hi, FEAS_TOL) for con in rows]
                unrestricted = oracle_is_unrestricted(bc.instance, node.lo, node.hi, FEAS_TOL)
                assert (cls == engine.UNRESTRICTED) == unrestricted == (not node.open_rows)
                if node.open_rows:
                    assert not holds[node.open_rows[0]]  # starts at a failing row
                # every row this node or an ancestor dropped holds over this box
                while node is not None:
                    assert all(holds[i] for i in set(range(len(rows))) - set(node.open_rows))
                    node = by_id.get(node.parent_id)
            seen.clear()
            return skipped

        return check

    @settings(max_examples=40)
    @given(small_mips(), st.sampled_from([0.0, 0.5, 2.0]))
    def test_whole_runs_on_small_mips(self, inst, q):
        with pytest.MonkeyPatch.context() as mp:
            check = self.check_runs(mp)
            res = BranchAndCount(cut_at_optimum(inst, q)).run()
            assert res.exhausted
            check()

    @pytest.mark.parametrize("make", [general_integer_instance, mixed_small_instance,
                                      lambda: two_cluster_instance(8, 1),
                                      lambda: random_binary_instance(1, 30, 12)])
    def test_whole_runs_skip_rows_the_parent_proved(self, make, monkeypatch):
        check = self.check_runs(monkeypatch)
        BranchAndCount(cut_at_optimum(make(), 0.3)).run(p1=200)
        assert check() > 0


class TestKeptLp:
    """A child whose box still holds its parent's warm optimum keeps the
    parent's LP (``SimplexSolver.child`` through ``_kept``), which must be
    the result ``resolve`` returns from the parent's basis, field for field.
    A child that the solver refutes (``simplex.REFUTED``, by ``_refutes``)
    must be one that ``conftest.oracle_refutes`` calls empty and that
    ``resolve`` and ``solve`` find infeasible; it matches ``resolve`` in
    status only, with 0 iterations. No kept child's box is one ``_refutes``
    refutes, and no child passed to a solve is one the oracle refutes.
    Every warm and every kept result's snapshot is flagged ``dual_feasible``
    exactly when the warm start's dual-feasibility test passes over its own
    box (``conftest.oracle_wrong_sign``); a kept child, and every warm start
    told its split column, trust the flag in place of that test."""

    @staticmethod
    def lp_fields(res):
        return golden.lp_fingerprint(res), None if res.x is None else res.x.tobytes()

    @pytest.fixture(scope="class")
    def per_box(self):
        """(kind, instance JSON, box bytes) -> the status of a cold solve of
        the box, or the oracle's refutation verdict on it: pure functions of
        the key, which the golden cases, walking many of the same boxes under
        different rules, share."""
        return {}

    def check_children(self, monkeypatch, per_box):
        """Hold every partition child's LP, every child LP ``child`` keeps,
        every child it refutes and every child it warm-solves, the
        ``branch`` ones included, to a second solver of the same instance
        (its ``resolve`` called without the split column: the general
        path), every verdict on refutation to the oracle, and every flag of
        both solvers and every warm start that trusted one to the oracle.
        Returns the running counts of partition splits, kept LPs, refuted
        children, warm-solved children, checked flags and warm starts that
        trusted a flag."""
        counts = {"splits": 0, "kept": 0, "refuted": 0, "warm": 0, "flags": 0,
                  "trusted_starts": 0}
        refs = {}
        cache = {"snapshot": None, "results": {}}
        starts = []  # (trusted a flag, failed) of each warm start in the current child
        make_child = SimplexSolver.child
        start_fails = simplex._start_fails
        partition = BranchAndCount.partition_branch

        def reference(solver):
            if solver not in refs:
                refs[solver] = SimplexSolver(solver.instance), solver.instance.to_json()
            return refs[solver][0]

        def once_per_box(kind, solver, lo, hi, make):
            """``make()``, made once per kind, instance and box."""
            reference(solver)
            key = (kind, refs[solver][1], lo.tobytes() + hi.tobytes())
            if key not in per_box:
                per_box[key] = make()
            return per_box[key]

        def cold_status(solver, lo, hi):
            """The status of the second solver's ``solve(lo, hi)``."""
            return once_per_box("cold", solver, lo, hi,
                                lambda: reference(solver).solve(lo, hi).status)

        def oracle_verdict(solver, lo, hi):
            return once_per_box("oracle", solver, lo, hi,
                                lambda: oracle_refutes(solver.instance, lo.tolist(),
                                                      hi.tolist(), FEAS_TOL))

        def wanted(solver, snapshot, lo, hi):
            """The second solver's ``resolve(snapshot, lo, hi)``, made once
            per snapshot and box (a node's children share its snapshot),
            with its flag checked."""
            if cache["snapshot"] is not snapshot:
                cache["snapshot"], cache["results"] = snapshot, {}
            key = lo.tobytes() + hi.tobytes()
            if key not in cache["results"]:
                ref = reference(solver)
                cache["results"][key] = got = ref.resolve(snapshot, lo, hi)
                check_flag(ref, got, lo, hi)
            return cache["results"][key]

        def check_flag(solver, res, lo, hi):
            snap = res.basis
            if snap is None:
                return
            if solver._priced(snap) is None:  # a cold solve or fallback made it
                assert snap.dual_feasible is False
                return
            counts["flags"] += 1
            assert snap.dual_feasible == (oracle_wrong_sign(solver, snap, lo, hi) == [])

        def recorded_start(state, at_upper, finite_lo, movable, j=None):
            failed = start_fails(state, at_upper, finite_lo, movable, j)
            starts.append((j is not None, failed))
            return failed

        def checked_child(solver, parent, box, j):
            starts.clear()
            lp = make_child(solver, parent, box, j)
            lo, hi = box[:solver.d], box[solver.d:]
            refutes = solver._refutes is not None and solver._refutes(box)
            if lp.x is parent.x:  # kept
                counts["kept"] += 1
                assert not refutes  # so trying the kept LP first changes no result
                check_flag(solver, lp, lo, hi)
                assert self.lp_fields(lp) == self.lp_fields(wanted(solver, parent.basis, lo, hi))
                return lp
            refuted = lp is simplex.REFUTED
            assert refuted == refutes == oracle_verdict(solver, lo, hi)
            if refuted:
                counts["refuted"] += 1
                got = wanted(solver, parent.basis, lo, hi)
                assert got.status == LpStatus.INFEASIBLE
                assert cold_status(solver, lo, hi) == LpStatus.INFEASIBLE
                return lp
            for trusted, failed in starts:
                if trusted:  # the start's full-width test in the child's box
                    counts["trusted_starts"] += 1
                    assert failed == bool(oracle_wrong_sign(solver, parent.basis, lo, hi))
            counts["warm"] += 1
            want = wanted(solver, parent.basis, lo, hi)
            assert self.lp_fields(lp) == self.lp_fields(want)  # the snapshot's basis included
            assert lp.basis is None or lp.basis.dual_feasible == want.basis.dual_feasible
            check_flag(solver, lp, lo, hi)
            return lp

        def checked_partition(bc, node, j):
            kept = counts["kept"]
            children = partition(bc, node, j)
            counts["splits"] += 1
            assert counts["kept"] - kept <= 1  # only one side holds round(x_j)
            for c in children:
                want = wanted(bc.solver, node.lp.basis, c.lo, c.hi)
                if c.lp is simplex.REFUTED:
                    assert c.lp.status == want.status and c.lp.iterations == 0
                else:
                    assert self.lp_fields(c.lp) == self.lp_fields(want)
            return children

        monkeypatch.setattr(simplex, "_start_fails", recorded_start)
        monkeypatch.setattr(SimplexSolver, "child", checked_child)
        monkeypatch.setattr(BranchAndCount, "partition_branch", checked_partition)
        return counts

    @pytest.mark.parametrize("name", sorted(golden.count_cases()))
    def test_every_partition_child_of_the_golden_cases(self, name, monkeypatch, per_box):
        counts = self.check_children(monkeypatch, per_box)
        factory, spec = golden.count_cases()[name]
        run_phase_one(factory(), spec)
        assert counts["splits"] > 0
        assert counts["kept"] > 0  # the shortcut fired
        assert counts["flags"] > counts["kept"]
        if name.startswith(("random_binary_instance", "two_cluster_instance")):
            assert counts["refuted"] > 0
            assert counts["warm"] > 0
            assert counts["trusted_starts"] > 0

    @settings(max_examples=60)
    @given(small_mips(), st.sampled_from([0.0, 0.5, 2.0]))
    def test_small_mips(self, per_box, inst, q):
        with pytest.MonkeyPatch.context() as mp:
            self.check_children(mp, per_box)
            BranchAndCount(cut_at_optimum(inst, q)).run(p1=60)

    def test_optimize_runs(self, monkeypatch, per_box):
        counts = self.check_children(monkeypatch, per_box)
        instances = [general_integer_instance(), mixed_small_instance(),
                     *(random_binary_instance(k, 40, 15) for k in range(6))]
        for inst in instances:
            assert BranchAndCount(inst).optimize().status == "optimal"
        assert counts["refuted"] > 0

    @staticmethod
    def fix_nonbasic(solver, lp, lo, hi):
        """``lp``'s box with its first unfixed nonbasic column fixed at its
        LP value, and that column."""
        basic = set(lp.basis.basis.tolist())
        j = next(j for j in range(solver.d) if lo[j] < hi[j] and j not in basic)
        lo, hi = lo.copy(), hi.copy()
        lo[j] = hi[j] = lp.x[j]
        return lo, hi, j

    def warm_family(self):
        """A solver, its cold root, a warm child of the root with the child's
        box, and a box inside that one which holds the child's optimum."""
        solver = SimplexSolver(random_binary_instance(1, 30, 12))
        lo, hi = (np.asarray(b, dtype=float) for b in solver.instance.bounds())
        root = solver.solve(lo, hi)
        plo, phi, _ = self.fix_nonbasic(solver, root, lo, hi)
        parent = solver.resolve(root.basis, plo, phi)
        return solver, root, parent, (plo, phi), self.fix_nonbasic(solver, parent, plo, phi)

    def test_only_a_warm_parent_is_kept(self):
        solver, root, parent, _, (clo, chi, j) = self.warm_family()
        kept = solver._kept(parent, clo, chi, j)
        assert self.lp_fields(kept) == self.lp_fields(solver.resolve(parent.basis, clo, chi))
        assert kept.x is parent.x and kept.iterations == 1
        # the root's basis, priced by a warm solve of the root's own box,
        # is in the memo; the cold root still is not kept
        lo, hi = (np.asarray(b, dtype=float) for b in solver.instance.bounds())
        solver.resolve(root.basis, lo, hi)
        assert root.basis.basis.tobytes() in solver._bases
        rlo, rhi, k = self.fix_nonbasic(solver, root, lo, hi)
        assert solver._kept(root, rlo, rhi, k) is None
        solver._bases.clear()  # the priced basis is gone
        assert solver._kept(parent, clo, chi, j) is None

    def test_a_kept_child_reads_its_parents_dual_objective(self):
        solver, _, parent, _, (clo, chi, j) = self.warm_family()
        kept = solver._kept(parent, clo, chi, j)
        assert kept._dual is parent._dual  # nothing summed yet
        want = solver.resolve(parent.basis, clo, chi).dual_objective
        assert repr(kept.dual_objective) == repr(parent.dual_objective) == repr(want)

    def test_a_kept_child_is_flagged_and_keeps_its_own_child(self):
        """The kept child's flag is the full test over its own box, and a
        grandchild is judged on it."""
        solver, _, parent, _, (clo, chi, j) = self.warm_family()
        kept = solver._kept(parent, clo, chi, j)
        assert kept.basis.dual_feasible
        assert oracle_wrong_sign(solver, kept.basis, clo, chi) == []
        glo, ghi, g = self.fix_nonbasic(solver, kept, clo, chi)
        grandchild = solver._kept(kept, glo, ghi, g)
        assert self.lp_fields(grandchild) == self.lp_fields(solver.resolve(kept.basis, glo, ghi))

    def test_a_kept_child_with_nothing_new_shares_its_parents_snapshot(self):
        """Shared when the kept child's ``at_upper`` is its parent's; its own
        flagged snapshot when the split column was parked at upper."""
        solver, _, parent, _, (clo, chi, j) = self.warm_family()
        assert not parent.basis.at_upper[j] and parent.basis.dual_feasible
        assert solver._kept(parent, clo, chi, j).basis is parent.basis
        upper = replace(parent, basis=replace(parent.basis, at_upper=np.eye(solver.n, dtype=bool)[j]))
        own = solver._kept(upper, clo, chi, j).basis
        assert own is not upper.basis and own.basis is upper.basis.basis
        assert own.dual_feasible and not own.at_upper.any()

    def test_an_unflagged_snapshot_is_not_kept(self):
        solver, _, parent, _, (clo, chi, j) = self.warm_family()
        bare = replace(parent, basis=BasisSnapshot(parent.basis.basis, parent.basis.at_upper))
        assert solver._priced(bare.basis) is not None and not bare.basis.dual_feasible
        assert solver._kept(bare, clo, chi, j) is None

    @pytest.mark.parametrize("column", ["branched", "other"])
    def test_a_reduced_cost_against_its_parked_bound_is_not_kept(self, column):
        """A warm solve can end with a reduced cost that prices against the
        bound its column is parked at: a ratio-test tie within PIVOT_TOL
        moves it by up to PIVOT_TOL * |alpha|. Marked so in the memo, the
        branched column would change its dual-objective term. Any other
        movable one fails the warm start's test, which the parent's snapshot
        takes when it is made, so the snapshot is not flagged. Neither child
        is kept."""
        solver, _, parent, (plo, phi), (clo, chi, j) = self.warm_family()
        state = solver._bases[parent.basis.basis.tobytes()]
        at_upper = parent.basis.at_upper
        assert solver._kept(parent, clo, chi, j) is not None  # unmarked, it is kept
        if column == "branched":
            name = "red_pos" if at_upper[j] else "red_neg"
            wrong = getattr(state, name).copy()
            wrong[j] = True
            setattr(state, name, wrong)
        else:
            parent = replace(parent, basis=replace(parent.basis, dual_feasible=False))
        assert solver._kept(parent, clo, chi, j) is None

@st.composite
def boxes_inside(draw, bc):
    """A structural box inside ``bc``'s root box, stacked as ``[lo; hi]``:
    each bound of an integer column an integer between its root bounds, the
    two sides drawn apart, so some boxes are empty; every other column keeps
    its root bounds, since the engine splits integer columns only."""
    lo, hi = [], []
    for j, (a, b) in enumerate(zip(bc.root_lo.tolist(), bc.root_hi.tolist())):
        if bc.instance.variables[j].is_integer:
            side = st.integers(int(a), int(b)).map(float)
            a, b = draw(side), draw(side)
        lo.append(a)
        hi.append(b)
    return np.array(lo + hi)


@st.composite
def wide_roots(draw):
    """A mixed ``small_mips`` instance whose continuous column y has a bound
    set to an infinity, to +-1e308 (which the model reads as an infinity) or
    to +-9.9e19, the largest finite bound of the model; with a finite bound
    that large, y's coefficients may be set to +-9.9e14, the largest
    coefficient."""
    inst = draw(small_mips(kinds=("mixed",)))
    *xs, y = inst.variables
    lo, hi = draw(st.sampled_from([(-INF, 3.0), (-2.0, INF), (-1e308, 3.0), (-2.0, 1e308),
                                   (-1e308, 1e308), (-INF, 1e308), (-9.9e19, 3.0),
                                   (-2.0, 9.9e19), (-9.9e19, 9.9e19), (-INF, 9.9e19)]))
    rows = inst.constraints
    if 9.9e19 in (-lo, hi) and draw(st.booleans()):
        rows = [replace(con, coeffs={j: math.copysign(9.9e14, a) if j == y.index else a
                                     for j, a in con.coeffs.items()}) for con in rows]
    return MipInstance(inst.name, [*xs, replace(y, lower=lo, upper=hi)], rows, inst.objective)


class TestEngineRefutation:
    """The engine refutes a child with the test ``SimplexSolver._refutes``,
    which the solver builds once from the instance's bounds and which on
    this integer data is ``conftest.oracle_refutes``; ``solve`` finds every
    box it refutes infeasible."""

    @staticmethod
    def check(bc, box, solve=True):
        """The engine's verdict on ``box``, held to the oracle and, when it
        refutes and ``solve`` is set, to a cold solve."""
        d = len(bc.root_lo)
        got = bc.solver._refutes is not None and bc.solver._refutes(box)
        lo, hi = box[:d], box[d:]
        assert got == oracle_refutes(bc.instance, lo.tolist(), hi.tolist(), FEAS_TOL)
        if got and solve:
            assert SimplexSolver(bc.instance).solve(lo, hi).status == LpStatus.INFEASIBLE
        return got

    @settings(max_examples=200)
    @given(small_mips(), st.sampled_from([None, 0.0, 0.5]), st.data())
    def test_boxes_inside_the_root_box(self, inst, q, data):
        bc = BranchAndCount(inst if q is None else cut_at_optimum(inst, q))
        self.check(bc, data.draw(boxes_inside(bc)))

    @settings(max_examples=100)
    @given(wide_roots(), st.data())
    def test_roots_with_an_infinite_or_huge_continuous_bound(self, inst, data):
        """A side that reads an infinite bound is dropped; any other is
        tested, with no RuntimeWarning (an error under this suite). A bound
        of 9.9e19 next to O(1) data is past what the dense simplex solves
        reliably, so those roots are held to the oracle only."""
        bc = BranchAndCount(inst)
        y = inst.variables[-1]
        in_reach = all(abs(b) < 1e6 or b in (-INF, INF) for b in (y.lower, y.upper))
        self.check(bc, data.draw(boxes_inside(bc)), solve=in_reach)

    @pytest.mark.parametrize("make", [lambda: random_binary_instance(1, 30, 12),
                                      lambda: two_cluster_instance(14, 2)])
    def test_random_boxes_of_the_benchmark_instances(self, make):
        bc = BranchAndCount(cut_at_optimum(make(), 0.1))
        assert bc.solver._refutes is not None
        rng = np.random.default_rng(5)
        d = len(bc.root_lo)
        verdicts = set()
        for _ in range(400):
            fixed = rng.random(d) < rng.random()
            values = rng.integers(0, 2, size=d).astype(float)
            lo = np.where(fixed, values, bc.root_lo)
            hi = np.where(fixed, values, bc.root_hi)
            verdicts.add(self.check(bc, np.concatenate((lo, hi))))
        assert verdicts == {False, True}

    @pytest.mark.parametrize("lo_0,hi_0", [(-1.0, 0.0), (0.0, -1.0), (1.0, 2.0), (2.0, 1.0)])
    def test_a_split_outside_the_root_range_is_refuted_as_the_oracle_says(self, lo_0, hi_0):
        """Either bound of the split column below or above its root range:
        the test holds for any box with the root box's infinite bounds, so
        such a child is refuted exactly when the oracle refutes it (only
        x0 >= 2 misses x0 + x1 <= 1), and refutation stays on for later
        children: those that fix x0 and x1 at 1 miss the same row."""
        bc = BranchAndCount(self.wide_instance(1.0))
        root = root_node(bc)
        x0 = bc._child(root, 0, 1.0, 1.0)
        assert bc._child(x0, 1, 1.0, 1.0).lp is simplex.REFUTED
        outside = bc._child(root, 0, lo_0, hi_0)
        assert outside.lp.x is not root.lp.x  # not kept, so refuted or solved
        assert (outside.lp is simplex.REFUTED) == self.check(bc, outside.box) == (lo_0 == 2.0)
        if outside.lp is not simplex.REFUTED:
            want = SimplexSolver(bc.instance).solve(outside.lo, outside.hi).status
            assert outside.lp.status == want
        assert bc._child(x0, 1, 1.0, 1.0).lp is simplex.REFUTED

    @staticmethod
    def wide_instance(y_hi):
        """Four binaries and a continuous y in [0, y_hi] that costs 1 and
        enters a covering row with coefficient 2; the rows x0 + x1 <= 1 and
        x2 + x3 <= 1 refute the children that fix both of a pair at 1."""
        variables = [VariableDef(j, 0.0, 1.0, True, f"x{j}") for j in range(4)]
        variables.append(VariableDef(4, 0.0, y_hi, False, "y"))
        rows = [LinearConstraint({0: 1.0, 1: 1.0}, LE, 1.0, "r0"),
                LinearConstraint({2: 1.0, 3: 1.0}, LE, 1.0, "r1"),
                LinearConstraint({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 2.0}, GE, 1.5, "r2")]
        objective = {0: -2.0, 1: -1.0, 2: -1.5, 3: -1.0, 4: 1.0}
        return MipInstance(f"wide-{y_hi}", variables, rows, objective)

    @pytest.mark.parametrize("y_hi", [INF, 1e308])
    def test_a_root_with_an_unbounded_or_huge_column_refutes_from_its_kept_sides(
            self, y_hi, monkeypatch):
        """r2's greatest side reads y's upper bound, infinite or past the
        cap, so the refuter drops it and keeps r0's and r1's: every child
        the engine does not keep is refuted exactly when the oracle refutes
        it, and no step raises a RuntimeWarning (an error under this
        suite)."""
        inst = self.wide_instance(y_hi)
        z, admitted = enum_mixed_projections(inst, 0.5)
        refuted = []
        make_child = BranchAndCount._child

        def child(bc, node, j, lo_j, hi_j):
            c = make_child(bc, node, j, lo_j, hi_j)
            assert bc.solver._refutes is not None
            if c.lp.x is not node.lp.x:  # not kept: refuted or solved
                assert (c.lp is simplex.REFUTED) == self.check(bc, c.box)
            refuted.append(c.lp is simplex.REFUTED)
            return c

        monkeypatch.setattr(BranchAndCount, "_child", child)
        assert BranchAndCount(inst).optimize().objective == pytest.approx(z)
        res = run_cut(inst, 0.5, z, p1=None)
        got = {tuple(int(round(x[j])) for j in inst.integer_index) for x in res.pool.solutions}
        assert res.exhausted and got == admitted
        assert any(refuted) and not all(refuted)


class TestLpValuesAreReadOnly:
    @pytest.mark.parametrize("make", [knapsack_instance, general_integer_instance,
                                      mixed_small_instance,
                                      lambda: random_binary_instance(1, 30, 12)])
    def test_count_and_optimize_never_write_lp_x(self, make, monkeypatch):
        made = []
        for name in ("solve", "resolve", "_kept"):
            real = getattr(SimplexSolver, name)

            def recorded(self, *args, real=real):
                res = real(self, *args)
                if res is not None and res.x is not None:
                    made.append((res.x, res.x.tobytes()))
                return res

            monkeypatch.setattr(SimplexSolver, name, recorded)
        BranchAndCount(cut_at_optimum(make(), 0.3)).run(p1=60)
        assert len(made) > 5
        for x, before in made:
            assert not x.flags.writeable
            assert x.tobytes() == before
