"""Branch-and-count engine: completeness, classification, walk, pool, limits, determinism."""

import gc
import hashlib
import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    enum_mixed_projections,
    enum_pure_integer,
    oracle_is_unrestricted,
    oracle_materialize,
)
from diversitree import (
    EQ,
    GE,
    LE,
    BranchAndCount,
    EngineError,
    LinearConstraint,
    MipInstance,
    Rule,
    SelectorConfig,
    VariableDef,
    add_objective_cutoff,
    most_fractional,
)
from diversitree.generators import (
    general_integer_instance,
    knapsack_instance,
    mixed_small_instance,
    random_binary_instance,
)
from diversitree import engine
from diversitree.engine import Node, OpenNodeQueue, SolutionPool
from diversitree.model import FEAS_TOL, INT_TOL
from diversitree.simplex import LpResult, LpStatus, SimplexSolver, _Stalled


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
    root = Node(id=0, parent_id=None, depth=0, lo=bc.root_lo.copy(), hi=bc.root_hi.copy())
    root.lp = bc.solver.solve(root.lo, root.hi)
    return root


def pool_tuples(result):
    return {tuple(int(v) for v in row) for row in result.pool.projection_matrix()}


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
        assert not bc.is_unrestricted(bc.root_lo, bc.root_hi)
        # forcing every variable on satisfies the row at the worst corner
        assert bc.is_unrestricted(np.ones(3), bc.root_hi)

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
                assert bc.is_unrestricted(lo, hi) == all_ok

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
                idx = sorted(coeffs)
                coef = np.array([coeffs[j] for j in idx])
                least = np.where(coef > 0, coef * lo[idx], coef * hi[idx]).sum()
                most = np.where(coef > 0, coef * hi[idx], coef * lo[idx]).sum()
                edge = {GE: least + FEAS_TOL, LE: most - FEAS_TOL,
                        EQ: [least + FEAS_TOL, most - FEAS_TOL][int(rng.integers(0, 2))]}[sense]
                rhs = [edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf),
                       rng.uniform(-10, 10)][int(rng.integers(0, 4))]
                if not math.isfinite(rhs):
                    rhs = rng.uniform(-10, 10)
                rows.append(LinearConstraint(coeffs, sense, float(rhs), f"r{k}"))
            inst = MipInstance(
                name="box",
                variables=[VariableDef(j, -math.inf, math.inf) for j in range(d)],
                constraints=rows,
                objective={0: 1.0},
            )
            got = BranchAndCount(inst).is_unrestricted(lo, hi)
            assert got == oracle_is_unrestricted(inst, lo, hi, FEAS_TOL)
            outcomes.append(got)
        assert 300 < sum(outcomes) < 2700  # both verdicts are exercised

    @pytest.mark.parametrize("sense", [GE, LE, EQ])
    def test_point_checks_agree_at_the_tolerance_edge(self, sense):
        """A row holds at exactly FEAS_TOL past its rhs and fails one ulp beyond,
        in ``LinearConstraint.satisfied`` and the engine's ``_rows_hold`` alike."""
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
                assert bc._rows_hold(x) == holds

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
        added, bad, done = bc.enumerate_unrestricted(root, pool)
        assert (added, bad, done) == (8, 0, True)
        got = [tuple(int(v) for v in row) for row in pool.projection_matrix()]
        assert got == sorted(itertools.product((0, 1), repeat=3))

        capped = SolutionPool(bc.instance, capacity=3)
        added, _, done = bc.enumerate_unrestricted(root, capped)
        assert (added, done) == (3, False)
        got = [tuple(int(v) for v in row) for row in capped.projection_matrix()]
        assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]

    def test_general_integer_range_walk(self):
        bc, root = self.make_engine(
            [VariableDef(0, 2.0, 4.0, True, "u")],
            [LinearConstraint({0: 1.0}, LE, 10.0, "r0")],
            {0: 1.0},
        )
        pool = SolutionPool(bc.instance)
        added, _, done = bc.enumerate_unrestricted(root, pool)
        assert (added, done) == (3, True)
        assert sorted(int(round(x[0])) for x in pool.solutions) == [2, 3, 4]


    @staticmethod
    def reference_walk(bc, node, capacity=None):
        """Per-point walk over numpy points with ``con.satisfied`` and
        ``objective_value``, stopping before a point once ``capacity`` points
        are pooled: (pool as (x, objective) pairs, infeasible count, LP
        completions, completed)."""
        inst = bc.instance
        lo, hi = node.lo, node.hi
        free = [j for j in bc.integer_index if hi[j] - lo[j] > 0.5]
        base = node.lp.x.copy()
        for j in bc.integer_index:
            if j not in free:
                base[j] = round(lo[j])
        pool, infeasible, completions = [], 0, 0
        for combo in itertools.product(*(range(int(lo[j]), int(hi[j]) + 1) for j in free)):
            if capacity is not None and len(pool) >= capacity:
                return pool, infeasible, completions, False
            x = base.copy()
            for j, v in zip(free, combo):
                x[j] = float(v)
            if not all(con.satisfied(x) for con in inst.constraints):
                lo2, hi2 = lo.copy(), hi.copy()
                for j in bc.integer_index:
                    lo2[j] = hi2[j] = x[j]
                res = bc.solver.solve(lo2, hi2)
                if not res.is_optimal:
                    infeasible += 1
                    continue
                x = res.x
                completions += 1
            pool.append((x, inst.objective_value(x)))
        return pool, infeasible, completions, True

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
        bc = BranchAndCount(inst)
        return bc, root_node(bc)

    def test_walk_matches_the_per_point_reference_bit_for_bit(self):
        rng = np.random.default_rng(31)
        walked = completed = infeasible = 0
        for _ in range(60):
            bc, root = self.random_box(rng)
            if not root.lp.is_optimal:
                continue
            want, want_bad, completions, _ = self.reference_walk(bc, root)
            pool = SolutionPool(bc.instance, dedup=False)
            added, bad, done = bc.enumerate_unrestricted(root, pool)
            assert (added, bad, done) == (len(want), want_bad, True)
            assert pool.solutions.tobytes() == b"".join(x.tobytes() for x, _ in want)
            assert [repr(v) for v in pool.objectives] == [repr(float(v)) for _, v in want]
            walked += 1
            completed += completions
            infeasible += bad
        assert walked >= 30 and completed > 0 and infeasible > 0

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunk_boundaries_move_nothing(self, chunk, monkeypatch):
        # capacities just below, at and just above a chunk, and one inside
        # the box, so that the pool fills at every position of a chunk
        monkeypatch.setattr(engine, "WALK_CHUNK", chunk)
        rng = np.random.default_rng(47)
        walked = capped = 0
        for _ in range(40):
            bc, root = self.random_box(rng)
            if not root.lp.is_optimal:
                continue
            points = len(self.reference_walk(bc, root)[0])
            for capacity in (None, chunk - 1, chunk, chunk + 1, int(rng.integers(1, points + 2))):
                want, want_bad, _, want_done = self.reference_walk(bc, root, capacity)
                pool = SolutionPool(bc.instance, capacity=capacity, dedup=False)
                got = bc.enumerate_unrestricted(root, pool)
                assert got == (len(want), want_bad, want_done)
                assert pool.solutions.tobytes() == b"".join(x.tobytes() for x, _ in want)
                assert [repr(v) for v in pool.objectives] == [repr(float(v)) for _, v in want]
                capped += not want_done
            walked += 1
        assert walked >= 20 and capped > walked

    def test_sums_run_left_to_right(self):
        # left to right, 1e16 + 1.0 rounds back to 1e16 and the sum is 0.0;
        # a compensated sum (builtin sum over floats, Python >= 3.12) gives 1.0
        terms = {0: 1e16, 1: 1.0, 2: -1e16}
        bc = BranchAndCount(binary_inst(3, [(terms, LE, 0.5)], terms))
        node = Node(id=0, parent_id=None, depth=0, lo=bc.root_lo, hi=bc.root_hi,
                    lp=SimpleNamespace(x=np.zeros(3)))
        pool = SolutionPool(bc.instance)
        # the row fails at (0,1,0), (1,0,0) and (1,1,0); a compensated sum
        # would also reject (1,1,1)
        assert bc.enumerate_unrestricted(node, pool) == (5, 3, True)
        assert pool.solutions[-1].tolist() == [1.0, 1.0, 1.0]
        assert repr(pool.objectives[-1]) == "0.0"


class ListPool:
    """The pool as plain lists, one array per solution: the columnar pool's oracle."""

    def __init__(self, instance, capacity=None, dedup=True):
        self.capacity, self.dedup = capacity, dedup
        self.binary_index = instance.binary_index
        self.key_cols = self.binary_index or instance.integer_index
        self.solutions, self.objectives, self.projections = [], [], []
        self.ones = np.zeros(len(self.binary_index))
        self.keys = set()

    def key(self, x):
        return tuple(round(float(x[j])) for j in self.key_cols)

    def add(self, x, objective):
        if self.capacity is not None and len(self.solutions) >= self.capacity:
            return False
        x = np.array(x, dtype=float)
        key = self.key(x)
        if self.dedup and key in self.keys:
            return False
        bits = [round(float(x[j])) for j in self.binary_index]
        gaps = [abs(x[j] - b) for j, b in zip(self.binary_index, bits)]
        if gaps and max(gaps) > INT_TOL:
            j = self.binary_index[gaps.index(max(gaps))]
            raise ValueError(f"binary column {j} has non-integral value {x[j]!r}")
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
        non-integral."""
        for trial in range(300):
            nb, ni, nc = (int(v) for v in rng.integers(0, 4, size=3))
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
        assert [repr(v) for v in pool.objectives] == [repr(v) for v in ref.objectives]
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
                              "no_dedup", "int_keys"), 0)
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
                dtype = np.int8 if nb else np.int64
                assert {tuple(np.frombuffer(k, dtype).tolist()) for k in pool._keys} == ref.keys
            seen["no_dedup"] += not dedup
            seen["int_keys"] += not nb and len(pool) > 1
        assert all(seen.values()), seen

    def test_non_integral_binary_raises_unless_its_key_is_taken(self):
        pool = SolutionPool(self.instance(2, 0, 1))
        with pytest.raises(ValueError, match=r"binary column 1 has non-integral value .*0\.4"):
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
        with pytest.raises(ValueError, match=r"binary column 1 has non-integral value .*1\.4"):
            pool.add_rows(rows, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert pool.solutions.tolist() == [rows[0], rows[1], rows[4]]
        assert pool.objectives == [0.0, 1.0, 4.0]
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
        assert pool.objectives == [1.0, 3.0]

    def test_empty_shapes_and_read_only_views(self):
        pool = SolutionPool(self.instance(5, 0, 1))
        assert pool.solutions.shape == (0, 6)
        assert pool.projections.shape == pool.projection_matrix().shape == (0, 5)
        for k in range(40):  # 32 distinct keys: past the first doubling
            pool.add([k >> b & 1 for b in range(5)] + [0.5], float(k))
        assert len(pool) == 32
        for view in (pool.solutions, pool.projections, pool.projection_matrix()):
            assert len(view) == 32
            with pytest.raises(ValueError):
                view[0, 0] = 1

    def test_memory_per_pooled_solution(self):
        # 14 free binaries and a fixed shift column, no rows: the root is
        # unrestricted and its walk pools all 2**14 points
        variables = [VariableDef(j, 0.0, 1.0, True, f"b{j}") for j in range(14)]
        variables.append(VariableDef(14, 1.0, 1.0, False, "shift"))
        objective = {j: 1.0 for j in range(14)}
        objective[14] = -320.0
        bc = BranchAndCount(MipInstance(name="box14", variables=variables, constraints=[],
                                        objective=objective))
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

    def test_node_limit_marks_truncated(self):
        cut = add_objective_cutoff(knapsack_instance(), -10.0, 0.3)
        res = BranchAndCount(cut).run(node_limit=1)
        assert res.truncated and not res.exhausted

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
        assert res.pool.objectives == full.pool.objectives[:n]

    @pytest.mark.parametrize("chunk, k", [(1024, 2500), (7, 20), (7, 5)])
    def test_the_deadline_keeps_every_walked_point_and_no_more(self, monkeypatch, chunk, k):
        # a clock that reads the number of points walked trips the deadline
        # after exactly k points, k not a multiple of the chunk
        monkeypatch.setattr(engine, "WALK_CHUNK", chunk)
        inst = binary_inst(12, [], {j: 1.0 for j in range(12)})
        full = BranchAndCount(inst).run()
        bc = BranchAndCount(inst)
        walked = 0
        complete = bc._complete

        def counting_complete(x, lo, hi):
            nonlocal walked
            walked += 1
            return complete(x, lo, hi)

        monkeypatch.setattr(bc, "_complete", counting_complete)
        monkeypatch.setattr(engine.time, "perf_counter", lambda: float(walked))
        res = bc.run(time_limit=k - 0.5)
        assert walked == k
        assert res.truncated and not res.exhausted
        assert len(res.pool) == k
        assert res.pool.solutions.tobytes() == full.pool.solutions[:k].tobytes()
        assert res.pool.objectives == full.pool.objectives[:k]


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

        def dual(self, snapshot, lo, hi):
            if is_box(lo, hi):
                raise _Stalled()
            return real_dual(self, snapshot, lo, hi)

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
        inst = random_binary_instance(4)
        z, _ = enum_pure_integer(inst, 0.03)
        cut = add_objective_cutoff(inst, z, 0.03)
        path = tmp_path / "trace.jsonl"
        res = BranchAndCount(cut).run(trace_path=str(path))
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


def open_node(nid, bound, depth=0, path=()):
    """An open node with an optimal LP at ``bound``; the queue reads no box."""
    return Node(id=nid, parent_id=None, depth=depth, lo=None, hi=None, path=path,
                lp=optimal_lp(bound))


class TestOpenNodeQueue:
    def make(self, bounds):
        q = OpenNodeQueue()
        for k, b in enumerate(bounds):
            q.push(open_node(k, b))
        return q

    def test_extrema_track_pops(self):
        q = self.make([3.0, 1.0, 2.0])
        assert (q.min_bound(), q.max_bound()) == (1.0, 3.0)
        q.pop(1)
        assert (q.min_bound(), q.max_bound()) == (2.0, 3.0)
        q.pop(0)
        assert (q.min_bound(), q.max_bound()) == (2.0, 2.0)
        q.pop(2)
        assert len(q) == 0
        assert math.isnan(q.min_bound()) and math.isnan(q.max_bound())

    def test_extrema_match_recomputation_on_random_traffic(self):
        rng = np.random.default_rng(11)
        q = OpenNodeQueue()
        nid = 0
        for _ in range(200):
            if len(q.nodes) and rng.random() < 0.4:
                q.pop(rng.choice(sorted(q.nodes)))
            else:
                q.push(open_node(nid, float(rng.integers(-9, 9))))
                nid += 1
            if len(q.nodes):
                bounds = [n.lp_bound for n in q.nodes.values()]
                assert q.min_bound() == min(bounds)
                assert q.max_bound() == max(bounds)
                assert q.min_id() == min((n.lp_bound, n.id) for n in q.nodes.values())[1]

    def test_rows_mirror_the_open_nodes_on_random_traffic(self):
        # six binaries; rows grow past 16, paths past 1
        rng = np.random.default_rng(5)
        q = OpenNodeQueue(6)
        for nid in range(300):
            if len(q) and rng.random() < 0.45:
                q.pop(int(rng.choice(sorted(q.nodes))))
            else:
                cols = rng.choice(6, size=int(rng.integers(0, 7)), replace=False).tolist()
                path = tuple(2 * j + int(rng.integers(0, 2)) for j in cols)
                node = open_node(nid, float(rng.integers(-4, 4)),
                                 depth=int(rng.integers(0, 9)), path=path)
                node.estimate = float(rng.uniform(-5, 5))
                q.push(node)
            if rng.random() < 0.5:
                continue  # leave the latest pushes unsynced; pops must cope
            n = q.sync()
            assert sorted(q.ids[:n].tolist()) == sorted(q.nodes)
            for row in range(n):
                node = q.nodes[int(q.ids[row])]
                path = list(node.path)
                assert (q.bound[row], q.depth[row], q.estimate[row]) == (
                    node.lp_bound, node.depth, node.estimate)
                assert q.path_len[row] == len(path)
                assert q.path[row].tolist() == path + [q.pad] * (q.path.shape[1] - len(path))
        assert len(q.ids) > 16

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

        push = OpenNodeQueue.push

        def push_and_record(q, node):
            made[node.id] = getattr(node, "made", [])
            overrides[node.id] = getattr(node, "overrides", {})
            push(q, node)

        monkeypatch.setattr(BranchAndCount, "_child", child)
        monkeypatch.setattr(OpenNodeQueue, "push", push_and_record)
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
