"""Bounded-variable simplex vs an independent LP oracle."""

import math

import numpy as np
import pytest

import test_golden as golden
from diversitree import (
    GE,
    INF,
    LE,
    LinearConstraint,
    LpStatus,
    MipInstance,
    SimplexSolver,
    VariableDef,
    knapsack_instance,
    parse_mps,
    simplex,
)
from diversitree.simplex import BasisSnapshot

from conftest import make_lp, scipy_lp


def lp_instance(objective, rows, bounds, integers=()):
    variables = [
        VariableDef(i, float(lo), float(hi), i in integers, f"v{i}")
        for i, (lo, hi) in enumerate(bounds)
    ]
    cons = [
        LinearConstraint({j: float(c) for j, c in coeffs.items()}, sense, float(rhs), f"r{k}")
        for k, (coeffs, sense, rhs) in enumerate(rows)
    ]
    return MipInstance("lp", variables, cons, {i: float(c) for i, c in objective.items()})


class TestBasics:
    def test_negated_knapsack_relaxation(self):
        inst = lp_instance({0: -3.0, 1: -2.0}, [({0: 1.0, 1: 1.0}, LE, 1.0)],
                           [(0, 1), (0, 1)])
        res = SimplexSolver(inst).solve()
        assert res.status == LpStatus.OPTIMAL
        assert res.objective == pytest.approx(-3.0)
        assert res.x == pytest.approx([1.0, 0.0])

    def test_contradictory_bounds_infeasible(self):
        inst = lp_instance({0: 1.0}, [({0: 1.0}, LE, 0.0)], [(1, 1)])
        res = SimplexSolver(inst).solve()
        assert res.status == LpStatus.INFEASIBLE

    def test_unbounded(self):
        inst = lp_instance({0: -1.0}, [], [(0, INF)])
        res = SimplexSolver(inst).solve()
        assert res.status == LpStatus.UNBOUNDED

    def test_free_variable(self):
        inst = lp_instance({0: 1.0, 1: 1.0},
                           [({0: 1.0, 1: 1.0}, GE, 2.0)],
                           [(-INF, INF), (0, 5)])
        res = SimplexSolver(inst).solve()
        status, val = scipy_lp(inst)
        assert res.status == LpStatus.OPTIMAL and status == "optimal"
        assert res.objective == pytest.approx(val, abs=1e-6)

    def test_equality_row(self):
        inst = lp_instance({0: 1.0, 1: 2.0},
                           [({0: 1.0, 1: 1.0}, "=", 3.0)],
                           [(0, 10), (0, 10)])
        res = SimplexSolver(inst).solve()
        assert res.status == LpStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0)
        assert res.x == pytest.approx([3.0, 0.0])

    def test_fixed_variable(self):
        inst = lp_instance({0: 1.0, 1: 1.0},
                           [({0: 1.0, 1: 1.0}, GE, 1.0)],
                           [(0.5, 0.5), (0, 1)])
        res = SimplexSolver(inst).solve()
        assert res.status == LpStatus.OPTIMAL
        assert res.x[0] == pytest.approx(0.5)
        assert res.objective == pytest.approx(1.0)

    def test_fractional_tracking(self):
        res = SimplexSolver(knapsack_instance()).solve()
        assert res.status == LpStatus.OPTIMAL
        assert res.objective == pytest.approx(-10.2)
        assert res.fractional == [0]

    def test_bound_overlay(self):
        inst = lp_instance({0: -1.0}, [], [(0, 10)])
        solver = SimplexSolver(inst)
        assert solver.solve().objective == pytest.approx(-10.0)
        assert solver.solve(hi=np.array([4.0])).objective == pytest.approx(-4.0)
        res = solver.solve(lo=np.array([6.0]), hi=np.array([5.0]))
        assert res.status == LpStatus.INFEASIBLE

    def test_beale_cycling_terminates(self):
        # classic degenerate example that cycles under naive most-negative pivoting
        inst = lp_instance(
            {0: -0.75, 1: 150.0, 2: -0.02, 3: 6.0},
            [
                ({0: 0.25, 1: -60.0, 2: -0.04, 3: 9.0}, LE, 0.0),
                ({0: 0.5, 1: -90.0, 2: -0.02, 3: 3.0}, LE, 0.0),
                ({2: 1.0}, LE, 1.0),
            ],
            [(0, INF)] * 4,
        )
        res = SimplexSolver(inst).solve()
        assert res.status == LpStatus.OPTIMAL
        assert res.objective == pytest.approx(-0.05, abs=1e-9)


class TestAgainstOracle:
    def test_random_lps_match_scipy(self):
        optimal = 0
        for seed in range(120):
            inst = make_lp(seed, n=3 + seed % 8, m=2 + seed % 9)
            res = SimplexSolver(inst).solve()
            status, val = scipy_lp(inst)
            assert res.status != LpStatus.STALLED, f"seed {seed} stalled"
            if status == "optimal":
                optimal += 1
                assert res.status == LpStatus.OPTIMAL, f"seed {seed}: {res.status} vs optimal"
                scale = max(1.0, abs(val))
                assert abs(res.objective - val) <= 1e-6 * scale, (
                    f"seed {seed}: {res.objective} vs {val}")
            else:
                assert res.status.value == status, f"seed {seed}: {res.status} vs {status}"
        assert optimal >= 60  # the generator anchors most instances as feasible

    def test_duality_on_every_optimal_solve(self):
        for seed in range(60):
            inst = make_lp(seed, n=4 + seed % 5, m=3 + seed % 6)
            res = SimplexSolver(inst).solve()
            if res.status == LpStatus.OPTIMAL:
                scale = max(1.0, abs(res.objective))
                assert abs(res.dual_objective - res.objective) <= 1e-6 * scale

    def test_primal_satisfies_rows(self):
        for seed in range(40):
            inst = make_lp(seed, n=5, m=5)
            res = SimplexSolver(inst).solve()
            if res.status == LpStatus.OPTIMAL:
                for con in inst.constraints:
                    assert con.satisfied(res.x), f"seed {seed} row {con.name}"
                lo, hi = inst.bounds()
                assert np.all(res.x >= np.asarray(lo) - 1e-9)
                assert np.all(res.x <= np.asarray(hi) + 1e-9)


class TestWarmStart:
    def test_nonbasic_fix_keeps_objective(self):
        inst = lp_instance({0: -3.0, 1: -2.0}, [({0: 1.0, 1: 1.0}, LE, 1.0)],
                           [(0, 1), (0, 1)])
        solver = SimplexSolver(inst)
        parent = solver.solve()
        assert parent.x == pytest.approx([1.0, 0.0])
        # x1 is nonbasic at 0; fixing it there changes nothing
        child = solver.resolve(parent.basis, lo=np.array([0.0, 0.0]), hi=np.array([1.0, 0.0]))
        assert child.status == LpStatus.OPTIMAL
        assert child.objective == pytest.approx(parent.objective)

    def test_infeasible_child_matches_cold(self):
        inst = lp_instance({0: 1.0}, [({0: 1.0}, GE, 2.0)], [(0, 5)])
        solver = SimplexSolver(inst)
        parent = solver.solve()
        assert parent.status == LpStatus.OPTIMAL
        lo = np.array([0.0])
        hi = np.array([1.0])
        warm = solver.resolve(parent.basis, lo, hi)
        cold = solver.solve(lo, hi)
        assert warm.status == cold.status == LpStatus.INFEASIBLE

    def test_random_pairs_warm_equals_cold(self):
        pairs = 0
        rng = np.random.default_rng(7)
        for seed in range(120):
            inst = make_lp(seed, n=4 + seed % 6, m=3 + seed % 5)
            solver = SimplexSolver(inst)
            parent = solver.solve()
            if parent.status != LpStatus.OPTIMAL or parent.basis is None:
                continue
            lo0, hi0 = inst.bounds()
            lo = np.asarray(lo0, dtype=float)
            hi = np.asarray(hi0, dtype=float)
            j = int(rng.integers(0, inst.num_vars))
            if rng.integers(0, 2):
                hi = hi.copy()
                hi[j] = math.floor(parent.x[j])
                if hi[j] < lo[j]:
                    continue
            else:
                lo = lo.copy()
                lo[j] = math.ceil(parent.x[j] + 1e-9)
                if lo[j] > hi[j]:
                    continue
            warm = solver.resolve(parent.basis, lo, hi)
            cold = solver.solve(lo, hi)
            assert warm.status == cold.status, f"seed {seed}"
            if warm.status == LpStatus.OPTIMAL:
                scale = max(1.0, abs(cold.objective))
                assert abs(warm.objective - cold.objective) <= 1e-6 * scale, f"seed {seed}"
                # child bound can never undercut the parent (minimization)
                assert warm.objective >= parent.objective - 1e-6 * scale
            pairs += 1
        assert pairs >= 50, f"only {pairs} usable warm-start pairs"


def cached_arrays(solver):
    """Every array a solver holds in its warm-solve memo."""
    for state in solver._bases.values():
        for value in vars(state).values():
            if isinstance(value, np.ndarray):
                yield value
        for masks in state.rows.values():
            yield from masks
        yield from state.solved.values()
    yield from solver._parked.values()


class TestBasisMemo:
    """Warm solves read each basis's pricing, pivot rows and basic solutions
    from a per-solver memo. One reused solver, a fresh solver per call and a
    solver whose memo is cleared over and over must agree bit for bit."""

    RAND0 = golden.INSTANCES / "rand0.mps"

    @pytest.fixture(params=["reused", "fresh", "tiny"])
    def variant(self, request, monkeypatch):
        """Swap the solver the golden sequences build; return the variant's
        name, the solvers it made and one entry per memo clear."""
        made, clears = [], []
        if request.param == "fresh":
            class Solver:
                def __init__(self, instance):
                    self.instance = instance

                def solve(self, *args):
                    return SimplexSolver(self.instance).solve(*args)

                def resolve(self, *args):
                    return SimplexSolver(self.instance).resolve(*args)
        else:
            class Solver(SimplexSolver):
                def __init__(self, instance):
                    super().__init__(instance)
                    made.append(self)

            if request.param == "tiny":
                monkeypatch.setattr(simplex, "MEMO_BYTES", 2048)
                keep = SimplexSolver._keep

                def counted(self, table, key, value, nbytes):
                    if self._memo_bytes + nbytes > simplex.MEMO_BYTES:
                        clears.append(nbytes)
                    keep(self, table, key, value, nbytes)

                monkeypatch.setattr(SimplexSolver, "_keep", counted)
        monkeypatch.setattr(golden, "SimplexSolver", Solver)
        return request.param, made, clears

    @pytest.mark.parametrize("name", ["rand0.mps", "rand2.mps"])
    def test_warm_sequence(self, variant, name):
        kind, made, clears = variant
        path = str(golden.INSTANCES / name)
        got = golden.warm_sequence(parse_mps(path), 300)
        with pytest.MonkeyPatch.context() as mp:  # the plain solver, for reference
            mp.setattr(golden, "SimplexSolver", SimplexSolver)
            mp.setattr(simplex, "MEMO_BYTES", 1 << 30)
            want = golden.warm_sequence(parse_mps(path), 300)
        assert len(got) > 150
        assert got == want
        if name == "rand0.mps":
            assert got[: len(golden.GOLDEN_WARM_RAND0)] == golden.GOLDEN_WARM_RAND0
        if kind == "reused":
            (solver,) = made
            assert 0 < len(solver._bases) and solver._memo_bytes <= simplex.MEMO_BYTES
        if kind == "tiny":
            assert len(clears) > 1  # cleared mid-sequence, more than once

    def test_random_lp_digest(self, variant):
        kind, made, _ = variant
        assert golden.random_lp_digest() == golden.GOLDEN_RANDOM_LP_DIGEST
        if kind != "fresh":
            assert any(solver._bases for solver in made)

    def test_cached_arrays_are_read_only(self):
        solver = SimplexSolver(parse_mps(str(self.RAND0)))
        root = solver.solve()
        lo, hi = (np.asarray(b, dtype=float) for b in solver.instance.bounds())
        for j in solver.instance.integer_index[:6]:
            down, up = hi.copy(), lo.copy()
            down[j], up[j] = 0.0, 1.0
            solver.resolve(root.basis, lo, down)
            solver.resolve(root.basis, up, hi)
        arrays = list(cached_arrays(solver))
        assert any(state.rows for state in solver._bases.values())
        assert len(arrays) > 10
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("case", ["singular", "dual_infeasible"])
    def test_bad_snapshot_falls_back_to_cold(self, case):
        if case == "singular":
            # columns 0 and 1 are proportional, so the basis (0, 1) is singular
            inst = lp_instance({0: -1.0, 1: -1.0},
                               [({0: 1.0, 1: 2.0}, LE, 4.0), ({0: 2.0, 1: 4.0}, LE, 9.0)],
                               [(0, 3), (0, 3)])
            snapshot = BasisSnapshot(basis=(0, 1), at_upper=frozenset())
        else:
            inst = knapsack_instance()
            # the all-slack basis prices every negative cost as improving
            d = inst.num_vars
            snapshot = BasisSnapshot(basis=tuple(range(d, d + len(inst.constraints))),
                                     at_upper=frozenset())
        solver = SimplexSolver(inst)
        lo, hi = (np.asarray(b, dtype=float) for b in inst.bounds())
        cold = golden.lp_fingerprint(SimplexSolver(inst).solve(lo, hi))
        first = golden.lp_fingerprint(solver.resolve(snapshot, lo, hi))
        again = golden.lp_fingerprint(solver.resolve(snapshot, lo, hi))
        assert first == again == cold
        key = np.asarray(snapshot.basis, dtype=np.intp).tobytes()
        assert (key in solver._bases) == (case == "dual_infeasible")
