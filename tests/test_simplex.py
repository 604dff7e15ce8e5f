"""Bounded-variable simplex vs an independent LP oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import test_golden as golden
from diversitree import (
    EQ,
    GE,
    INF,
    LE,
    LinearConstraint,
    MipInstance,
    VariableDef,
    parse_mps,
    simplex,
)
from diversitree.generators import knapsack_instance
from diversitree.model import FEAS_TOL
from diversitree.simplex import BasisSnapshot, LpStatus, SimplexSolver

from conftest import make_lp, oracle_dual_sum, oracle_refutes, oracle_wrong_sign, scipy_lp
from test_engine import small_mips


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

    @pytest.mark.parametrize("case", ["singular", "dual_infeasible", "mask_shape",
                                      "column_past_n", "negative_column"])
    def test_bad_snapshot_falls_back_to_cold(self, case):
        if case == "singular":
            # columns 0 and 1 are proportional, so the basis (0, 1) is singular
            inst = lp_instance({0: -1.0, 1: -1.0},
                               [({0: 1.0, 1: 2.0}, LE, 4.0), ({0: 2.0, 1: 4.0}, LE, 9.0)],
                               [(0, 3), (0, 3)])
            snapshot = BasisSnapshot(basis=np.array([0, 1]), at_upper=np.zeros(4, dtype=bool))
        elif case == "dual_infeasible":
            inst = knapsack_instance()
            # the all-slack basis prices every negative cost as improving
            d, m = inst.num_vars, len(inst.constraints)
            snapshot = BasisSnapshot(basis=np.arange(d, d + m),
                                     at_upper=np.zeros(d + m, dtype=bool))
        elif case == "mask_shape":
            # the root's own basis, with a mask one column short
            inst = knapsack_instance()
            root = SimplexSolver(inst).solve().basis
            snapshot = BasisSnapshot(basis=root.basis, at_upper=root.at_upper[:-1])
        else:
            # a basis naming a column outside [0, n): 7 is past the 4 columns,
            # and -1 would wrap around to the slack
            inst = knapsack_instance()
            column = 7 if case == "column_past_n" else -1
            snapshot = BasisSnapshot(basis=np.full(1, column), at_upper=np.zeros(4, dtype=bool))
        solver = SimplexSolver(inst)
        lo, hi = (np.asarray(b, dtype=float) for b in inst.bounds())
        cold = golden.lp_fingerprint(SimplexSolver(inst).solve(lo, hi))
        first = golden.lp_fingerprint(solver.resolve(snapshot, lo, hi))
        again = golden.lp_fingerprint(solver.resolve(snapshot, lo, hi))
        assert first == again == cold
        key = np.asarray(snapshot.basis, dtype=np.intp).tobytes()
        assert (key in solver._bases) == (case == "dual_infeasible")

    def test_a_priced_basis_with_a_bad_mask_falls_back_to_cold(self):
        # the snapshot shares the memoized basis array, so it skips the
        # basis guard, but its mask is still checked
        inst = parse_mps(str(self.RAND0))
        solver = SimplexSolver(inst)
        lo, hi = (np.asarray(b, dtype=float) for b in inst.bounds())
        warm = solver.resolve(solver.solve(lo, hi).basis, lo, hi)
        assert solver._priced(warm.basis) is not None
        for mask in (warm.basis.at_upper[:-1], np.zeros((1, solver.n), dtype=bool)):
            snapshot = BasisSnapshot(basis=warm.basis.basis, at_upper=mask)
            cold = golden.lp_fingerprint(SimplexSolver(inst).solve(lo, hi))
            assert golden.lp_fingerprint(solver.resolve(snapshot, lo, hi)) == cold

    def test_children_leave_the_parent_snapshot_alone(self):
        # many warm children pivot away from one parent snapshot; the
        # parent's arrays stay read-only and keep their values
        solver = SimplexSolver(parse_mps(str(self.RAND0)))
        root = solver.solve()
        snap = root.basis
        basis, at_upper = snap.basis.copy(), snap.at_upper.copy()
        assert snap.basis.dtype == np.intp and snap.at_upper.dtype == bool
        assert snap.at_upper.shape == (solver.n,)
        lo, hi = (np.asarray(b, dtype=float) for b in solver.instance.bounds())
        before = golden.lp_fingerprint(solver.resolve(snap, lo, hi))
        iterations = 0
        for j in solver.instance.integer_index:
            for v in (0.0, 1.0):
                clo, chi = lo.copy(), hi.copy()
                clo[j] = chi[j] = v
                iterations += solver.resolve(snap, clo, chi).iterations
        assert iterations > 2 * len(solver.instance.integer_index)  # the children pivoted
        for a in (snap.basis, snap.at_upper):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert np.array_equal(snap.basis, basis)
        assert np.array_equal(snap.at_upper, at_upper)
        assert golden.lp_fingerprint(solver.resolve(snap, lo, hi)) == before


def family_results(seeds=range(150)):
    """(solver, result, structural lo, structural hi) for the cold root and
    two warm children of the random LPs ``golden.random_lp_digest`` solves,
    each result unread."""
    for seed in seeds:
        inst = make_lp(seed, n=3 + seed % 8, m=2 + seed % 9)
        solver = SimplexSolver(inst)
        lo0, hi0 = (np.asarray(b, dtype=float) for b in inst.bounds())
        parent = solver.solve(lo0, hi0)
        yield solver, parent, lo0, hi0
        if not parent.is_optimal:
            continue
        j = seed % inst.num_vars
        hi, lo = hi0.copy(), lo0.copy()
        hi[j] = max(lo0[j], math.floor(parent.x[j] - 0.5))
        lo[j] = min(hi0[j], math.ceil(parent.x[j] + 0.5))
        for clo, chi in ((lo0, hi), (lo, hi0)):
            yield solver, solver.resolve(parent.basis, clo, chi), clo, chi


class TestFractional:
    def test_python_floats_give_numpys_verdict(self):
        """``_fractional`` is ``|x - rint(x)| > INT_TOL`` over the integer
        columns, on halves, values at the tolerance, huge values and
        non-finite ones."""
        solver = SimplexSolver(make_lp(3, n=8, integers=True))
        ints = solver.integer_index
        levels = [0.5, 1.5, 2.5, -0.5, -0.0, 3.0, 1e-7, 1 - 1e-6, 1 - 2e-6, 2.000001,
                  2.0000010000000003, 4.5e15 + 0.5, 1e16 + 2, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(8)
        for _ in range(3000):
            xs = rng.choice(levels, size=solver.d) + rng.choice([0.0, 1e-7, -1e-7], size=solver.d)
            with np.errstate(invalid="ignore"):
                want = ints[np.abs(xs[ints] - np.rint(xs[ints])) > simplex.INT_TOL].tolist()
            assert solver._fractional(xs) == want


class TestDualObjectiveOnRead:
    """An optimal result sums its dual objective the first time it is read,
    from references to the arrays of its solve, with the bits of the eager
    left-to-right loop."""

    def test_read_equals_the_eager_loop(self):
        read = 0
        for _, res, _, _ in family_results():
            if not res.is_optimal:
                assert res.dual_objective is None
                continue
            parts = res._dual
            assert isinstance(parts, tuple)  # not summed yet
            want = oracle_dual_sum(*parts)
            got = res.dual_objective
            assert repr(got) == repr(want)
            assert res._dual is got and res.dual_objective is got  # summed once
            read += 1
        assert read > 200

    def test_cumsum_equals_the_loop_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 30))
            scale = 10.0 ** rng.integers(-3, 8)
            red = rng.normal(size=n) * scale
            red[rng.random(n) < 0.2] = 0.0
            lo = rng.normal(size=n) * scale
            hi = lo + rng.random(n) * scale
            lo[rng.random(n) < 0.2] = -np.inf
            hi[rng.random(n) < 0.2] = np.inf
            parts = (rng.normal(size=m), rng.normal(size=m) * scale, red,
                     rng.random(n) < 0.7, rng.normal(size=n) * scale, lo, hi)
            assert repr(simplex._dual_sum(*parts)) == repr(oracle_dual_sum(*parts))


class TestWarmStartVerdict:
    """A warm solve's snapshot is flagged ``dual_feasible`` exactly when no
    column fails the warm start's dual-feasibility test in the box it was
    solved in; a cold one is not flagged."""

    def test_every_warm_result_is_flagged_as_the_full_test_says(self):
        warm = flagged = 0
        for solver, res, lo, hi in family_results():
            snap = res.basis
            if snap is None:
                continue
            if solver._priced(snap) is None:  # a cold solve or fallback made it
                assert snap.dual_feasible is False
                continue
            assert snap.dual_feasible == (oracle_wrong_sign(solver, snap, lo, hi) == [])
            warm += 1
            flagged += snap.dual_feasible
        assert warm > 100 and flagged > 100

    def test_a_cold_solve_is_not_flagged(self):
        solver = SimplexSolver(parse_mps(str(golden.INSTANCES / "rand0.mps")))
        assert solver.solve().basis.dual_feasible is False

    def test_a_warm_solve_without_a_pivot_is_flagged_untested(self, monkeypatch):
        """A warm solve that ends in its first iteration ends at its start,
        whose test passed, so ``_result`` flags it without calling
        ``_wrong_sign``; one that pivots runs the test once."""
        calls = []
        wrong_sign, result = simplex._wrong_sign, SimplexSolver._result

        def counted(*args):
            calls.append(1)
            return wrong_sign(*args)

        def recorded(solver, *args, **kwargs):
            calls.clear()
            got = result(solver, *args, **kwargs)
            if got.basis is not None and solver._priced(got.basis) is not None:
                assert len(calls) == (got.iterations > 1)
                seen.add(got.iterations > 1)
            return got

        seen = set()
        monkeypatch.setattr(simplex, "_wrong_sign", counted)
        monkeypatch.setattr(SimplexSolver, "_result", recorded)
        zero_pivot = 0
        for solver, res, lo, hi in family_results():
            if res.basis is not None and solver._priced(res.basis) is not None:
                assert res.basis.dual_feasible == (
                    oracle_wrong_sign(solver, res.basis, lo, hi) == [])
                zero_pivot += res.iterations == 1
        assert seen == {False, True} and zero_pivot > 20


def split_children(parent, lo, hi, j):
    """Boxes that change column ``j`` of [lo, hi] only: below and above the
    parent's value, fixed at it, and empty."""
    v = float(parent.x[j])
    for lo_j, hi_j in ((lo[j], math.floor(v)), (math.ceil(v), hi[j]), (v, v), (v + 1.0, v)):
        clo, chi = lo.copy(), hi.copy()
        clo[j], chi[j] = lo_j, hi_j
        yield clo, chi


class TestSplitColumnStart:
    """``resolve(snapshot, lo, hi, j)`` is ``resolve(snapshot, lo, hi)`` for
    a box that changes column ``j`` of the snapshot's own box: it tests only
    column ``j`` for an empty box and, for a flagged snapshot whose basis is
    memoized, tests only column ``j`` in place of the start's full-width
    test."""

    def test_it_returns_what_the_call_without_the_column_returns(self, monkeypatch):
        reads = []
        start_fails = simplex._start_fails

        def recorded(state, at_upper, finite_lo, movable, j=None):
            got = start_fails(state, at_upper, finite_lo, movable, j)
            if j is not None:
                reads.append((got, start_fails(state, at_upper, finite_lo, movable)))
            return got

        monkeypatch.setattr(simplex, "_start_fails", recorded)
        calls = 0
        for solver, res, lo, hi in family_results(range(60)):
            if not res.is_optimal:
                continue
            ref = SimplexSolver(solver.instance)
            for j in range(solver.d):
                for clo, chi in split_children(res, lo, hi, j):
                    got = solver.resolve(res.basis, clo, chi, j)
                    assert golden.lp_fingerprint(got) == golden.lp_fingerprint(
                        ref.resolve(res.basis, clo, chi))
                    calls += 1
        assert calls > 1000
        assert len(reads) > 500 and all(got == full for got, full in reads)

    def test_a_flag_and_column_j_are_the_full_test(self):
        """With the columns parked as ``at_upper`` says, some masks drawn to
        make column j or another column fail: where the parent's box passes
        the full-width test, column j's own test is the full-width test of
        the child's box, whichever way it goes."""
        rng = np.random.default_rng(4)
        seen = set()
        for solver, res, lo, hi in family_results(range(60)):
            snap = res.basis
            if snap is None:
                continue
            state = simplex._Basis(solver.A, solver.c, snap.basis)
            for j in range(solver.d):
                at_upper = snap.at_upper.copy()
                at_upper[j] ^= rng.random() < 0.5
                if rng.random() < 0.1:
                    k = int(rng.integers(solver.n))
                    at_upper[k] = not at_upper[k]
                masked = replace(snap, at_upper=at_upper)
                parent_passes = oracle_wrong_sign(solver, masked, lo, hi) == []
                for clo, chi in split_children(res, lo, hi, j):
                    full_lo, full_hi = solver._bounds(clo, chi)
                    args = (state, at_upper, np.isfinite(full_lo), full_lo != full_hi)
                    full = simplex._start_fails(*args)
                    assert full == bool(oracle_wrong_sign(solver, masked, clo, chi))
                    if parent_passes:
                        assert simplex._start_fails(*args, j) == full
                        seen.add(full)
        assert seen == {False, True}

    def warm_parent(self):
        """A solver, a flagged warm result of it with its box, and a
        nonbasic movable column of that box."""
        for solver, res, lo, hi in family_results(range(1, 150)):
            snap = res.basis
            if snap is None or not snap.dual_feasible or solver._priced(snap) is None:
                continue
            full_lo, full_hi = solver._bounds(lo, hi)
            state = solver._priced(snap)
            cols = [k for k in range(solver.d) if state.nonbasic[k] and full_lo[k] < full_hi[k]]
            if cols:
                return solver, res, lo, hi, cols
        raise AssertionError("no flagged warm parent with a movable nonbasic column")

    def test_an_unflagged_snapshot_takes_the_full_width_start(self, monkeypatch):
        solver, res, lo, hi, (j, *_) = self.warm_parent()
        bare = replace(res.basis, dual_feasible=False)
        assert solver._priced(bare) is not None
        tested = []
        start_fails = simplex._start_fails

        def recorded(state, at_upper, finite_lo, movable, j=None):
            tested.append(j)
            return start_fails(state, at_upper, finite_lo, movable, j)

        ref = SimplexSolver(solver.instance)
        children = [(clo, chi, golden.lp_fingerprint(ref.resolve(res.basis, clo, chi)))
                    for clo, chi in split_children(res, lo, hi, j)]
        monkeypatch.setattr(simplex, "_start_fails", recorded)
        for clo, chi, want in children:
            assert golden.lp_fingerprint(solver.resolve(bare, clo, chi, j)) == want
            solver.resolve(res.basis, clo, chi, j)
        # the empty child is refused before the start; the others start twice
        assert tested == [None, j] * 3

    @settings(max_examples=80)
    @given(inst=small_mips(kinds=("mixed",)),
           y_box=st.sampled_from([(-INF, INF), (-INF, 3.0), (0.0, INF)]),
           y_cost=st.sampled_from([0.0, -2.0]))
    def test_a_trusted_start_keeps_free_and_upper_only_columns(self, inst, y_box, y_cost):
        """A trusted start takes the solver's masks of finite and free
        columns. On a continuous column y that is free, has only an upper
        bound, or only a lower one, and on the slacks of ``>=`` rows, which
        have only an upper bound, ``resolve(..., j)`` gives every field of
        the general path's ``resolve(...)``."""
        *xs, y = inst.variables
        objective = {k: c for k, c in inst.objective.items() if k != y.index}
        if y_cost and math.isfinite(y_box[1]):  # min -2y with y <= 3 stays bounded
            objective[y.index] = y_cost
        inst = MipInstance(inst.name, [*xs, replace(y, lower=y_box[0], upper=y_box[1])],
                           inst.constraints, objective)
        solver, ref = SimplexSolver(inst), SimplexSolver(inst)
        lo, hi = (np.asarray(b, dtype=float) for b in inst.bounds())
        root = solver.solve(lo, hi)
        assume(root.basis is not None)
        warm = solver.resolve(root.basis, lo, hi)  # a warm solve of the same box
        assume(warm.basis is not None and warm.basis.dual_feasible
               and solver._priced(warm.basis) is not None)

        def fields(res):
            snap = res.basis
            return (golden.lp_fingerprint(res), None if res.x is None else res.x.tobytes(),
                    None if snap is None else snap.dual_feasible)

        for j in inst.integer_index:
            for clo, chi in split_children(warm, lo, hi, j):
                assert fields(solver.resolve(warm.basis, clo, chi, j)) == fields(
                    ref.resolve(warm.basis, clo, chi))


def refutes(solver, lo, hi, root=None):
    """The verdict on the box [lo, hi] of the test ``solver._refuter`` builds
    for the root box ``root`` (default: the box itself)."""
    test = solver._refuter(*(root or (lo, hi)))
    return test is not None and test(np.concatenate((lo, hi)))


class TestRefuter:
    """``_refuter`` proves a box infeasible when one row's activity misses its
    rhs by more than FEAS_TOL * max(1 + sum |a|, max(1, max |b|)); ``solve``
    and ``resolve`` find every box it refutes infeasible."""

    # the row 2 x0 - 3 x1 over x0 in [1, 2], x1 in [0, 1]: activity in [-1, 4]
    BOX = (np.array([1.0, 0.0]), np.array([2.0, 1.0]))
    WIDE = (np.array([-5.0, -5.0]), np.array([5.0, 5.0]))  # where every tested row holds

    @staticmethod
    def instance(sense, rhs, scale_rhs=None, integers=()):
        """The tested row, and when ``scale_rhs`` is given a row x1 <= scale_rhs
        that always holds but raises max |b|."""
        rows = [({0: 2.0, 1: -3.0}, sense, rhs)]
        if scale_rhs is not None:
            rows.append(({1: 1.0}, LE, scale_rhs))
        return lp_instance({0: 1.0, 1: 1.0}, rows, [(-5, 5), (-5, 5)], integers)

    @pytest.mark.parametrize("integers", [(), (0, 1)])
    @pytest.mark.parametrize("scale_rhs", [None, 1000.0])
    @pytest.mark.parametrize("sense,side", [(LE, "least"), (GE, "greatest"),
                                            (EQ, "least"), (EQ, "greatest")])
    def test_a_miss_refutes_only_past_the_margin(self, sense, side, scale_rhs, integers):
        # margin: FEAS_TOL * (1 + |2| + |-3|), unless max |b| = 1000 is larger
        margin = FEAS_TOL * (6.0 if scale_rhs is None else scale_rhs)
        # integer columns may be split, so BOX lies inside the root box WIDE;
        # a continuous column keeps its root bounds, so BOX is its own root
        root = self.WIDE if integers else None
        for k, refuted in ((0.9, False), (1.1, True)):
            rhs = -1.0 - k * margin if side == "least" else 4.0 + k * margin
            inst = self.instance(sense, rhs, scale_rhs, integers)
            solver = SimplexSolver(inst)
            assert refutes(solver, *self.BOX, root) == refuted, k
            if not refuted:
                continue
            wide = solver.solve(*self.WIDE)
            assert wide.is_optimal and not refutes(solver, *self.WIDE)
            assert solver.resolve(wide.basis, *self.BOX).status == LpStatus.INFEASIBLE
            assert SimplexSolver(inst).solve(*self.BOX).status == LpStatus.INFEASIBLE

    @pytest.mark.parametrize("y_bounds,row,refuted", [
        ((-INF, INF), ({0: 1.0, 1: 1.0}, LE, -10.0), False),
        ((-INF, INF), ({0: 1.0, 1: 1.0}, GE, 10.0), False),
        ((-INF, 0.0), ({0: 1.0, 1: 1.0}, GE, 10.0), True),  # greatest 2 + 0
        ((-INF, 0.0), ({0: 1.0, 1: 1.0}, LE, -10.0), False),
        ((0.0, INF), ({0: 1.0, 1: -1.0}, GE, 10.0), True),  # greatest 2 - 0
        ((0.0, INF), ({0: 1.0, 1: -1.0}, EQ, -10.0), False),
        ((-INF, INF), ({0: 3.0}, LE, -1.0), True),  # y's infinities reach no side
    ])
    def test_a_side_that_meets_an_infinite_bound_never_refutes(self, y_bounds, row, refuted):
        inst = lp_instance({0: 1.0}, [row, ({1: 1.0}, GE, -1e3)], [(0, 2), y_bounds])
        solver = SimplexSolver(inst)
        lo, hi = (np.asarray(b, dtype=float) for b in inst.bounds())
        assert refutes(solver, lo, hi) == refuted
        want = LpStatus.INFEASIBLE if refuted else LpStatus.OPTIMAL
        assert solver.solve(lo, hi).status == want

    def test_bounds_past_the_contract_read_as_infinite_and_drop_their_sides(self):
        # VariableDef stores a bound of magnitude 1e20 or more as an infinity,
        # so a side that reads it is dropped, as one that reads an infinity is
        inst = lp_instance({}, [({0: 1.0, 1: 1.0}, LE, 0.0)], [(0, 1e308), (-1e20, 1)])
        lo, hi = (np.asarray(b, dtype=float) for b in inst.bounds())
        assert hi.tolist() == [INF, 1.0] and lo.tolist() == [0.0, -INF]
        assert SimplexSolver(inst)._refuter(lo, hi) is None  # the least side reads -inf
        assert SimplexSolver(inst).solve(lo, hi).status == LpStatus.OPTIMAL

    @pytest.mark.parametrize("sign,sense,refuted", [
        (1.0, LE, True), (1.0, GE, False), (1.0, EQ, True),
        (-1.0, LE, False), (-1.0, GE, True), (-1.0, EQ, True),
    ])
    def test_the_largest_numbers_of_the_contract_refute_without_a_warning(self, sign, sense,
                                                                          refuted):
        """Bounds and rhs just below 1e20, coefficients just below 1e15: the
        terms near 1e35 leave no sum past the float range (a RuntimeWarning is
        an error under this suite). For sign 1 the activity lies in
        [c * big, 3 * c * big] against the rhs -big, for sign -1 mirrored."""
        big, c = 9.9e19, sign * 9.9e14
        rows = [({0: c, 1: c, 2: -c}, sense, -sign * big)]
        inst = lp_instance({}, rows, [(big, big), (0.0, big), (-big, 0.0)])
        lo, hi = (np.asarray(b, dtype=float) for b in inst.bounds())
        assert oracle_refutes(inst, lo, hi, FEAS_TOL) == refuted
        assert refutes(SimplexSolver(inst), lo, hi) == refuted
        if refuted:
            assert SimplexSolver(inst).solve(lo, hi).status == LpStatus.INFEASIBLE

    def test_no_rows(self):
        solver = SimplexSolver(lp_instance({0: 1.0}, [], [(0, 1)]))
        assert solver._refuter(np.zeros(1), np.ones(1)) is None


class TestRefuterSides:
    """``_refuter`` keeps every side with a finite limit that reads no
    infinite root bound; on a box with the root box's infinite bounds its
    test is ``conftest.oracle_refutes``."""

    def test_boxes_inside_the_root_are_the_oracles_verdict(self):
        """Integer x0, x1 split anywhere in [-5, 5], empty boxes included;
        the continuous x2 keeps its root bounds [-1, 2]."""
        rows = [({0: 2.0, 1: -3.0, 2: 1.0}, LE, 0.0), ({0: 1.0, 1: 1.0, 2: -1.0}, GE, 1.0)]
        inst = lp_instance({0: 1.0}, rows, [(-5, 5), (-5, 5), (-1, 2)], integers=(0, 1))
        solver = SimplexSolver(inst)
        root_lo, root_hi = np.array([-5.0, -5.0, -1.0]), np.array([5.0, 5.0, 2.0])
        test = solver._refuter(root_lo, root_hi)
        root = solver.solve(root_lo, root_hi)
        assert root.is_optimal
        rng = np.random.default_rng(3)
        verdicts = set()
        for _ in range(500):
            lo, hi = root_lo.copy(), root_hi.copy()
            lo[:2], hi[:2] = rng.integers(-5, 6, size=(2, 2)).astype(float)
            got = test(np.concatenate((lo, hi)))
            assert got == oracle_refutes(inst, lo, hi, FEAS_TOL)
            if got:
                assert solver.resolve(root.basis, lo, hi).status == LpStatus.INFEASIBLE
                assert SimplexSolver(inst).solve(lo, hi).status == LpStatus.INFEASIBLE
            verdicts.add(got)
        assert verdicts == {False, True}
