"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single CRITERION line
on success (run with ``pytest tests/test_acceptance.py -s`` to see them);
a pytest failure is the corresponding fail line. Tolerances are pinned as
module constants.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import (
    enum_pure_integer,
    make_lp,
    oracle_dall,
    oracle_dbin,
    oracle_ham,
    oracle_row_holds,
    scipy_lp,
)
from diversitree import (
    BranchAndCount,
    ExperimentSpec,
    SelectorConfig,
    add_objective_cutoff,
    binary_expand,
    dall,
    dbin,
    discretize_continuous,
    ham,
    preset,
    run_two_phase,
)
from diversitree.cli import main
from diversitree.generators import (
    general_integer_instance,
    knapsack_instance,
    mixed_small_instance,
    random_binary_instance,
    two_cluster_instance,
)
from diversitree.model import GE, LinearConstraint, MipInstance, VariableDef
from diversitree.mps import write_mps
from diversitree.selectors import PRESETS
from diversitree.simplex import SimplexSolver
from diversitree.subset import pair_sum, select_diverse_subset
from diversitree.diversity import pairwise_ham

_T0 = time.perf_counter()

METRIC_TOL = 1e-12
LP_TOL = 1e-6
PER_INSTANCE_BUDGET_S = 10.0
SUITE_BUDGET_S = 300.0
SWAP_QUALITY_FLOOR = 0.95


def test_criterion_01_enumeration_completeness(small_instances, tmp_path):
    """Unlimited `enumerate` equals brute force for q in {0, 0.01, 0.05}."""
    runner = CliRunner()
    assert len(small_instances) >= 10
    worst = 0.0
    for k, inst in enumerate(small_instances):
        assert len(inst.binary_index) <= 16
        path = tmp_path / f"inst{k}.mps"
        path.write_text(write_mps(inst))
        started = time.perf_counter()
        for q in (0.0, 0.01, 0.05):
            z, admitted = enum_pure_integer(inst, q)
            res = runner.invoke(
                main,
                ["enumerate", "--instance", str(path), "--q", str(q), "--p1", "0"],
                catch_exceptions=False,
            )
            assert res.exit_code == 0
            doc = json.loads(res.output)
            got = {tuple(int(round(v)) for v in row) for row in doc["solutions"]}
            assert doc["exhausted"] is True
            assert doc["zStar"] == pytest.approx(z, abs=1e-9)
            assert got == admitted, (inst.name, q)
        elapsed = time.perf_counter() - started
        assert elapsed < PER_INSTANCE_BUDGET_S
        worst = max(worst, elapsed)
    print(f"\nCRITERION 1 PASS: {len(small_instances)} instances x 3 q values, "
          f"pool set equality; slowest instance {worst:.2f}s")


def test_criterion_02_metric_correctness():
    """dbin/ham/dall match plain-loop oracles on 500 random sets."""
    assert ham((0, 0, 1, 1), (1, 0, 1, 0)) == 0.5
    assert dbin([(0, 0), (0, 1), (1, 1)]) == pytest.approx(2.0 / 3.0, abs=METRIC_TOL)
    rng = np.random.default_rng(42)
    for trial in range(500):
        n = int(rng.integers(2, 21))
        b = int(rng.integers(1, 33))
        proj = rng.integers(0, 2, size=(n, b))
        assert dbin(proj) == pytest.approx(oracle_dbin(proj), abs=METRIC_TOL)
        assert ham(proj[0], proj[1]) == pytest.approx(
            oracle_ham(proj[0], proj[1]), abs=METRIC_TOL
        )
        sols = rng.normal(size=(n, b)) * rng.uniform(0.5, 3.0, size=b)
        ranges = sols.max(axis=0) - sols.min(axis=0)
        assert dall(sols, ranges) == pytest.approx(
            oracle_dall(sols, ranges), abs=METRIC_TOL
        )
    print("\nCRITERION 2 PASS: 500 random sets within 1e-12 of the oracles, "
          "hand values exact")


def test_criterion_03_best_first_reduction():
    """alpha = beta = 0 reproduces the BestFS dequeue trace on 5 fixtures."""
    fixtures = [
        (knapsack_instance(), 0.3),
        (random_binary_instance(2), 0.05),
        (random_binary_instance(4), 0.05),
        (mixed_small_instance(), 0.05),
        (two_cluster_instance(6, 1), 0.05),
    ]
    diversity_rules = ["dbfs-a", "dbfs-ab", "dbfs-as", "dbfs-ad", "diversitree",
                       "dbfs-min", "dbfs-max", "dbfs-prod"]
    checked = 0
    for inst, q in fixtures:
        from diversitree import find_optimum

        z = find_optimum(inst).objective
        cut = add_objective_cutoff(inst, z, q)
        base = BranchAndCount(cut, selector=SelectorConfig(rule="bestfs")).run(p1=50)
        for rule in diversity_rules:
            cfg = SelectorConfig(rule=rule, alpha=0.0, beta=0.0, sol_cutoff=0.0)
            res = BranchAndCount(cut, selector=cfg).run(p1=50)
            assert res.trace_hash == base.trace_hash, (inst.name, rule)
            checked += 1
    print(f"\nCRITERION 3 PASS: {checked} rule/fixture trace hashes equal BestFS")


def test_criterion_04_preset_fidelity():
    """The preset table carries the published weights bit-exactly."""
    assert PRESETS == {
        "HHL": {"alpha": 0.94, "beta": 0.06, "sol_cutoff": 0.80},
        "HLL": {"alpha": 0.95, "beta": 0.06, "sol_cutoff": 0.20},
        "LLH": {"alpha": 0.01, "beta": 0.99, "sol_cutoff": 0.05},
        "LHH": {"alpha": 0.18, "beta": 0.80, "sol_cutoff": 0.70},
    }
    cfg = preset("HHL")
    assert (cfg.alpha, cfg.beta, cfg.sol_cutoff) == (0.94, 0.06, 0.80)
    print("\nCRITERION 4 PASS: presets HHL/HLL/LLH/LHH bit-exact")


def test_criterion_05_diversity_benefit():
    """Blended selection beats BestFS subset diversity on >= 4 of 5 members."""
    family = [(8, 1), (8, 2), (10, 1), (10, 2), (12, 2)]
    q, p = 0.05, 4
    wins = []
    for n, r in family:
        inst = two_cluster_instance(n, r)
        z, admitted = enum_pure_integer(inst, q)
        expect = 2 * sum(math.comb(n, k) for k in range(r + 1))
        assert len(admitted) == expect  # two symmetric radius-r clusters
        for row in admitted:
            weight = sum(row[:n])
            assert weight <= r or weight >= n - r
        p1 = len(admitted) // 2
        scores = {}
        for label, cfg in (("bestfs", SelectorConfig(rule="bestfs")),
                           ("hhl", preset("HHL"))):
            res = run_two_phase(inst, ExperimentSpec(q=q, p1=p1, p=p, selector=cfg))
            scores[label] = res.dbin_subset
        wins.append(scores["hhl"] > scores["bestfs"])
    assert sum(wins) >= 4, wins
    print(f"\nCRITERION 5 PASS: blended rule beats BestFS on {sum(wins)}/5 "
          "two-cluster members")


def test_criterion_06_subset_quality():
    """greedy_swap reaches 95% of the exact pair-sum on 200 random pools."""
    rng = np.random.default_rng(6)
    ratios = []
    for _ in range(200):
        n = int(rng.integers(4, 13))
        bits = int(rng.integers(2, 9))
        proj = rng.integers(0, 2, size=(n, bits))
        p = int(rng.integers(2, min(6, n + 1)))
        dist = pairwise_ham(proj)
        swap = pair_sum(dist, select_diverse_subset(proj, p, "greedy_swap"))
        exact = max(pair_sum(dist, c) for c in itertools.combinations(range(n), p))
        if exact <= 0.0:
            assert swap == pytest.approx(0.0, abs=METRIC_TOL)
            continue
        ratio = swap / exact
        assert ratio >= SWAP_QUALITY_FLOOR, (n, bits, p, ratio)
        ratios.append(ratio)
    print(f"\nCRITERION 6 PASS: min swap/exact ratio {min(ratios):.4f} "
          f"over {len(ratios)} pools")


def test_criterion_07_lp_correctness():
    """200 random LPs match the independent oracle; duality holds throughout."""
    optimal = 0
    for seed in range(200):
        inst = make_lp(seed)
        want_status, want_obj = scipy_lp(inst)
        lp = SimplexSolver(inst).solve(*inst.bounds())
        assert lp.status.value == want_status, seed
        if want_status == "optimal":
            optimal += 1
            scale = max(1.0, abs(want_obj))
            assert abs(lp.objective - want_obj) <= LP_TOL * scale, seed
            assert abs(lp.objective - lp.dual_objective) <= LP_TOL * scale, seed
    assert optimal >= 100
    print(f"\nCRITERION 7 PASS: 200 LPs match within 1e-6; duality on "
          f"{optimal} optimal solves")


def test_criterion_08_reformulation_round_trips():
    """Bit expansions decode bijectively; dyadic grids hit their precision."""
    for u in (1, 5, 10):
        inst = MipInstance(
            name=f"exp{u}",
            variables=[VariableDef(0, 0.0, float(u), True, "x")],
            constraints=[LinearConstraint({0: 1.0}, GE, 0.0, "r0")],
            objective={0: 1.0},
        )
        new, index_map = binary_expand(inst, [0])
        entry = index_map.entries[0]
        if u == 1:
            assert entry.kind == "identity"
            continue
        bits = entry.bit_indices
        decoded = []
        for combo in itertools.product((0.0, 1.0), repeat=len(bits)):
            x = np.zeros(new.num_vars)
            for j, v in zip(bits, combo):
                x[j] = v
            val = entry.decode(x)
            x[0] = val  # the linking equality forces the original column
            if all(oracle_row_holds(c, x, 1e-9) for c in new.constraints):
                decoded.append(val)
        assert sorted(decoded) == list(range(u + 1))  # bijection onto [0, u]

    lo, hi = 2.0, 6.0
    for digits in (1, 2):
        inst = MipInstance(
            name=f"grid{digits}",
            variables=[VariableDef(0, lo, hi, False, "y")],
            constraints=[LinearConstraint({0: 1.0}, GE, lo, "r0")],
            objective={0: 1.0},
        )
        new, index_map = discretize_continuous(inst, [0], digits)
        entry = index_map.entries[0]
        k = len(entry.bit_indices)
        assert k == math.ceil(digits * math.log2(10))
        points = []
        for combo in itertools.product((0.0, 1.0), repeat=k):
            x = np.zeros(new.num_vars)
            for j, v in zip(entry.bit_indices, combo):
                x[j] = v
            points.append(entry.decode(x))
        points = np.asarray(sorted(points))
        assert len(points) == 2 ** k
        assert points[0] == lo and points[-1] == pytest.approx(hi - (hi - lo) * 2.0 ** -k)
        budget = (hi - lo) * 10.0 ** -digits
        for y in np.linspace(lo, hi, 997):
            assert np.abs(points - y).min() <= budget
    print("\nCRITERION 8 PASS: expansions u in {1,5,10} bijective, dyadic "
          "grids p in {1,2} within precision")


def test_criterion_09_byte_identical_output(tmp_path):
    """Repeating a `diverse` run with the same seed reproduces the bytes."""
    path = tmp_path / "det.mps"
    path.write_text(write_mps(random_binary_instance(5)))
    runner = CliRunner()
    for seed in ("0", "7"):
        args = ["diverse", "--instance", str(path), "--q", "0.05", "--p1", "30",
                "--p", "4", "--preset", "HHL", "--seed", seed]
        first = runner.invoke(main, args, catch_exceptions=False)
        second = runner.invoke(main, args, catch_exceptions=False)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
        json.loads(first.output)  # stdout is exactly one JSON document
    print("\nCRITERION 9 PASS: byte-identical JSON for repeated seeds 0 and 7")


def test_criterion_10_runtime_envelope():
    """Everything above finished inside the five-minute budget."""
    elapsed = time.perf_counter() - _T0
    assert elapsed < SUITE_BUDGET_S
    print(f"\nCRITERION 10 PASS: acceptance suite took {elapsed:.1f}s "
          f"(budget {SUITE_BUDGET_S:.0f}s)")
