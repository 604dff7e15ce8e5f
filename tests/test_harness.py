"""Two-phase pipeline: optimize, enumerate, subset, sweep, compare."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import enum_mixed_projections, enum_pure_integer, scipy_milp
from test_bad_input import FIELDS, TEXTS, mutate
from diversitree import (
    ExperimentSpec,
    HarnessError,
    ModelError,
    MpsParseError,
    SelectorConfig,
    compare_selectors,
    find_optimum,
    grid_search,
    parse_mps,
    preset,
    run_phase_one,
    run_two_phase,
)
from diversitree import harness
from diversitree.harness import COMPARE_FIELDS, GRID_FIELDS, write_csv
from diversitree.model import GE, INF, LE, LinearConstraint, MipInstance, VariableDef
from diversitree.generators import (
    general_integer_instance,
    knapsack_instance,
    mixed_small_instance,
    random_binary_instance,
)


def infeasible_instance():
    return MipInstance(
        name="never",
        variables=[VariableDef(0, 0.0, 1.0, True, "x0")],
        constraints=[
            LinearConstraint({0: 1.0}, GE, 1.0, "on"),
            LinearConstraint({0: 1.0}, LE, 0.0, "off"),
        ],
        objective={0: 1.0},
    )


def unbounded_instance():
    return MipInstance(
        name="drop",
        variables=[VariableDef(0, -INF, 0.0, False, "y")],
        constraints=[LinearConstraint({0: 1.0}, LE, 5.0, "cap")],
        objective={0: 1.0},
    )


class TestFindOptimum:
    def test_knapsack_optimum(self):
        res = find_optimum(knapsack_instance())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-10.0)
        assert [int(v) for v in res.x] == [1, 0, 1]
        assert res.nodes_processed >= 1

    def test_infeasible_status(self):
        assert find_optimum(infeasible_instance()).status == "infeasible"

    def test_unbounded_status(self):
        assert find_optimum(unbounded_instance()).status == "unbounded"

    def test_node_limit_status(self):
        res = find_optimum(knapsack_instance(), node_limit=1)
        assert res.status == "limit"

    def test_matches_brute_force_on_random_binaries(self, small_instances):
        for inst in small_instances:
            z, _ = enum_pure_integer(inst, 0.0)
            res = find_optimum(inst)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(z, abs=1e-9)
            assert all(c.satisfied(res.x) for c in inst.constraints)
            assert inst.objective_value(res.x) == pytest.approx(res.objective)

    def test_general_integer_optimum(self):
        inst = general_integer_instance()
        z, _ = enum_pure_integer(inst, 0.0)
        assert find_optimum(inst).objective == pytest.approx(z, abs=1e-9)

    def test_mixed_optimum_matches_scipy(self):
        inst = mixed_small_instance()
        z, _ = enum_mixed_projections(inst, 0.0)
        assert find_optimum(inst).objective == pytest.approx(z, abs=1e-6)


    def test_integer_bounds_rounding_to_an_empty_box(self):
        inst = MipInstance(
            name="gap",
            variables=[VariableDef(0, 0.2, 0.8, True, "u")],
            constraints=[LinearConstraint({0: 1.0}, LE, 5.0, "cap")],
            objective={0: 1.0},
        )
        res = find_optimum(inst)
        assert (res.status, res.nodes_processed) == ("infeasible", 0)


INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# (status, repr(objective), x, nodes_processed) of the best-first search
GOLDEN_OPTIMA = {
    "cluster_n10_r2.mps": ("optimal", "-200.0", [0.0] * 11 + [1.0], 1),
    "cluster_n8_r1.mps": ("optimal", "-160.0", [0.0] * 9 + [1.0], 1),
    "genint.mps": ("optimal", "1.0", [0.0, 2.0, 1.0], 1),
    "knap3.mps": ("optimal", "-10.0", [1.0, 0.0, 1.0], 2),
    "mixed4.mps": ("optimal", "1.0", [1.0, 0.0, 0.0, 0.0, 0.0], 1),
    "rand0.mps": ("optimal", "-34.0", [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0], 3),
    "rand1.mps": ("optimal", "-26.0", [1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0], 1),
    "rand2.mps": ("optimal", "-30.0", [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0], 1),
    "random_binary_instance(5, 30, 12)": (
        "optimal", "-46.0",
        [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0,
         1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        11,
    ),
    "random_binary_instance(3)": (
        "optimal", "-23.0", [0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], 12,
    ),
}


def golden_instance(name):
    if name == "random_binary_instance(5, 30, 12)":
        return random_binary_instance(5, 30, 12)
    if name == "random_binary_instance(3)":
        return random_binary_instance(3)
    return parse_mps(str(INSTANCES / name))


class TestFindOptimumAgainstMilp:
    """The optimum of each shipped instance with one number changed equals
    scipy's ``milp``, and its point satisfies every row and has the
    reported objective."""

    def check(self, text):
        inst = parse_mps(text)
        res = find_optimum(inst)
        status, z = scipy_milp(inst)
        assert res.status == status
        if status == "optimal":
            assert res.objective == pytest.approx(z, rel=1e-9, abs=1e-6)
            assert all(con.satisfied(res.x) for con in inst.constraints)
            assert inst.objective_value(res.x) == res.objective
        return res

    def test_an_integral_lp_that_misses_a_row_once_rounded_is_no_incumbent(self):
        """b0 at 1e-6 covers ``b0 + b1 + b2 + b3 >= 1`` with a cover entry of
        1e6 and reads as integral at INT_TOL, but rounded to 0 it covers
        nothing; the optimum is 1.0 at b0 = 1, not 1e-06 at zero."""
        line = TEXTS["mixed4.mps"].split("\n").index("    b0  cover  1.0")
        res = self.check(mutate("mixed4.mps", {(line, 2): "1000000.0"}))
        assert (res.status, res.objective, res.x.tolist()) == ("optimal", 1.0, [1, 0, 0, 0, 0])

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_every_single_number_at_a_large_or_tiny_magnitude(self, name):
        for spot in FIELDS[name]:
            for text in ("1e6", "-1e6", "1e-12", "-1e-12"):
                try:
                    self.check(mutate(name, {spot: text}))
                except (MpsParseError, ModelError):
                    continue


class TestFindOptimumGolden:
    def test_every_shipped_instance_is_pinned(self):
        assert sorted(p.name for p in INSTANCES.glob("*.mps")) == sorted(
            k for k in GOLDEN_OPTIMA if k.endswith(".mps")
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_OPTIMA))
    def test_status_objective_point_and_node_count(self, name):
        res = find_optimum(golden_instance(name))
        got = (res.status, repr(res.objective), [float(v) for v in res.x], res.nodes_processed)
        assert got == GOLDEN_OPTIMA[name]


class TestExperimentSpec:
    @pytest.mark.parametrize("kw", [
        {"q": -0.01},
        {"p1": 0},
        {"p": 0},
        {"p1": 5, "p": 6},
        {"p1": 1, "p": 1, "subset_method": "greedy-swap"},  # before any pool is seen
        {"q": math.nan},
        {"time_limit": math.nan},
        {"time_limit": -1.0},
        {"node_limit": -1},
    ])
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(ValueError):
            ExperimentSpec(**kw)

    def test_unlimited_pool_allows_any_subset_size(self):
        spec = ExperimentSpec(p1=None, p=500)
        assert spec.p1 is None and spec.p == 500


class TestRunPhaseOne:
    def test_pool_matches_the_admitted_set(self):
        inst = random_binary_instance(5)
        z, admitted = enum_pure_integer(inst, 0.05)
        opt, count = run_phase_one(inst, ExperimentSpec(q=0.05, p1=None, p=1))
        assert opt.objective == pytest.approx(z, abs=1e-9)
        got = {tuple(int(v) for v in row) for row in count.pool.projection_matrix()}
        assert got == admitted
        assert count.exhausted

    def test_optimize_stage_failures_are_labelled(self):
        with pytest.raises(HarnessError, match="optimize stage"):
            run_phase_one(infeasible_instance())
        with pytest.raises(HarnessError, match="optimize stage"):
            run_phase_one(unbounded_instance())


class TestRunTwoPhase:
    def spec(self, **kw):
        base = dict(q=0.05, p1=50, p=5)
        base.update(kw)
        return ExperimentSpec(**base)

    def test_result_contract(self):
        inst = random_binary_instance(5)
        res = run_two_phase(inst, self.spec())
        assert res.instance_name == inst.name
        assert res.pool_size <= 50
        assert 0.0 <= res.dbin_subset <= 1.0
        assert 0.0 <= res.dbin_pool <= 1.0
        assert res.cutoff_value == pytest.approx(res.z_star + 0.05 * abs(res.z_star))
        want_len = min(5, res.pool_size)
        assert len(res.subset_indices) == want_len
        assert len(res.subset_objectives) == want_len
        assert all(0 <= i < res.pool_size for i in res.subset_indices)
        assert all(obj <= res.cutoff_value + 1e-6 for obj in res.subset_objectives)
        if want_len >= 2:
            assert res.dall_subset is not None and 0.0 <= res.dall_subset <= 1.0

    def test_unique_optimum_gives_a_singleton_pool(self):
        res = run_two_phase(knapsack_instance(), self.spec(q=0.0))
        assert res.pool_size == 1
        assert res.subset_indices == [0]
        assert res.dbin_pool == 0.0 and res.dbin_subset == 0.0
        assert res.dall_subset is None

    def test_repeat_runs_serialize_identically(self):
        inst = random_binary_instance(6)
        a = run_two_phase(inst, self.spec())
        b = run_two_phase(inst, self.spec())
        assert a.to_json() == b.to_json()
        assert a.trace_hash == b.trace_hash

    def test_timing_keys_default_to_null(self):
        res = run_two_phase(knapsack_instance(), self.spec(q=0.5))
        doc = res.to_json_dict()
        assert [doc[k] for k in ("wallTimeMs", "optimizeMs", "countMs", "subsetMs")] == [
            None, None, None, None,
        ]
        timed = res.to_json_dict(include_timing=True)
        assert all(timed[k] >= 0.0 for k in ("wallTimeMs", "optimizeMs", "countMs", "subsetMs"))

    def test_stage_times_account_for_the_wall_clock(self):
        res = run_two_phase(random_binary_instance(7), self.spec())
        parts = res.optimize_ms + res.count_ms + res.subset_ms
        assert res.wall_time_ms >= parts - 1.0
        assert min(res.optimize_ms, res.count_ms, res.subset_ms) >= 0.0

    def test_rule_choice_never_changes_an_exhausted_pool(self):
        inst = random_binary_instance(8)
        pools = {}
        for cfg in (SelectorConfig(rule="bestfs"), preset("HHL")):
            _, count = run_phase_one(inst, ExperimentSpec(q=0.05, p1=None, p=1, selector=cfg))
            assert count.exhausted
            pools[cfg.rule.value] = frozenset(
                tuple(int(v) for v in row) for row in count.pool.projection_matrix()
            )
        assert pools["bestfs"] == pools["diversitree"]

    def test_open_integer_box_fails_in_the_optimize_stage(self):
        inst = MipInstance(
            name="openbox",
            variables=[VariableDef(0, 0.0, INF, True, "u"),
                       VariableDef(1, 0.0, 1.0, True, "b")],
            constraints=[LinearConstraint({0: 1.0, 1: 1.0}, GE, 1.0, "r0")],
            objective={0: 1.0, 1: 1.0},
        )
        with pytest.raises(HarnessError, match="optimize stage"):
            run_phase_one(inst, ExperimentSpec(q=0.05, p1=10, p=2))

    def test_an_infinite_cutoff_fails_in_the_count_stage(self):
        # z* = 1e14 * 5e5 = 5e19, so z* + q|z*| = 1e20 reads as infinite:
        # the cutoff row cannot be built
        inst = MipInstance(
            name="huge",
            variables=[VariableDef(0, 5e5, 6e5, True, "u")],
            constraints=[LinearConstraint({0: 1.0}, GE, 5e5, "r0")],
            objective={0: 1e14},
        )
        with pytest.raises(HarnessError, match="count stage: .*__cutoff__.* not finite"):
            run_phase_one(inst, ExperimentSpec(q=1.0, p1=10, p=2))

    @staticmethod
    def all_free_instance():
        # q = 1.0 admits all 64 points of the 6-binary box
        return MipInstance(
            name="allfree",
            variables=[VariableDef(j, 0.0, 1.0, True, f"x{j}") for j in range(6)],
            constraints=[LinearConstraint({j: 1.0 for j in range(6)}, GE, 0.0, "r0")],
            objective={j: -1.0 for j in range(6)},
        )

    def test_subset_stage_errors_are_labelled(self):
        # 64 admitted solutions and p = 12 push exact search past its guard
        spec = ExperimentSpec(q=1.0, p1=None, p=12, subset_method="exact")
        with pytest.raises(HarnessError, match="subset stage"):
            run_two_phase(self.all_free_instance(), spec)

    def test_dense_memory_guard_is_a_subset_stage_error(self, monkeypatch):
        from diversitree import subset

        monkeypatch.setattr(subset, "DENSE_LIMIT_BYTES", 64 * 64 * 8 - 1)
        spec = ExperimentSpec(q=1.0, p1=None, p=4)
        with pytest.raises(HarnessError, match=r"subset stage: a pool of 64 solutions"):
            run_two_phase(self.all_free_instance(), spec)


class TestGridSearch:
    def test_rank_order_and_cardinality(self):
        rows = grid_search(
            knapsack_instance(),
            q_list=(0.5,),
            p1_list=(8,),
            alpha_grid=(0.0, 0.94),
            beta_grid=(0.0, 0.06),
            s_grid=(0.8,),
            p=3,
        )
        assert len(rows) == 4  # every (alpha, beta) pair here sums below 1
        assert [r["rank"] for r in rows] == [1, 2, 3, 4]
        scores = [r["dbinSubset"] for r in rows]
        assert all(s is not None for s in scores)
        assert scores == sorted(scores, reverse=True)

    def test_overweight_combinations_are_skipped(self):
        rows = grid_search(knapsack_instance(), q_list=(0.5,), p1_list=(8,),
                           alpha_grid=(0.6,), beta_grid=(0.6,), s_grid=(0.0,), p=3)
        assert rows == []

    def test_grid_containing_the_preset_reaches_its_score(self):
        inst = random_binary_instance(5)
        ref = run_two_phase(inst, ExperimentSpec(q=0.05, p1=20, p=4, selector=preset("HHL")))
        rows = grid_search(inst, q_list=(0.05,), p1_list=(20,),
                           alpha_grid=(0.0, 0.94), beta_grid=(0.0, 0.06),
                           s_grid=(0.8,), p=4)
        assert rows[0]["dbinSubset"] >= ref.dbin_subset - 1e-12

    def test_unlimited_pool_rows(self):
        rows = grid_search(knapsack_instance(), q_list=(0.5,), p1_list=(None,),
                           alpha_grid=(0.5,), beta_grid=(0.0,), s_grid=(0.5,), p=3)
        assert len(rows) == 1
        assert rows[0]["p1"] is None
        assert rows[0]["exhausted"] is True

    def test_failures_rank_last_and_carry_the_message(self):
        rows = grid_search(infeasible_instance(), q_list=(0.1,), p1_list=(4,),
                           alpha_grid=(0.0,), beta_grid=(0.0,), s_grid=(0.0,), p=2)
        assert len(rows) == 1
        assert rows[0]["dbinSubset"] is None
        assert "optimize stage" in rows[0]["error"]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "grid.csv"
        rows = grid_search(knapsack_instance(), q_list=(0.5,), p1_list=(8,),
                           alpha_grid=(0.0, 1.0), beta_grid=(0.0,), s_grid=(0.0,),
                           p=3, csv_path=str(path))
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert list(got[0]) == list(GRID_FIELDS)
        assert len(got) == len(rows)
        assert got[0]["rank"] == "1"


class TestCompareSelectors:
    def test_baseline_improvement_is_zero(self):
        inst = random_binary_instance(5)
        spec = ExperimentSpec(q=0.05, p1=30, p=4)
        rows = compare_selectors(inst, spec, rules=("bestfs", "dfs", "diversitree"))
        base = next(r for r in rows if r["rule"] == "bestfs")
        assert base["improvementPct"] == pytest.approx(0.0)
        for row in rows:
            assert row["error"] == ""
            assert row["traceHash"]
            assert row["poolSize"] <= 30

    def test_missing_baseline_is_prepended(self):
        rows = compare_selectors(knapsack_instance(), ExperimentSpec(q=0.5, p1=8, p=3),
                                 rules=("dfs",))
        assert [r["rule"] for r in rows] == ["bestfs", "dfs"]

    def test_exhaustive_runs_share_the_pool_size(self):
        inst = random_binary_instance(9)
        spec = ExperimentSpec(q=0.05, p1=None, p=4)
        rows = compare_selectors(inst, spec, rules=("bestfs", "brfs", "diversitree"))
        sizes = {r["poolSize"] for r in rows}
        assert len(sizes) == 1

    def test_failures_fill_the_error_column(self):
        rows = compare_selectors(infeasible_instance(), ExperimentSpec(q=0.1, p1=4, p=2),
                                 rules=("bestfs", "dfs"))
        assert all("optimize stage" in r["error"] for r in rows)
        assert all(r["dbinSubset"] is None for r in rows)
        assert all(r["improvementPct"] is None for r in rows)

    def test_a_weight_sum_above_one_warns_once_per_sweep(self, caplog):
        with caplog.at_level("WARNING", logger="diversitree.selectors"):
            spec = ExperimentSpec(q=0.5, p1=8, p=3, selector=SelectorConfig(alpha=0.95, beta=0.06))
            rows = compare_selectors(knapsack_instance(), spec)
        assert len(rows) == len(harness.DEFAULT_COMPARE_RULES)
        assert [rec.getMessage() for rec in caplog.records] == [
            "alpha + beta = 1.0100 > 1; the bound weight goes negative"]
        assert all(r["error"] == "" for r in rows)
        assert spec.selector.rule.value == "bestfs"  # the spec's own config is not changed

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "cmp.csv"
        compare_selectors(knapsack_instance(), ExperimentSpec(q=0.5, p1=8, p=3),
                          rules=("bestfs", "dfs"), csv_path=str(path))
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert list(got[0]) == list(COMPARE_FIELDS)
        assert {r["rule"] for r in got} == {"bestfs", "dfs"}


class TestSweeps:
    """compare_selectors and grid_search share one optimize stage per call."""

    @staticmethod
    def count_optimize_calls(monkeypatch):
        calls = []
        real = harness.find_optimum

        def counted(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(harness, "find_optimum", counted)
        return calls

    def test_compare_optimizes_once(self, monkeypatch):
        calls = self.count_optimize_calls(monkeypatch)
        rows = compare_selectors(random_binary_instance(5), ExperimentSpec(q=0.05, p1=20, p=4),
                                 rules=("bestfs", "dfs", "brfs", "diversitree"))
        assert len(rows) == 4 and len(calls) == 1

    def test_grid_optimizes_once(self, monkeypatch):
        calls = self.count_optimize_calls(monkeypatch)
        rows = grid_search(random_binary_instance(5), q_list=(0.05, 0.1), p1_list=(10, None),
                           alpha_grid=(0.0, 0.5), beta_grid=(0.0,), s_grid=(0.0, 0.5), p=3)
        assert len(rows) == 16 and len(calls) == 1

    def test_an_empty_grid_runs_nothing(self, monkeypatch):
        calls = self.count_optimize_calls(monkeypatch)
        assert grid_search(knapsack_instance(), alpha_grid=(0.6,), beta_grid=(0.6,)) == []
        assert calls == []

    def test_compare_rows_equal_separate_runs(self):
        inst = random_binary_instance(5)  # the rules reach different pools here
        spec = ExperimentSpec(q=0.3, p1=12, p=4, selector=preset("HHL"))
        rules = ("bestfs", "dfs", "uct", "he", "diversitree", "dbfs-ad")
        for row in compare_selectors(inst, spec, rules=rules):
            sel = SelectorConfig(rule=row["rule"], alpha=0.94, beta=0.06, sol_cutoff=0.8)
            ref = run_two_phase(inst, ExperimentSpec(q=0.3, p1=12, p=4, selector=sel))
            assert (row["dbinSubset"], row["poolSize"], row["nodesProcessed"],
                    row["traceHash"]) == (ref.dbin_subset, ref.pool_size,
                                          ref.nodes_processed, ref.trace_hash)

    def test_grid_rows_equal_separate_runs(self):
        inst = random_binary_instance(5)
        rows = grid_search(inst, q_list=(0.1, 0.3), p1_list=(3, 12, None),
                           alpha_grid=(0.0, 0.6), beta_grid=(0.0, 0.4), s_grid=(0.2,), p=4)
        assert len(rows) == 24
        for row in rows:
            sel = SelectorConfig(rule="diversitree", alpha=row["alpha"], beta=row["beta"],
                                 sol_cutoff=row["solCutoff"])
            p = 4 if row["p1"] is None else min(4, row["p1"])
            ref = run_two_phase(inst, ExperimentSpec(q=row["q"], p1=row["p1"], p=p,
                                                     selector=sel))
            assert (row["dbinSubset"], row["poolSize"], row["nodesProcessed"]) == (
                ref.dbin_subset, ref.pool_size, ref.nodes_processed)

    @pytest.mark.parametrize("inst, message", [
        (infeasible_instance(), "optimize stage: instance is infeasible"),
        (unbounded_instance(), "optimize stage: instance is unbounded"),
    ], ids=["infeasible", "unbounded"])
    def test_an_optimize_failure_fills_every_row(self, monkeypatch, inst, message):
        calls = self.count_optimize_calls(monkeypatch)
        rows = compare_selectors(inst, ExperimentSpec(q=0.1, p1=4, p=2),
                                 rules=("bestfs", "dfs", "he"))
        rows += grid_search(inst, q_list=(0.1, 0.2), p1_list=(4,), alpha_grid=(0.0, 0.5),
                            beta_grid=(0.0,), s_grid=(0.0,), p=2)
        assert len(rows) == 7 and len(calls) == 2
        assert {r["error"] for r in rows} == {message}
        assert all(r["dbinSubset"] is None and r["poolSize"] is None for r in rows)


class TestWriteCsv:
    def test_none_becomes_empty_string(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ("a", "b"), [{"a": 1, "b": None}])
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert got == [{"a": "1", "b": ""}]
