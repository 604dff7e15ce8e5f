"""Node-selection rules: scaled scores, gating, presets, best-first reduction."""

import logging
import math
from collections import Counter

import numpy as np
import pytest

from conftest import (
    enum_pure_integer,
    oracle_bounds,
    oracle_partial_diversity,
    oracle_score,
    oracle_select,
)
from diversitree import BranchAndCount, add_objective_cutoff
from diversitree.engine import Node, SolutionPool
from diversitree.generators import knapsack_instance, random_binary_instance, two_cluster_instance
from diversitree.model import LE, LinearConstraint, MipInstance, VariableDef
from diversitree.selectors import (
    HEAP_SLACK,
    PRESETS,
    Rule,
    Selector,
    SelectorConfig,
    preset,
)
from diversitree.simplex import LpResult, LpStatus


def path_of(fixed):
    """The fixing path of {binary column: value} in ``fixed``'s order; column j
    of the pools below sits at pool position j."""
    return tuple(2 * j + v for j, v in fixed.items())


def make_node(nid, bound=0.0, depth=0, fixed=None, parent=None, estimate=None):
    # scoring reads no box, so the node carries none
    n = Node(id=nid, parent_id=parent, depth=depth, box=None,
             path=path_of(fixed or {}), lp=LpResult(LpStatus.OPTIMAL, objective=bound))
    n.estimate = bound if estimate is None else estimate
    return n


def open_set(nodes, config=None, num_integer_vars=0):
    """A selector under ``config`` (default best-first) whose open set holds ``nodes``."""
    sel = Selector(config or SelectorConfig(), num_integer_vars)
    for n in nodes:
        sel.push(n)
    return sel


def dequeue(sel, node):
    """Push ``node`` into ``sel``'s open set and pop it: one dequeue."""
    sel.push(node)
    sel.pop(node.id)


def make_pool(rows, n_bits=4, capacity=None):
    inst = MipInstance(
        name="pool",
        variables=[VariableDef(j, 0.0, 1.0, True, f"x{j}") for j in range(n_bits)],
        constraints=[LinearConstraint({0: 1.0}, LE, float(n_bits), "r0")],
        objective={0: 1.0},
    )
    pool = SolutionPool(inst, capacity=capacity)
    for row in rows:
        pool.add(np.asarray(row, dtype=float), 0.0)
    return pool


def pool_of_size(n, capacity, n_bits=4):
    """A pool of ``n`` distinct ``n_bits``-bit solutions under ``capacity``."""
    return make_pool([[(k >> b) & 1 for b in range(n_bits)] for k in range(n)], n_bits, capacity)


def open_scores(sel, pool, gated=None):
    """{id: score} over the open set, from the per-node scorer that
    ``select`` builds for it (``Selector._scorer``)."""
    gated = sel.gated(pool) if gated is None else gated
    score = sel._scorer(sel.min_bound(), sel.max_bound(), pool, gated)
    return {nid: score(node) for nid, node in sel.nodes.items()}


def scaled_bound(bound, least, greatest):
    """L of a node at ``bound`` in an open set spanning [least, greatest]:
    its best-first score."""
    sel = open_set([make_node(0, bound=bound), make_node(1, bound=least),
                    make_node(2, bound=greatest)])
    return open_scores(sel, EMPTY)[0]


def scaled_depth(depth, max_plunge):
    """H of a node ``depth`` deep: the score of a rule that is H alone,
    (1 - 0 - 1) * L + 0 * D + 1 * H."""
    cfg = SelectorConfig(rule="dbfs-ab", alpha=0.0, beta=1.0, literal_score=True)
    return Selector(cfg, num_integer_vars=max_plunge).score(make_node(0, depth=depth), EMPTY)


def diversity(path, pool):
    """D of one fixing path against ``pool``: the score of a rule that is D
    alone, (1 - 1) * L + 1 * D."""
    sel = Selector(SelectorConfig(rule="dbfs-a", alpha=1.0, literal_score=True))
    node = Node(id=0, parent_id=None, depth=0, box=None, path=tuple(path),
                lp=LpResult(LpStatus.OPTIMAL, objective=0.0))
    return sel.score(node, pool)


EMPTY = make_pool([])


class TestScaledScores:
    def test_scaled_bound_midpoint(self):
        assert scaled_bound(4.0, 2.0, 6.0) == 0.5
        assert scaled_bound(2.0, 2.0, 6.0) == 0.0
        assert scaled_bound(6.0, 2.0, 6.0) == 1.0

    def test_scaled_bound_degenerate_spread(self):
        assert scaled_bound(3.0, 3.0, 3.0) == 0.0
        assert scaled_bound(3.0, 1.0, math.inf) == 0.0
        assert scaled_bound(3.0, -1e308, 1e308) == 0.0  # the spread overflows to inf
        assert scaled_bound(math.inf, math.inf, math.inf) == 0.0  # spread inf - inf is NaN

    def test_scaled_depth_window(self):
        assert scaled_depth(10, 20) == 0.5
        assert scaled_depth(0, 20) == 0.0
        assert scaled_depth(25, 20) == 1.0  # clamps past the window

    def test_path_diversity_hand_value(self):
        pool = make_pool([[0, 0, 0, 0]])
        # bit 1 disagrees with the pool, bit 2 agrees
        assert diversity(path_of({1: 1, 2: 0}), pool) == 0.5

    def test_path_diversity_empty_cases(self):
        assert diversity((), make_pool([[1, 0, 1, 0]])) == 0.0
        assert diversity(path_of({0: 1}), EMPTY) == 0.0

    def test_path_diversity_skips_general_columns(self):
        # binaries 0-3 and a general column 4: fixing column 4 adds no term
        variables = [VariableDef(j, 0.0, 1.0, True, f"x{j}") for j in range(4)]
        variables.append(VariableDef(4, 0.0, 2.0, True, "u"))
        bc = BranchAndCount(MipInstance(name="mixed", variables=variables,
                                        constraints=[LinearConstraint({4: 1.0}, LE, 2.0, "r0")],
                                        objective={0: 1.0, 4: 1.0}))
        general = bc._child(bc._root(), 4, 1.0, 1.0)
        both = bc._child(general, 0, 0.0, 0.0)
        assert (general.path, both.path) == ((), (0,))
        pool = make_pool([[1, 1, 1, 1]])
        assert diversity(general.path, pool) == 0.0
        assert diversity(both.path, pool) == 1.0

    def test_path_diversity_matches_double_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            rows = rng.integers(0, 2, size=(3, 6))
            pool = make_pool(rows, n_bits=6)
            fixed = {int(j): int(rng.integers(0, 2))
                     for j in rng.choice(6, size=rng.integers(1, 5), replace=False)}
            want = np.mean([
                np.mean([abs(v - row[j]) for row in rows]) for j, v in fixed.items()
            ])
            assert diversity(path_of(fixed), pool) == pytest.approx(want, abs=1e-12)


class TestRuleScores:
    def test_dfs_prefers_newest_and_brfs_oldest(self):
        nodes = [make_node(i, bound=1.0) for i in range(3)]
        assert open_set(nodes, SelectorConfig(rule="dfs")).select(EMPTY) == 2
        assert open_set(nodes, SelectorConfig(rule="brfs")).select(EMPTY) == 0

    def test_bestfs_is_the_scaled_bound(self):
        sel = open_set([make_node(0, bound=4.0), make_node(1, bound=2.0),
                        make_node(2, bound=6.0)])
        assert open_scores(sel, EMPTY) == {0: 0.5, 1: 0.0, 2: 1.0}
        assert sel.score(make_node(0, bound=4.0), EMPTY) == 0.0  # alone, the spread is 0

    def test_visit_ratio_rule_counts_subtree_dequeues(self):
        sel = Selector(SelectorConfig(rule="uct"))
        root = make_node(0, bound=1.0)
        child = make_node(1, bound=1.0, parent=0)
        grand = make_node(2, bound=1.0, parent=1)
        for n in (root, child, grand):
            sel.push(n)
        sel.pop(0)
        sel.pop(1)
        assert sel.visits == {0: 2, 1: 1}
        # unvisited node: v defaults to 1, parent visited once
        assert sel.score(grand, EMPTY) == pytest.approx(1.0 + 0.1 * 1 / 1)
        assert sel.score(child, EMPTY) == pytest.approx(1.0 + 0.1 * 2 / 1)

    def test_best_estimate_rule_blends_bound_and_estimate(self):
        sel = Selector(SelectorConfig(rule="he"))
        node = make_node(0, bound=2.0, estimate=4.0)
        assert sel.score(node, EMPTY) == pytest.approx(0.5 * 2.0 + 0.5 * 4.0)
        custom = Selector(SelectorConfig(rule="he", rho=0.25))
        assert custom.score(node, EMPTY) == pytest.approx(0.75 * 2.0 + 0.25 * 4.0)

    def test_pure_diversity_weight_picks_most_different_node(self):
        pool = make_pool([[0, 0, 0, 0]])
        far = make_node(5, bound=0.9, depth=1, fixed={0: 1, 1: 1})  # D = 1.0
        near = make_node(6, bound=0.1, depth=1, fixed={0: 0, 1: 0})  # D = 0.0
        sel = open_set([far, near], SelectorConfig(rule="dbfs-a", alpha=1.0), 4)
        assert sel.select(pool) == 5  # dbfs-a has no gate

    def test_literal_score_flips_the_preference(self):
        pool = make_pool([[0, 0, 0, 0]])
        far = make_node(5, bound=0.9, depth=1, fixed={0: 1, 1: 1})
        near = make_node(6, bound=0.1, depth=1, fixed={0: 0, 1: 0})
        sel = open_set([far, near], SelectorConfig(rule="dbfs-a", alpha=1.0,
                                                   literal_score=True), 4)
        assert sel.select(pool) == 6

    @pytest.mark.parametrize("rule", ["dbfs-min", "dbfs-max", "dbfs-prod", "dbfs-ab",
                                      "diversitree", "dbfs-a", "dbfs-as", "dbfs-ad"])
    def test_blend_formulas_match_manual_recomputation(self, rule):
        pool = make_pool([[0, 0, 0, 0], [1, 1, 0, 0]])
        cfg = SelectorConfig(rule=rule, alpha=0.6, beta=0.3, sol_cutoff=0.0)
        node = make_node(7, bound=0.25, depth=2, fixed={0: 1, 2: 0})
        sel = open_set([node, make_node(8, bound=0.0), make_node(9, bound=1.0)], cfg, 4)
        L = 0.25  # the bound within the open set's [0, 1]
        D = diversity(node.path, pool)
        H = 2 / 4  # depth over the plunge window
        want = {
            "dbfs-a": 0.4 * L + 0.6 * (1 - D),
            "dbfs-as": 0.4 * L + 0.6 * (1 - D),
            "dbfs-ad": 0.4 * L + 0.6 * (1 - D),
            "dbfs-ab": 0.1 * L + 0.6 * (1 - D) + 0.3 * (1 - H),
            "diversitree": 0.1 * L + 0.6 * (1 - D) + 0.3 * (1 - H),
            "dbfs-min": 0.4 * L + 0.6 * (1 - min(D, H)),
            "dbfs-max": 0.4 * L + 0.6 * (1 - max(D, H)),
            "dbfs-prod": 0.4 * L + 0.6 * (1 - D * H),
        }[rule]
        assert open_scores(sel, pool, gated=False)[7] == pytest.approx(want, abs=1e-12)

    def test_tie_break_takes_lowest_id(self):
        assert open_set([make_node(4, bound=1.0), make_node(2, bound=1.0)]).select(EMPTY) == 2

    def test_select_requires_nodes(self):
        with pytest.raises(ValueError):
            open_set([]).select(EMPTY)


class TestScoresMatchTheScalarOracle:
    """Every score equals the scalar oracle's bit for bit, pick included."""

    N_BITS = 16

    @classmethod
    def random_open_set(cls, rng):
        """Nodes to push and ids then to pop, pool and selector settings,
        with tied bounds and 0-14 fixings per node, made in random order."""
        n_bits = cls.N_BITS
        pool = make_pool(rng.integers(0, 2, size=(int(rng.integers(0, 51)), n_bits)), n_bits)
        levels = np.concatenate([rng.uniform(-3, 3, size=int(rng.integers(1, 4))),
                                 rng.integers(-8, 9, size=2) / 4])
        pushed = []
        ids = rng.choice(400, size=int(rng.integers(2, 30)), replace=False)
        for nid in ids.tolist():
            cols = rng.choice(n_bits, size=int(rng.integers(0, 15)), replace=False).tolist()
            vals = rng.integers(0, 2, size=len(cols)).tolist()
            bound = float(rng.choice(levels))
            # parents below the child: the visit walk of a pop ends
            node = Node(id=nid, parent_id=int(rng.integers(0, nid)) if nid else None,
                        depth=int(rng.integers(0, 22)), box=None,
                        path=path_of(dict(zip(cols, vals))),
                        lp=LpResult(LpStatus.OPTIMAL, objective=bound))
            node.estimate = bound + float(rng.uniform(0, 2))
            pushed.append(node)
        popped = rng.choice(ids, size=len(ids) // 3, replace=False).tolist()
        pool.capacity = int(rng.integers(1, 80))  # drawn after the rows, so may sit below them
        alpha = float(rng.uniform(0, 1))
        settings = {"alpha": alpha, "beta": float(rng.uniform(0, 1 - alpha)),
                    "sol_cutoff": float(rng.uniform(0, 1)),
                    "depth_cutoff": int(rng.integers(0, 2))}
        visits = {int(k): int(rng.integers(1, 9))
                  for k in rng.choice(400, size=60, replace=False)}
        return pushed, popped, pool, settings, visits

    @pytest.fixture(scope="class")
    def open_sets(self):
        rng = np.random.default_rng(2024)
        return [self.random_open_set(rng) for _ in range(500)]

    @pytest.mark.parametrize("rule", [r.value for r in Rule])
    def test_every_score_and_pick_equal_the_oracle(self, rule, open_sets):
        for pushed, popped, pool, settings, visits in open_sets:
            nodes = [node for node in pushed if node.id not in popped]
            bounds = oracle_bounds(nodes)
            alone = (nodes[0].lp_bound, nodes[0].lp_bound)
            for literal in (False, True):
                cfg = SelectorConfig(rule=rule, literal_score=literal, **settings)
                sel = open_set(pushed, cfg, self.N_BITS)
                for nid in popped:
                    sel.pop(nid)
                # the pops leave stale heap entries; visits and gate stay as drawn
                sel.visits = visits
                sel.depth_gate_open = cfg.depth_cutoff == 0
                want = [oracle_score(sel, node, pool, bounds) for node in nodes]
                assert open_scores(sel, pool) == {node.id: s for node, s in zip(nodes, want)}
                assert sel.select(pool) == oracle_select(sel, nodes, pool)
                assert sel.score(nodes[0], pool) == oracle_score(sel, nodes[0], pool, alone)
                assert sel.score(nodes[0], pool, gated=False) == oracle_score(
                    sel, nodes[0], pool, alone, gated=False)

    def test_path_diversity_equals_the_oracle_past_eight_fixings(self):
        rng = np.random.default_rng(8)
        pool = make_pool(rng.integers(0, 2, size=(37, 16)), 16)
        for size in range(17):
            fixed = {int(j): int(rng.integers(0, 2))
                     for j in rng.choice(16, size=size, replace=False)}
            assert diversity(path_of(fixed), pool) == oracle_partial_diversity(fixed, pool)


class TestGating:
    def test_solution_gate_opens_at_the_fraction(self):
        sel = Selector(SelectorConfig(rule="diversitree", sol_cutoff=0.5))
        assert sel.gated(pool_of_size(4, capacity=10))
        assert not sel.gated(pool_of_size(5, capacity=10))

    def test_unlimited_capacity_keeps_the_gate_shut(self):
        sel = Selector(SelectorConfig(rule="dbfs-as", sol_cutoff=0.1))
        assert sel.gated(pool_of_size(16, capacity=None))

    def test_depth_gate_latches_open(self):
        sel = Selector(SelectorConfig(rule="dbfs-ad", depth_cutoff=3))
        assert sel.gated(EMPTY)
        dequeue(sel, make_node(0, depth=2))
        assert sel.gated(EMPTY)
        dequeue(sel, make_node(1, depth=3))
        assert not sel.gated(EMPTY)
        dequeue(sel, make_node(2, depth=0))  # shallow dequeues never re-close it
        assert not sel.gated(EMPTY)

    def test_zero_depth_cutoff_starts_open(self):
        sel = Selector(SelectorConfig(rule="dbfs-ad", depth_cutoff=0))
        assert not sel.gated(EMPTY)

    def test_plain_rules_are_never_gated(self):
        for rule in ("bestfs", "dfs", "brfs", "uct", "he", "dbfs-a", "dbfs-ab"):
            sel = Selector(SelectorConfig(rule=rule, sol_cutoff=0.9))
            assert not sel.gated(pool_of_size(0, capacity=10))

    def test_gated_score_is_pure_best_first(self):
        pool = make_pool([[0, 0, 0, 0]], capacity=10)
        cfg = SelectorConfig(rule="diversitree", alpha=0.9, beta=0.1, sol_cutoff=1.0)
        node = make_node(3, bound=0.75, depth=5, fixed={0: 1})
        sel = open_set([node, make_node(4, bound=0.0), make_node(5, bound=1.0)], cfg, 4)
        assert open_scores(sel, pool)[3] == 0.75  # the bound within the open set's [0, 1]


class TestBestFirstReduction:
    @pytest.mark.parametrize("rule", ["dbfs-a", "dbfs-ab", "dbfs-as", "dbfs-ad",
                                      "dbfs-min", "dbfs-max", "dbfs-prod", "diversitree"])
    def test_zero_weights_reproduce_the_best_first_trace(self, rule):
        for inst in (knapsack_instance(), random_binary_instance(2)):
            z, _ = enum_pure_integer(inst, 0.2)
            cut = add_objective_cutoff(inst, z, 0.2)
            base = BranchAndCount(cut, selector=SelectorConfig(rule="bestfs")).run()
            cfg = SelectorConfig(rule=rule, alpha=0.0, beta=0.0, sol_cutoff=0.0)
            res = BranchAndCount(cut, selector=cfg).run()
            assert res.trace_hash == base.trace_hash, (rule, inst.name)


class TestOpenSet:
    """The selector's open set: bound extrema from lazily pruned heaps whose
    size follows the open nodes."""

    @staticmethod
    def heap_sizes(sel):
        return len(sel._min_heap), len(sel._max_heap)

    def test_extrema_track_pops(self):
        sel = open_set([make_node(k, bound=b) for k, b in enumerate([3.0, 1.0, 2.0])])
        assert (sel.min_bound(), sel.max_bound()) == (1.0, 3.0)
        sel.pop(1)
        assert (sel.min_bound(), sel.max_bound()) == (2.0, 3.0)
        sel.pop(0)
        assert (sel.min_bound(), sel.max_bound()) == (2.0, 2.0)
        sel.pop(2)
        assert len(sel) == 0
        assert math.isnan(sel.min_bound()) and math.isnan(sel.max_bound())

    def test_extrema_match_recomputation_on_random_traffic(self):
        # every third stretch of 200 steps pops more than it pushes, so the
        # open set shrinks under heaps full of popped entries and crosses
        # the rebuild threshold
        rng = np.random.default_rng(11)
        sel = Selector(SelectorConfig())
        rebuilds = 0
        for nid in range(1200):
            if sel.nodes and rng.random() < (0.75 if nid // 200 % 3 == 2 else 0.4):
                sel.pop(int(rng.choice(sorted(sel.nodes))))
            else:
                before = self.heap_sizes(sel)
                sel.push(make_node(nid, bound=float(rng.integers(-9, 9))))
                # a push alone adds one entry to each heap
                rebuilds += sum(self.heap_sizes(sel)) < sum(before) + 2
                assert max(self.heap_sizes(sel)) <= 2 * len(sel) + HEAP_SLACK
            if sel.nodes:
                bounds = [n.lp_bound for n in sel.nodes.values()]
                assert sel.min_bound() == min(bounds)
                assert sel.max_bound() == max(bounds)
                assert sel.min_id() == min((n.lp_bound, n.id) for n in sel.nodes.values())[1]
        assert rebuilds >= 3

    def test_the_bound_heaps_grow_with_the_open_set_not_the_nodes_made(self, monkeypatch):
        # the shape of a full two-ball enumeration: with no pool capacity the
        # gate never opens, nodes leave from the least-bound end, and a max
        # heap pruned only at its front would keep an entry for every node made
        inst = two_cluster_instance(14, 2)
        cut = add_objective_cutoff(inst, BranchAndCount(inst).optimize().objective, 0.05)
        sizes = []
        push = Selector.push

        def push_and_measure(sel, node):
            push(sel, node)
            sizes.append((*self.heap_sizes(sel), len(sel)))

        monkeypatch.setattr(Selector, "push", push_and_measure)
        res = BranchAndCount(cut, selector=preset("hhl")).run(p1=None)
        assert res.exhausted and len(sizes) > 1000
        for min_entries, max_entries, open_nodes in sizes:
            assert max(min_entries, max_entries) <= 2 * open_nodes + HEAP_SLACK

    def test_visit_entries_follow_the_open_nodes_and_their_ancestors(self, monkeypatch):
        """Under the visit-ratio rule, after every select ``parents`` holds
        the open nodes and their ancestors, and ``visits`` no other node;
        the run's trace is the one of a selector that releases nothing."""
        inst = two_cluster_instance(14, 2)
        cut = add_objective_cutoff(inst, BranchAndCount(inst).optimize().objective, 0.05)
        cfg = SelectorConfig(rule="uct")
        made = {}  # id -> parent id of every node pushed
        held = []
        push, select = Selector.push, Selector.select

        def recorded_push(sel, node):
            made[node.id] = node.parent_id
            push(sel, node)

        def checked_select(sel, pool):
            got = select(sel, pool)
            keep = set()
            for nid in sel.nodes:
                while nid is not None and nid not in keep:
                    keep.add(nid)
                    nid = made[nid]
            assert set(sel.parents) == keep and set(sel._holds) == keep
            assert set(sel.visits) <= keep
            held.append(len(keep))
            return got

        with monkeypatch.context() as mp:
            mp.setattr(Selector, "push", recorded_push)
            mp.setattr(Selector, "select", checked_select)
            res = BranchAndCount(cut, selector=cfg).run(p1=None)
        assert res.exhausted and len(made) > 1000
        assert max(held) < len(made) // 10
        monkeypatch.setattr(Selector, "_release", lambda sel: sel._released.clear())
        assert BranchAndCount(cut, selector=cfg).run(p1=None).trace_hash == res.trace_hash


class TestBoundOrderDequeue:
    """Where every score is the scaled bound, the (bound, id) heap front is the
    scan's pick; elsewhere the front of the selector's score heap is, epoch
    after epoch."""

    # case -> (config, pool capacity, rows pooled before the traffic)
    CASES = {
        "bestfs": (SelectorConfig(rule="bestfs"), None, 2),
        # the solution gates open at 8 of 16 rows, inside the traffic
        "diversitree": (SelectorConfig(rule="diversitree", alpha=0.9, beta=0.1,
                                       sol_cutoff=0.5), 16, 3),
        "diversitree-unlimited": (SelectorConfig(rule="diversitree", alpha=0.9, beta=0.1,
                                                 sol_cutoff=0.5), None, 2),
        "dbfs-as": (SelectorConfig(rule="dbfs-as", alpha=0.9, sol_cutoff=0.5), 16, 3),
        # the depth gate latches at the first dequeue 6 deep
        "dbfs-ad": (SelectorConfig(rule="dbfs-ad", alpha=0.9, depth_cutoff=6), 16, 1),
        "dbfs-a": (SelectorConfig(rule="dbfs-a", alpha=0.9), 16, 1),
        "dbfs-ab": (SelectorConfig(rule="dbfs-ab", alpha=0.6, beta=0.3), 16, 1),
        "dbfs-min": (SelectorConfig(rule="dbfs-min", alpha=0.6), 16, 1),
        "dbfs-max": (SelectorConfig(rule="dbfs-max", alpha=0.6), 16, 1),
        "dbfs-prod": (SelectorConfig(rule="dbfs-prod", alpha=0.6), 16, 1),
        "dfs": (SelectorConfig(rule="dfs"), 16, 1),
        "brfs": (SelectorConfig(rule="brfs"), 16, 1),
        "uct": (SelectorConfig(rule="uct"), 16, 1),
        "he": (SelectorConfig(rule="he"), 16, 1),
    }
    # cases whose picks come from the (bound, id) heap while the spread is finite
    SHORTCUT = {"bestfs", "diversitree", "diversitree-unlimited", "dbfs-as", "dbfs-ad"}

    @staticmethod
    def random_traffic(seed, pool, selectors, steps=300):
        """Random pushes and pops, each made on every one of ``selectors``'
        open sets, with bounds drawn from five values and now and then
        +-1e308, so that the spread of the open bounds is zero, finite or
        infinite; now and then the pool gains its next row. Yields the open
        nodes after every step that leaves some open."""
        rng = np.random.default_rng(seed)
        levels = [-0.5, -0.25, 0.0, 0.25, 0.5, -1e308, 1e308]
        open_nodes = selectors[0].nodes
        for nid in range(steps):
            draw = rng.random()
            if open_nodes and draw < 0.4:
                popped = int(rng.choice(sorted(open_nodes)))
                for sel in selectors:
                    sel.pop(popped)
            elif draw < 0.45:
                k = len(pool)
                pool.add(np.array([(k >> b) & 1 for b in range(4)], dtype=float), 0.0)
            else:
                fixed = {int(j): int(rng.integers(0, 2))
                         for j in rng.choice(4, size=int(rng.integers(0, 5)), replace=False)}
                node = make_node(nid, bound=levels[rng.choice(7, p=[0.18] * 5 + [0.05] * 2)],
                                 depth=int(rng.integers(0, 8)), fixed=fixed,
                                 parent=int(rng.integers(0, nid)) if nid else None)
                for sel in selectors:
                    sel.push(node)
            if open_nodes:
                yield list(open_nodes.values())

    def check_traffic(self, case, literal, seeds):
        """At every step of the random traffic, three selectors, each owning
        an open set fed the same pushes and pops, pick ``oracle_select``'s
        node: one as the engine runs it, one with the bound-order seam forced
        to the score heap, and one that also rescores every open node on
        every call. A third of the picks are then popped, as the engine
        does. Returns how often the heap shortcut was taken and how often
        the spread was zero, finite or infinite."""
        cfg, capacity, rows = self.CASES[case]
        cfg = SelectorConfig(**{**cfg.__dict__, "literal_score": literal})
        seen = Counter()
        for seed in seeds:
            pool = pool_of_size(rows, capacity)
            sels = [Selector(cfg, num_integer_vars=4) for _ in range(3)]
            sel, scan, stale = sels
            scan._bound_order = stale._bound_order = lambda lo, hi, gated: False
            stale._epoch_of = lambda lo, hi, pool, gated: None
            for s in sels:
                s.visits = {0: 3, 1: 2, 5: 1}  # for the visit-ratio rule
            rng = np.random.default_rng(1000 + seed)
            for nodes in self.random_traffic(seed, pool, sels):
                want = oracle_select(sel, nodes, pool)
                least, greatest = oracle_bounds(nodes)
                spread = greatest - least
                shortcut = math.isfinite(spread) and (cfg.rule is Rule.BESTFS or sel.gated(pool))
                assert sel._bound_order(sel.min_bound(), sel.max_bound(),
                                        sel.gated(pool)) == shortcut
                if shortcut:
                    assert sel.min_id() == want
                assert [s.select(pool) for s in sels] == [want] * 3
                seen["shortcut" if shortcut else "heap"] += 1
                seen["infinite" if not math.isfinite(spread) else
                     "zero" if spread == 0 else "finite"] += 1
                if rng.random() < 1 / 3:
                    seen["popped"] += 1
                    for s in sels:
                        s.pop(want)
        return seen

    @pytest.mark.parametrize("literal", [False, True], ids=["bonus", "literal"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_pick_equals_the_oracle_on_the_traffic(self, case, literal):
        seen = self.check_traffic(case, literal, seeds=range(2))
        assert seen["heap"] and seen["zero"] and seen["finite"] and seen["infinite"]
        assert bool(seen["shortcut"]) == (case in self.SHORTCUT)
        assert seen["heap"] + seen["shortcut"] > 300
        assert seen["popped"] > (seen["heap"] + seen["shortcut"]) / 4

    def test_the_pool_crosses_the_gate_inside_the_traffic(self):
        cfg, capacity, rows = self.CASES["diversitree"]
        pool = pool_of_size(rows, capacity)
        sel = Selector(cfg)
        gates = [sel.gated(pool) for _ in self.random_traffic(0, pool, [sel])]
        assert gates[0] and not gates[-1]

    def test_every_rule_is_checked_on_the_traffic(self):
        assert {cfg.rule.value for cfg, _, _ in self.CASES.values()} == {r.value for r in Rule}

    def test_an_infinite_spread_keeps_the_scan(self):
        # every scaled bound is 0, so the scan takes the lowest id, not the least bound
        sel = open_set([make_node(0, bound=1e308), make_node(1, bound=-1e308)])
        assert not sel._bound_order(sel.min_bound(), sel.max_bound(), sel.gated(EMPTY))
        assert (sel.select(EMPTY), sel.min_id()) == (0, 1)

    def test_depth_gated_run_leaves_the_heap_once_the_gate_latches(self, monkeypatch):
        inst = random_binary_instance(1)
        z, _ = enum_pure_integer(inst, 0.1)
        cut = add_objective_cutoff(inst, z, 0.1)
        cfg = SelectorConfig(rule="dbfs-ad", alpha=0.6, depth_cutoff=3)
        used = []
        min_id, epoch_of, select = Selector.min_id, Selector._epoch_of, Selector.select
        monkeypatch.setattr(Selector, "min_id", lambda s: used.append("heap") or min_id(s))
        monkeypatch.setattr(Selector, "_epoch_of", lambda s, *inputs:
                            used.append("scan") or epoch_of(s, *inputs))
        monkeypatch.setattr(Selector, "select",
                            lambda s, pool: used.append("select") or select(s, pool))
        fast = BranchAndCount(cut, selector=cfg).run()
        assert used.count("select") == fast.nodes_processed  # one call per dequeue
        picks = [u for u in used if u != "select"]
        first_scan = picks.index("scan")
        assert first_scan > 0 and "heap" not in picks[first_scan:]

        monkeypatch.setattr(Selector, "_bound_order", lambda s, lo, hi, gated: False)
        scanned = BranchAndCount(cut, selector=cfg).run()
        assert scanned.trace_hash == fast.trace_hash

    @pytest.mark.parametrize("rule", [r.value for r in Rule])
    def test_a_run_that_rescores_every_call_traces_the_same(self, rule, monkeypatch):
        # the engine's pushes, pops and pool growth, with and without the epochs
        inst = random_binary_instance(1)
        z, _ = enum_pure_integer(inst, 0.2)
        cut = add_objective_cutoff(inst, z, 0.2)
        cfg = SelectorConfig(rule=rule, alpha=0.6, beta=0.3, sol_cutoff=0.2, depth_cutoff=3)
        rescored = []
        rescore = Selector._rescore
        monkeypatch.setattr(Selector, "_rescore",
                            lambda s, score: rescored.append(len(s)) or rescore(s, score))
        cached = BranchAndCount(cut, selector=cfg).run(p1=20)
        epochs = len(rescored)
        monkeypatch.setattr(Selector, "_epoch_of", lambda s, lo, hi, pool, gated: None)
        stale = BranchAndCount(cut, selector=cfg).run(p1=20)
        assert stale.trace_hash == cached.trace_hash
        fresh = len(rescored) - epochs
        if rule == "bestfs":
            assert fresh == epochs == 0  # every pick is the (bound, id) heap's
        elif rule == "uct":
            assert fresh == epochs > 0  # every call is an epoch of its own
        else:
            assert fresh > epochs > 0


class TestPresets:
    def test_published_weights_are_bit_exact(self):
        assert PRESETS == {
            "HHL": {"alpha": 0.94, "beta": 0.06, "sol_cutoff": 0.80},
            "HLL": {"alpha": 0.95, "beta": 0.06, "sol_cutoff": 0.20},
            "LLH": {"alpha": 0.01, "beta": 0.99, "sol_cutoff": 0.05},
            "LHH": {"alpha": 0.18, "beta": 0.80, "sol_cutoff": 0.70},
        }

    def test_preset_builds_the_blended_rule(self):
        cfg = preset("hhl")
        assert cfg.rule is Rule.DIVERSITREE
        assert (cfg.alpha, cfg.beta, cfg.sol_cutoff) == (0.94, 0.06, 0.80)
        assert cfg.depth_cutoff == 0

    def test_overweight_preset_warns_but_keeps_the_values(self, caplog):
        with caplog.at_level(logging.WARNING, logger="diversitree.selectors"):
            cfg = preset("HLL")
        assert cfg.alpha + cfg.beta == pytest.approx(1.01)
        assert any("alpha + beta" in r.message for r in caplog.records)

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ValueError, match="HHL"):
            preset("XYZ")


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"alpha": 1.5},
        {"alpha": -0.1},
        {"beta": 2.0},
        {"sol_cutoff": -0.5},
        {"sol_cutoff": 1.5},
        {"depth_cutoff": -1},
        {"rho": -1.0},
        {"rho": math.nan},
        {"rho": math.inf},
        {"rho": -math.inf},
    ])
    def test_out_of_range_parameters(self, kw):
        with pytest.raises(ValueError):
            SelectorConfig(**kw)

    def test_rule_strings_are_coerced(self):
        assert SelectorConfig(rule="dbfs-a").rule is Rule.DBFS_A
        assert Rule.from_name("  DFS ") is Rule.DFS

    def test_unknown_rule_lists_the_choices(self):
        with pytest.raises(ValueError, match="bestfs"):
            Rule.from_name("cplex")

    def test_default_rho_depends_on_the_rule(self):
        assert SelectorConfig(rule="uct").resolved_rho() == 0.1
        assert SelectorConfig(rule="he").resolved_rho() == 0.5
        assert SelectorConfig(rule="bestfs").resolved_rho() == 0.0
        assert SelectorConfig(rule="uct", rho=0.7).resolved_rho() == 0.7

    def test_plunge_window_defaults_to_integer_count(self):
        sel = Selector(SelectorConfig(rule="diversitree"), num_integer_vars=12)
        assert sel.max_plunge == 12
        assert Selector(SelectorConfig(rule="diversitree")).max_plunge == 1  # never empty
