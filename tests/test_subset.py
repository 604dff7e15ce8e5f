"""Diverse-subset selection: greedy chain, swap deltas, exact search."""

import functools
import itertools

import numpy as np
import pytest

from conftest import (
    oracle_exact,
    oracle_greedy,
    oracle_greedy_from,
    oracle_greedy_swap,
    oracle_ham_counts,
    oracle_pair_sum,
)
from diversitree import subset
from diversitree.diversity import pairwise_ham
from diversitree.subset import (
    EXACT_LIMIT,
    dbin_delta,
    pair_sum,
    select_diverse_subset,
)


def random_pool(rng, n=None, bits=None):
    n = n or int(rng.integers(4, 13))
    bits = bits or int(rng.integers(2, 9))
    return rng.integers(0, 2, size=(n, bits))


def brute_best(proj, p):
    dist = pairwise_ham(proj)
    return max(pair_sum(dist, c) for c in itertools.combinations(range(len(proj)), p))


class TestPairSum:
    def test_matches_plain_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            proj = random_pool(rng)
            dist = pairwise_ham(proj)
            p = int(rng.integers(2, len(proj) + 1))
            chosen = rng.choice(len(proj), size=p, replace=False)
            assert pair_sum(dist, chosen) == pytest.approx(
                oracle_pair_sum(proj, chosen), abs=1e-12
            )

    def test_single_pair(self):
        proj = np.array([[0, 0], [1, 1]])
        assert pair_sum(pairwise_ham(proj), [0, 1]) == 1.0


class TestSwapDelta:
    def test_matches_recomputation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            proj = random_pool(rng)
            n = len(proj)
            dist = pairwise_ham(proj)
            p = int(rng.integers(2, n))
            chosen = list(rng.choice(n, size=p, replace=False))
            out = chosen[int(rng.integers(0, p))]
            rest = [k for k in range(n) if k not in chosen]
            inc = rest[int(rng.integers(0, len(rest)))]
            swapped = [inc if k == out else k for k in chosen]
            want = pair_sum(dist, swapped) - pair_sum(dist, chosen)
            assert dbin_delta(dist, chosen, out, inc) == pytest.approx(want, abs=1e-12)

    def test_identical_rows_give_zero_delta(self):
        proj = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1]])  # rows 0 and 2 equal
        dist = pairwise_ham(proj)
        assert dbin_delta(dist, [0, 1], 0, 2) == 0.0

    def test_dominating_row_gives_positive_delta(self):
        proj = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 1]])
        dist = pairwise_ham(proj)
        # replacing the near-duplicate with the far row must help
        assert dbin_delta(dist, [0, 1], 1, 2) > 0.0


class TestMethodChain:
    def test_each_method_dominates_the_cruder_one(self):
        rng = np.random.default_rng(2)
        improved = 0
        for _ in range(120):
            proj = random_pool(rng, n=int(rng.integers(5, 11)))
            dist = pairwise_ham(proj)
            p = int(rng.integers(2, min(6, len(proj) + 1)))
            prefix = pair_sum(dist, range(p))
            greedy = pair_sum(dist, select_diverse_subset(proj, p, "greedy"))
            swap = pair_sum(dist, select_diverse_subset(proj, p, "greedy_swap"))
            exact = pair_sum(dist, select_diverse_subset(proj, p, "exact"))
            assert greedy >= prefix - 1e-12
            assert swap >= greedy - 1e-12
            assert exact >= swap - 1e-12
            assert exact == pytest.approx(brute_best(proj, p), abs=1e-12)
            if swap > greedy + 1e-12:
                improved += 1
        assert improved > 0  # the swap phase must actually fire somewhere

    def test_exact_is_permutation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            proj = random_pool(rng, n=8, bits=4)
            p = 3
            base = select_diverse_subset(proj, p, "exact")
            perm = rng.permutation(len(proj))
            shuffled = select_diverse_subset(proj[perm], p, "exact")
            content = lambda m, idx: sorted(tuple(int(v) for v in m[i]) for i in idx)
            assert content(proj, base) == content(proj[perm], shuffled)

    def test_opposite_corners_beat_the_near_duplicate(self):
        proj = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 1]])
        for method in ("greedy", "greedy_swap", "exact"):
            assert select_diverse_subset(proj, 2, method) == [0, 1]

    def test_whole_pool_when_p_equals_n(self):
        proj = np.array([[0, 0], [0, 1], [1, 0]])
        for method in ("greedy", "greedy_swap", "exact"):
            assert select_diverse_subset(proj, 3, method) == [0, 1, 2]

    def test_exact_tie_break_is_canonical(self):
        # both antipodal pairs score 1.0; the all-zero row wins the key compare
        proj = np.array([[0, 1], [1, 0], [1, 1], [0, 0]])
        idx = select_diverse_subset(proj, 2, "exact")
        assert sorted(tuple(int(v) for v in proj[i]) for i in idx) == [(0, 0), (1, 1)]

    def test_accepts_a_solution_pool_object(self):
        from diversitree.engine import SolutionPool
        from diversitree.model import LE, LinearConstraint, MipInstance, VariableDef

        inst = MipInstance(
            name="p",
            variables=[VariableDef(j, 0.0, 1.0, True, f"x{j}") for j in range(3)],
            constraints=[LinearConstraint({0: 1.0}, LE, 3.0, "r0")],
            objective={0: 1.0},
        )
        pool = SolutionPool(inst)
        for row in ([0, 0, 0], [1, 1, 1], [1, 1, 0]):
            pool.add(np.asarray(row, dtype=float), 0.0)
        assert select_diverse_subset(pool.projections, 2) == [0, 1]


class TestExactTies:
    @staticmethod
    def differential_pools(count=150):
        rng = np.random.default_rng(4)
        for k in range(count):
            n = int(rng.integers(12, 91))
            bits = int(rng.integers(4, 31))
            p = int(rng.integers(2, 10))
            proj = rng.integers(0, 2, size=(n, bits))
            if k % 3 == 0:  # copy a quarter of the rows over others
                proj[rng.integers(0, n, size=n // 4)] = proj[rng.integers(0, n, size=n // 4)]
            yield proj, p

    @staticmethod
    @functools.cache
    def differential_picks():
        """Each differential pool with the plain-loop greedy and greedy-swap
        picks, searched once and shared by every ``START_CHUNK`` case."""
        picks = []
        for proj, p in TestExactTies.differential_pools():
            dist = oracle_ham_counts(proj)
            picks.append((proj, p, sorted(oracle_greedy(dist, p)), oracle_greedy_swap(dist, p)))
        return picks

    @pytest.mark.parametrize("chunk", [subset.START_CHUNK, 7, 1])
    def test_greedy_methods_match_the_plain_loop_search(self, monkeypatch, chunk):
        # 7 and 1 split the farthest-partner starts across blocks
        monkeypatch.setattr(subset, "START_CHUNK", chunk)
        checked = 0
        for proj, p, greedy, greedy_swap in self.differential_picks():
            assert select_diverse_subset(proj, p, "greedy") == greedy
            assert select_diverse_subset(proj, p, "greedy_swap") == greedy_swap
            checked += 1
        assert checked == 150

    @pytest.mark.parametrize("chunk", [subset.START_CHUNK, 7, 1])
    def test_farthest_partner_starts_match_the_plain_loop(self, monkeypatch, chunk):
        # the picks themselves: a start grown wrong can still end at the same
        # local optimum, and identical rows (every distance 0) tie everywhere
        monkeypatch.setattr(subset, "START_CHUNK", chunk)
        pools = [(np.tile([1, 0, 1], (9, 1)), 4), *itertools.islice(self.differential_pools(), 20)]
        for proj, p in pools:
            dist = oracle_ham_counts(proj)
            want = [oracle_greedy_from(dist, i, p) for i in range(len(dist))]
            assert subset._farthest_partner_starts(np.array(dist, dtype=float), p) == want

    def test_equal_swap_gains_go_to_the_lowest_index(self):
        # from the greedy start {0, 1, 2, 5}, swapping 1 for 3 or for 4 both
        # gain one differing bit (pair-sum 11 either way); summed as float
        # thirds, the swap to 4 came out larger and won
        proj = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1], [0, 0, 0]])
        dist = oracle_ham_counts(proj)
        assert oracle_pair_sum(proj, [0, 2, 3, 5]) * 3 == pytest.approx(11)
        assert oracle_pair_sum(proj, [0, 2, 4, 5]) * 3 == pytest.approx(11)
        assert oracle_greedy_swap(dist, 4) == [0, 2, 3, 5]
        assert select_diverse_subset(proj, 4, "greedy_swap") == [0, 2, 3, 5]

    @pytest.mark.parametrize("chunk", [subset.EXACT_CHUNK, 7])
    def test_exact_matches_the_plain_loop_search(self, monkeypatch, chunk):
        # a 7-row chunk splits most searches, and their ties, across blocks
        monkeypatch.setattr(subset, "EXACT_CHUNK", chunk)
        rng = np.random.default_rng(9)
        for k in range(50):
            n = int(rng.integers(4, 13))
            proj = rng.integers(0, 2, size=(n, int(rng.integers(2, 7))))
            if k % 3 == 0:  # copy a third of the rows over others
                proj[rng.integers(0, n, size=n // 3)] = proj[rng.integers(0, n, size=n // 3)]
            p = int(rng.integers(2, min(n, 5) + 1))
            assert select_diverse_subset(proj, p, "exact") == oracle_exact(proj, p), k

    @pytest.mark.parametrize("method", ["greedy", "greedy_swap"])
    def test_identical_rows_give_the_lowest_indices(self, method):
        proj = np.tile([1, 0, 1, 1], (7, 1))
        assert select_diverse_subset(proj, 4, method) == [0, 1, 2, 3]


class TestValidation:
    PROJ = np.array([[0, 0], [0, 1], [1, 1]])

    def test_subset_size_bounds(self):
        with pytest.raises(ValueError, match="at least 2"):
            select_diverse_subset(self.PROJ, 1)
        with pytest.raises(ValueError, match="exceeds pool size"):
            select_diverse_subset(self.PROJ, 4)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            select_diverse_subset(self.PROJ, 2, "annealing")

    def test_exact_combinatorial_guard(self):
        big = np.zeros((40, 3), dtype=int)
        assert __import__("math").comb(40, 12) > EXACT_LIMIT
        with pytest.raises(ValueError, match="exceeds"):
            select_diverse_subset(big, 12, "exact")

    def test_dense_memory_guard_fires_before_any_n_by_n_array(self, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("distance matrix built")

        monkeypatch.setattr(subset, "DENSE_LIMIT_BYTES", 50 * 50 * 8 - 1)
        monkeypatch.setattr(subset, "pairwise_ham", no_matrix)
        proj = np.random.default_rng(5).integers(0, 2, size=(50, 6))
        for method in ("greedy", "greedy_swap", "exact"):
            with pytest.raises(ValueError, match=r"50 solutions needs 20000 bytes.*--p1"):
                select_diverse_subset(proj, 2, method)

    def test_dense_memory_guard_admits_the_limit(self, monkeypatch):
        monkeypatch.setattr(subset, "DENSE_LIMIT_BYTES", 50 * 50 * 8)
        proj = np.random.default_rng(5).integers(0, 2, size=(50, 6))
        assert len(select_diverse_subset(proj, 3)) == 3
