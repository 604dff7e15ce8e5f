"""Diversity metrics against loop-based oracles and hand values."""

import numpy as np
import pytest

from diversitree import dall, dbin, ham
from diversitree.diversity import pairwise_ham, project_binary
from diversitree.model import INT_TOL

from conftest import oracle_dall, oracle_dbin, oracle_ham


class TestHam:
    def test_hand_value(self):
        assert ham((0, 0, 1, 1), (1, 0, 1, 0)) == pytest.approx(0.5)

    def test_identity(self):
        assert ham((1, 0, 1), (1, 0, 1)) == 0.0

    def test_complement(self):
        a = np.array([0, 1, 0, 1, 1])
        assert ham(a, 1 - a) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ham((0, 1), (0, 1, 0))

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            a = rng.integers(0, 2, n)
            b = rng.integers(0, 2, n)
            c = rng.integers(0, 2, n)
            assert ham(a, b) == pytest.approx(ham(b, a))
            assert (ham(a, b) == 0) == bool(np.all(a == b))
            assert ham(a, c) <= ham(a, b) + ham(b, c) + 1e-12
            assert 0.0 <= ham(a, b) <= 1.0


class TestDbin:
    def test_hand_value(self):
        assert dbin([(0, 0), (0, 1), (1, 1)]) == pytest.approx(2.0 / 3.0)

    def test_identical_vectors(self):
        assert dbin([(1, 0, 1)] * 4) == 0.0

    def test_requires_two(self):
        with pytest.raises(ValueError):
            dbin([(0, 1)])

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            w = int(rng.integers(1, 10))
            rows = rng.integers(0, 2, (n, w))
            assert dbin(rows) == pytest.approx(oracle_dbin(rows), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, (7, 6))
        base = dbin(rows)
        for _ in range(10):
            perm = rng.permutation(7)
            assert dbin(rows[perm]) == pytest.approx(base, abs=1e-12)

    def test_integer_counts_equal_the_float_path_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 400))
            rows = (rng.random((n, int(rng.integers(1, 70)))) < rng.random()).astype(np.int8)
            want = dbin(rows.astype(float))
            assert dbin(rows) == want
            assert dbin(rows.astype(bool)) == want

    def test_complementary_pair_is_one(self):
        assert dbin([(0, 0, 0), (1, 1, 1)]) == 1.0

    def test_range(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rows = rng.integers(0, 2, (int(rng.integers(2, 9)), int(rng.integers(1, 9))))
            assert 0.0 <= dbin(rows) <= 1.0


class TestPairwiseHam:
    def test_matches_elementwise(self):
        rng = np.random.default_rng(23)
        rows = rng.integers(0, 2, (6, 5))
        dist = pairwise_ham(rows)
        for i in range(6):
            for j in range(6):
                assert dist[i, j] == pytest.approx(oracle_ham(rows[i], rows[j]), abs=1e-12)
        assert np.allclose(np.diag(dist), 0.0)


class TestDall:
    def test_identical_solutions(self):
        assert dall([(1.0, 2.0), (1.0, 2.0)], (1.0, 1.0)) == 0.0

    def test_bernoulli_variance(self):
        # single binary variable over {0,1} with R=1: variance 0.25
        assert dall([(0.0,), (1.0,)], (1.0,)) == pytest.approx(0.25)

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            sols = rng.uniform(-2, 4, (n, 4))
            ranges = rng.uniform(0.5, 3.0, 4)
            assert dall(sols, ranges) == pytest.approx(
                oracle_dall(sols, ranges), abs=1e-12)

    def test_zero_range_skipped(self):
        sols = [(0.0, 5.0), (1.0, 5.0)]
        assert dall(sols, (1.0, 0.0)) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            dall(sols, (0.0, 0.0))

    def test_requires_two(self):
        with pytest.raises(ValueError):
            dall([(1.0, 1.0)], (1.0, 1.0))


class TestProjection:
    def test_rounds_lp_noise(self):
        x = np.array([0.9999997, 2.5, 0.0000003])
        proj = project_binary(x, [0, 2])
        assert proj.tolist() == [1, 0]
        assert proj.dtype == np.int8
        assert project_binary(list(x), (0, 2)).tolist() == [1, 0]

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            project_binary(np.array([0.4]), [0])

    def test_tolerance_edge(self):
        # a deviation of exactly INT_TOL is LP noise; one ulp more is not
        assert project_binary(np.array([INT_TOL, -INT_TOL]), [0, 1]).tolist() == [0, 0]
        beyond = np.nextafter(INT_TOL, 1.0)
        for v in (beyond, -beyond):
            with pytest.raises(ValueError):
                project_binary(np.array([v]), [0])

    def test_empty_index(self):
        assert project_binary(np.array([1.0]), []).shape == (0,)

