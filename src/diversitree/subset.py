"""Pick a maximally diverse p-subset of a solution pool.

The objective is the pair-sum of Hamming distances, whose argmax coincides
with maximizing the mean pairwise distance (DBin) of the subset. Every
method works on one n x n matrix of integer Hamming counts, built once per
call (exact integers, held in float64), so all comparisons are exact and
ties are real ties.

Methods:

* ``greedy``: seed with the farthest pair (the first in row-major order;
  (0, 1) when every distance is 0), then repeatedly add the solution with
  the largest summed distance to the chosen set. This is the
  farthest-partner pick of the pair's first member.
* ``greedy_swap``: best-improvement single swaps to a local optimum
  (iteration cap 50 * p per start), restarted from the greedy pick, a
  greedy-drop pick, and one farthest-partner pick per pool member; the
  best local optimum wins. The farthest-partner picks are grown together,
  ``START_CHUNK`` members at a time, one matrix of running sums per block,
  and the greedy pick is read from them.
  Each move scores every (out, in) swap at once from the running distance
  sums of the chosen set; a start whose set was already searched is
  skipped, since its local optimum is the same.
* ``exact``: brute force over all combinations, permitted only while
  C(n, p) stays at or below two million. Combinations are scored in
  blocks of ``EXACT_CHUNK`` rows, each pair-sum a sum of exact counts.

Greedy variants break ties toward the lowest solution index: the lowest
added index, the lowest (out, in) swap in that order, the lowest dropped
index, and the earliest start. Exact breaks ties on canonical content so
pool order cannot change the answer.

The distance matrix takes n * n * 8 bytes; a pool that would need more than
``DENSE_LIMIT_BYTES`` is refused before anything n x n is allocated.
"""

import itertools
import math

import numpy as np

from .diversity import pairwise_ham

EXACT_LIMIT = 2_000_000
EXACT_CHUNK = 65_536
START_CHUNK = 64  # farthest-partner starts grown at once: O(START_CHUNK * n) memory
DENSE_LIMIT_BYTES = 1 << 30
SWAP_CAP_FACTOR = 50
METHODS = ("greedy", "greedy_swap", "exact")


def _hamming_counts(proj: np.ndarray) -> np.ndarray:
    """Hamming counts as exact integers in float64, rounded in place.

    pairwise_ham's numerator is an exact integer; keeping its buffer saves
    the n x n copy an integer dtype would cost. Every sum the search forms
    stays far below 2**53, so all arithmetic on the counts is exact.
    """
    dist = pairwise_ham(proj)
    dist *= proj.shape[1]
    return np.rint(dist, out=dist)


def pair_sum(dist: np.ndarray, chosen) -> float:
    idx = list(chosen)
    sub = dist[np.ix_(idx, idx)]
    return float(sub.sum() / 2.0)


# nothing in the package calls it; perfbench/tracer.py wraps it
def dbin_delta(dist: np.ndarray, chosen, out: int, incoming: int) -> float:
    """Pair-sum change from swapping ``out`` for ``incoming``; O(p)."""
    delta = 0.0
    for k in chosen:
        if k == out:
            continue
        delta += dist[incoming, k] - dist[out, k]
    return delta


def _far_row(dist: np.ndarray) -> int:
    """The first row holding the largest distance: the first member of the
    farthest pair in row-major order over i < j (0 when every distance is 0)."""
    return int(np.argmax(dist.max(axis=1)))


def _swap_to_local_optimum(dist: np.ndarray, chosen: list) -> list:
    chosen = sorted(chosen)
    sums = dist[:, chosen].sum(axis=1)
    for _ in range(SWAP_CAP_FACTOR * len(chosen)):
        outs = np.asarray(chosen)
        # gain[r, inc] = pair-sum change from swapping chosen[r] for inc
        gain = sums[None, :] - dist[outs, :] - sums[outs][:, None]
        gain[:, outs] = 0  # never accepted: a move must gain more than 0
        r, inc = divmod(int(np.argmax(gain)), gain.shape[1])  # lowest out, then in
        if gain[r, inc] <= 0:
            break
        sums += dist[:, inc] - dist[:, chosen[r]]
        chosen[r] = inc
        chosen.sort()
    return chosen


def _greedy_drop(dist: np.ndarray, p: int) -> list:
    """Peel the least-contributing member off the full pool until p remain."""
    n = dist.shape[0]
    contrib = dist.sum(axis=1)
    alive = np.ones(n, dtype=bool)
    for _ in range(n - p):
        worst = int(np.argmin(np.where(alive, contrib, np.inf)))  # lowest index on ties
        alive[worst] = False
        contrib -= dist[:, worst]
    return np.flatnonzero(alive).tolist()


def _farthest_partner_starts(dist: np.ndarray, p: int, members=None) -> list:
    """For each of ``members`` in order (None: every member), the member and
    its farthest partner (the lowest-index one; i + 1 mod n when every
    distance from i is 0), then the member farthest in sum from the chosen
    set, lowest index on ties, until p are chosen. ``START_CHUNK`` members
    are grown at a time; every sum is an exact integer, so each pick is the
    one a single growth makes."""
    n = dist.shape[0]
    members = np.arange(n) if members is None else np.asarray(members, dtype=np.intp)
    starts = []
    for top in range(0, len(members), START_CHUNK):
        first = members[top:top + START_CHUNK]
        rows = np.arange(len(first))
        partner = np.argmax(dist[first], axis=1)
        alone = partner == first
        partner[alone] = (first[alone] + 1) % n
        sums = dist[first] + dist[partner]  # dist is symmetric: rows are columns
        taken = np.zeros(sums.shape, dtype=bool)
        taken[rows, first] = taken[rows, partner] = True
        chosen = [first, partner]
        for _ in range(p - 2):
            nxt = np.argmax(np.where(taken, -1, sums), axis=1)
            taken[rows, nxt] = True
            sums += dist[nxt]
            chosen.append(nxt)
        starts.extend(np.stack(chosen, axis=1).tolist())
    return starts


def _greedy_swap(dist: np.ndarray, p: int) -> list:
    grown = _farthest_partner_starts(dist, p)
    starts = [grown[_far_row(dist)], _greedy_drop(dist, p)] + grown
    best = None
    best_sum = -1
    seen = set()
    for start in starts:  # fixed order keeps ties, and so output, deterministic
        key = frozenset(start)
        if key in seen:
            continue
        seen.add(key)
        cand = _swap_to_local_optimum(dist, start)
        val = pair_sum(dist, cand)
        if val > best_sum:
            best_sum = val
            best = cand
    return best


def _exact(dist: np.ndarray, p: int, projections: np.ndarray) -> list:
    n = dist.shape[0]
    pairs = list(itertools.combinations(range(p), 2))
    combos = itertools.combinations(range(n), p)
    best_sum = -1.0
    best = None
    best_key = None
    while True:  # score EXACT_CHUNK combinations (rows) at a time
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, EXACT_CHUNK)),
                            dtype=np.intp).reshape(-1, p)
        if not len(block):
            return list(best)
        sums = np.zeros(len(block))
        for a, b in pairs:
            sums += dist[block[:, a], block[:, b]]
        top = sums.max()
        if top < best_sum:
            continue
        rows = np.flatnonzero(sums == top)
        if top > best_sum:
            best_sum, best, best_key = top, tuple(block[rows[0]].tolist()), None
            rows = rows[1:]
        for r in rows:
            # tie: prefer canonically smallest content, not pool position
            combo = tuple(block[r].tolist())
            if best_key is None:
                best_key = _content_key(projections, best)
            key = _content_key(projections, combo)
            if key < best_key:
                best, best_key = combo, key


def _content_key(projections: np.ndarray, combo) -> tuple:
    return tuple(sorted(projections[i].tobytes() for i in combo))


def select_diverse_subset(projections, p: int, method: str = "greedy_swap") -> list:
    """Indices of a diverse p-subset of the rows of a 0/1 projection matrix
    (a pool's ``projections``), per the chosen method."""
    proj = np.asarray(projections, dtype=float)
    n = proj.shape[0]
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if p < 2:
        raise ValueError(f"subset size must be at least 2, got {p}")
    if p > n:
        raise ValueError(f"subset size {p} exceeds pool size {n}")
    if method == "exact" and math.comb(n, p) > EXACT_LIMIT:
        raise ValueError(
            f"exact search over C({n}, {p}) = {math.comb(n, p)} subsets exceeds "
            f"the {EXACT_LIMIT} limit"
        )
    if n * n * 8 > DENSE_LIMIT_BYTES:
        raise ValueError(
            f"a pool of {n} solutions needs {n * n * 8} bytes for its distance "
            f"matrix, above the {DENSE_LIMIT_BYTES}-byte limit; cap the pool with --p1"
        )
    dist = _hamming_counts(proj)
    if method == "greedy":
        return sorted(_farthest_partner_starts(dist, p, [_far_row(dist)])[0])
    if method == "greedy_swap":
        return _greedy_swap(dist, p)
    return _exact(dist, p, proj)
