"""Node-selection rules for branch-and-count.

Every rule scores the open nodes and dequeues the argmin, ties going to the
lowest node id. ``Selector.select`` is the one call that picks the next node.
Where the argmin is pure bound order (best-first, or a rule whose gate is
still closed) it skips the scores and returns the least (bound, id) from the
open set's heap, which is the same node. Otherwise it scores in one
vectorized pass: ``Selector.scores`` computes the whole score vector from the
open set's numpy columns (``engine.OpenNodeQueue``), and ``Selector.score``
runs the same code on a one-node open set. Classic rules: best-first (bound),
depth-first (LIFO), breadth-first (FIFO), a visit-ratio rule (bound plus
rho * V/v over the node's and parent's dequeue counts) and a best-estimate
rule blending the bound with a fractionality-repair estimate.

The diversity family blends three scaled quantities over the open set:

* L: the node bound min-max scaled over open nodes (0 when degenerate),
* D: mean disagreement of the node's binary fixings (``Node.path``, built
  once when the node is made) against the pool,
* H: depth over the plunge window, the instance's integer count (at least
  1), clamped to 1.

High diversity and depth are desirable, so by default D and H enter the
argmin as bonuses (1 - D, 1 - H); ``literal_score`` keeps the raw +D/+H
form for comparison. Solution-gated rules stay pure best-first until the
pool holds the requested fraction of capacity; the depth-gated rule trips
permanently the first time a dequeued node is at least ``depth_cutoff``
deep.
"""

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

log = logging.getLogger("diversitree.selectors")

DEFAULT_RHO = {"uct": 0.1, "he": 0.5}


class Rule(str, Enum):
    BESTFS = "bestfs"
    DFS = "dfs"
    BRFS = "brfs"
    UCT = "uct"
    HE = "he"
    DBFS_A = "dbfs-a"
    DBFS_AB = "dbfs-ab"
    DBFS_AS = "dbfs-as"
    DBFS_AD = "dbfs-ad"
    DIVERSITREE = "diversitree"
    DBFS_MIN = "dbfs-min"
    DBFS_MAX = "dbfs-max"
    DBFS_PROD = "dbfs-prod"

    @classmethod
    def from_name(cls, name: str) -> "Rule":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown rule {name!r}; choose from {', '.join(r.value for r in cls)}"
            ) from None


# Rules whose blend uses the beta (depth) weight.
_BETA_RULES = {Rule.DBFS_AB, Rule.DIVERSITREE}
# Rules gated on the solution count.
_SOLUTION_GATED = {Rule.DBFS_AS, Rule.DIVERSITREE}


@dataclass
class SelectorConfig:
    """Parameters for one node-selection rule.

    ``sol_cutoff`` is the gate fraction s of pool capacity,
    ``depth_cutoff`` the gate depth d, ``rho`` the classic-rule weight
    (defaults 0.1 for the visit-ratio rule, 0.5 for best-estimate).
    """

    rule: Rule = Rule.BESTFS
    alpha: float = 0.0
    beta: float = 0.0
    sol_cutoff: float = 0.0
    depth_cutoff: int = 0
    rho: float = None
    literal_score: bool = False

    def __post_init__(self):
        if isinstance(self.rule, str):
            self.rule = Rule.from_name(self.rule)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.alpha + self.beta > 1.0 + 1e-9:
            # published preset values exceed 1 by 0.01; keep the literal weight
            log.warning(
                "alpha + beta = %.4f > 1; the bound weight goes negative",
                self.alpha + self.beta,
            )
        if not 0.0 <= self.sol_cutoff <= 1.0:
            raise ValueError(f"sol_cutoff must be in [0, 1], got {self.sol_cutoff}")
        if self.depth_cutoff < 0:
            raise ValueError(f"depth_cutoff must be >= 0, got {self.depth_cutoff}")
        if self.rho is not None and self.rho < 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")

    def resolved_rho(self) -> float:
        if self.rho is not None:
            return self.rho
        return DEFAULT_RHO.get(self.rule.value, 0.0)


# high/low regimes for (alpha, s, beta); construction is deferred so the
# HLL weight-sum warning fires on use, not on import
PRESETS = {
    "HHL": {"alpha": 0.94, "beta": 0.06, "sol_cutoff": 0.80},
    "HLL": {"alpha": 0.95, "beta": 0.06, "sol_cutoff": 0.20},
    "LLH": {"alpha": 0.01, "beta": 0.99, "sol_cutoff": 0.05},
    "LHH": {"alpha": 0.18, "beta": 0.80, "sol_cutoff": 0.70},
}


def preset(name: str) -> SelectorConfig:
    try:
        values = PRESETS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}") from None
    return SelectorConfig(rule=Rule.DIVERSITREE, **values)


def scaled_bound(lp_bound, min_bound: float, max_bound: float):
    """Bound (or an array of them) min-max scaled over [min_bound, max_bound];
    0 when the spread is 0 or not finite."""
    spread = max_bound - min_bound
    if spread <= 0.0 or not math.isfinite(spread):
        return np.zeros_like(lp_bound, dtype=float)
    return np.minimum(1.0, np.maximum(0.0, (lp_bound - min_bound) / spread))


def scaled_depth(depth, max_plunge: int):
    """Depth (or an array of depths) over the plunge window ``max_plunge``
    (at least 1), clamped to 1."""
    return np.minimum(1.0, depth / max_plunge)


def term_vector(pool) -> np.ndarray:
    """Disagreement of each possible fixing with the pool, then a 0.0 pad.

    Fixing the binary at pool position k to v is term index 2k + v, the
    encoding of ``engine.Node.path``. Entry 2k is ones_k/n (bit k fixed to
    0) and 2k+1 is (n - ones_k)/n (fixed to 1), from the pool's per-bit ones
    counts; all zero while the pool is empty.
    """
    n = len(pool)
    terms = np.zeros(2 * len(pool.ones) + 1)
    if n:
        terms[0:-1:2] = pool.ones / n
        terms[1::2] = (n - pool.ones) / n
    return terms


def path_diversity(paths: np.ndarray, lengths: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Mean term along each padded path row; 0 for an empty path.

    Each row's terms are summed in fixing order (a running sum along the
    row, never numpy's pairwise reduction), so the value is the same bits
    as adding them one at a time: the pads add 0.0.
    """
    if paths.shape[1] == 0:
        return np.zeros(len(lengths))
    total = terms[paths].cumsum(axis=1)[:, -1]
    return total / np.maximum(lengths, 1)  # an empty row sums its pads to 0.0


class Selector:
    """Stateful rule evaluator: visit counts and gate latches live here."""

    def __init__(self, config: SelectorConfig, num_integer_vars: int = 0):
        self.config = config
        self.rho = config.resolved_rho()
        self.max_plunge = max(1, num_integer_vars)
        self.visits = {}  # node id -> dequeues within its subtree
        self.parents = {}  # node id -> parent id, kept for the visit-ratio rule
        self.depth_gate_open = config.depth_cutoff == 0
        self._terms = (None, 0, None)  # (pool, its size, term_vector(pool))

    # -- lifecycle hooks ------------------------------------------------------

    def on_enqueue(self, node):
        if self.config.rule == Rule.UCT:
            self.parents[node.id] = node.parent_id

    def on_dequeue(self, node):
        if self.config.rule == Rule.UCT:
            nid = node.id
            while nid is not None:
                self.visits[nid] = self.visits.get(nid, 0) + 1
                nid = self.parents.get(nid)
        if node.depth >= self.config.depth_cutoff:
            self.depth_gate_open = True

    # -- scoring --------------------------------------------------------------

    def gated(self, pool) -> bool:
        """True while the rule must behave as pure best-first, given the solution pool."""
        rule = self.config.rule
        if rule in _SOLUTION_GATED:
            if pool.capacity is None:
                return True  # unlimited capacity: the fraction gate never fills
            return len(pool) < self.config.sol_cutoff * pool.capacity
        if rule == Rule.DBFS_AD:
            return not self.depth_gate_open
        return False

    def _bound_order(self, queue, pool) -> bool:
        """True when the least (bound, id) open node is the argmin of the scores.

        Under best-first or a closed gate every score is the scaled bound,
        which is 0 at the least bound and positive above it while the spread
        is finite (a gap scores 0 only below about 1e-323 times the spread,
        where the division underflows), and 0 everywhere when the spread is 0.
        """
        if not math.isfinite(queue.max_bound() - queue.min_bound()):
            return False  # every scaled bound is 0: the scan takes the lowest id
        return self.config.rule == Rule.BESTFS or self.gated(pool)

    def scores(self, queue, pool, gated: bool = None) -> np.ndarray:
        """Score of every open node of ``queue`` (an ``OpenNodeQueue``), in its row order."""
        cfg = self.config
        rule = cfg.rule
        n = queue.sync()
        ids = queue.ids[:n]
        if rule == Rule.DFS:
            return -ids.astype(float)
        if rule == Rule.BRFS:
            return ids.astype(float)
        bound = queue.bound[:n]
        if rule == Rule.UCT:
            visits = self.visits
            nodes = [queue.nodes[nid] for nid in ids.tolist()]
            v = np.array([visits.get(nd.id, 0) or 1 for nd in nodes], dtype=float)
            parent_visits = np.array([visits.get(nd.parent_id, 0) for nd in nodes], dtype=float)
            return bound + self.rho * parent_visits / v
        if rule == Rule.HE:
            return (1.0 - self.rho) * bound + self.rho * queue.estimate[:n]
        lscore = scaled_bound(bound, queue.min_bound(), queue.max_bound())
        if rule == Rule.BESTFS:
            return lscore
        if gated is None:
            gated = self.gated(pool)
        if gated:
            return lscore
        dval = path_diversity(queue.path[:n], queue.path_len[:n], self._pool_terms(pool))
        hval = scaled_depth(queue.depth[:n], self.max_plunge)
        if not cfg.literal_score:
            dterm, hterm = 1.0 - dval, 1.0 - hval
        else:
            dterm, hterm = dval, hval
        a, b = cfg.alpha, cfg.beta
        if rule in _BETA_RULES:
            return (1.0 - a - b) * lscore + a * dterm + b * hterm
        if rule in (Rule.DBFS_A, Rule.DBFS_AS, Rule.DBFS_AD):
            return (1.0 - a) * lscore + a * dterm
        if rule == Rule.DBFS_MIN:
            combo = np.minimum(dval, hval)
        elif rule == Rule.DBFS_MAX:
            combo = np.maximum(dval, hval)
        elif rule == Rule.DBFS_PROD:
            combo = dval * hval
        else:  # pragma: no cover
            raise ValueError(f"unscored rule {rule}")
        term = combo if cfg.literal_score else 1.0 - combo
        return (1.0 - a) * lscore + a * term

    def _pool_terms(self, pool) -> np.ndarray:
        """``term_vector(pool)``, recomputed only when the pool has grown."""
        if self._terms[0] is not pool or self._terms[1] != len(pool):
            self._terms = (pool, len(pool), term_vector(pool))
        return self._terms[2]

    # nothing in the package calls it; perfbench/tracer.py wraps it
    def score(self, node, pool, gated: bool = None) -> float:
        """Score of one node: :meth:`scores` over an open set holding only it."""
        from .engine import OpenNodeQueue  # engine imports this module

        queue = OpenNodeQueue(len(pool.binary_index))
        queue.push(node)
        return float(self.scores(queue, pool, gated)[0])

    def select(self, queue, pool) -> int:
        """Id of the argmin-scored open node of ``queue``; lowest id wins ties.

        In bound order that is the open set's heap front; otherwise every
        open node is scored.
        """
        if not len(queue):
            raise ValueError("select called with no open nodes")
        if self._bound_order(queue, pool):
            return queue.min_id()
        s = self.scores(queue, pool)
        return int(queue.ids[:len(queue)][s == s.min()].min())
