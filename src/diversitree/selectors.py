"""Node-selection rules for branch-and-count.

Every rule scores the open nodes and dequeues the argmin, ties going to the
lowest node id. A ``Selector`` owns the open set: the engine pushes each new
node into it and pops the node that ``Selector.select`` names. Where the
argmin is pure bound order (best-first, or a rule whose gate is still
closed) ``select`` skips the scores and returns the least (bound, id) from
the open set's heap, which is the same node. Otherwise it returns the front of
its own min-heap of (score, id) pairs, which is again the argmin with the
lowest id on ties. That heap holds for one epoch: the inputs every open
node's score shares. For the diversity family these are the least and
greatest open bound, the pool (identity and size) and the gate; the
best-estimate, depth-first and breadth-first scores read only the node, so
their epoch never ends; the visit-ratio scores move with every dequeue, so
each of its selections starts an epoch. A new epoch rescores every open
node. Within one, a selection scores only the nodes pushed since the last,
and a popped node leaves the heap when it reaches the front.

Each score comes from one per-node scorer, the function of a node that
``Selector._scorer`` builds for an epoch, in Python floats. Their
``+ - * /`` round as numpy's elementwise float64 operations do and
``min``/``max`` are exact, so the scores, and the picks, are the bits of a
vectorized pass over the open set. ``Selector.score`` is the scorer of a
one-node open set. Classic rules: best-first (bound),
depth-first (LIFO), breadth-first (FIFO), a visit-ratio rule (bound plus
rho * V/v over the node's and parent's dequeue counts) and a best-estimate
rule blending the bound with a fractionality-repair estimate.

The diversity family blends three scaled quantities over the open set:

* L: the node bound min-max scaled over open nodes (0 when degenerate),
* D: mean disagreement of the node's binary fixings (``Node.path``, built
  once when the node is made) against the pool, summed one term at a time
  in fixing order,
* H: depth over the plunge window, the instance's integer count (at least
  1), clamped to 1.

High diversity and depth are desirable, so by default D and H enter the
argmin as bonuses (1 - D, 1 - H); ``literal_score`` keeps the raw +D/+H
form for comparison. Solution-gated rules stay pure best-first until the
pool holds the requested fraction of capacity; the depth-gated rule trips
permanently the first time a dequeued node is at least ``depth_cutoff``
deep.
"""

import heapq
import logging
import math
import operator
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
# Rules whose score reads the node alone.
_NODE_ONLY = {Rule.DFS, Rule.BRFS, Rule.HE}
# entries a bound heap may hold beyond twice the open set before it is rebuilt
HEAP_SLACK = 16


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
        if self.rho is not None and not 0.0 <= self.rho < math.inf:
            raise ValueError(f"rho must be a finite number >= 0, got {self.rho}")

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


def term_vector(pool) -> list:
    """Disagreement of each possible fixing with the pool, as Python floats.

    Fixing the binary at pool position k to v is term index 2k + v, the
    encoding of ``engine.Node.path``. Entry 2k is ones_k/n (bit k fixed to
    0) and 2k+1 is (n - ones_k)/n (fixed to 1), from the pool's per-bit ones
    counts; all zero while the pool is empty.
    """
    n = len(pool)
    terms = np.zeros(2 * len(pool.ones))
    if n:
        terms[0::2] = pool.ones / n
        terms[1::2] = (n - pool.ones) / n
    return terms.tolist()


class Selector:
    """The open nodes and the rule that picks among them.

    ``push`` adds a node to the open set, ``select`` names the next one and
    ``pop`` removes it, counting the dequeue for the visit-ratio rule and the
    depth gate. ``nodes`` maps each open node's id to the node; an id names
    one node. Two heaps of (bound, id) and (-bound, id) pairs give the least
    and greatest open bound and, on the min side, the least bound with the
    lowest id on ties. Both drop popped nodes lazily at their fronts, and
    both are rebuilt from the open set when either outgrows it by more than
    twice, so their size follows the open set, not the nodes made.

    Under the visit-ratio rule, ``parents`` and ``visits`` hold entries for
    the open nodes and their ancestors only. ``_holds`` counts what keeps a
    node's entries: the node while it is open, and each child that has
    entries. A popped node with no open child yet is released at the next
    ``select`` if it still has none, so the children made right after a pop
    read their parent's visits.
    """

    def __init__(self, config: SelectorConfig, num_integer_vars: int = 0):
        self.config = config
        self.rho = config.resolved_rho()
        self.max_plunge = max(1, num_integer_vars)
        self.visits = {}  # node id -> dequeues within its subtree
        self.parents = {}  # node id -> parent id, kept for the visit-ratio rule
        self._holds = {}  # node id -> 1 while open + its children with entries
        self._released = []  # popped ids to release at the next select if nothing holds them
        self.depth_gate_open = config.depth_cutoff == 0
        self.nodes = {}  # id -> open node
        self._min_heap = []  # (bound, id)
        self._max_heap = []  # (-bound, id)
        self._pushed = []  # nodes pushed since the last select
        self._epoch = None  # what every score in the heap shares
        self._score = None  # the epoch's per-node scorer
        self._heap = []  # (score, id): the open nodes, and popped ones not yet at the front

    # -- the open set ---------------------------------------------------------

    def __len__(self):
        return len(self.nodes)

    def push(self, node):
        self.nodes[node.id] = node
        heapq.heappush(self._min_heap, (node.lp_bound, node.id))
        heapq.heappush(self._max_heap, (-node.lp_bound, node.id))
        self._pushed.append(node)
        if self.config.rule == Rule.UCT:
            self.parents[node.id] = node.parent_id
            self._holds[node.id] = 1
            if node.parent_id in self._holds:
                self._holds[node.parent_id] += 1
        if max(len(self._min_heap), len(self._max_heap)) > 2 * len(self.nodes) + HEAP_SLACK:
            self._min_heap = [(n.lp_bound, nid) for nid, n in self.nodes.items()]
            self._max_heap = [(-bound, nid) for bound, nid in self._min_heap]
            heapq.heapify(self._min_heap)
            heapq.heapify(self._max_heap)

    def pop(self, node_id: int):
        """Remove and return an open node: one dequeue of it."""
        node = self.nodes.pop(node_id)
        if self.config.rule == Rule.UCT:
            nid = node.id
            while nid is not None:
                self.visits[nid] = self.visits.get(nid, 0) + 1
                nid = self.parents.get(nid)
            self._holds[node.id] -= 1
            self._released.append(node.id)
        if node.depth >= self.config.depth_cutoff:
            self.depth_gate_open = True
        return node

    def _release(self):
        """Drop the entries of every popped node that nothing holds, and of
        each ancestor that they alone held."""
        holds = self._holds
        for nid in self._released:
            while nid is not None and holds.get(nid) == 0:
                del holds[nid]
                self.visits.pop(nid, None)
                nid = self.parents.pop(nid)
                if nid in holds:
                    holds[nid] -= 1
        self._released.clear()

    def _front(self, heap) -> tuple:
        """The heap's least entry of an open node, or None when none is open."""
        while heap and heap[0][1] not in self.nodes:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def min_bound(self) -> float:
        front = self._front(self._min_heap)
        return math.nan if front is None else front[0]

    def max_bound(self) -> float:
        front = self._front(self._max_heap)
        return math.nan if front is None else -front[0]

    def min_id(self) -> int:
        """Id of the open node with the least bound, lowest id on ties."""
        return self._front(self._min_heap)[1]

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

    def _bound_order(self, lo: float, hi: float, gated: bool) -> bool:
        """True when the least (bound, id) open node is the argmin of the
        scores, given the least and greatest open bound and the gate.

        Under best-first or a closed gate every score is the scaled bound,
        which is 0 at the least bound and positive above it while the spread
        is finite (a gap scores 0 only below about 1e-323 times the spread,
        where the division underflows), and 0 everywhere when the spread is 0.
        """
        if not math.isfinite(hi - lo):
            return False  # every scaled bound is 0: the scan takes the lowest id
        return self.config.rule == Rule.BESTFS or gated

    def _scorer(self, lo: float, hi: float, pool, gated: bool):
        """The score of one open node, as a function of the node, given what
        every open node's score shares: the least and greatest open bound
        ``lo``/``hi``, the pool and the gate. Python floats throughout."""
        cfg = self.config
        rule, rho = cfg.rule, self.rho
        if rule == Rule.DFS:
            return lambda node: -float(node.id)
        if rule == Rule.BRFS:
            return lambda node: float(node.id)
        if rule == Rule.UCT:
            visits = self.visits
            return lambda node: (node.lp_bound + rho * visits.get(node.parent_id, 0)
                                 / (visits.get(node.id, 0) or 1))
        if rule == Rule.HE:
            return lambda node: (1.0 - rho) * node.lp_bound + rho * node.estimate
        spread = hi - lo
        flat = spread <= 0.0 or not math.isfinite(spread)  # every L is 0

        def scaled(node):
            return 0.0 if flat else min(1.0, max(0.0, (node.lp_bound - lo) / spread))
        if rule == Rule.BESTFS or gated:
            return scaled
        terms, plunge, literal = term_vector(pool), self.max_plunge, cfg.literal_score
        # dbfs-ab and diversitree weigh H by beta; the others give it no
        # weight, which changes no bit but the sign of a zero score
        a, b = cfg.alpha, (cfg.beta if rule in _BETA_RULES else 0.0)
        combine = {Rule.DBFS_MIN: min, Rule.DBFS_MAX: max, Rule.DBFS_PROD: operator.mul}.get(rule)

        def score(node):  # dbfs-a/-as/-ad blend D alone, dbfs-min/-max/-prod D combined with H
            dval = 0.0
            for t in node.path:  # one term at a time: ``sum`` compensates from Python 3.12
                dval += terms[t]
            dval /= max(len(node.path), 1)
            hval = min(1.0, node.depth / plunge)
            if combine is not None:
                dval = combine(dval, hval)
            dterm, hterm = (dval, hval) if literal else (1.0 - dval, 1.0 - hval)
            return (1.0 - a - b) * scaled(node) + a * dterm + b * hterm
        return score

    # nothing in the package calls it; perfbench/tracer.py wraps it
    def score(self, node, pool, gated: bool = None) -> float:
        """Score of one node: the scorer of an open set holding only it."""
        gated = self.gated(pool) if gated is None else gated
        return float(self._scorer(node.lp_bound, node.lp_bound, pool, gated)(node))

    # -- the score heap -------------------------------------------------------

    def _epoch_of(self, lo: float, hi: float, pool, gated: bool):
        """Which of the scorer's inputs every open node's score shares, or
        None when the scores must be recomputed on every call."""
        rule = self.config.rule
        if rule == Rule.UCT:
            return None  # the visit counts move on every dequeue
        if rule in _NODE_ONLY:
            return ()
        return (lo, hi, pool, len(pool), gated)

    def _rescore(self, score):
        """Start an epoch: a new heap of every open node under the per-node
        scorer ``score``."""
        self._score = score
        self._heap = [(score(node), nid) for nid, node in self.nodes.items()]
        heapq.heapify(self._heap)

    def select(self, pool) -> int:
        """Id of the argmin-scored open node; lowest id wins ties.

        In bound order that is the (bound, id) heap's front, and the next
        scored call starts an epoch; otherwise it is the front of the
        (score, id) heap, rebuilt when the epoch changed and topped up with
        the nodes pushed since the last call when it did not.
        """
        if not self.nodes:
            raise ValueError("select called with no open nodes")
        if self._released:
            self._release()
        lo, hi, gated = self.min_bound(), self.max_bound(), self.gated(pool)
        pushed, self._pushed = self._pushed, []
        if self._bound_order(lo, hi, gated):
            self._epoch = None
            return self.min_id()
        epoch = self._epoch_of(lo, hi, pool, gated)
        if epoch is None or epoch != self._epoch:
            self._rescore(self._scorer(lo, hi, pool, gated))
        else:
            for node in pushed:
                heapq.heappush(self._heap, (self._score(node), node.id))
        self._epoch = epoch
        heap = self._heap
        while heap[0][1] not in self.nodes:  # popped since it was scored
            heapq.heappop(heap)
        return heap[0][1]
