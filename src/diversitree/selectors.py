"""Node-selection rules for branch-and-count.

Every rule scores the open nodes and dequeues the argmin, ties going to the
lowest node id. Where that argmin is pure bound order (best-first, or a rule
whose gate is still closed) the engine skips the scan and dequeues the least
(bound, id) from the open set's heap instead; ``Selector.bound_order`` says
when, and the pick is the same node. Classic rules: best-first (bound), depth-first (LIFO),
breadth-first (FIFO), a visit-ratio rule (bound plus rho * V/v over the
node's and parent's dequeue counts) and a best-estimate rule blending the
bound with a fractionality-repair estimate.

The diversity family blends three scaled quantities over the open set:

* L: the node bound min-max scaled over open nodes (0 when degenerate),
* D: mean disagreement of the node's fixed binaries against the pool,
* H: depth scaled between the plunge limits, clamped to [0, 1].

High diversity and depth are desirable, so by default D and H enter the
argmin as bonuses (1 - D, 1 - H); ``literal_score`` keeps the raw +D/+H
form for comparison. Solution-gated rules stay pure best-first until the
pool holds the requested fraction of capacity; the depth-gated rule trips
permanently the first time a dequeued node is at least ``depth_cutoff``
deep.
"""

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

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
    Plunge limits default to 0 and the instance's integer count.
    """

    rule: Rule = Rule.BESTFS
    alpha: float = 0.0
    beta: float = 0.0
    sol_cutoff: float = 0.0
    depth_cutoff: int = 0
    rho: float = None
    min_plunge_depth: int = 0
    max_plunge_depth: int = None
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
        if self.min_plunge_depth < 0:
            raise ValueError("min_plunge_depth must be >= 0")
        if self.max_plunge_depth is not None and self.max_plunge_depth <= self.min_plunge_depth:
            raise ValueError("max_plunge_depth must exceed min_plunge_depth")

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


@dataclass
class ScoreContext:
    """Shared state a scoring pass needs: bound extrema over the open set,
    the solution pool, and the capacity gate inputs."""

    min_bound: float
    max_bound: float
    pool: object
    solutions_found: int
    p1: int = None  # None means unlimited


def scaled_bound(lp_bound: float, ctx: ScoreContext) -> float:
    """Min-max scaled bound over the open set; 0 when all bounds agree."""
    spread = ctx.max_bound - ctx.min_bound
    if spread <= 0.0 or not math.isfinite(spread):
        return 0.0
    val = (lp_bound - ctx.min_bound) / spread
    return min(1.0, max(0.0, val))


def scaled_depth(depth: int, min_plunge: int, max_plunge: int) -> float:
    """Depth scaled between the plunge limits, clamped to [0, 1]."""
    span = max_plunge - min_plunge
    if span <= 0:
        return 0.0
    return min(1.0, max(0.0, (depth - min_plunge) / span))


def partial_diversity(fixed_binaries: dict, pool) -> float:
    """Mean disagreement between a node's fixed binaries and the pool.

    Zero when the pool or the fixed set is empty. Uses the pool's per-bit
    ones counts, which equals averaging |fixed_j - x_j| over pool members
    and fixed columns.
    """
    n = len(pool)
    if n == 0 or not fixed_binaries:
        return 0.0
    total = 0.0
    width = 0
    for j, val in fixed_binaries.items():
        pos = pool.binary_pos.get(j)
        if pos is None:
            continue
        ones = pool.ones[pos]
        total += (n - ones) / n if val >= 0.5 else ones / n
        width += 1
    if width == 0:
        return 0.0
    return total / width


class Selector:
    """Stateful rule evaluator: visit counts and gate latches live here."""

    def __init__(self, config: SelectorConfig, num_integer_vars: int = 0):
        self.config = config
        self.rho = config.resolved_rho()
        self.min_plunge = config.min_plunge_depth
        self.max_plunge = (
            config.max_plunge_depth
            if config.max_plunge_depth is not None
            else max(1, num_integer_vars)
        )
        self.visits = {}  # node id -> dequeues within its subtree
        self.parents = {}
        self.depth_gate_open = config.depth_cutoff == 0

    # -- lifecycle hooks ------------------------------------------------------

    def on_enqueue(self, node):
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

    def gated(self, ctx: ScoreContext) -> bool:
        """True while the rule must behave as pure best-first."""
        rule = self.config.rule
        if rule in _SOLUTION_GATED:
            if ctx.p1 is None:
                return True  # unlimited capacity: the fraction gate never fills
            return ctx.solutions_found < self.config.sol_cutoff * ctx.p1
        if rule == Rule.DBFS_AD:
            return not self.depth_gate_open
        return False

    def bound_order(self, ctx: ScoreContext) -> bool:
        """True when :meth:`select` would return the least (bound, id) open node.

        Under best-first or a closed gate every score is the scaled bound,
        which is 0 at the least bound and positive above it while the spread
        is finite (a gap scores 0 only below about 1e-323 times the spread,
        where the division underflows), and 0 everywhere when the spread is 0.
        """
        if not math.isfinite(ctx.max_bound - ctx.min_bound):
            return False  # every scaled bound is 0: select takes the lowest id
        return self.config.rule == Rule.BESTFS or self.gated(ctx)

    def score(self, node, ctx: ScoreContext, gated: bool = None) -> float:
        cfg = self.config
        rule = cfg.rule
        if rule == Rule.DFS:
            return -float(node.id)
        if rule == Rule.BRFS:
            return float(node.id)
        if rule == Rule.UCT:
            v = self.visits.get(node.id, 0) or 1
            parent_visits = self.visits.get(node.parent_id, 0) if node.parent_id is not None else 0
            return node.lp_bound + self.rho * parent_visits / v
        if rule == Rule.HE:
            return (1.0 - self.rho) * node.lp_bound + self.rho * node.estimate
        lscore = scaled_bound(node.lp_bound, ctx)
        if rule == Rule.BESTFS:
            return lscore
        if gated is None:
            gated = self.gated(ctx)
        if gated:
            return lscore
        dval = partial_diversity(node.fixed_binaries, ctx.pool)
        hval = scaled_depth(node.depth, self.min_plunge, self.max_plunge)
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
            combo = min(dval, hval)
        elif rule == Rule.DBFS_MAX:
            combo = max(dval, hval)
        elif rule == Rule.DBFS_PROD:
            combo = dval * hval
        else:  # pragma: no cover
            raise ValueError(f"unscored rule {rule}")
        term = combo if cfg.literal_score else 1.0 - combo
        return (1.0 - a) * lscore + a * term

    def select(self, open_nodes, ctx: ScoreContext) -> int:
        """Id of the argmin-scored node; lowest id wins ties."""
        gated = self.gated(ctx)
        best_id = None
        best_score = math.inf
        for node in open_nodes:
            s = self.score(node, ctx, gated)
            if s < best_score or (s == best_score and node.id < best_id):
                best_score = s
                best_id = node.id
        if best_id is None:
            raise ValueError("select called with no open nodes")
        return best_id
