"""Experiment pipeline around the branch-and-bound engine.

Phase one finds the optimal value with the engine's optimize mode, adds
the near-optimality cutoff, and enumerates a pool of solutions with its
count mode under a chosen node-selection rule. Phase two picks a
maximum-diversity subset of the pool and scores it. The pipeline has no
internal randomness: the recorded seed only labels runs, and repeated runs
with one config produce byte-identical result files.
"""

import csv
import json
import time
from dataclasses import dataclass, field, replace

from .diversity import dall, dbin
from .engine import BranchAndCount, EngineError, OptimumResult
from .model import CutoffSpec, MipInstance, ModelError, add_objective_cutoff
from .selectors import Rule, SelectorConfig
from .subset import select_diverse_subset

SCHEMA_VERSION = 1

# default comparison slate: the classic rules plus the blended one
DEFAULT_COMPARE_RULES = ("bestfs", "dfs", "brfs", "uct", "he", "diversitree")


class HarnessError(RuntimeError):
    """Pipeline failure, message prefixed with the stage that raised it."""


def find_optimum(instance: MipInstance, node_limit: int = None,
                 time_limit: float = None) -> OptimumResult:
    """Optimal value by the engine's optimize mode (best-first, incumbent pruning)."""
    return BranchAndCount(instance).optimize(node_limit=node_limit, time_limit=time_limit)


@dataclass
class ExperimentSpec:
    """One pipeline run: cutoff fraction, pool and subset sizes, selector."""

    q: float = 0.03
    p1: int = 100  # None enumerates until exhaustion
    p: int = 10
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    subset_method: str = "greedy_swap"
    dedup: bool = True
    seed: int = 0  # run label; the pipeline itself is deterministic
    node_limit: int = None
    time_limit: float = None

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"q must be nonnegative, got {self.q}")
        if self.p1 is not None and self.p1 < 1:
            raise ValueError(f"p1 must be positive, got {self.p1}")
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")
        if self.p1 is not None and self.p > self.p1:
            raise ValueError(f"p = {self.p} exceeds pool capacity p1 = {self.p1}")


@dataclass
class ExperimentResult:
    instance_name: str
    rule: str
    alpha: float
    beta: float
    sol_cutoff: float
    depth_cutoff: int
    q: float
    p1: int
    p: int
    seed: int
    z_star: float  # reported in the source model's sense
    cutoff_value: float  # internal minimization sense
    pool_size: int
    exhausted: bool
    truncated: bool
    nodes_processed: int
    dbin_pool: float
    dbin_subset: float
    dall_subset: float
    subset_indices: list
    subset_objectives: list
    trace_hash: str
    wall_time_ms: float = 0.0
    optimize_ms: float = 0.0
    count_ms: float = 0.0
    subset_ms: float = 0.0

    def to_json_dict(self, include_timing: bool = False) -> dict:
        """Stable-key result record; timing keys stay null by default so the
        file bytes do not vary between runs of the same config."""
        doc = {
            "schemaVersion": SCHEMA_VERSION,
            "instance": self.instance_name,
            "rule": self.rule,
            "alpha": float(self.alpha),
            "beta": float(self.beta),
            "solCutoff": float(self.sol_cutoff),
            "depthCutoff": int(self.depth_cutoff),
            "q": float(self.q),
            "p1": self.p1,
            "p": int(self.p),
            "seed": int(self.seed),
            "zStar": float(self.z_star),
            "cutoffValue": float(self.cutoff_value),
            "poolSize": int(self.pool_size),
            "exhausted": bool(self.exhausted),
            "truncated": bool(self.truncated),
            "nodesProcessed": int(self.nodes_processed),
            "dbinPool": float(self.dbin_pool),
            "dbinSubset": float(self.dbin_subset),
            "dallSubset": None if self.dall_subset is None else float(self.dall_subset),
            "subsetIndices": [int(i) for i in self.subset_indices],
            "subsetObjectives": [float(v) for v in self.subset_objectives],
            "traceHash": self.trace_hash,
            "wallTimeMs": None,
            "optimizeMs": None,
            "countMs": None,
            "subsetMs": None,
        }
        if include_timing:
            doc["wallTimeMs"] = round(float(self.wall_time_ms), 3)
            doc["optimizeMs"] = round(float(self.optimize_ms), 3)
            doc["countMs"] = round(float(self.count_ms), 3)
            doc["subsetMs"] = round(float(self.subset_ms), 3)
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timing), sort_keys=True, indent=2) + "\n"


def run_phase_one(instance: MipInstance, spec: ExperimentSpec = None,
                  trace_path: str = None):
    """Optimize and enumerate the near-optimal pool; no subset selection.

    Returns (OptimumResult, CountResult). Stage failures raise
    HarnessError with the stage name in the message.
    """
    spec = spec if spec is not None else ExperimentSpec()
    try:
        opt = find_optimum(instance, node_limit=spec.node_limit, time_limit=spec.time_limit)
    except EngineError as exc:
        raise HarnessError(f"optimize stage: {exc}") from exc
    if opt.status != "optimal":
        raise HarnessError(f"optimize stage: instance is {opt.status}")

    try:
        cut = add_objective_cutoff(instance, opt.objective, spec.q)
        engine = BranchAndCount(cut, selector=spec.selector, dedup=spec.dedup)
        count = engine.run(p1=spec.p1, node_limit=spec.node_limit,
                           time_limit=spec.time_limit, trace_path=trace_path)
    except (EngineError, ModelError) as exc:  # ModelError: no cutoff row can be built
        raise HarnessError(f"count stage: {exc}") from exc
    return opt, count


def run_two_phase(instance: MipInstance, spec: ExperimentSpec = None,
                  trace_path: str = None) -> ExperimentResult:
    """Optimize, enumerate the near-optimal pool, then pick a diverse subset."""
    spec = spec if spec is not None else ExperimentSpec()
    t0 = time.perf_counter()
    opt, count = run_phase_one(instance, spec, trace_path=trace_path)
    t1 = time.perf_counter()

    pool = count.pool
    proj = pool.projection_matrix()
    has_bits = proj.shape[1] > 0
    if len(pool) >= 2 and has_bits:
        dbin_pool = dbin(proj)
    else:
        dbin_pool = 0.0

    p_eff = min(spec.p, len(pool))
    if p_eff >= 2 and has_bits:
        try:
            idx = select_diverse_subset(proj, p_eff, spec.subset_method)
        except ValueError as exc:
            raise HarnessError(f"subset stage: {exc}") from exc
        dbin_subset = dbin(proj[idx])
    else:
        idx = list(range(p_eff))
        dbin_subset = 0.0

    dall_subset = None
    if len(idx) >= 2:
        sols = pool.solutions[idx]
        ranges = sols.max(axis=0) - sols.min(axis=0)
        try:
            dall_subset = dall(sols, ranges)
        except ValueError:
            dall_subset = None
    t2 = time.perf_counter()

    cfg = spec.selector
    return ExperimentResult(
        instance_name=instance.name,
        rule=cfg.rule.value,
        alpha=cfg.alpha,
        beta=cfg.beta,
        sol_cutoff=cfg.sol_cutoff,
        depth_cutoff=cfg.depth_cutoff,
        q=spec.q,
        p1=spec.p1,
        p=spec.p,
        seed=spec.seed,
        z_star=instance.reported_objective(opt.objective),
        cutoff_value=CutoffSpec(opt.objective, spec.q).cutoff_value,
        pool_size=len(pool),
        exhausted=count.exhausted,
        truncated=count.truncated,
        nodes_processed=count.nodes_processed,
        dbin_pool=dbin_pool,
        dbin_subset=dbin_subset,
        dall_subset=dall_subset,
        subset_indices=list(idx),
        subset_objectives=[instance.reported_objective(pool.objectives[i]) for i in idx],
        trace_hash=count.trace_hash,
        wall_time_ms=(t2 - t0) * 1000.0,
        optimize_ms=opt.wall_time_s * 1000.0,
        count_ms=count.wall_time_s * 1000.0,
        subset_ms=(t2 - t1) * 1000.0,
    )


GRID_FIELDS = ("rank", "q", "p1", "alpha", "beta", "solCutoff", "dbinSubset", "dbinPool",
               "poolSize", "exhausted", "nodesProcessed", "error")

DEFAULT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def grid_search(instance: MipInstance, q_list=(0.03,), p1_list=(100,),
                alpha_grid=DEFAULT_GRID, beta_grid=DEFAULT_GRID, s_grid=DEFAULT_GRID,
                p: int = 10, rule=Rule.DIVERSITREE, csv_path: str = None,
                node_limit: int = None, time_limit: float = None, seed: int = 0) -> list:
    """Sweep (q, p1, alpha, beta, s); rows ranked by subset diversity, failures last.

    Combinations with alpha + beta > 1 are skipped up front.
    """
    rows = []
    for q in q_list:
        for p1 in p1_list:
            for a in alpha_grid:
                for b in beta_grid:
                    if a + b > 1.0 + 1e-12:
                        continue
                    for s in s_grid:
                        cfg = SelectorConfig(rule=rule, alpha=a, beta=b, sol_cutoff=s)
                        row = {"rank": 0, "q": q, "p1": p1, "alpha": a, "beta": b,
                               "solCutoff": s, "dbinSubset": None, "dbinPool": None,
                               "poolSize": None, "exhausted": None,
                               "nodesProcessed": None, "error": ""}
                        spec = ExperimentSpec(q=q, p1=p1, p=p if p1 is None else min(p, p1),
                                              selector=cfg, seed=seed, node_limit=node_limit,
                                              time_limit=time_limit)
                        try:
                            res = run_two_phase(instance, spec)
                        except HarnessError as exc:
                            row["error"] = str(exc)
                            rows.append(row)
                            continue
                        row.update(dbinSubset=res.dbin_subset, dbinPool=res.dbin_pool,
                                   poolSize=res.pool_size, exhausted=res.exhausted,
                                   nodesProcessed=res.nodes_processed)
                        rows.append(row)
    rows.sort(key=lambda r: (r["dbinSubset"] is None, -(r["dbinSubset"] or 0.0)))
    for k, row in enumerate(rows):
        row["rank"] = k + 1
    if csv_path:
        write_csv(csv_path, GRID_FIELDS, rows)
    return rows


COMPARE_FIELDS = ("rule", "dbinSubset", "improvementPct", "dbinPool", "poolSize",
                  "exhausted", "nodesProcessed", "traceHash", "error")


def compare_selectors(instance: MipInstance, spec: ExperimentSpec = None,
                      rules=DEFAULT_COMPARE_RULES, baseline: str = "bestfs",
                      csv_path: str = None) -> list:
    """One pipeline run per rule plus a percent-improvement column vs the baseline.

    Rule parameters (alpha, beta, cutoffs, rho) are taken from ``spec.selector``;
    only the rule itself varies. Failures are recorded per row, not raised.
    """
    spec = spec if spec is not None else ExperimentSpec()
    base_rule = Rule.from_name(baseline).value
    names = [Rule.from_name(r).value for r in rules]
    if base_rule not in names:
        names.insert(0, base_rule)

    rows = []
    by_rule = {}
    for name in names:
        run_spec = replace(spec, selector=replace(spec.selector, rule=name))
        row = {"rule": name, "dbinSubset": None, "improvementPct": None, "dbinPool": None,
               "poolSize": None, "exhausted": None, "nodesProcessed": None,
               "traceHash": "", "error": ""}
        try:
            res = run_two_phase(instance, run_spec)
        except HarnessError as exc:
            row["error"] = str(exc)
            rows.append(row)
            continue
        by_rule[name] = res
        row.update(dbinSubset=res.dbin_subset, dbinPool=res.dbin_pool,
                   poolSize=res.pool_size, exhausted=res.exhausted,
                   nodesProcessed=res.nodes_processed, traceHash=res.trace_hash)
        rows.append(row)

    base = by_rule.get(base_rule)
    if base is not None and base.dbin_subset > 0:
        for row in rows:
            if row["dbinSubset"] is not None:
                row["improvementPct"] = (
                    (row["dbinSubset"] - base.dbin_subset) / base.dbin_subset * 100.0
                )
    if csv_path:
        write_csv(csv_path, COMPARE_FIELDS, rows)
    return rows


def write_csv(path: str, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in fieldnames})
