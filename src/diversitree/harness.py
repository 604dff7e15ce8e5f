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
from .engine import BranchAndCount, EngineError, OptimumResult, check_limits
from .model import CutoffSpec, MipInstance, ModelError, add_objective_cutoff
from .selectors import Rule, SelectorConfig
from .subset import METHODS, select_diverse_subset

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
        if not self.q >= 0:
            raise ValueError(f"q must be nonnegative, got {self.q}")
        check_limits(self.node_limit, self.time_limit)
        if self.p1 is not None and self.p1 < 1:
            raise ValueError(f"p1 must be positive, got {self.p1}")
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")
        if self.p1 is not None and self.p > self.p1:
            raise ValueError(f"p = {self.p} exceeds pool capacity p1 = {self.p1}")
        if self.subset_method not in METHODS:
            raise ValueError(f"unknown subset method {self.subset_method!r}; "
                             f"choose from {METHODS}")


def config_doc(spec: ExperimentSpec) -> dict:
    """The run-configuration keys that the diverse and enumerate records share."""
    cfg = spec.selector
    return {
        "rule": cfg.rule.value,
        "alpha": float(cfg.alpha),
        "beta": float(cfg.beta),
        "solCutoff": float(cfg.sol_cutoff),
        "depthCutoff": int(cfg.depth_cutoff),
        "q": float(spec.q),
        "p1": spec.p1,
        "seed": int(spec.seed),
    }


def pool_dbin(pool) -> float:
    """DBin of the pool's binary projections; 0.0 without two rows and a column."""
    proj = pool.projections
    return dbin(proj) if len(pool) >= 2 and proj.shape[1] else 0.0


@dataclass
class ExperimentResult:
    instance_name: str
    spec: ExperimentSpec  # the run's configuration
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
            **config_doc(self.spec),
            "p": int(self.spec.p),
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
        }
        timings = {"wallTimeMs": self.wall_time_ms, "optimizeMs": self.optimize_ms,
                   "countMs": self.count_ms, "subsetMs": self.subset_ms}
        for key, ms in timings.items():
            doc[key] = round(float(ms), 3) if include_timing else None
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timing), sort_keys=True, indent=2) + "\n"


def _optimize(instance: MipInstance, spec: ExperimentSpec) -> OptimumResult:
    """The optimize stage: z* under the spec's node and time limits."""
    try:
        opt = find_optimum(instance, node_limit=spec.node_limit, time_limit=spec.time_limit)
    except EngineError as exc:
        raise HarnessError(f"optimize stage: {exc}") from exc
    if opt.status != "optimal":
        raise HarnessError(f"optimize stage: instance is {opt.status}")
    return opt


def _count(instance: MipInstance, spec: ExperimentSpec, opt: OptimumResult,
           trace_path: str = None):
    """The count stage: the pool under the cutoff z* + q|z*|."""
    try:
        cut = add_objective_cutoff(instance, opt.objective, spec.q)
        engine = BranchAndCount(cut, selector=spec.selector, dedup=spec.dedup)
        return engine.run(p1=spec.p1, node_limit=spec.node_limit,
                          time_limit=spec.time_limit, trace_path=trace_path)
    except (EngineError, ModelError) as exc:  # ModelError: no cutoff row can be built
        raise HarnessError(f"count stage: {exc}") from exc


def run_phase_one(instance: MipInstance, spec: ExperimentSpec = None,
                  trace_path: str = None):
    """Optimize and enumerate the near-optimal pool; no subset selection.

    Returns (OptimumResult, CountResult). Stage failures raise
    HarnessError with the stage name in the message.
    """
    spec = spec if spec is not None else ExperimentSpec()
    opt = _optimize(instance, spec)
    return opt, _count(instance, spec, opt, trace_path)


def run_two_phase(instance: MipInstance, spec: ExperimentSpec = None,
                  trace_path: str = None) -> ExperimentResult:
    """Optimize, enumerate the near-optimal pool, then pick a diverse subset."""
    spec = spec if spec is not None else ExperimentSpec()
    return _count_and_subset(instance, spec, _optimize(instance, spec), trace_path)


def _count_and_subset(instance: MipInstance, spec: ExperimentSpec, opt: OptimumResult,
                      trace_path: str = None) -> ExperimentResult:
    """The count and subset stages of run_two_phase, given its optimize stage."""
    t0 = time.perf_counter()
    count = _count(instance, spec, opt, trace_path)
    t1 = time.perf_counter()

    pool = count.pool
    proj = pool.projections
    dbin_pool = pool_dbin(pool)
    p_eff = min(spec.p, len(pool))
    if p_eff >= 2 and proj.shape[1]:
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
        try:
            dall_subset = dall(sols, sols.max(axis=0) - sols.min(axis=0))
        except ValueError:  # every column is constant on the subset
            pass
    t2 = time.perf_counter()

    return ExperimentResult(
        instance_name=instance.name,
        spec=spec,
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
        wall_time_ms=opt.wall_time_s * 1000.0 + (t2 - t0) * 1000.0,
        optimize_ms=opt.wall_time_s * 1000.0,
        count_ms=count.wall_time_s * 1000.0,
        subset_ms=(t2 - t1) * 1000.0,
    )


def _sweep(instance: MipInstance, specs) -> list:
    """run_two_phase of each spec, in order, on one optimize stage.

    The optimize stage reads only the node and time limits, which the specs
    of one sweep share, so it is solved once. Each entry is the run's
    ExperimentResult or the HarnessError it raised.
    """
    if not specs:
        return []
    try:
        opt = _optimize(instance, specs[0])
    except HarnessError as exc:
        return [exc] * len(specs)
    results = []
    for spec in specs:
        try:
            results.append(_count_and_subset(instance, spec, opt))
        except HarnessError as exc:
            results.append(exc)
    return results


def _sweep_row(res) -> dict:
    """The columns every sweep row has: the run's numbers, or its error."""
    if isinstance(res, HarnessError):
        return {"dbinSubset": None, "dbinPool": None, "poolSize": None, "exhausted": None,
                "nodesProcessed": None, "error": str(res)}
    return {"dbinSubset": res.dbin_subset, "dbinPool": res.dbin_pool,
            "poolSize": res.pool_size, "exhausted": res.exhausted,
            "nodesProcessed": res.nodes_processed, "error": ""}


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
    specs = [
        ExperimentSpec(q=q, p1=p1, p=p if p1 is None else min(p, p1),
                       selector=SelectorConfig(rule=rule, alpha=a, beta=b, sol_cutoff=s),
                       seed=seed, node_limit=node_limit, time_limit=time_limit)
        for q in q_list for p1 in p1_list for a in alpha_grid for b in beta_grid
        if not a + b > 1.0 + 1e-12 for s in s_grid  # keeps NaN weights for SelectorConfig to reject
    ]
    rows = []
    for spec, res in zip(specs, _sweep(instance, specs)):
        cfg = spec.selector
        rows.append({"rank": 0, "q": spec.q, "p1": spec.p1, "alpha": cfg.alpha,
                     "beta": cfg.beta, "solCutoff": cfg.sol_cutoff, **_sweep_row(res)})
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

    results = _sweep(instance, [replace(spec, selector=replace(spec.selector, rule=name))
                                for name in names])
    rows = [{"rule": name, "improvementPct": None,
             "traceHash": "" if isinstance(res, HarnessError) else res.trace_hash,
             **_sweep_row(res)}
            for name, res in zip(names, results)]
    base = results[names.index(base_rule)]
    ref = None if isinstance(base, HarnessError) else base.dbin_subset
    if ref:  # no percentages against a failed or zero baseline
        for row in rows:
            if row["dbinSubset"] is not None:
                row["improvementPct"] = (row["dbinSubset"] - ref) / ref * 100.0
    if csv_path:
        write_csv(csv_path, COMPARE_FIELDS, rows)
    return rows


def write_csv(path: str, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames), extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)  # csv writes None as the empty string
