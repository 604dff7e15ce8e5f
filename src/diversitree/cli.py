"""Command-line front end.

Subcommands: solve (optimal value only), enumerate (near-optimal pool),
diverse (two-phase pipeline), compare (rule comparison table), grid
(parameter sweep). Set DIVERSITREE_LOG=DEBUG|INFO|... for log output.
Timing fields in JSON output stay null unless --timings is given, so
repeated runs of one config produce identical bytes.
"""

import json
import logging
import os
import sys

import click

from . import __version__, harness
from .diversity import dbin
from .engine import EngineError
from .harness import ExperimentSpec, HarnessError, SCHEMA_VERSION
from .model import ModelError
from .mps import MpsParseError, parse_mps
from .selectors import PRESETS, SelectorConfig, preset as preset_config


def _configure_logging():
    name = os.environ.get("DIVERSITREE_LOG", "").strip().upper()
    level = getattr(logging, name, None) if name else None
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load(instance_path):
    try:
        return parse_mps(instance_path)
    except (MpsParseError, ModelError) as exc:
        raise click.ClickException(f"cannot parse {instance_path}: {exc}") from exc


def _selector(rule, preset_name, alpha, beta, scut, dcut, rho, literal_score):
    try:
        base = preset_config(preset_name) if preset_name else SelectorConfig()
        return SelectorConfig(
            rule=rule if rule else base.rule,
            alpha=base.alpha if alpha is None else alpha,
            beta=base.beta if beta is None else beta,
            sol_cutoff=base.sol_cutoff if scut is None else scut,
            depth_cutoff=dcut if dcut is not None else 0,
            rho=rho,
            literal_score=literal_score,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _emit(doc, out):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _p1(value):
    return None if value == 0 else value


instance_opt = click.option("--instance", "instance_path", required=True,
                            type=click.Path(exists=True, dir_okay=False),
                            help="MPS instance file")
out_opt = click.option("--out", type=click.Path(dir_okay=False), default=None,
                       help="output file (default: stdout)")
trace_opt = click.option("--trace", "trace_path", type=click.Path(dir_okay=False),
                         default=None, help="write the node trace as JSON lines")
seed_opt = click.option("--seed", type=int, default=0, show_default=True,
                        help="run label recorded in the output")
limit_opts = [
    click.option("--node-limit", type=int, default=None, help="stop after this many nodes"),
    click.option("--time-limit", type=float, default=None, help="stop after this many seconds"),
]
timings_opt = click.option("--timings", is_flag=True,
                           help="include wall-clock fields in the output")
selector_opts = [
    click.option("--rule", default=None,
                 help="node-selection rule (bestfs, dfs, brfs, uct, he, dbfs-a, dbfs-ab, "
                      "dbfs-as, dbfs-ad, diversitree, dbfs-min, dbfs-max, dbfs-prod)"),
    click.option("--preset", "preset_name",
                 type=click.Choice(sorted(PRESETS), case_sensitive=False), default=None,
                 help="named parameter set (implies the blended rule)"),
    click.option("--alpha", type=float, default=None, help="diversity weight"),
    click.option("--beta", type=float, default=None, help="depth weight"),
    click.option("--scut", type=float, default=None,
                 help="fraction of p1 to collect before diversity scoring activates"),
    click.option("--dcut", type=int, default=None,
                 help="depth to reach before diversity scoring activates"),
    click.option("--rho", type=float, default=None, help="classic-rule weight"),
    click.option("--literal-score", type=click.BOOL, default=False, show_default=True,
                 help="score with raw D and H instead of the bonus forms"),
]
pipeline_opts = [
    click.option("--q", type=float, default=0.03, show_default=True,
                 help="near-optimality fraction"),
    click.option("--p1", type=int, default=100, show_default=True,
                 help="pool capacity; 0 enumerates everything"),
    click.option("--dedup", type=click.BOOL, default=True, show_default=True,
                 help="drop repeated binary projections"),
]


@click.group()
@click.version_option(version=__version__)
def main():
    """Enumerate diverse near-optimal solutions of mixed-integer programs."""
    _configure_logging()


@main.command()
@instance_opt
@limit_opts[0]
@limit_opts[1]
@timings_opt
@out_opt
def solve(instance_path, node_limit, time_limit, timings, out):
    """Find the optimal objective value."""
    instance = _load(instance_path)
    try:
        res = harness.find_optimum(instance, node_limit=node_limit, time_limit=time_limit)
    except EngineError as exc:
        raise click.ClickException(str(exc)) from exc
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "instance": instance.name,
        "status": res.status,
        "zStar": None if res.objective is None else instance.reported_objective(res.objective),
        "nodesProcessed": res.nodes_processed,
        "x": None if res.x is None else [float(v) for v in res.x],
        "wallTimeMs": round(res.wall_time_s * 1000.0, 3) if timings else None,
    }
    _emit(doc, out)


def _spec_from_flags(q, p1, p, dedup, seed, node_limit, time_limit, selector):
    try:
        return ExperimentSpec(q=q, p1=_p1(p1), p=p, selector=selector, dedup=dedup,
                              seed=seed, node_limit=node_limit, time_limit=time_limit)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@main.command("enumerate")
@instance_opt
@pipeline_opts[0]
@pipeline_opts[1]
@pipeline_opts[2]
@selector_opts[0]
@selector_opts[1]
@selector_opts[2]
@selector_opts[3]
@selector_opts[4]
@selector_opts[5]
@selector_opts[6]
@selector_opts[7]
@seed_opt
@limit_opts[0]
@limit_opts[1]
@trace_opt
@timings_opt
@out_opt
def enumerate_cmd(instance_path, q, p1, dedup, rule, preset_name, alpha, beta, scut, dcut,
                  rho, literal_score, seed, node_limit, time_limit, trace_path, timings, out):
    """Enumerate the near-optimal pool (phase one only)."""
    instance = _load(instance_path)
    cfg = _selector(rule, preset_name, alpha, beta, scut, dcut, rho, literal_score)
    spec = _spec_from_flags(q, p1, 1, dedup, seed, node_limit, time_limit, cfg)
    try:
        opt, count = harness.run_phase_one(instance, spec, trace_path=trace_path)
    except HarnessError as exc:
        raise click.ClickException(str(exc)) from exc
    pool = count.pool
    proj = pool.projection_matrix()
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "instance": instance.name,
        "rule": cfg.rule.value,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "solCutoff": cfg.sol_cutoff,
        "depthCutoff": cfg.depth_cutoff,
        "q": q,
        "p1": _p1(p1),
        "seed": seed,
        "zStar": instance.reported_objective(opt.objective),
        "poolSize": len(pool),
        "exhausted": count.exhausted,
        "truncated": count.truncated,
        "nodesProcessed": count.nodes_processed,
        "dbinPool": dbin(proj) if len(pool) >= 2 and proj.shape[1] else 0.0,
        "objectives": [instance.reported_objective(v) for v in pool.objectives],
        "solutions": [[float(v) for v in row] for row in pool.solutions],
        "traceHash": count.trace_hash,
        "wallTimeMs": round(count.wall_time_s * 1000.0, 3) if timings else None,
    }
    _emit(doc, out)


@main.command()
@instance_opt
@pipeline_opts[0]
@pipeline_opts[1]
@click.option("--p", type=int, default=10, show_default=True, help="diverse subset size")
@click.option("--method", type=click.Choice(["greedy", "greedy_swap", "exact"]),
              default="greedy_swap", show_default=True, help="subset selection method")
@pipeline_opts[2]
@selector_opts[0]
@selector_opts[1]
@selector_opts[2]
@selector_opts[3]
@selector_opts[4]
@selector_opts[5]
@selector_opts[6]
@selector_opts[7]
@seed_opt
@limit_opts[0]
@limit_opts[1]
@trace_opt
@timings_opt
@out_opt
def diverse(instance_path, q, p1, p, method, dedup, rule, preset_name, alpha, beta, scut,
            dcut, rho, literal_score, seed, node_limit, time_limit, trace_path, timings, out):
    """Run the two-phase pipeline and report a diverse subset."""
    instance = _load(instance_path)
    cfg = _selector(rule, preset_name, alpha, beta, scut, dcut, rho, literal_score)
    spec = _spec_from_flags(q, p1, p, dedup, seed, node_limit, time_limit, cfg)
    spec.subset_method = method
    try:
        result = harness.run_two_phase(instance, spec, trace_path=trace_path)
    except HarnessError as exc:
        raise click.ClickException(str(exc)) from exc
    _emit(result.to_json_dict(include_timing=timings), out)


@main.command()
@instance_opt
@pipeline_opts[0]
@pipeline_opts[1]
@click.option("--p", type=int, default=10, show_default=True, help="diverse subset size")
@pipeline_opts[2]
@click.option("--rules", default=",".join(harness.DEFAULT_COMPARE_RULES), show_default=True,
              help="comma-separated rule names")
@click.option("--baseline", default="bestfs", show_default=True,
              help="rule the improvement column is measured against")
@selector_opts[2]
@selector_opts[3]
@selector_opts[4]
@selector_opts[5]
@selector_opts[6]
@selector_opts[7]
@seed_opt
@limit_opts[0]
@limit_opts[1]
@out_opt
def compare(instance_path, q, p1, p, dedup, rules, baseline, alpha, beta, scut, dcut,
            rho, literal_score, seed, node_limit, time_limit, out):
    """Run every rule on one instance and tabulate subset diversity."""
    instance = _load(instance_path)
    cfg = _selector(None, None, alpha, beta, scut, dcut, rho, literal_score)
    spec = _spec_from_flags(q, p1, p, dedup, seed, node_limit, time_limit, cfg)
    rule_list = [r.strip() for r in rules.split(",") if r.strip()]
    try:
        rows = harness.compare_selectors(instance, spec, rules=rule_list,
                                         baseline=baseline, csv_path=out)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if out:
        click.echo(f"wrote {out}")
        return
    header = f"{'rule':<14} {'dbinSubset':>10} {'improve%':>9} {'pool':>5} {'nodes':>7}  error"
    click.echo(header)
    for row in rows:
        dv = "-" if row["dbinSubset"] is None else f"{row['dbinSubset']:.4f}"
        imp = "-" if row["improvementPct"] is None else f"{row['improvementPct']:+.1f}"
        size = "-" if row["poolSize"] is None else str(row["poolSize"])
        nodes = "-" if row["nodesProcessed"] is None else str(row["nodesProcessed"])
        click.echo(f"{row['rule']:<14} {dv:>10} {imp:>9} {size:>5} {nodes:>7}  {row['error']}")


def _float_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad float list {text!r}") from exc
    if not values:
        raise click.UsageError(f"empty float list {text!r}")
    return values


@main.command()
@instance_opt
@click.option("--q", "q_list", multiple=True, type=float, default=(0.03,), show_default=True,
              help="near-optimality fraction (repeatable)")
@click.option("--p1", "p1_list", multiple=True, type=int, default=(100,), show_default=True,
              help="pool capacity (repeatable; 0 enumerates everything)")
@click.option("--p", type=int, default=10, show_default=True, help="diverse subset size")
@click.option("--rule", default="diversitree", show_default=True, help="rule swept by the grid")
@click.option("--alpha-grid", default="0,0.25,0.5,0.75,1", show_default=True)
@click.option("--beta-grid", default="0,0.25,0.5,0.75,1", show_default=True)
@click.option("--s-grid", default="0,0.25,0.5,0.75,1", show_default=True)
@seed_opt
@limit_opts[0]
@limit_opts[1]
@out_opt
def grid(instance_path, q_list, p1_list, p, rule, alpha_grid, beta_grid, s_grid, seed,
         node_limit, time_limit, out):
    """Sweep (q, p1, alpha, beta, s) and rank configs by subset diversity."""
    instance = _load(instance_path)
    rows = harness.grid_search(
        instance,
        q_list=[float(v) for v in q_list],
        p1_list=[_p1(v) for v in p1_list],
        alpha_grid=_float_list(alpha_grid),
        beta_grid=_float_list(beta_grid),
        s_grid=_float_list(s_grid),
        p=p,
        rule=rule,
        csv_path=out,
        node_limit=node_limit,
        time_limit=time_limit,
        seed=seed,
    )
    if out:
        click.echo(f"wrote {out} ({len(rows)} rows)")
        return
    click.echo(f"{'rank':>4} {'q':>5} {'p1':>5} {'alpha':>6} {'beta':>6} {'s':>5} "
               f"{'dbinSubset':>10}  error")
    for row in rows[:10]:
        dv = "-" if row["dbinSubset"] is None else f"{row['dbinSubset']:.4f}"
        p1v = "all" if row["p1"] is None else str(row["p1"])
        click.echo(f"{row['rank']:>4} {row['q']:>5} {p1v:>5} {row['alpha']:>6} "
                   f"{row['beta']:>6} {row['solCutoff']:>5} {dv:>10}  {row['error']}")


if __name__ == "__main__":
    main()
