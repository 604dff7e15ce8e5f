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
from dataclasses import replace

import click

from . import __version__, harness
from .engine import EngineError, check_limits
from .harness import ExperimentSpec, HarnessError, SCHEMA_VERSION
from .model import ModelError
from .mps import MpsParseError, parse_mps
from .selectors import PRESETS, Rule, SelectorConfig, preset as preset_config
from .subset import METHODS


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


def _options(*decorators):
    """One decorator applying ``decorators``; --help lists them in this order."""
    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn
    return apply


instance_opt = click.option("--instance", "instance_path", required=True,
                            type=click.Path(exists=True, dir_okay=False),
                            help="MPS instance file")
out_opt = click.option("--out", type=click.Path(dir_okay=False), default=None,
                       help="output file (default: stdout)")
trace_opt = click.option("--trace", "trace_path", type=click.Path(dir_okay=False),
                         default=None, help="write the node trace as JSON lines")
timings_opt = click.option("--timings", is_flag=True,
                           help="include wall-clock fields in the output")
p_opt = click.option("--p", type=int, default=10, show_default=True, help="diverse subset size")
dedup_opt = click.option("--dedup", type=click.BOOL, default=True, show_default=True,
                         help="drop repeated binary projections")
limit_opts = _options(
    click.option("--node-limit", type=int, default=None, help="stop after this many nodes"),
    click.option("--time-limit", type=float, default=None, help="stop after this many seconds"),
)
seed_limit_opts = _options(
    click.option("--seed", type=int, default=0, show_default=True,
                 help="run label recorded in the output"),
    limit_opts,
)
pool_opts = _options(
    click.option("--q", type=float, default=0.03, show_default=True,
                 help="near-optimality fraction"),
    click.option("--p1", type=int, default=100, show_default=True,
                 help="pool capacity; 0 enumerates everything"),
)
selector_opts = _options(
    click.option("--rule", default=None,
                 help=f"node-selection rule ({', '.join(rule.value for rule in Rule)})"),
    click.option("--preset", "preset_name",
                 type=click.Choice(sorted(PRESETS), case_sensitive=False), default=None,
                 help="named parameter set (implies the blended rule)"),
)
weight_opts = _options(
    click.option("--alpha", type=float, default=None, help="diversity weight"),
    click.option("--beta", type=float, default=None, help="depth weight"),
    click.option("--scut", "sol_cutoff", type=float, default=None,
                 help="fraction of p1 to collect before diversity scoring activates"),
    click.option("--dcut", "depth_cutoff", type=int, default=None,
                 help="depth to reach before diversity scoring activates"),
    click.option("--rho", type=float, default=None, help="classic-rule weight"),
    click.option("--literal-score", type=click.BOOL, default=False, show_default=True,
                 help="score with raw D and H instead of the bonus forms"),
    seed_limit_opts,
)
grid_default = ",".join(f"{v:g}" for v in harness.DEFAULT_GRID)  # "0,0.25,0.5,0.75,1"


def _spec(q, p1, dedup, seed, node_limit, time_limit, preset_name=None, p=1,
          method="greedy_swap", **selector):
    """The ExperimentSpec of a command's flags; a selector flag left unset keeps
    the preset's value, or else SelectorConfig's default."""
    try:
        base = preset_config(preset_name) if preset_name else SelectorConfig()
        cfg = replace(base, **{k: v for k, v in selector.items() if v not in (None, "")})
        return ExperimentSpec(q=q, p1=_p1(p1), p=p, selector=cfg, subset_method=method,
                              dedup=dedup, seed=seed, node_limit=node_limit,
                              time_limit=time_limit)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
@click.version_option(version=__version__)
def main():
    """Enumerate diverse near-optimal solutions of mixed-integer programs."""
    _configure_logging()


@main.command()
@instance_opt
@limit_opts
@timings_opt
@out_opt
def solve(instance_path, node_limit, time_limit, timings, out):
    """Find the optimal objective value."""
    try:
        check_limits(node_limit, time_limit)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    instance = _load(instance_path)
    try:
        res = harness.find_optimum(instance, node_limit=node_limit, time_limit=time_limit)
    except EngineError as exc:
        raise click.ClickException(str(exc)) from exc
    _emit({
        "schemaVersion": SCHEMA_VERSION,
        "instance": instance.name,
        "status": res.status,
        "zStar": None if res.objective is None else instance.reported_objective(res.objective),
        "nodesProcessed": res.nodes_processed,
        "x": None if res.x is None else [float(v) for v in res.x],
        "wallTimeMs": round(res.wall_time_s * 1000.0, 3) if timings else None,
    }, out)


@main.command("enumerate")
@instance_opt
@pool_opts
@dedup_opt
@selector_opts
@weight_opts
@trace_opt
@timings_opt
@out_opt
def enumerate_cmd(instance_path, trace_path, timings, out, **flags):
    """Enumerate the near-optimal pool (phase one only)."""
    instance = _load(instance_path)
    spec = _spec(**flags)
    try:
        opt, count = harness.run_phase_one(instance, spec, trace_path=trace_path)
    except HarnessError as exc:
        raise click.ClickException(str(exc)) from exc
    pool = count.pool
    _emit({
        "schemaVersion": SCHEMA_VERSION,
        "instance": instance.name,
        **harness.config_doc(spec),
        "zStar": instance.reported_objective(opt.objective),
        "poolSize": len(pool),
        "exhausted": count.exhausted,
        "truncated": count.truncated,
        "nodesProcessed": count.nodes_processed,
        "dbinPool": harness.pool_dbin(pool),
        "objectives": [instance.reported_objective(v) for v in pool.objectives],
        "solutions": [[float(v) for v in row] for row in pool.solutions],
        "traceHash": count.trace_hash,
        "wallTimeMs": round(count.wall_time_s * 1000.0, 3) if timings else None,
    }, out)


@main.command()
@instance_opt
@pool_opts
@p_opt
@click.option("--method", type=click.Choice(METHODS), default="greedy_swap",
              show_default=True, help="subset selection method")
@dedup_opt
@selector_opts
@weight_opts
@trace_opt
@timings_opt
@out_opt
def diverse(instance_path, trace_path, timings, out, **flags):
    """Run the two-phase pipeline and report a diverse subset."""
    instance = _load(instance_path)
    spec = _spec(**flags)
    try:
        result = harness.run_two_phase(instance, spec, trace_path=trace_path)
    except HarnessError as exc:
        raise click.ClickException(str(exc)) from exc
    _emit(result.to_json_dict(include_timing=timings), out)


@main.command()
@instance_opt
@pool_opts
@p_opt
@dedup_opt
@click.option("--rules", default=",".join(harness.DEFAULT_COMPARE_RULES), show_default=True,
              help="comma-separated rule names")
@click.option("--baseline", default="bestfs", show_default=True,
              help="rule the improvement column is measured against")
@weight_opts
@out_opt
def compare(instance_path, rules, baseline, out, **flags):
    """Run every rule on one instance and tabulate subset diversity."""
    instance = _load(instance_path)
    spec = _spec(**flags)
    rule_list = [r.strip() for r in rules.split(",") if r.strip()]
    try:
        rows = harness.compare_selectors(instance, spec, rules=rule_list,
                                         baseline=baseline, csv_path=out)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if out:
        click.echo(f"wrote {out}")
        return
    click.echo(f"{'rule':<14} {'dbinSubset':>10} {'improve%':>9} {'pool':>5} {'nodes':>7}  error")
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
@p_opt
@click.option("--rule", default="diversitree", show_default=True, help="rule swept by the grid")
@click.option("--alpha-grid", default=grid_default, show_default=True)
@click.option("--beta-grid", default=grid_default, show_default=True)
@click.option("--s-grid", default=grid_default, show_default=True)
@seed_limit_opts
@out_opt
def grid(instance_path, p1_list, alpha_grid, beta_grid, s_grid, out, **flags):
    """Sweep (q, p1, alpha, beta, s) and rank configs by subset diversity."""
    instance = _load(instance_path)
    try:
        rows = harness.grid_search(
            instance,
            p1_list=[_p1(v) for v in p1_list],
            alpha_grid=_float_list(alpha_grid),
            beta_grid=_float_list(beta_grid),
            s_grid=_float_list(s_grid),
            csv_path=out,
            **flags,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
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
